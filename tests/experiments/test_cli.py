"""The command-line experiment runner."""

import pytest

from repro.experiments import testbed
from repro.experiments.__main__ import main
from repro.sim.trace import enabled_tracers


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E01" in out and "E15" in out

    def test_run_single_experiment(self, capsys):
        assert main(["E01"]) == 0
        out = capsys.readouterr().out
        assert "[E01]" in out
        assert "overhead" in out

    def test_unknown_id_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["E99"])

    def test_lowercase_ids_accepted(self, capsys):
        assert main(["e01"]) == 0
        assert "[E01]" in capsys.readouterr().out

    def test_seed_flag(self, capsys):
        assert main(["--seed", "7", "E01"]) == 0


class TestChannelFlags:
    def test_batching_flags_do_not_leak_config(self, capsys):
        assert main(["E01", "--batch-size", "4", "--poll-batch", "2",
                     "--backpressure"]) == 0
        assert "[E01]" in capsys.readouterr().out
        assert testbed.active_config() is None  # reset after the run

    def test_batch_size_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["E01", "--batch-size", "0"])

    def test_trace_channel_prints_and_clears(self, capsys):
        assert main(["E09", "--trace-channel", "wire",
                     "--trace-limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "trace[E09] channel~'wire'" in out
        assert "wire->" in out
        assert enabled_tracers() == []  # registry drained afterwards
        assert testbed.active_config() is None


class TestMetricsFlag:
    def test_bare_flag_pretty_prints_registry(self, capsys):
        assert main(["E01", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out
        assert "sim.kernel.events_processed" in out

    def test_path_writes_schema_tagged_json(self, capsys, tmp_path):
        from repro.telemetry import load_metrics

        path = tmp_path / "metrics.json"
        assert main(["E01", "--metrics", str(path)]) == 0
        assert "metrics written to" in capsys.readouterr().out
        metrics = load_metrics(str(path))
        assert metrics["sim.kernel.events_processed"]["value"] > 0
        kinds = {snap["kind"] for snap in metrics.values()}
        assert {"counter", "rate", "gauge", "peak"} <= kinds

    def test_run_scope_does_not_leak_into_root(self):
        from repro import telemetry

        root_before = len(telemetry.registry())
        assert main(["E01", "--metrics", "/dev/null"]) == 0
        assert len(telemetry.registry()) == root_before

    def test_kernel_stats_still_prints_via_shim(self, capsys):
        from repro.sim import active_backend

        assert main(["E01", "--kernel-stats"]) == 0
        out = capsys.readouterr().out
        # The heap header stays byte-identical to the pre-backend days;
        # non-default backends are tagged (e.g. under REPRO_SIM_BACKEND).
        backend = active_backend()
        header = ("simulator kernel:" if backend == "heap"
                  else "simulator kernel [%s backend]:" % backend)
        assert header in out
        assert "events processed" in out

    @pytest.mark.parametrize("exp", ["E05", "E12", "E17", "E18"])
    def test_kernel_stats_reports_events_per_request(self, capsys, exp):
        # Completions are counted where end-user responses resolve, so
        # every request plane reports them: the scalar client (E12) and
        # the population (E05, E17, E18), whether the server is Lynx, a
        # baseline or memcached.
        # E01 is a micro-benchmark with no data plane, so its
        # requests-completed is legitimately zero.
        assert main([exp, "--kernel-stats"]) == 0
        out = capsys.readouterr().out
        # An experiment that completes requests must report a non-zero
        # events-per-request figure (DESIGN.md §4.14): the whole frame
        # story is making this number drop.
        line = next(ln for ln in out.splitlines() if "events/request" in ln)
        assert float(line.split()[-1]) > 0
        line = next(ln for ln in out.splitlines()
                    if "requests completed" in ln)
        assert int(line.split()[-1].replace(",", "")) > 0


class TestCampaignSubcommand:
    def test_list(self, capsys):
        assert main(["campaign", "--list"]) == 0
        out = capsys.readouterr().out
        assert "ABL-CO" in out and "ABL-GC" in out

    def test_run_prints_tables_run_ids_and_importance(self, capsys):
        assert main(["campaign", "ABL-CO", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "[ABL-CO]" in out
        assert "(baseline)" in out
        assert "component importance" in out
        assert "coalescing" in out

    def test_out_writes_loadable_document(self, capsys, tmp_path):
        from repro.telemetry import load_campaign

        path = tmp_path / "campaign.json"
        assert main(["campaign", "ABL-CO", "--out", str(path)]) == 0
        assert "campaign document written to" in capsys.readouterr().out
        doc = load_campaign(str(path))
        (entry,) = doc["campaigns"]
        assert entry["exp_id"] == "ABL-CO"
        assert entry["importance"][0]["knob"] == "coalescing"
        assert doc["meta"]["seed"] == 42

    def test_lowercase_ids_accepted(self, capsys):
        assert main(["campaign", "abl-co"]) == 0
        assert "[ABL-CO]" in capsys.readouterr().out

    def test_unknown_id_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "ABL-NO-SUCH"])

    def test_fast_and_full_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "ABL-CO", "--fast", "--full"])

    def test_scope_does_not_leak_into_root(self):
        from repro import telemetry

        root_before = len(telemetry.registry())
        assert main(["campaign", "ABL-CO"]) == 0
        assert len(telemetry.registry()) == root_before
