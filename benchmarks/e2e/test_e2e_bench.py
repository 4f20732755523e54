"""Unit tests of the end-to-end benchmark's folding and bookkeeping.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/e2e -q``; nothing
here runs an experiment.
"""

import json
import math
import os
import statistics

import pytest

import fold
import reference
import run

PKG = "/checkout/src/repro"
KERNEL = (PKG + "/sim/environment.py", 10, "run")
EVENTS = (PKG + "/sim/events.py", 20, "_resume")
WORKER = (PKG + "/apps/memcached.py", 30, "worker")
TOP = (PKG + "/experiments/e18_cluster.py", 40, "run")
SEND = ("~", 0, "<method 'send' of 'generator' objects>")
LEN = ("~", 0, "<built-in method builtins.len>")
HEAPQ = ("/usr/lib/python3.11/heapq.py", 50, "merge")
ORPHAN = ("/usr/lib/python3.11/atexit.py", 60, "hook")


def _entry(tt, callers, nc=1):
    # pstats layout: (cc, nc, tt, ct, callers); edges are (nc, cc, tt, ct)
    ct = tt + sum(edge[3] for edge in callers.values())
    return (nc, nc, tt, ct, callers)


def _stats():
    return {
        TOP: _entry(1.0, {}),
        KERNEL: _entry(4.0, {TOP: (1, 1, 4.0, 20.0)}),
        EVENTS: _entry(2.0, {KERNEL: (500, 500, 2.0, 8.0)}, nc=500),
        # generator resumed through a C method called by the kernel
        SEND: _entry(1.0, {EVENTS: (300, 300, 1.0, 5.0)}, nc=300),
        WORKER: _entry(3.0, {SEND: (300, 300, 3.0, 4.0)}, nc=300),
        # C time split 3:1 between the kernel and the worker
        LEN: _entry(2.0, {KERNEL: (90, 90, 1.5, 1.5),
                          WORKER: (10, 10, 0.5, 0.5)}, nc=100),
        # stdlib called only by the kernel
        HEAPQ: _entry(0.5, {KERNEL: (5, 5, 0.5, 1.5)}, nc=5),
        ORPHAN: _entry(0.25, {}),
    }


def _folded():
    return fold.fold_profile(_stats(), fold.file_layers(PKG))


def test_fold_profile_charges_outside_code_to_calling_layer():
    folded = _folded()
    assert folded["experiments"]["self_s"] == pytest.approx(1.0)
    # own 4 + 2 (events) + 1 (send) + 1.5 (len) + 0.5 (heapq)
    assert folded["sim.kernel"]["self_s"] == pytest.approx(9.0)
    # own 3 + its 0.5 share of len
    assert folded["apps"]["self_s"] == pytest.approx(3.5)
    assert folded["external"]["self_s"] == pytest.approx(0.25)
    total = sum(entry["self_s"] for entry in folded.values())
    assert total == pytest.approx(sum(e[2] for e in _stats().values()))


def test_fold_profile_transitive_caller_uses_cumulative_time():
    stats = _stats()
    # a C call made from heapq: heapq's only caller is the kernel
    inner = ("~", 0, "<built-in method _heapq.heappush>")
    stats[inner] = _entry(0.75, {HEAPQ: (5, 5, 0.75, 0.75)}, nc=5)
    folded = fold.fold_profile(stats, fold.file_layers(PKG))
    assert folded["sim.kernel"]["self_s"] == pytest.approx(9.75)


def test_fold_profile_counts_cross_layer_calls():
    folded = _folded()
    # resumed by the kernel through send(): 300 calls from another layer
    assert folded["apps"]["calls_in"] == pytest.approx(300)
    # kernel -> kernel calls do not count; the kernel's run() is called
    # once by the experiment layer
    assert folded["sim.kernel"]["calls_in"] == pytest.approx(1)
    # a first call with no recorded caller comes from outside
    assert folded["experiments"]["calls_in"] == pytest.approx(1)
    assert folded["external"]["calls_in"] == 0


def test_fold_profile_splits_mixed_outside_caller_by_cumulative_time():
    stats = _stats()
    helper = ("/usr/lib/python3.11/functools.py", 70, "wrapper")
    target = (PKG + "/lynx/rmq.py", 80, "sweep")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    # the helper carries 3 s of cumulative time for the kernel, 1 s for
    # the worker
    stats[helper] = _entry(0.0, {KERNEL: (4, 4, 0.0, 3.0),
                                 WORKER: (4, 4, 0.0, 1.0)}, nc=8)
    stats[target] = _entry(1.0, {helper: (8, 8, 1.0, 1.0)}, nc=8)
    stats[builtin] = _entry(2.0, {helper: (8, 8, 2.0, 2.0)}, nc=8)
    folded = fold.fold_profile(stats, fold.file_layers(PKG))
    assert folded["lynx"]["calls_in"] == pytest.approx(8)
    assert folded["lynx"]["self_s"] == pytest.approx(1.0)
    assert folded["sim.kernel"]["self_s"] == pytest.approx(9.0 + 1.5)
    assert folded["apps"]["self_s"] == pytest.approx(3.5 + 0.5)


def test_fold_profile_resolves_cycles_outside_repro():
    a = ("/usr/lib/python3.11/copy.py", 1, "a")
    b = ("/usr/lib/python3.11/copy.py", 2, "b")
    stats = {
        KERNEL: _entry(1.0, {}),
        a: _entry(1.0, {KERNEL: (1, 1, 0.5, 2.0), b: (1, 1, 0.5, 1.0)}),
        b: _entry(1.0, {a: (1, 1, 1.0, 1.5)}),
    }
    folded = fold.fold_profile(stats, fold.file_layers(PKG))
    assert folded["sim.kernel"]["self_s"] == pytest.approx(3.0)


@pytest.mark.parametrize("relpath, layer", [
    ("sim/environment.py", "sim.kernel"),
    ("sim/wheel.py", "sim.kernel"),
    ("sim/__init__.py", "sim.kernel"),
    ("sim/store.py", "sim.resources"),
    ("sim/channel.py", "sim.channel"),
    ("sim/stats.py", "telemetry"),
    ("sim/trace.py", "telemetry"),
    ("telemetry/registry.py", "telemetry"),
    ("net/arrivals.py", "net.clients"),
    ("net/population.py", "net.population"),
    ("net/rdma.py", "net.fabric"),
    ("net/cluster.py", "net.cluster"),
    ("hw/gpu.py", "hw"),
    ("lynx/server.py", "lynx"),
    ("baseline/host_centric.py", "baseline"),
    ("apps/lenet/model.py", "apps"),
    ("faults/injector.py", "faults"),
    ("experiments/e04_fig6_throughput_grid.py", "experiments"),
    ("config.py", "experiments"),
    ("errors.py", "experiments"),
    ("__init__.py", "external"),
    ("report/charts.py", "external"),
])
def test_layer_of_module(relpath, layer):
    assert fold.layer_of_module(relpath) == layer
    assert layer in fold.LAYERS


def test_file_layers_outside_package_is_none():
    layer_for = fold.file_layers(PKG)
    assert layer_for(PKG + "/lynx/rmq.py") == "lynx"
    assert layer_for("~") is None
    assert layer_for("/usr/lib/python3.11/heapq.py") is None
    assert layer_for(PKG + "2/lynx/rmq.py") is None


def _snapshot():
    def counter(value):
        return {"kind": "counter", "value": value}

    def rate(count):
        return {"kind": "rate", "count": count, "elapsed": 1.0}

    def gauge(area, elapsed):
        return {"kind": "gauge", "area": area, "elapsed": elapsed, "max": 1}

    return {
        "sim.kernel.events_processed": counter(1000),
        "sim.kernel.requests_completed": counter(0),
        "sim.kernel.processes_spawned": counter(7),
        "sim.kernel.heap_peak": {"kind": "peak", "value": 12},
        "sim.kernel.charges_created": counter(1),
        "sim.kernel.charges_reused": counter(3),
        "sim.kernel.events_per_request": {"kind": "ratio", "value": 0.0},
        "net.client.10.0.9.1.sent": rate(30),
        "net.client.10.0.9.1.responses": rate(20),
        "net.client.10.0.9.1.retries": counter(2),
        "net.client.10.0.9.1.latency": {"kind": "histogram", "count": 20},
        "net.population.10.0.0.200.offered": rate(40),
        "net.population.10.0.0.200.responses": rate(30),
        "net.population.10.0.0.200.timeouts": counter(5),
        "net.population.10.0.0.200.flow.kv.latency":
            {"kind": "histogram", "count": 30},
        "net.wire.10.0.0.1.delivered": counter(100),
        "net.wire.10.0.0.1.drops": counter(4),
        "net.fabric.tor0.up.delivered": counter(10),
        "net.fabric.tor0.down.drops": counter(1),
        "net.fabric.dropped_no_route": counter(2),
        "net.lb.10.0.0.100.steered": counter(50),
        "net.lb.10.0.0.100.unrouted": counter(3),
        "net.lb.10.0.0.100.to.10.0.0.10": counter(50),
        "hw.cpu.mc0.utilization": gauge(3.0, 4.0),
        "hw.cpu.mc1.utilization": gauge(1.0, 4.0),
        "hw.cpu.mc0.runq_depth": gauge(8.0, 4.0),
        "hw.nic.10.0.0.1.tx.util": gauge(1.0, 1.0),
        "gpu.host-10.0.0.1-gpu0.kernels": counter(9),
        "gpu.host-10.0.0.1-gpu0.occupancy": gauge(1.0, 2.0),
        "lynx.server.lynx@10.0.0.1.rx.requests": rate(60),
        "lynx.server.lynx@10.0.0.1.tx.responses": rate(55),
        "lynx.server.lynx@10.0.0.1.rx.drops": counter(1),
        "lynx.server.lynx@10.0.0.1.port.7777.rx.requests": rate(60),
        "lynx.server.lynx@10.0.0.1.port.7777.tx.responses": rate(55),
        "lynx.rmq.rmq-host-10.0.0.1-gpu0.deliveries": counter(30),
        "lynx.rmq.rmq-host-10.0.0.1-gpu0.sweeps": counter(10),
        "mqueue.host-10.0.0.1-gpu0-smq0-p7777.delivered": counter(11),
        "mqueue.host-10.0.0.1-gpu0-smq1-p7777.delivered": counter(12),
        "mqueue.host-10.0.0.1-gpu0-smq0-p7777.dropped": counter(6),
        "mqueue.host-10.0.0.1-gpu0-smq0-p7777.backpressure_waits":
            counter(2),
        "faults.injected.rack_failure": counter(1),
        "faults.recovered.rack_failure": counter(1),
    }


def test_fold_registry_by_prefix():
    values = fold.fold_registry(fold.registry_sums(_snapshot()), wall_s=2.0)
    assert list(values) == [name for name, _, _ in fold.COUNT_METRICS]
    assert values["sim.kernel.events"] == 1000
    assert values["sim.kernel.events_per_host_s"] == 500.0
    # measured responses (20 client + 30 population), not the counter
    assert values["sim.kernel.events_per_response"] == 20.0
    assert values["sim.kernel.requests_completed"] == 0
    assert values["sim.kernel.charge_reuse_ratio"] == 0.75
    assert values["net.clients.sent"] == 30
    assert values["net.clients.retries"] == 2
    assert values["net.population.goodput_ratio"] == 0.75
    assert values["net.fabric.delivered"] == 110
    assert values["net.fabric.drops"] == 7
    assert values["net.cluster.steered"] == 50
    assert values["net.cluster.unrouted"] == 3
    assert values["hw.cpu.utilization"] == 0.5
    assert values["hw.cpu.runq_depth"] == 2.0
    assert values["hw.gpu.kernels"] == 9
    # per-port instruments repeat the server totals and are left out
    assert values["lynx.rx_requests"] == 60
    assert values["lynx.tx_responses"] == 55
    assert values["lynx.rx_drops"] == 1
    assert values["lynx.mqueue.delivered"] == 23
    assert values["lynx.mqueue.dropped"] == 6
    assert values["lynx.mqueue.backpressure_waits"] == 2
    assert values["lynx.rmq.deliveries_per_sweep"] == 3.0
    assert values["faults.injected"] == 1
    assert values["faults.recovered"] == 1


def test_fold_registry_empty_planes_are_zero():
    values = fold.fold_registry(fold.registry_sums({}), wall_s=1.0)
    assert set(values.values()) == {0}


def test_failed_rows():
    rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": float("nan")}]
    same = json.loads(json.dumps(rows))
    assert fold.failed_rows(rows, same) == 0
    assert fold.failed_rows(rows, [rows[0], {"a": 2, "b": 0.0}]) == 1
    assert fold.failed_rows(rows, rows[:1]) == 1
    assert fold.failed_rows(rows, rows + rows) == 2
    points = [{"point": "E04/a", "value": 1.0}, {"point": "E04/b", "value": 2}]
    assert fold.misshapen_rows(points, [{"point": "E04/a", "value": 9},
                                        {"point": "E04/b", "value": None}]) == 0
    assert fold.misshapen_rows(points, [points[1], points[0]]) == 2
    assert fold.misshapen_rows(points, points[:1]) == 1


def _write_expected(tmp_path, workload, seed, rows):
    with open(os.path.join(str(tmp_path), "%s.seed%d.json"
                           % (workload, seed)), "w") as fh:
        json.dump({"rows": rows}, fh)


def test_check_rows_counts_ops_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "EXPECTED_DIR", str(tmp_path))
    rows = [{"point": "p%d" % i, "value": i} for i in range(3)]
    _write_expected(tmp_path, "gpu-saturation", 42, rows)
    bad = [rows[0], {"point": "p1", "value": 0}, rows[2]]
    good = {"rows": [rows, rows]}
    assert run.check_rows("gpu-saturation", 42, [good, good]) == (12, 0)
    assert run.check_rows("gpu-saturation", 42,
                          [good, {"rows": [rows, bad]}]) == (12, 1)
    # a repetition that raised fails every row it did not produce
    raised = {"rows": [rows], "error": "Traceback ..."}
    assert run.check_rows("gpu-saturation", 42, [good, raised]) == (12, 3)


def test_check_rows_without_expected_file(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "EXPECTED_DIR", str(tmp_path))
    _write_expected(tmp_path, "gpu-saturation", 42,
                    [{"point": "a", "value": 1}, {"point": "b", "value": 2}])
    first = [{"point": "a", "value": 5}, {"point": "b", "value": 6}]
    other = [{"point": "a", "value": 5}, {"point": "b", "value": 7}]
    misshapen = [{"point": "c", "value": 5}, {"point": "b", "value": 6}]
    # every repetition, across runs, must repeat the first
    assert run.check_rows("gpu-saturation", 3,
                          [{"rows": [first, first]}, {"rows": [first]}]) \
        == (6, 0)
    assert run.check_rows("gpu-saturation", 3,
                          [{"rows": [first]}, {"rows": [other]}]) == (4, 1)
    assert run.check_rows("gpu-saturation", 3,
                          [{"rows": [misshapen]}]) == (2, 1)


def _benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_match_name_regex():
    bench = _benchmark()
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in bench[key]] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert fold.METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64
    assert not fold.METRIC_NAME.fullmatch("sim kernel/self")


def test_benchmark_json_matches_runner():
    bench = _benchmark()
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert len(run.PER_LAYER) == 78
    assert bench["run_seconds"] == run.RUN_SECONDS
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])


def _nominal(*factors):
    return [f * reference.NOMINAL_S for f in factors]


def test_scaled_divides_by_the_surrounding_yardsticks():
    # the machine ran at half speed around the second repetition
    refs = _nominal(1.0, 1.0, 2.0, 2.0)
    assert run.scaled([3.0, 6.0, 8.0], refs) == pytest.approx([3.0, 4.0, 4.0])


def test_scaled_setup_divides_by_the_yardstick_after_the_imports():
    # the yardstick after the imports ran at a quarter speed
    record = {"setup_s": 0.6, "refs": _nominal(4.0)}
    assert run.scaled_setup(record) == pytest.approx(0.15)


def test_per_layer_values_cover_every_metric():
    record = {"sums": fold.registry_sums(_snapshot()), "times": [2.0, 4.0],
              "refs": _nominal(1.0, 2.0, 2.0)}
    trace = {"times": [7.0, 9.0], "refs": _nominal(1.0, 1.0, 1.0),
             "layers": _folded()}
    values = run.per_layer(record, trace, wall_s=2.0)
    assert sorted(values) == sorted(name for name, _, _ in run.PER_LAYER)
    shares = sum(values[layer + ".self_share"] for layer in fold.LAYERS)
    assert shares == pytest.approx(1.0)
    assert values["trace.overhead"] == pytest.approx(4.0)
    assert values["host.wall_s"] == 3.0
    assert values["host.reference_s"] == pytest.approx(2 * reference.NOMINAL_S)
    assert values["sim.kernel.self_s"] == pytest.approx(
        2.0 * values["sim.kernel.self_share"])
    # calls per traced repetition
    assert values["apps.calls_in"] == pytest.approx(150)


def test_end_to_end_uses_the_median_scaled_repetition():
    # the 8 s repetition ran while the machine was at a quarter speed
    record = {"times": [2.0, 8.0, 1.0, 2.5, 1.5],
              "refs": _nominal(1.0, 1.0, 7.0, 1.0, 1.0, 1.0),
              "sums": fold.registry_sums(_snapshot()), "peak_rss_mb": 50.0}
    values = run.end_to_end(record, setup_s=0.25)
    assert values["scaled_wall_s"] == pytest.approx(2.0)
    # 20 client + 30 population responses in one repetition
    assert values["scaled_responses_per_host_s"] == pytest.approx(25.0)
    assert values["setup_s"] == 0.25
    assert values["peak_rss_mb"] == 50.0


def test_workload_points_match_expected_rows():
    pytest.importorskip("repro")
    import importlib
    import workloads
    for w, module in workloads.WORKLOADS.items():
        points = workloads.points(w, importlib.import_module(module), 42)
        names = ["/".join(str(part) for part in p.key) for p in points]
        assert names == [row["point"] for row in run.load_expected(w, 42)]
        assert names == [row["point"] for row in run.load_expected(w, 7)]


def test_quartiles_follow_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    q1, med, q3 = run.quartiles(values)
    cuts = statistics.quantiles(values, n=4)
    assert (q1, med, q3) == (cuts[0], 3.0, cuts[2])
    assert run.quartiles([2.0]) == (2.0, 2.0, 2.0)


def _runs(start, step):
    return [start + step * i for i in range(10)]


@pytest.mark.parametrize("base, new, better, expected", [
    ([10.0, 10.1, 9.9], [10.05, 9.95, 10.0], "lower", "same"),
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", "worse"),
    (_runs(10.0, 0.01), _runs(8.0, 0.01), "lower", "better"),
    (_runs(10.0, 0.01), _runs(8.0, 0.01), "higher", "worse"),
    # a gain needs ten pairs
    ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "lower", "same"),
    # nine tenths of the pairs must be won
    (_runs(10.0, 0.01), _runs(9.0, 0.01)[:8] + [11.0, 11.0], "lower",
     "same"),
    # base spread wider than the bound: nothing can be said ...
    ([8.0, 10.0, 12.0], [9.5, 10.5, 11.5], "lower", "unresolved"),
    # ... unless every new run beats every base run
    (_runs(8.0, 0.5), _runs(5.0, 0.1), "lower", "better"),
    # an improvement within the base's own spread is no gain
    (_runs(9.5, 0.1), _runs(9.45, 0.1), "lower", "same"),
])
def test_verdict(base, new, better, expected):
    assert run.verdict(base, new, better, 0.1) == expected


def test_result_line_format():
    values = {"scaled_wall_s": 1.5, "setup_s": 0.25,
              "scaled_responses_per_host_s": 1e4, "peak_rss_mb": 50.0}
    line = json.loads(run.result_line(12, 0, values, run.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["metrics"]["scaled_wall_s"] == {"value": 1.5, "unit": "s"}
    assert not math.isnan(line["metrics"]["peak_rss_mb"]["value"])
