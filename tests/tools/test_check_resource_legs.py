"""The open-coded resource-leg lint (tools/check_resource_legs.py)."""

import importlib.util
import os
import textwrap

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                     "tools", "check_resource_legs.py")
_spec = importlib.util.spec_from_file_location("check_resource_legs", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def write(tmp_path, relpath, body):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body))
    return str(path)


class TestCheckModule:
    def test_pool_core_claim_flagged(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            def leg(pool):
                req = pool._res.request(0)
            """)
        findings = lint.check_module(path)
        assert [lineno for lineno, _ in findings] == [2]
        assert "._res.request(" in findings[0][1]

    def test_channel_issue_claim_flagged(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            req = nic.tx.issue.request()
            """)
        assert len(lint.check_module(path)) == 1

    def test_leg_helpers_not_flagged(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            pool.run_then(1.0, done)
            nic.tx.transfer_then(64, sent)
            streams.request()
            """)
        assert lint.check_module(path) == []

    def test_allow_marker_suppresses(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            held = pool._res.request(-9)  # lint: allow-resource-leg
            """)
        assert lint.check_module(path) == []


class TestTreeWalk:
    def test_sim_and_cpu_module_exempt(self, tmp_path):
        leg = "req = pool._res.request(0)\n"
        write(tmp_path, "sim/channel.py", leg)
        write(tmp_path, "hw/cpu.py", leg)
        write(tmp_path, "hw/gpu.py", leg)
        write(tmp_path, "lynx/sim.py", leg)
        found = sorted(os.path.relpath(p, str(tmp_path))
                       for p in lint.iter_sources(str(tmp_path)))
        assert found == [os.path.join("hw", "gpu.py"),
                         os.path.join("lynx", "sim.py")]

    def test_main_exit_codes(self, tmp_path, capsys):
        write(tmp_path, "clean.py", "pool.run_then(1.0, done)\n")
        assert lint.main([str(tmp_path)]) == 0
        write(tmp_path, "dirty.py", "req = nic.tx.issue.request()\n")
        assert lint.main([str(tmp_path)]) == 1
        assert "dirty.py:1" in capsys.readouterr().out

    def test_repo_source_tree_is_clean(self):
        src = os.path.join(os.path.dirname(_TOOL), os.pardir, "src", "repro")
        findings = []
        for path in lint.iter_sources(src):
            findings.extend(lint.check_module(path))
        assert findings == []
