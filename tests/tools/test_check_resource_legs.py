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

    def test_hand_pushed_heap_entry_flagged(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            eid = env._eid
            env._eid = eid + 1
            heappush(env._queue, (env.now, NORMAL, eid, self))
            heapq.heappush( self.env._queue, entry)
            """)
        findings = lint.check_module(path)
        assert [lineno for lineno, _ in findings] == [1, 2, 3, 4]
        assert "heappush(env._queue" in findings[2][1]

    def test_event_borne_callbacks_flagged(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            self.rx.get().callbacks.append(self._on_msg)
            env.timeout(self._gap()).callbacks.append(self._fire)
            gen.env.timeout(gen.think_time).callbacks.append(self._thought)
            """)
        findings = lint.check_module(path)
        assert [lineno for lineno, _ in findings] == [1, 2, 3]
        assert "get_then" in findings[0][1]

    def test_callback_native_steps_not_flagged(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            self.rx.get_then(self._on_msg)
            env.defer(self._gap(), self._fire)
            self.waiter.callbacks.append(self._answered)
            heappush(self._waiters, entry)
            msg = yield self.rx.get()
            yield env.timeout(1.0)
            """)
        assert lint.check_module(path) == []

    def test_discarded_put_flagged(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            self.tx_doorbell.put(self)
            rings[0].put(entry)
            yield ring.put(item)
            return self.tx_ring.put(entry)
            put = ring.put(item)
            ring.try_put(item)
            self.put = self._traced_put
            """)
        findings = lint.check_module(path)
        assert [lineno for lineno, _ in findings] == [1, 2]
        assert "'self.tx_doorbell.put('" in findings[0][1]
        assert "try_put" in findings[0][1]

    def test_collector_control_flagged(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            gc.collect()
            gc.collect(0)
            gc.disable()
            if was: gc.enable()
            gc.freeze()
            enabled = gc.isenabled()
            self.gc.collect_stats()
            """)
        findings = lint.check_module(path)
        assert [lineno for lineno, _ in findings] == [1, 2, 3, 4, 5]
        assert "gc.freeze(" in findings[4][1]


def flagged(tmp_path):
    return sorted(os.path.relpath(path, str(tmp_path))
                  for path, _, _ in lint.check_tree(str(tmp_path)))


class TestTreeWalk:
    def test_sim_and_cpu_module_exempt(self, tmp_path):
        leg = "req = pool._res.request(0)\n"
        write(tmp_path, "sim/channel.py", leg)
        write(tmp_path, "hw/cpu.py", leg)
        write(tmp_path, "hw/gpu.py", leg)
        write(tmp_path, "lynx/sim.py", leg)
        assert flagged(tmp_path) == [os.path.join("hw", "gpu.py"),
                                     os.path.join("lynx", "sim.py")]

    def test_only_sim_may_drive_the_schedule(self, tmp_path):
        push = "heappush(env._queue, entry)\n"
        write(tmp_path, "sim/store.py", push)
        write(tmp_path, "hw/cpu.py", push)
        write(tmp_path, "lynx/runtime.py", push)
        assert flagged(tmp_path) == [os.path.join("hw", "cpu.py"),
                                     os.path.join("lynx", "runtime.py")]

    def test_only_sim_may_discard_a_put(self, tmp_path):
        put = "ring.put(item)\n"
        write(tmp_path, "sim/channel.py", put)
        write(tmp_path, "lynx/mqueue.py", put)
        assert flagged(tmp_path) == [os.path.join("lynx", "mqueue.py")]

    def test_only_sim_and_the_sweep_own_the_collector(self, tmp_path):
        pause = "gc.disable()\n"
        write(tmp_path, "sim/environment.py", pause)
        write(tmp_path, "experiments/sweep.py", pause)
        write(tmp_path, "experiments/e04.py", pause)
        write(tmp_path, "lynx/runtime.py", pause)
        assert flagged(tmp_path) == [os.path.join("experiments", "e04.py"),
                                     os.path.join("lynx", "runtime.py")]

    def test_main_exit_codes(self, tmp_path, capsys):
        write(tmp_path, "clean.py", "pool.run_then(1.0, done)\n")
        assert lint.main([str(tmp_path)]) == 0
        write(tmp_path, "dirty.py", "req = nic.tx.issue.request()\n")
        assert lint.main([str(tmp_path)]) == 1
        assert "dirty.py:1" in capsys.readouterr().out

    def test_repo_source_tree_is_clean(self):
        src = os.path.join(os.path.dirname(_TOOL), os.pardir, "src", "repro")
        assert lint.check_tree(src) == []
