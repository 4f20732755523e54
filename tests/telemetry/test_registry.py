"""Registry semantics: naming, snapshot/merge, scopes."""

import pytest

from repro import telemetry
from repro.telemetry import Counter, MetricsRegistry
from repro.telemetry.registry import _stack


class TestRegistration:
    def test_get_or_create_factories(self):
        reg = MetricsRegistry()
        c = reg.counter("sim.kernel.events")
        assert reg.counter("sim.kernel.events") is c  # idempotent
        assert reg.get("sim.kernel.events") is c
        assert "sim.kernel.events" in reg
        assert len(reg) == 1

    def test_register_replaces_latest_wins(self):
        reg = MetricsRegistry()
        old = reg.counter("x")
        new = Counter()
        reg.register("x", new)
        assert reg.get("x") is new and reg.get("x") is not old

    def test_names_filter_by_dotted_prefix(self):
        reg = MetricsRegistry()
        reg.counter("lynx.server.a.rx.drops")
        reg.counter("lynx.server.a.tx.sent")
        reg.counter("lynx.rmq.q.sweeps")
        assert reg.names("lynx.server.a") == ["lynx.server.a.rx.drops",
                                              "lynx.server.a.tx.sent"]
        # "lynx.serv" is not a dotted-path ancestor of lynx.server.*
        assert reg.names("lynx.serv") == []


class TestSnapshotMergeReset:
    def test_snapshot_preserves_registration_order(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(1)
        reg.counter("a").inc(2)
        assert list(reg.snapshot()) == ["b", "a"]

    def test_merge_into_live_instrument(self):
        src, dst = MetricsRegistry(), MetricsRegistry()
        src.counter("n").inc(5)
        dst.counter("n").inc(2)
        dst.merge(src.snapshot())
        assert dst.get("n").value == 7

    def test_merge_materializes_unknown_names(self):
        src, dst = MetricsRegistry(), MetricsRegistry()
        src.histogram("lat").record(3.0)
        dst.merge(src.snapshot())
        assert dst.get("lat").count == 1

    def test_merge_kind_clash_replaces(self):
        src, dst = MetricsRegistry(), MetricsRegistry()
        src.peak("m").record(9)
        dst.counter("m").inc(1)
        dst.merge(src.snapshot())
        assert dst.get("m").snapshot() == {"kind": "peak", "value": 9}

    def test_merge_is_associative_across_registries(self):
        snaps = []
        for n in (3, 5, 7):
            reg = MetricsRegistry()
            reg.counter("c").inc(n)
            reg.peak("p").record(n)
            snaps.append(reg.snapshot())
        one = MetricsRegistry()
        for snap in snaps:
            one.merge(snap)
        other = MetricsRegistry()
        for snap in reversed(snaps):
            other.merge(snap)
        assert one.snapshot() == other.snapshot()


class TestScopes:
    def test_scope_isolates_and_merges(self):
        with telemetry.scope() as outer:
            outer.counter("scoped.n").inc(2)
            with telemetry.scope() as reg:
                assert telemetry.registry() is reg
                assert "scoped.n" not in reg
                reg.counter("scoped.n").inc(5)
                snap = reg.snapshot()
            assert telemetry.registry() is outer
            outer.merge(snap)
            assert outer.get("scoped.n").value == 7

    def test_scope_exit_removes_leaked_pushes(self):
        depth = len(_stack)
        with telemetry.scope():
            telemetry.push_scope()  # a callee forgot to pop
            telemetry.push_scope()
        assert len(_stack) == depth

    def test_root_scope_cannot_be_popped(self):
        depth = len(_stack)
        with pytest.raises(RuntimeError):
            for _ in range(depth + 1):
                telemetry.pop_scope()

    def test_reset_scopes_clears_everything(self):
        telemetry.push_scope()
        telemetry.registry().counter("junk").inc()
        telemetry.reset_scopes()
        assert len(_stack) == 1
        assert "junk" not in telemetry.registry()

    def test_module_snapshot_helper_reads_current_scope(self):
        with telemetry.scope() as reg:
            reg.counter("helper.n").inc(2)
            snap = telemetry.snapshot("helper")
        assert snap == {"helper.n": {"kind": "counter", "value": 2}}


class TestRatioMerge:
    def test_worker_ratio_rederives_from_merged_operands(self):
        # A worker ships counters + a derived ratio; the parent merges
        # the counters additively and must recompute the ratio from its
        # own (merged) operands, not hold the worker's stale quotient.
        worker = MetricsRegistry()
        worker.counter("k.events").inc(60)
        worker.counter("k.requests").inc(10)
        worker.ratio("k.events_per_request", "k.events", "k.requests")

        parent = MetricsRegistry()
        parent.counter("k.events").inc(40)
        parent.counter("k.requests").inc(10)
        parent.merge(worker.snapshot())
        assert parent.get("k.events").value == 100
        assert parent.get("k.events_per_request").value == 5.0

    def test_ratio_without_operands_materializes_holder(self):
        parent = MetricsRegistry()
        parent.merge({"lone.ratio": {"kind": "ratio", "value": 4.2}})
        assert parent.get("lone.ratio").value == 4.2

    def test_ratio_is_get_or_create(self):
        reg = MetricsRegistry()
        first = reg.ratio("r", "n", "d")
        reg.counter("n").inc(8)
        reg.counter("d").inc(2)
        second = reg.ratio("r", "n", "d")
        assert first is second
        assert second.value == 4.0
