"""Accelerator composition pipelines (§8 future work, implemented)."""

import pytest

from repro import Testbed, telemetry
from repro.apps.base import ServerApp, SpinApp
from repro.errors import ConfigError
from repro.lynx import PipelineStage
from repro.lynx.pipeline import start_pipeline
from repro.net import Address, ClosedLoopGenerator
from repro.net.packet import UDP

from .test_integration import host_pool_utilizations


class TagApp(ServerApp):
    """Appends a stage tag to the payload (composition is observable)."""

    name = "tag"
    gpu_duration = 10.0

    def __init__(self, tag):
        self.tag = tag

    def compute(self, payload):
        return bytes(payload) + self.tag


def build(n_stages, apps=None):
    tb = Testbed()
    env = tb.env
    host = tb.machine("10.0.0.1")
    gpus = [host.add_gpu() for _ in range(n_stages)]
    snic = tb.bluefield("10.0.0.100")
    runtime, server = tb.lynx_on_bluefield(snic)
    apps = apps or [TagApp(b"|%d" % i) for i in range(n_stages)]
    stages = [PipelineStage(gpus[i], apps[i])
              for i in range(n_stages)]
    proc = env.process(runtime.start_pipeline(stages, port=7000))
    env.run(until=30000)
    return tb, env, server, proc.value, Address("10.0.0.100", 7000)


class TestComposition:
    def test_empty_pipeline_rejected(self):
        tb = Testbed()
        snic = tb.bluefield("10.0.0.100")
        runtime, server = tb.lynx_on_bluefield(snic)

        def boom(env):
            yield from start_pipeline(runtime, [], port=7000)

        tb.env.process(boom(tb.env))
        with pytest.raises(ConfigError):
            tb.run()

    def test_single_stage_behaves_like_plain_service(self):
        tb, env, server, pipe, addr = build(1)
        client = tb.client("10.0.1.1")
        results = []

        def drive(env):
            response = yield from client.request(b"x", addr, proto=UDP)
            results.append(bytes(response.payload))

        env.process(drive(env))
        env.run(until=50000)
        assert results == [b"x|0"]
        assert pipe.depth == 1

    def test_stages_apply_in_order(self):
        tb, env, server, pipe, addr = build(3)
        client = tb.client("10.0.1.1")
        results = []

        def drive(env):
            for i in range(4):
                response = yield from client.request(b"r%d" % i, addr,
                                                     proto=UDP)
                results.append(bytes(response.payload))

        env.process(drive(env))
        env.run(until=200000)
        assert results == [b"r%d|0|1|2" % i for i in range(4)]
        assert pipe.relay_errors == 0

    def test_each_stage_runs_on_its_own_gpu(self):
        tb, env, server, pipe, addr = build(2)
        client = tb.client("10.0.1.1")
        ClosedLoopGenerator(env, client, addr, concurrency=2,
                            payload_fn=lambda i: b"x", proto=UDP)
        env.run(until=100000)
        for service in pipe.services:
            assert service.delivered > 10

    def test_latency_grows_with_depth(self):
        p50 = {}
        for depth in (1, 3):
            tb, env, server, pipe, addr = build(
                depth, apps=[SpinApp(30.0) for _ in range(depth)])
            client = tb.client("10.0.1.1")
            ClosedLoopGenerator(env, client, addr, concurrency=1,
                                payload_fn=lambda i: b"x", proto=UDP)
            tb.warmup_then_measure([client.latency], 20000, 60000)
            p50[depth] = client.latency.p50()
        # two extra stages: two extra kernels + two extra hairpin hops
        assert p50[3] > p50[1] + 2 * 30.0

    def test_host_cpu_still_idle(self):
        with telemetry.scope() as reg:
            tb, env, server, pipe, addr = build(2)
            host = tb.machines["10.0.0.1"]
            client = tb.client("10.0.1.1")
            gen = ClosedLoopGenerator(env, client, addr, concurrency=4,
                                      payload_fn=lambda i: b"x", proto=UDP)
            env.run(until=100000)
        assert gen.completed > 0
        assert server.workers.utilization > 0
        for name, utilization in host_pool_utilizations(reg, host).items():
            assert utilization == pytest.approx(0.0), name


class TestFailurePropagation:
    def test_stuck_stage_surfaces_as_error(self):
        """Kill the downstream stage's threadblocks: upstream gets a
        timeout error entry instead of hanging."""
        from dataclasses import replace

        from repro.config import DEFAULT_CONFIG

        config = DEFAULT_CONFIG.with_(
            lynx=replace(DEFAULT_CONFIG.lynx, backend_timeout=3000.0))
        tb = Testbed(config=config)
        env = tb.env
        host = tb.machine("10.0.0.1")
        gpus = [host.add_gpu() for _ in range(2)]
        snic = tb.bluefield("10.0.0.100")
        runtime, server = tb.lynx_on_bluefield(snic)
        stages = [PipelineStage(gpus[0], TagApp(b"|0")),
                  PipelineStage(gpus[1], TagApp(b"|1"))]
        proc = env.process(runtime.start_pipeline(stages, port=7000))
        env.run(until=30000)
        pipe = proc.value
        for tb_proc in pipe.services[1].threadblocks:
            tb_proc.interrupt("stage crash")
        env.run(until=env.now + 100)
        client = tb.client("10.0.1.1")
        gen = ClosedLoopGenerator(env, client, Address("10.0.0.100", 7000),
                                  concurrency=1, payload_fn=lambda i: b"x",
                                  proto=UDP, timeout=50000)
        env.run(until=env.now + 60000)
        assert pipe.relay_errors > 0
        assert gen.completed > 0  # upstream still answers (with errors)
