"""GPU device model: driver lock, SM slots, persistent kernels."""

import pytest

from repro.config import K40M, K80, XEON_E5_2620, GpuProfile
from repro.errors import AcceleratorError
from repro.hw.cpu import CorePool
from repro.hw.gpu import GPU, PCIE_LATENCY, CudaDriver
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def pool(env):
    return CorePool(env, XEON_E5_2620, count=1)


@pytest.fixture
def gpu(env):
    return GPU(env, K40M, CudaDriver(env))


class TestKernelLaunch:
    def test_launch_includes_driver_and_device_latency(self, env, pool, gpu):
        def proc(env):
            yield from gpu.launch_kernel(pool, 100.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        expected = (K40M.driver_op_cost + K40M.launch_latency + 100.0
                    + K40M.sync_latency)
        assert p.value == pytest.approx(expected)

    def test_driver_lock_serializes_cpu_parts(self, env, gpu):
        pool = CorePool(env, XEON_E5_2620, count=2)
        done = []

        def proc(env):
            yield from gpu.launch_kernel(pool, 50.0)
            done.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        # Kernels overlap on the GPU, but the two driver calls serialize.
        assert done[1] - done[0] >= K40M.driver_op_cost * 0.99

    def test_k80_runs_slower(self, env, pool):
        gpu = GPU(env, K80, CudaDriver(env))
        assert gpu.scaled(278.0) == pytest.approx(303.0, rel=0.01)

    def test_child_launch_cheaper_than_host_launch(self, env, pool, gpu):
        def child(env):
            yield from gpu.child_launch(10.0)
            return env.now

        p = env.process(child(env))
        env.run()
        assert p.value == pytest.approx(K40M.device_launch_latency + 10.0)


class TestMemcpy:
    def test_memcpy_has_fixed_cpu_cost_plus_dma(self, env, pool, gpu):
        def proc(env):
            yield from gpu.memcpy_async(pool, 4)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value >= K40M.memcpy_fixed
        assert p.value < K40M.memcpy_fixed + 2.0  # tiny payload

    def test_large_copy_pays_bandwidth(self, env, pool, gpu):
        def proc(env, nbytes):
            yield from gpu.dma_transfer(nbytes)
            return env.now

        p = env.process(proc(env, 10 * 1024 * 1024))
        env.run()
        # bandwidth time plus one fixed PCIe traversal
        assert p.value == pytest.approx(
            10 * 1024 * 1024 / K40M.copy_bandwidth + PCIE_LATENCY)


class TestSmSlots:
    def test_blocks_bounded_by_max_threadblocks(self, env):
        profile = GpuProfile(name="tiny", max_threadblocks=2)
        gpu = GPU(env, profile, CudaDriver(env))
        with pytest.raises(AcceleratorError):
            gpu.persistent_kernel(3, lambda tb: iter(()))

    def test_zero_threadblock_kernel_rejected(self, env, pool, gpu):
        def proc(env):
            yield from gpu.launch_kernel(pool, 1.0, threadblocks=0)

        env.process(proc(env))
        with pytest.raises(AcceleratorError):
            env.run()

    def test_persistent_blocks_occupy_slots(self, env, gpu):
        def body(tb):
            yield env.timeout(1000)

        gpu.persistent_kernel(10, body)
        env.run(until=5)
        assert gpu.sm_slots.in_use == 10

    def test_kernels_queue_when_sms_full(self, env, pool):
        profile = GpuProfile(name="tiny", max_threadblocks=1,
                             driver_op_cost=0.0, launch_latency=0.0,
                             sync_latency=0.0)
        gpu = GPU(env, profile, CudaDriver(env))
        ends = []

        def proc(env):
            yield from gpu.launch_kernel(pool, 10.0)
            ends.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert ends == [10.0, 20.0]


class TestPersistentKernel:
    def test_bodies_receive_their_index(self, env, gpu):
        seen = []

        def body(tb):
            seen.append(tb)
            yield env.timeout(1)

        gpu.persistent_kernel(4, body)
        env.run()
        assert sorted(seen) == [0, 1, 2, 3]
