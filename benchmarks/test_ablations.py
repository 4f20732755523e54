"""Ablation benchmarks: design-choice studies beyond the paper's tables.

Each isolates one Lynx design decision (see
``repro/experiments/ablations.py``), checks the direction of its
effect and saves its rows as ``benchmarks/results/ABL-XX.json``.
"""

from repro.experiments import ablations


def test_ablation_gpu_centric(run_experiment):
    result = run_experiment(ablations.gpu_centric_comparison)
    lynx = result.find(design="lynx-on-xeon-6core")
    rows = [r for r in result.rows if r["design"].startswith("gpu-centric")]
    # every I/O threadblock carved out of the app costs throughput
    assert all(r["relative"] < 1.0 for r in rows)
    heaviest = min(rows, key=lambda r: r["app_threadblocks"])
    assert heaviest["relative"] < 0.75


def test_ablation_dispatch_policies(run_experiment):
    result = run_experiment(ablations.dispatch_policy_study)
    rr = result.find(policy="round-robin")
    ll = result.find(policy="least-loaded")
    # least-loaded cuts the tail created by the 10x requests
    assert ll["p99_us"] <= rr["p99_us"]
    assert ll["krps"] >= 0.9 * rr["krps"]


def test_ablation_coalescing(run_experiment):
    result = run_experiment(ablations.coalescing_study)
    on = result.find(coalescing="on")
    off = result.find(coalescing="off")
    assert off["rdma_ops_per_msg"] == on["rdma_ops_per_msg"] + 1
    assert on["p50_us"] < off["p50_us"]


def test_ablation_ring_size(run_experiment):
    result = run_experiment(ablations.ring_size_study)
    drops = {r["ring_entries"]: r["drop_rate"] for r in result.rows}
    p50 = {r["ring_entries"]: r["p50_us"] for r in result.rows}
    # bigger rings -> fewer drops but more queueing delay
    assert drops[4] > drops[256]
    assert p50[256] > p50[4]
    # small rings shed most of the 8x bursts at the ring
    assert 0.5 <= drops[4] <= 0.95
    goodput = {r["ring_entries"]: r["goodput_krps"] for r in result.rows}
    assert goodput[256] > goodput[4]


def test_ablation_sweep_interval(run_experiment):
    result = run_experiment(ablations.sweep_interval_study)
    fast_poll = result.find(sweep_interval_us=0.5)
    slow_poll = result.find(sweep_interval_us=16.0)
    # doorbell arming keeps latency flat across poll cadences...
    assert abs(fast_poll["p50_us"] - slow_poll["p50_us"])         <= 0.2 * fast_poll["p50_us"]
    # ...while longer intervals batch into far fewer sweeps
    assert slow_poll["sweeps"] < 0.75 * fast_poll["sweeps"]


def test_ablation_connection_scaling(run_experiment):
    result = run_experiment(ablations.connection_scaling_study)
    rows = result.rows
    # accelerator-side state never grows with the connection count
    assert all(r["accel_rings"] == rows[0]["accel_rings"] for r in rows)
    # throughput saturates; the largest population does not collapse
    assert rows[-1]["krps"] >= 0.85 * max(r["krps"] for r in rows)


def test_ablation_driver_contention(run_experiment):
    result = run_experiment(ablations.driver_contention_study)
    by_cores = {r["cores"]: r["krps"] for r in result.rows}
    # §6.1/§6.4: best at 1-2 cores, then the driver lock wins
    assert max(by_cores, key=by_cores.get) in (1, 2)
    assert by_cores[6] < by_cores[2]


def test_ablation_projected_innova(run_experiment):
    result = run_experiment(ablations.projected_innova_study)
    innova = result.rows[0]
    bluefield = result.rows[1]
    # the AFU serves rx+tx through one pipeline: full loop ~= half the
    # 7.4M pps rx-only rate, still many times the Bluefield
    assert 3.0 <= innova["mpps"] <= 4.0
    assert bluefield["vs_bluefield"] >= 4.0
