"""The four workloads: which simulations one repetition runs.

A repetition is a fixed list of sweep points of one experiment, taken
from the experiment's own declaration (its public ``sweep_points`` or
campaign grid) with the measurement windows shortened so that one
repetition takes 1-3 s of host time.  A measured run repeats it for its
whole time budget and reports the median, so a burst of load from
another tenant of the host slows a few repetitions, not the result.

Nothing here imports ``repro`` at module level: the runner reads
:data:`WORKLOADS` without loading the program, and the measured
interpreter imports the experiment module itself, inside its set-up
time.
"""

#: workload -> experiment module; why each one is here is in README.md
WORKLOADS = {
    "gpu-saturation": "repro.experiments.e04_fig6_throughput_grid",
    "kv-closed-loop": "repro.experiments.e12_fig9_memcached",
    "kv-slo-open-loop": "repro.experiments.e17_slo_frontier",
    "cluster-failover": "repro.experiments.e18_cluster",
}


def points(workload, module, seed):
    """The sweep points of one repetition of *workload*, seeded from
    *seed* the way the experiment's ``run()`` seeds them."""
    return _POINTS[workload](module, seed)


def _gpu_saturation(e04, seed):
    # the whole fast grid: four designs, 1 and 240 mqueues
    return e04.sweep_points(fast=True, seed=seed, measure=2000.0,
                            warmup=1000.0)


def _kv_closed_loop(e12, seed):
    # placement B: memcached on five host cores and on the Bluefield,
    # LeNet behind Lynx on the sixth core; the warm-up is fixed at 30 ms
    return [p for p in e12.sweep_points(fast=True, seed=seed, measure=5000.0)
            if p.key == ("E12", "B", "throughput")]


def _kv_slo_open_loop(e17, seed):
    # memcached and LeNet on host and Bluefield, three bisection steps
    return e17.sweep_points(fast=True, seed=seed, measure=6000.0, iters=3)


def _cluster_failover(e18, seed):
    # the campaign's six variants, keyed and seeded as its run() does
    from repro.experiments.sweep import Point
    campaign = e18.CAMPAIGN
    out = []
    for variant in campaign.variants(fast=True):
        kwargs = campaign.scenario_kwargs(True, variant)
        kwargs.update(warmup=1500.0, measure=5000.0)
        out.append(Point((campaign.exp_id, variant.token),
                         e18.cluster_scenario, kwargs, root_seed=seed))
    return out


_POINTS = {
    "gpu-saturation": _gpu_saturation,
    "kv-closed-loop": _kv_closed_loop,
    "kv-slo-open-loop": _kv_slo_open_loop,
    "cluster-failover": _cluster_failover,
}
