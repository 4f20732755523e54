"""E17 — SLO frontier: sustainable throughput at a latency target.

An extension beyond the paper's tables, motivated by λ-NIC's
interactive-serverless framing (PAPERS.md): instead of latency curves
over fixed rate grids, report the *highest offered load whose p99 stays
under an SLO* — the number a capacity planner actually provisions to.
Each point drives a server design with the flyweight population plane
(``repro.net.population``: aggregate Poisson arrivals, Zipf keys,
struct-of-arrays in-flight tracking) and bisects offered λ with
:func:`repro.experiments.slo.find_sustainable_load`.

Workloads × designs:

* ``memcached`` — the §6.4/Fig 9 placement question restated as a
  frontier: the same ``MemcachedServer`` on two host Xeon cores
  (``host-centric``) vs on the Bluefield's ARM cores
  (``lynx-bluefield``).  The paper's numbers say Xeon sustains its
  ~250 Ktps/core at ~15us p99 while Bluefield's extra throughput only
  exists past a ~160us tail — so under a tight SLO the Xeon placement
  wins, which is exactly what the sustainable-rate column shows.
* ``lenet`` — the §6.3/Fig 8a GPU inference service behind the full
  Lynx stack vs the host-centric baseline: Lynx's sustainable rate at
  the SLO lands above the baseline's, mirroring the paper's 3.5 vs
  2.8 Kreq/s saturation gap.

Determinism: a whole bisection is one sweep point; every trial inside
it derives its seed from the point seed and trial index, all arrival
generation rides named numpy streams — so rows are bit-identical
across ``--jobs 1/N`` at a fixed seed (pinned by
``tests/experiments/test_e17_slo.py``).
"""

from ..apps.lenet import LeNetApp, MnistStream
from ..apps.memcached import MemcachedServer, encode_get, encode_set
from ..config import XEON_VMA
from ..errors import ConfigError
from ..net import Address, ClientPopulation, PayloadPool, PoissonPopulation
from .base import ExperimentResult
from .common import HOST_CENTRIC, LYNX_BLUEFIELD, deploy
from .slo import find_sustainable_load
from .sweep import Point, derive_seed, run_points
from .testbed import Testbed

WORKLOADS = ("memcached", "lenet")
DESIGNS = (HOST_CENTRIC, LYNX_BLUEFIELD)

#: p99 targets (us): memcached is an in-memory tier (tens of us);
#: LeNet tolerates queueing on top of its ~300us service time
SLO_US = {"memcached": 50.0, "lenet": 4000.0}
#: bisection brackets (requests/us) spanning each workload's knee
BRACKET = {"memcached": (0.05, 0.8), "lenet": (0.001, 0.005)}
#: request deadline per workload (us): bounds the in-flight table and
#: declares deeply-queued requests lost
TIMEOUT_US = {"memcached": 2000.0, "lenet": 20000.0}

#: per-workload (warmup_us, measure_us) windows: LeNet arrives ~100x
#: slower than memcached, so its windows must be ~100x longer to catch
#: a comparable sample count at the knee
WINDOWS_FAST = {"memcached": (10000.0, 30000.0),
                "lenet": (40000.0, 120000.0)}
WINDOWS_FULL = {"memcached": (20000.0, 80000.0),
                "lenet": (60000.0, 300000.0)}

MC_HOST_CORES = 2
MC_KEYS = 64
MC_VALUE_BYTES = 32
MC_ZIPF_SKEW = 0.99
LENET_IMAGES = 16
GOODPUT_FLOOR = 0.98


def _drive(pop, tb, warmup, measure):
    """Warmup/measure one population; the SLO driver's trial dict."""
    tb.warmup_then_measure([pop], warmup, measure)
    pop.flush()
    return {
        "p_tail_us": pop.percentile(99),
        "offered_per_sec": pop.offered_per_sec(),
        "delivered_per_sec": pop.delivered_per_sec(),
    }


def _memcached_trial(design, rate, seed, warmup, measure):
    """One memcached probe: GET traffic with Zipf-hot keys."""
    tb = Testbed(seed=seed)
    env = tb.env
    if design == HOST_CENTRIC:
        host = tb.machine("10.0.0.1")
        server = MemcachedServer(env, host.nic,
                                 host.pool(count=MC_HOST_CORES, name="mc"),
                                 XEON_VMA)
        address = Address("10.0.0.1", 11211)
    elif design == LYNX_BLUEFIELD:
        snic = tb.bluefield("10.0.0.100")
        server = MemcachedServer(env, snic.nic, snic.workers,
                                 snic.profile.stack)
        address = Address("10.0.0.100", 11211)
    else:
        raise ConfigError("unknown memcached placement %r" % (design,))
    for i in range(MC_KEYS):
        server.store.execute(encode_set(b"key-%d" % i, b"v" * MC_VALUE_BYTES))
    gets = [encode_get(b"key-%d" % i) for i in range(MC_KEYS)]
    pool = PayloadPool.zipf(gets, tb.rng.stream("population.keys"),
                            skew=MC_ZIPF_SKEW)
    source = PoissonPopulation(rate, tb.rng.stream("population"))
    pop = ClientPopulation(env, tb.network, "10.0.9.1", address,
                           source, pool, timeout=TIMEOUT_US["memcached"])
    return _drive(pop, tb, warmup, measure)


def _lenet_trial(design, rate, seed, warmup, measure):
    """One LeNet probe: MNIST tensors through the GPU service."""
    dep = deploy(design, app=LeNetApp(compute_for_real=False), n_mqueues=1,
                 seed=seed)
    tb = dep.tb
    mnist = MnistStream(seed=seed)
    images = [mnist.sample(i)[0] for i in range(LENET_IMAGES)]
    pool = PayloadPool.uniform(images, tb.rng.stream("population.keys"))
    source = PoissonPopulation(rate, tb.rng.stream("population"))
    pop = ClientPopulation(dep.env, tb.network, "10.0.9.1", dep.address,
                           source, pool, timeout=TIMEOUT_US["lenet"])
    return _drive(pop, tb, warmup, measure)


TRIALS = {"memcached": _memcached_trial, "lenet": _lenet_trial}


def measure_frontier(workload, design, seed, warmup, measure, iters):
    """One sweep point: the full bisection for (workload, design)."""
    trial_fn = TRIALS[workload]
    slo_us = SLO_US[workload]
    lo, hi = BRACKET[workload]

    def trial(rate, trial_seed):
        return trial_fn(design, rate, trial_seed, warmup, measure)

    found = find_sustainable_load(trial, lo, hi, slo_us,
                                  goodput_floor=GOODPUT_FLOOR, iters=iters,
                                  seed=seed)
    widened = False
    if found.bracket_saturated:
        # The whole bracket sustained: the knee lies above hi.  Widen
        # once — re-search [hi, 4*hi] — so the reported rate is a real
        # knee, not an artifact of a too-narrow bracket.
        widened = True
        found = find_sustainable_load(
            trial, hi, 4.0 * hi, slo_us, goodput_floor=GOODPUT_FLOOR,
            iters=iters, seed=derive_seed(seed, "slo-widen"))
    knee = found.knee
    return {
        "sustainable_per_sec": found.per_sec,
        "slo_us": slo_us,
        "p99_at_knee_us": knee.p_tail if knee is not None else None,
        "goodput_at_knee": knee.goodput_ratio if knee is not None else None,
        "bracket_saturated": found.bracket_saturated,
        "bracket_widened": widened,
        "trials": [t.as_dict() for t in found.trials],
    }


def sweep_points(fast=True, seed=42, measure=None, iters=None):
    """One point per (workload, design) — a point is a whole bisection.

    ``measure``, when given, overrides every workload's measure window
    (tests use tiny windows); the paired warmup scales down with it.
    """
    windows = WINDOWS_FAST if fast else WINDOWS_FULL
    if iters is None:
        iters = 5 if fast else 7
    points = []
    for workload in WORKLOADS:
        warmup, meas = windows[workload]
        if measure is not None:
            meas = measure
            warmup = min(warmup, measure / 2.0)
        for design in DESIGNS:
            points.append(Point(
                ("E17", workload, design), measure_frontier,
                dict(workload=workload, design=design, warmup=warmup,
                     measure=meas, iters=iters),
                root_seed=seed))
    return points


def run(fast=True, seed=42, measure=None, iters=None, jobs=None):
    """Run this experiment; see the module docstring for the context."""
    result = ExperimentResult(
        "E17", "SLO frontier: sustainable throughput at a p99 target",
        "extension (population traffic plane)")
    points = sweep_points(fast, seed, measure=measure, iters=iters)
    values = dict(zip((p.key for p in points), run_points(points, jobs=jobs)))
    for workload in WORKLOADS:
        for design in DESIGNS:
            v = values[("E17", workload, design)]
            knee_p99 = v["p99_at_knee_us"]
            goodput = v["goodput_at_knee"]
            result.add(workload=workload, design=design,
                       slo_p99_us=v["slo_us"],
                       sustainable_krps=round(
                           v["sustainable_per_sec"] / 1000.0, 2),
                       p99_at_knee_us=(round(knee_p99, 1)
                                       if knee_p99 is not None else None),
                       goodput_at_knee=(round(goodput, 3)
                                        if goodput is not None else None),
                       arrivals="poisson",
                       trials=len(v["trials"]))
    result.note("sustainable = highest offered rate with p99 <= SLO and "
                "delivered/offered >= %.2f (drop-tail RX rings keep p99 "
                "low past saturation; the goodput floor catches it)"
                % GOODPUT_FLOOR)
    result.note("driven by the flyweight population plane "
                "(repro.net.population): aggregate arrivals, Zipf keys, "
                "struct-of-arrays in-flight tracking; rows bit-identical "
                "across --jobs 1/N at a fixed seed")
    return result
