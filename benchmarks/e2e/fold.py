"""Pure folding functions of the end-to-end benchmark.

Three reductions, all applied to data the program already exposes:

* :func:`fold_profile` folds a ``cProfile`` stats table into per-layer
  self time and cross-layer call counts;
* :func:`fold_registry` folds a telemetry registry snapshot into the
  per-layer counts, by registry name pattern;
* :func:`failed_rows` compares result rows (one per sweep point) with
  the expected rows.

Nothing here imports ``repro``: the functions are unit-tested on
synthetic tables, and the runner calls them from outside the program.
"""

import json
import os
import re

#: the names BENCHMARK.json allows for metrics and workloads
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: the 15 layers of the simulator, in report order
LAYERS = (
    "sim.kernel", "sim.resources", "sim.channel",
    "net.clients", "net.population", "net.fabric", "net.cluster",
    "hw", "lynx", "baseline", "apps", "faults",
    "telemetry", "experiments", "external",
)

#: ``repro`` module (path without ``.py``, relative to the package) or
#: package -> layer; the most specific entry wins, the rest is external
_MODULE_LAYERS = {
    "sim/__init__": "sim.kernel",
    "sim/environment": "sim.kernel",
    "sim/events": "sim.kernel",
    "sim/rng": "sim.kernel",
    "sim/wheel": "sim.kernel",
    "sim/landing": "sim.kernel",
    "sim/batchexec": "sim.kernel",
    "sim/resources": "sim.resources",
    "sim/store": "sim.resources",
    "sim/channel": "sim.channel",
    "sim/stats": "telemetry",
    "sim/trace": "telemetry",
    "net/client": "net.clients",
    "net/arrivals": "net.clients",
    "net/population": "net.population",
    "net/__init__": "net.fabric",
    "net/network": "net.fabric",
    "net/stack": "net.fabric",
    "net/packet": "net.fabric",
    "net/rdma": "net.fabric",
    "net/cluster": "net.cluster",
    "hw": "hw",
    "lynx": "lynx",
    "baseline": "baseline",
    "apps": "apps",
    "faults": "faults",
    "telemetry": "telemetry",
    "experiments": "experiments",
    "config": "experiments",
    "units": "experiments",
    "errors": "experiments",
}


def layer_of_module(relpath):
    """Layer of a ``repro`` source file given relative to the package
    directory (``"sim/environment.py"``, ``"lynx/rmq.py"``)."""
    parts = os.path.splitext(relpath)[0].replace(os.sep, "/").split("/")
    for n in range(len(parts), 0, -1):
        layer = _MODULE_LAYERS.get("/".join(parts[:n]))
        if layer is not None:
            return layer
    return "external"


def file_layers(package_dir):
    """A ``filename -> layer or None`` function for profile entries:
    files under *package_dir* map by :func:`layer_of_module`; anything
    else (C functions, stdlib, numpy, the runner) is not ``repro`` code
    and maps to ``None``."""
    root = os.path.abspath(package_dir) + os.sep
    memo = {}

    def layer_for(filename):
        if filename not in memo:
            path = os.path.abspath(filename) if filename[:1] != "~" else ""
            memo[filename] = (layer_of_module(path[len(root):])
                              if path.startswith(root) else None)
        return memo[filename]

    return layer_for


# --------------------------------------------------------------------------
# profile folding
# --------------------------------------------------------------------------

def fold_profile(stats, layer_for):
    """Fold ``pstats``-style *stats* into ``{layer: {"self_s", "calls_in"}}``.

    *stats* maps ``(filename, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where *callers* maps each caller to its edge ``(nc, cc,
    tt, ct)`` (the layout ``cProfile.Profile.create_stats`` leaves in
    ``.stats``).  *layer_for* maps a filename to a layer, or ``None`` for
    code outside ``repro``.

    Self time of ``repro`` code goes to its layer.  Self time of other
    code (C, stdlib, numpy) is charged to the ``repro`` layer that called
    it, split over its caller edges by the edge's self time; a caller
    that is itself outside ``repro`` passes its share on to its own
    callers, by cumulative time (see :func:`_owners`).  ``calls_in``
    counts calls into ``repro`` functions of a layer whose caller
    resolves to another layer; a first call with no recorded caller
    comes from outside and counts too.
    """
    owners = _owners(stats, layer_for)
    folded = {layer: {"self_s": 0.0, "calls_in": 0.0} for layer in LAYERS}
    for func, (cc, nc, tt, ct, callers) in stats.items():
        layer = layer_for(func[0])
        if layer is not None:
            folded[layer]["self_s"] += tt
            if not callers:
                folded[layer]["calls_in"] += nc
            for caller, edge in callers.items():
                share = _resolve(caller, layer_for, owners).get(layer, 0.0)
                folded[layer]["calls_in"] += edge[0] * (1.0 - share)
            continue
        dist = {}
        for caller, weight in _edge_weights(callers, 2, func).items():
            _add_scaled(dist, _resolve(caller, layer_for, owners), weight)
        for name, share in _normalized(dist).items():
            folded[name]["self_s"] += tt * share
    return folded


def _owners(stats, layer_for):
    """Layer shares of every function outside ``repro``.

    A function's shares are its callers' shares, weighted by the
    cumulative time of each caller edge; a ``repro`` caller is wholly its
    layer and a function with no caller is ``external``.  Chains and
    cycles of outside code (the import machinery, say) make this a
    linear system, solved by sweeping to a fixed point.
    """
    outside = [f for f in stats if layer_for(f[0]) is None]
    weights = {f: _edge_weights(stats[f][4], 3, f) for f in outside}
    owners = {f: {} for f in outside}
    for _ in range(_MAX_SWEEPS):
        moved = 0.0
        for func in outside:
            dist = {} if weights[func] else {"external": 1.0}
            for caller, weight in weights[func].items():
                _add_scaled(dist, _resolve(caller, layer_for, owners), weight)
            old = owners[func]
            moved = max([moved] + [abs(dist.get(k, 0.0) - old.get(k, 0.0))
                                   for k in set(dist) | set(old)])
            owners[func] = dist
        if moved < 1e-12:
            break
    return {f: _normalized(dist) for f, dist in owners.items()}


#: fixed-point sweeps of :func:`_owners`; call chains outside ``repro``
#: are short, so this bound is only reached inside cycles
_MAX_SWEEPS = 200


def _resolve(func, layer_for, owners):
    """Layer shares of *func*: its own layer, or its owners' shares."""
    layer = layer_for(func[0])
    if layer is not None:
        return {layer: 1.0}
    return owners.get(func, {"external": 1.0})


def _edge_weights(callers, field, func):
    """Caller -> share of the edges, weighted by edge *field* (2 = self
    time, 3 = cumulative time), falling back to call counts when every
    edge timed zero.  *func*'s calls to itself are left out."""
    edges = {c: e for c, e in callers.items() if c != func}
    total = sum(e[field] for e in edges.values())
    if total <= 0:
        field = 0
        total = sum(e[0] for e in edges.values())
    if total <= 0:
        return {}
    return {c: e[field] / total for c, e in edges.items()}


def _add_scaled(into, dist, weight):
    for name, share in dist.items():
        into[name] = into.get(name, 0.0) + share * weight


def _normalized(dist):
    total = sum(dist.values())
    if total <= 0:
        return {"external": 1.0}
    return {name: share / total for name, share in dist.items()}


# --------------------------------------------------------------------------
# registry folding
# --------------------------------------------------------------------------

#: raw sums over registry names: key -> (name patterns, instrument field)
_SUMS = {
    "events": ([r"sim\.kernel\.events_processed"], None),
    "requests_completed": ([r"sim\.kernel\.requests_completed"], None),
    "processes_spawned": ([r"sim\.kernel\.processes_spawned"], None),
    "heap_peak": ([r"sim\.kernel\.heap_peak"], None),
    "charges_created": ([r"sim\.kernel\.charges_created"], None),
    "charges_reused": ([r"sim\.kernel\.charges_reused"], None),
    "client_sent": ([r"net\.client\..*\.sent"], None),
    "client_responses": ([r"net\.client\..*\.responses"], None),
    "client_retries": ([r"net\.client\..*\.retries"], None),
    "pop_offered": ([r"net\.population\..*\.offered"], None),
    "pop_responses": ([r"net\.population\..*\.responses"], None),
    "pop_timeouts": ([r"net\.population\..*\.timeouts"], None),
    "fabric_delivered": ([r"net\.wire\..*\.delivered",
                          r"net\.fabric\.tor.*\.delivered"], None),
    "fabric_drops": ([r"net\.wire\..*\.drops", r"net\.fabric\.tor.*\.drops",
                      r"net\.fabric\.dropped_.*"], None),
    "lb_steered": ([r"net\.lb\..*\.steered"], None),
    "lb_unrouted": ([r"net\.lb\..*\.unrouted"], None),
    "cpu_busy": ([r"hw\.cpu\..*\.utilization"], "area"),
    "cpu_time": ([r"hw\.cpu\..*\.utilization"], "elapsed"),
    "runq_area": ([r"hw\.cpu\..*\.runq_depth"], "area"),
    "runq_time": ([r"hw\.cpu\..*\.runq_depth"], "elapsed"),
    "gpu_kernels": ([r"gpu\..*\.kernels"], None),
    # per-port lynx.server.<srv>.port.<n>.* instruments repeat the
    # per-server totals, so they are left out
    "lynx_rx": ([r"lynx\.server\.(?!.*\.port\.).*\.rx\.requests"], None),
    "lynx_tx": ([r"lynx\.server\.(?!.*\.port\.).*\.tx\.responses"], None),
    "lynx_rx_drops": ([r"lynx\.server\.(?!.*\.port\.).*\.rx\.drops"], None),
    "mq_delivered": ([r"mqueue\..*\.delivered"], None),
    "mq_dropped": ([r"mqueue\..*\.dropped"], None),
    "mq_waits": ([r"mqueue\..*\.backpressure_waits"], None),
    "rmq_deliveries": ([r"lynx\.rmq\..*\.deliveries"], None),
    "rmq_sweeps": ([r"lynx\.rmq\..*\.sweeps"], None),
    "faults_injected": ([r"faults\.injected\..*"], None),
    "faults_recovered": ([r"faults\.recovered\..*"], None),
}

_SUM_PATTERNS = {key: re.compile("|".join("(?:%s)" % p for p in patterns))
                 for key, (patterns, _) in _SUMS.items()}

#: the per-layer registry metrics: (name, unit, better)
COUNT_METRICS = (
    ("sim.kernel.events", "count", "lower"),
    ("sim.kernel.events_per_host_s", "1/s", "higher"),
    ("sim.kernel.events_per_response", "events/response", "lower"),
    ("sim.kernel.requests_completed", "count", "higher"),
    ("sim.kernel.processes_spawned", "count", "lower"),
    ("sim.kernel.heap_peak", "count", "lower"),
    ("sim.kernel.charge_reuse_ratio", "ratio", "higher"),
    ("net.clients.sent", "count", "higher"),
    ("net.clients.responses", "count", "higher"),
    ("net.clients.retries", "count", "lower"),
    ("net.population.offered", "count", "higher"),
    ("net.population.responses", "count", "higher"),
    ("net.population.timeouts", "count", "lower"),
    ("net.population.goodput_ratio", "ratio", "higher"),
    ("net.fabric.delivered", "count", "higher"),
    ("net.fabric.drops", "count", "lower"),
    ("net.cluster.steered", "count", "higher"),
    ("net.cluster.unrouted", "count", "lower"),
    ("hw.cpu.utilization", "ratio", "higher"),
    ("hw.cpu.runq_depth", "tasks", "lower"),
    ("hw.gpu.kernels", "count", "higher"),
    ("lynx.rx_requests", "count", "higher"),
    ("lynx.tx_responses", "count", "higher"),
    ("lynx.rx_drops", "count", "lower"),
    ("lynx.mqueue.delivered", "count", "higher"),
    ("lynx.mqueue.dropped", "count", "lower"),
    ("lynx.mqueue.backpressure_waits", "count", "lower"),
    ("lynx.rmq.deliveries_per_sweep", "ratio", "higher"),
    ("faults.injected", "count", "lower"),
    ("faults.recovered", "count", "higher"),
)


def _field(snap, field):
    if field is not None:
        return snap[field]
    if snap["kind"] == "rate":
        return snap["count"]
    return snap["value"]


def registry_sums(snapshot):
    """Raw sums of the instruments the counts are made of, by key."""
    sums = dict.fromkeys(_SUMS, 0)
    for name, snap in snapshot.items():
        for key, pattern in _SUM_PATTERNS.items():
            if pattern.fullmatch(name):
                sums[key] += _field(snap, _SUMS[key][1])
    return sums


def responses(sums):
    """Measured-window responses: client plus population planes."""
    return sums["client_responses"] + sums["pop_responses"]


def _ratio(num, den):
    return num / den if den else 0.0


def fold_registry(sums, wall_s):
    """The :data:`COUNT_METRICS` values from :func:`registry_sums` and
    the untraced host time of the repetition they were summed over.

    ``events_per_response`` divides by measured responses, not by
    ``sim.kernel.requests_completed``, which only some planes count; the
    raw counter is reported beside it.
    """
    s = sums
    values = {
        "sim.kernel.events": s["events"],
        "sim.kernel.events_per_host_s": _ratio(s["events"], wall_s),
        "sim.kernel.events_per_response": _ratio(s["events"], responses(s)),
        "sim.kernel.requests_completed": s["requests_completed"],
        "sim.kernel.processes_spawned": s["processes_spawned"],
        "sim.kernel.heap_peak": s["heap_peak"],
        "sim.kernel.charge_reuse_ratio": _ratio(
            s["charges_reused"], s["charges_created"] + s["charges_reused"]),
        "net.clients.sent": s["client_sent"],
        "net.clients.responses": s["client_responses"],
        "net.clients.retries": s["client_retries"],
        "net.population.offered": s["pop_offered"],
        "net.population.responses": s["pop_responses"],
        "net.population.timeouts": s["pop_timeouts"],
        "net.population.goodput_ratio": _ratio(s["pop_responses"],
                                               s["pop_offered"]),
        "net.fabric.delivered": s["fabric_delivered"],
        "net.fabric.drops": s["fabric_drops"],
        "net.cluster.steered": s["lb_steered"],
        "net.cluster.unrouted": s["lb_unrouted"],
        "hw.cpu.utilization": _ratio(s["cpu_busy"], s["cpu_time"]),
        "hw.cpu.runq_depth": _ratio(s["runq_area"], s["runq_time"]),
        "hw.gpu.kernels": s["gpu_kernels"],
        "lynx.rx_requests": s["lynx_rx"],
        "lynx.tx_responses": s["lynx_tx"],
        "lynx.rx_drops": s["lynx_rx_drops"],
        "lynx.mqueue.delivered": s["mq_delivered"],
        "lynx.mqueue.dropped": s["mq_dropped"],
        "lynx.mqueue.backpressure_waits": s["mq_waits"],
        "lynx.rmq.deliveries_per_sweep": _ratio(s["rmq_deliveries"],
                                                s["rmq_sweeps"]),
        "faults.injected": s["faults_injected"],
        "faults.recovered": s["faults_recovered"],
    }
    return {name: values[name] for name, _, _ in COUNT_METRICS}


# --------------------------------------------------------------------------
# row comparison
# --------------------------------------------------------------------------

def _canonical(row):
    # NaN != NaN, so rows compare by their JSON text
    return json.dumps(row, sort_keys=True)


def failed_rows(expected, actual):
    """Rows of *actual* that differ from *expected*, compared by index;
    a missing or extra row counts as failed."""
    failed = abs(len(expected) - len(actual))
    for want, got in zip(expected, actual):
        if _canonical(want) != _canonical(got):
            failed += 1
    return failed


def misshapen_rows(reference, actual):
    """Rows whose sweep point differs from the *reference* rows' (for a
    seed with no expected file); a missing or extra row counts."""
    failed = abs(len(reference) - len(actual))
    for want, got in zip(reference, actual):
        if want["point"] != got["point"]:
            failed += 1
    return failed
