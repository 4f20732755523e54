"""Command-line experiment runner.

Usage::

    python -m repro.experiments                 # run everything (fast)
    python -m repro.experiments E09 E11         # a subset
    python -m repro.experiments --full E04      # full figure axes
    python -m repro.experiments --list
    python -m repro.experiments --extras        # breakdown + ablations
    python -m repro.experiments campaign --fast # declarative ablations
                                                # + importance table
"""

import argparse
import sys
import time
from dataclasses import replace

from . import REGISTRY
from . import ablations, breakdown, sweep
from . import testbed as testbed_mod
from .. import telemetry
from ..config import DEFAULT_CONFIG
from ..sim import active_backend, configure_backend, kernel_totals, \
    reset_kernel_totals
from ..sim.environment import BACKENDS
from ..sim import trace as trace_mod
from ..telemetry.export import format_kernel_stats


def _print_trace(exp_id, needle, limit):
    """Print (bounded) trace rows whose channel name contains *needle*."""
    rows = []
    dropped = 0
    for tracer in trace_mod.enabled_tracers():
        rows.extend(tracer.filter(contains=needle))
        dropped += tracer.dropped
    rows.sort(key=lambda rec: rec[0])
    shown = rows if limit <= 0 else rows[:limit]
    print("trace[%s] channel~%r: %d records" % (exp_id, needle, len(rows)))
    for when, channel, event, msg_id, detail in shown:
        print("  %12.3f  %-24s %-10s %-8s %s"
              % (when, channel, event,
                 "-" if msg_id is None else msg_id,
                 "" if detail is None else detail))
    if len(rows) > len(shown):
        print("  ... %d more (raise --trace-limit)" % (len(rows) - len(shown)))
    if dropped:
        print("  ... %d records dropped by the tracer ring limit" % dropped)
    print()


def campaign_main(argv):
    """The ``campaign`` subcommand: declarative ablation campaigns.

    Runs the requested campaigns (default: the full ablation suite),
    prints each study's classic table plus the ranked per-component
    importance table, and optionally writes the ``repro.campaign/1``
    JSON document for the report scorecard.
    """
    from ..report.scorecard import render_importance
    from .campaign import CAMPAIGNS

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments campaign",
        description="Run declarative ablation campaigns and rank "
                    "per-component importance (DESIGN.md §4.12).")
    parser.add_argument("campaigns", nargs="*", metavar="ID",
                        help="campaign ids (default: the whole ablation "
                             "suite; use --list to see them)")
    parser.add_argument("--fast", action="store_true",
                        help="trimmed grids and measurement windows "
                             "(the default; kept explicit for scripts)")
    parser.add_argument("--full", action="store_true",
                        help="run the full grids instead of the trimmed "
                             "fast ones")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan grid points across N worker processes "
                             "(bit-identical to a serial run)")
    parser.add_argument("--pairwise", action="store_true",
                        help="also run two-knob-off interaction points "
                             "(multi-knob campaigns only)")
    parser.add_argument("--sim-backend", choices=BACKENDS, default=None,
                        metavar="{heap,wheel}",
                        help="event-scheduler backend (rows and "
                             "importance are bit-identical across "
                             "backends)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the %s JSON document (rows, run ids, "
                             "importance) for the report scorecard"
                             % telemetry.CAMPAIGN_SCHEMA)
    parser.add_argument("--list", action="store_true",
                        help="list campaign ids and exit")
    args = parser.parse_args(argv)

    if args.list:
        for exp_id, camp in CAMPAIGNS.items():
            print("%s  %s" % (exp_id, camp.title))
        return 0
    jobs = args.jobs
    if jobs is not None and jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.fast and args.full:
        parser.error("--fast and --full are mutually exclusive")
    wanted = ([c.upper() for c in args.campaigns]
              or [c.exp_id for c in ablations.ALL_STUDIES])
    unknown = [c for c in wanted if c not in CAMPAIGNS]
    if unknown:
        parser.error("unknown campaign id(s): %s (use --list)"
                     % ", ".join(unknown))

    telemetry.push_scope()
    if args.sim_backend is not None:
        configure_backend(args.sim_backend)
    sweep.configure(jobs)
    docs = []
    try:
        for exp_id in wanted:
            start = time.time()
            with telemetry.scope() as reg:
                outcome = CAMPAIGNS[exp_id].run(
                    fast=not args.full, seed=args.seed, jobs=jobs,
                    pairwise=True if args.pairwise else None)
                snap = reg.snapshot()
            telemetry.registry().merge(snap)
            outcome.result.attach_metrics(snap)
            docs.append(outcome.to_doc())
            print(outcome.result.render())
            for variant in outcome.variants:
                print("run %s  %s%s" % (variant.run_id, variant.token,
                                        "  (baseline)"
                                        if variant.is_baseline else ""))
            print("(%.1fs)\n" % (time.time() - start))
        print(render_importance(docs))
        if args.out:
            telemetry.dump_campaign(
                docs, args.out,
                meta={"seed": args.seed, "fast": not args.full,
                      "sim_backend": active_backend()})
            print("\ncampaign document written to %s" % args.out)
    finally:
        sweep.configure(None)
        if args.sim_backend is not None:
            configure_backend(None)
        telemetry.pop_scope()
    return 0


def slo_main(argv):
    """The ``slo`` subcommand: one sustainable-load bisection.

    Bisects offered λ for a (workload, design) pair under any arrival
    shape the population plane speaks — including recorded traces via
    ``--arrivals trace:<path>`` — and prints every probe plus the knee.
    """
    from . import e17_slo_frontier as e17

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments slo",
        description="Bisect offered load to the highest rate whose p99 "
                    "meets an SLO (the E17 search, single point, "
                    "DESIGN.md §4.13).")
    parser.add_argument("--workload", choices=e17.WORKLOADS,
                        default="memcached")
    parser.add_argument("--design", choices=e17.DESIGNS,
                        default="lynx-bluefield")
    parser.add_argument("--arrivals", default="poisson", metavar="SPEC",
                        help="arrival shape: poisson | onoff[:on_us,off_us] "
                             "| diurnal[:period_us] | bmodel[:b,levels] "
                             "| trace:<path> "
                             "(.npy or CSV timestamps; the trace's shape "
                             "is rescaled to each probed rate)")
    parser.add_argument("--slo-us", type=float, default=None, metavar="US",
                        help="p99 target (default: the workload's E17 "
                             "target)")
    parser.add_argument("--lo", type=float, default=None, metavar="RATE",
                        help="bracket low end, requests/us")
    parser.add_argument("--hi", type=float, default=None, metavar="RATE",
                        help="bracket high end, requests/us")
    parser.add_argument("--iters", type=int, default=7, metavar="N",
                        help="bisection probes after the bracket ends "
                             "(default 7)")
    parser.add_argument("--measure", type=float, default=None, metavar="US",
                        help="measure window per probe (default: the "
                             "workload's full-preset window)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--sim-backend", choices=BACKENDS, default=None,
                        metavar="{heap,wheel}",
                        help="event-scheduler backend (the knee is "
                             "bit-identical across backends)")
    args = parser.parse_args(argv)
    if args.iters < 1:
        parser.error("--iters must be >= 1")

    warmup, measure = e17.WINDOWS_FULL[args.workload]
    if args.measure is not None:
        measure = args.measure
        warmup = min(warmup, measure / 2.0)
    telemetry.push_scope()
    if args.sim_backend is not None:
        configure_backend(args.sim_backend)
    try:
        start = time.time()
        outcome = e17.measure_frontier(
            args.workload, args.design, args.seed, warmup, measure,
            args.iters, arrivals=args.arrivals, slo_us=args.slo_us,
            lo=args.lo, hi=args.hi)
        print("SLO frontier: %s on %s, arrivals=%s, p99 <= %gus"
              % (args.workload, args.design, args.arrivals,
                 outcome["slo_us"]))
        print("%10s  %10s  %11s  %8s  %8s  %s"
              % ("rate/us", "offered/s", "delivered/s", "p99 us",
                 "goodput", "ok"))
        for t in outcome["trials"]:
            print("%10.4f  %10.0f  %11.0f  %8.1f  %8.3f  %s"
                  % (t["rate_per_us"], t["offered_per_sec"],
                     t["delivered_per_sec"], t["p_tail_us"],
                     t["goodput_ratio"], "yes" if t["ok"] else "NO"))
        if outcome["sustainable_per_sec"] > 0:
            print("sustainable: %.0f req/s (p99 %.1fus at the knee, "
                  "goodput %.3f)"
                  % (outcome["sustainable_per_sec"],
                     outcome["p99_at_knee_us"], outcome["goodput_at_knee"]))
        else:
            print("no sustainable rate in the bracket (lower --lo or "
                  "relax --slo-us)")
        print("(%.1fs)" % (time.time() - start))
    finally:
        if args.sim_backend is not None:
            configure_backend(None)
        telemetry.pop_scope()
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])
    if argv and argv[0] == "slo":
        return slo_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the Lynx (ASPLOS'20) evaluation.")
    parser.add_argument("experiments", nargs="*", metavar="EXX",
                        help="experiment ids (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="run the full figure axes instead of the "
                             "trimmed fast sweeps")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--extras", action="store_true",
                        help="also run the latency breakdown and the "
                             "design-choice ablations")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan sweep points across N worker processes "
                             "(default: $REPRO_JOBS or 1; results are "
                             "bit-identical to a serial run)")
    parser.add_argument("--sim-backend", choices=BACKENDS, default=None,
                        metavar="{heap,wheel}",
                        help="event-scheduler backend: 'heap' (binary "
                             "heap, the default and determinism oracle) "
                             "or 'wheel' (calendar queue + vectorized "
                             "Channel landings); the rows are "
                             "bit-identical either way.  Default: "
                             "$REPRO_SIM_BACKEND or heap")
    parser.add_argument("--kernel-stats", action="store_true",
                        help="after the runs, print the simulator kernel's "
                             "own throughput counters (events processed, "
                             "spawns, heap peak, events/sec)")
    parser.add_argument("--metrics", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="after the runs, dump the merged telemetry "
                             "registry: bare --metrics pretty-prints it, "
                             "--metrics PATH writes the JSON snapshot "
                             "(schema %s) for report tooling"
                             % telemetry.SCHEMA)
    parser.add_argument("--batch-size", type=int, default=None, metavar="N",
                        help="coalesce up to N ingress deliveries into one "
                             "RDMA doorbell (LynxProfile.batch_size, §5.2)")
    parser.add_argument("--poll-batch", type=int, default=None, metavar="N",
                        help="fetch at most N TX entries per mqueue per "
                             "egress sweep (0 = drain all)")
    parser.add_argument("--backpressure", action="store_true",
                        help="park deliveries on RX-ring credits instead of "
                             "dropping when a ring is full")
    parser.add_argument("--trace-channel", metavar="NAME",
                        help="enable tracing and, after each run, print the "
                             "records of channels whose name contains NAME")
    parser.add_argument("--trace-limit", type=int, default=40, metavar="ROWS",
                        help="max trace rows printed per run "
                             "(with --trace-channel; default 40)")
    args = parser.parse_args(argv)

    overrides = {}
    lynx_fields = {}
    if args.batch_size is not None:
        if args.batch_size < 1:
            parser.error("--batch-size must be >= 1")
        lynx_fields["batch_size"] = args.batch_size
    if args.poll_batch is not None:
        if args.poll_batch < 0:
            parser.error("--poll-batch must be >= 0")
        lynx_fields["poll_batch"] = args.poll_batch
    if args.backpressure:
        lynx_fields["backpressure"] = True
    if lynx_fields:
        overrides["lynx"] = replace(DEFAULT_CONFIG.lynx, **lynx_fields)
    if args.trace_channel:
        overrides["trace"] = True

    jobs = args.jobs
    if jobs is not None and jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.trace_channel and (jobs or sweep.active_jobs()) > 1:
        # Tracers live in the worker processes; their records would be
        # lost.  Tracing implies a serial run.
        print("note: --trace-channel forces --jobs 1 "
              "(traces live in worker processes)", file=sys.stderr)
        jobs = 1

    if args.list:
        for exp_id in sorted(REGISTRY):
            module = REGISTRY[exp_id]
            title = (module.__doc__ or "").strip().splitlines()[0]
            print("%s  %s" % (exp_id, title))
        return 0

    wanted = [e.upper() for e in args.experiments] or sorted(REGISTRY)
    unknown = [e for e in wanted if e not in REGISTRY]
    if unknown:
        parser.error("unknown experiment id(s): %s (use --list)"
                     % ", ".join(unknown))

    # The whole invocation runs inside its own telemetry scope, so the
    # final --metrics / --kernel-stats dump covers exactly this run and
    # repeated main() calls (tests, notebooks) do not bleed into each
    # other through the root registry.
    telemetry.push_scope()
    if args.kernel_stats:
        reset_kernel_totals()
    if args.sim_backend is not None:
        configure_backend(args.sim_backend)

    if overrides:
        testbed_mod.set_active_config(DEFAULT_CONFIG.with_(**overrides))
    sweep.configure(jobs)
    try:
        for exp_id in wanted:
            start = time.time()
            trace_mod.clear_enabled_tracers()
            with telemetry.scope() as exp_reg:
                result = REGISTRY[exp_id].run(fast=not args.full,
                                              seed=args.seed)
                exp_snap = exp_reg.snapshot()
            telemetry.registry().merge(exp_snap)
            result.attach_metrics(exp_snap)
            print(result.render())
            print("(%.1fs)\n" % (time.time() - start))
            if args.trace_channel:
                _print_trace(exp_id, args.trace_channel, args.trace_limit)

        if args.extras:
            # Forward --jobs explicitly: the studies would otherwise
            # fall back to the ambient sweep configuration, and callers
            # invoking them outside this CLI (ablations.run, notebooks)
            # used to silently run serial.
            print(breakdown.run(fast=not args.full, seed=args.seed,
                                jobs=jobs).render())
            print()
            for study in ablations.ALL_STUDIES:
                print(study(fast=not args.full, seed=args.seed,
                            jobs=jobs).render())
                print()

        if args.kernel_stats:
            print(format_kernel_stats(kernel_totals()))
        if args.metrics is not None:
            snap = telemetry.snapshot()
            if args.metrics == "-":
                print(telemetry.format_snapshot(
                    snap, title="telemetry [sim-backend=%s]" % active_backend()))
            else:
                telemetry.dump_metrics(snap, args.metrics,
                                       meta={"sim_backend": active_backend()})
                print("metrics written to %s" % args.metrics)
    finally:
        sweep.configure(None)
        if args.sim_backend is not None:
            configure_backend(None)
        if overrides:
            testbed_mod.set_active_config(None)
        trace_mod.clear_enabled_tracers()
        telemetry.pop_scope()
    return 0


def _cli():
    """Entry-point wrapper: exit quietly when the pipe closes."""
    try:
        return main()
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(_cli())
