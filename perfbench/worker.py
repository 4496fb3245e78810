"""Run one workload in a fresh process and print one JSON object.

    python3 perfbench/worker.py --workload solve --seed 1 --mode measure --seconds 30

Modes:
  setup    import csofix.cli and build the first round of requests, then stop;
  measure  set up, then run whole rounds as a closed loop with one caller
           until the requests have used --seconds of wall time and at least
           100 completed;
  trace    run a fixed number of rounds untraced, traced (per-layer wrappers
           installed) and untraced again.

In setup and measure modes, set-up and request times are reported both as
measured and scaled to a host of fixed speed (see hostspeed.py).

run.py starts this script; it is not meant to be imported.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_ROUNDS = {"solve": 1, "certify": 12, "oracle": 2}
MIN_REQUESTS = 100
# Tolerance uses below this read as this: certify's are rounding-level (its
# sfs eigenvalue errors), so without a floor tol_use_max would follow the
# order of floating-point operations, not accuracy.
TOL_USE_FLOOR = 0.01


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    p.add_argument("--seconds", type=float, default=30.0)
    return p.parse_args()


def main() -> int:
    args = _args()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    started = time.perf_counter()
    import csofix.cli
    import_s = time.perf_counter() - started
    if not os.path.abspath(csofix.cli.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"csofix imported from {csofix.cli.__file__}, not {ROOT}/src")

    import json
    import resource
    import statistics
    import traceback

    import numpy as np

    import checks
    import hostspeed
    import spans
    import workloads
    from csofix import cso
    from csofix.errors import ConvergenceError, PreconditionError

    seed = args.seed % 2 ** 63
    make = workloads.WORKLOADS[args.workload]

    def run(req, tracer, stats):
        """One request: the program call is timed, the check is not.  A
        measured run takes a host-speed probe before each request."""
        if "probes" in stats:
            stats["probes"].append(hostspeed.probe(make.array_bound))
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        err = out = None
        try:
            out = req.call()
        except (PreconditionError, ConvergenceError) as exc:
            err = exc
        except Exception as exc:  # an unexpected error fails this request only
            err = exc
            stats["errors"].append(traceback.format_exc(limit=3))
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        stats["latencies"].append(elapsed)
        try:
            if req.expect is not None:
                # the documented class itself, with the documented cause:
                # a subclass or another precondition is a different failure
                if type(err) is not req.expect or req.cause not in str(err):
                    raise checks.CheckFailed(
                        f"expected {req.expect.__name__} ({req.cause.strip()}), "
                        f"got {type(err).__name__}: {err}")
                use = 0.0
            elif err is not None:
                raise checks.CheckFailed(f"{type(err).__name__}: {err}")
            else:
                use = req.check(out)
        except Exception as exc:  # a check that cannot read the output fails it
            stats["failed"] += 1
            if len(stats["failures"]) < 5:
                stats["failures"].append(f"{req.category}: {type(exc).__name__}: {exc}")
            return
        if not req.fresh_operator:
            stats["tol_use_max"] = max(stats["tol_use_max"], use)

    def new_stats():
        return {"latencies": [], "failed": 0, "failures": [], "errors": [],
                "tol_use_max": TOL_USE_FLOOR}

    def run_rounds(wl, first, tracer, stats, rounds=None, seconds=None):
        batch, done = first, 0
        while True:
            for req in batch:
                run(req, tracer, stats)
            done += 1
            if rounds is not None and done >= rounds:
                return
            if (seconds is not None and sum(stats["latencies"]) >= seconds
                    and len(stats["latencies"]) >= MIN_REQUESTS):
                return
            batch = wl.next_round()

    wl = make(seed, spans.encode)
    first = wl.next_round()
    setup_s = time.perf_counter() - started
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.mode != "trace":
        result["setup_wall_s"] = setup_s
        result["setup_s"] = setup_s * hostspeed.speed_at_setup()

    if args.mode == "measure":
        stats = new_stats()
        stats["probes"] = []
        run_rounds(wl, first, None, stats, seconds=args.seconds)
        stats["probes"].append(hostspeed.probe(make.array_bound))
        lat = stats["latencies"]
        scaled = hostspeed.scale(lat, stats["probes"])
        result.update(
            attempted=len(lat), failed=stats["failed"], failures=stats["failures"],
            errors=stats["errors"][:3], busy_s=sum(scaled),
            latency_p50_s=statistics.median(scaled),
            latency_p90_s=statistics.quantiles(scaled, n=10)[8],
            tol_use_max=stats["tol_use_max"],
            wall={"busy_s": sum(lat), "latency_p50_s": statistics.median(lat),
                  "latency_p90_s": statistics.quantiles(lat, n=10)[8]},
            probe_p50_s=statistics.median(stats["probes"]),
            probe_ref_s=hostspeed.PROBE_REF_S)
        if args.workload == "certify":
            result["known_defect"] = workloads.polyfix_defect()
    elif args.mode == "trace":
        # untraced, traced, untraced again over the same rounds, each from a
        # cold rate cache; the two untraced passes bracket the traced one so
        # a drift in host speed cancels out of the overhead.  In the second
        # untraced pass the wrappers stay installed but inactive.
        rounds = TRACE_ROUNDS[args.workload]
        clear = getattr(cso.certified_contraction_rate, "cache_clear", lambda: None)
        clear()
        untraced = new_stats()
        run_rounds(wl, first, None, untraced, rounds=rounds)
        tracer = spans.Tracer()
        tracer.install()
        traced = new_stats()
        for tr, emit, stats in ((tracer, tracer.emit, traced),
                                (None, spans.encode, untraced)):
            tracer.clear_rate_cache()
            wl = make(seed, emit)
            run_rounds(wl, wl.next_round(), tr, stats, rounds=rounds)
        rps_plain = len(untraced["latencies"]) / sum(untraced["latencies"])
        rps_traced = len(traced["latencies"]) / sum(traced["latencies"])
        metrics = tracer.metrics(import_s)
        metrics["trace.overhead_share"] = (1.0 - rps_traced / rps_plain, "ratio", False)
        result.update(
            attempted=len(untraced["latencies"]) + len(traced["latencies"]),
            failed=untraced["failed"] + traced["failed"],
            failures=(untraced["failures"] + traced["failures"])[:5],
            errors=(untraced["errors"] + traced["errors"])[:3],
            rounds=rounds, absent=tracer.absent,
            metrics={k: list(v) for k, v in metrics.items()})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = np.__version__
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
