"""csofix benchmark: one workload per call, every output checked.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is used from its source tree
(`src/`), so nothing is built or installed.  With --trace 0 the workload runs
untraced in a fresh worker process and the end-to-end metrics are printed;
set-up is timed in further fresh workers, before and after the measured run,
and reported as a median.  With --trace 1 a fresh worker runs a fixed number
of rounds untraced, traced and untraced again, and the per-layer metrics are
printed.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve", "certify", "oracle")
SETUP_PROBES = 11  # odd: the measuring worker's set-up plus 5 before and 5 after
HELD_OUT_SEED = 918273  # never used while tuning; confirms later claims
WORKER_TIMEOUT_S = 150


def machine() -> dict:
    """The machine and the limits its numbers carry."""
    def read(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    llc = "unknown"
    for index in range(8, -1, -1):
        size = read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").strip()
        if size:
            llc = f"L{read(f'/sys/devices/system/cpu/cpu0/cache/index{index}/level').strip()} {size}"
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "last_level_cache": llc,
        "python": platform.python_version(),
        "limits": "shared host; no CPU pinning or frequency control; "
                  "golden bytes are computed from array sizes, not measured",
    }


def worker(workload: str, seed: int, mode: str, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    # one caller and no extra threads: keep BLAS (used by the SVD in polyfix)
    # on the calling thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "csofix", "__init__.py")):
        sys.stderr.write(f"error: no csofix source tree under {ROOT}/src\n")
        return 2

    info = machine()
    if args.trace:
        res = worker(args.workload, args.seed, "trace", args.seconds)
        info["numpy"] = res["numpy"]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in res["metrics"].items()}
        absent = sorted(name for name, (_, _, gone) in res["metrics"].items() if gone)
        print(f"# rounds: {res['rounds']} untraced, traced, untraced again")
        if absent:
            print(f"# absent (wrapped name no longer exists): {', '.join(absent)}")
    else:
        # set-up workers bracket the measured run, half before and half
        # after, so a drift in host speed during the run moves both alike
        def set_up():
            return worker(args.workload, args.seed, "setup", 0)

        setups = [set_up() for _ in range(SETUP_PROBES // 2)]
        res = worker(args.workload, args.seed, "measure", args.seconds)
        info["numpy"] = res["numpy"]
        setups += [res] + [set_up() for _ in range(SETUP_PROBES // 2)]
        wall = res["wall"]
        metrics = {
            "throughput_rps": {"value": res["attempted"] / res["busy_s"], "unit": "1/s"},
            "latency_p50_s": {"value": res["latency_p50_s"], "unit": "s"},
            "latency_p90_s": {"value": res["latency_p90_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups),
                        "unit": "s"},
            "tol_use_max": {"value": res["tol_use_max"], "unit": "ratio"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"# requests: {res['attempted']} (latency samples), "
              f"setup samples: {len(setups)}")
        print(f"# failed_share {res['failed'] / res['attempted']:.6g} ratio")
        print(f"# as measured, before host-speed scaling: throughput_rps "
              f"{res['attempted'] / wall['busy_s']:.6g}, latency_p50_s "
              f"{wall['latency_p50_s']:.6g}, latency_p90_s {wall['latency_p90_s']:.6g}, "
              f"setup_s {statistics.median(s['setup_wall_s'] for s in setups):.6g}; "
              f"median probe {res['probe_p50_s']:.6g} s against "
              f"{res['probe_ref_s']:g} s")
        if "known_defect" in res:
            print("# " + res["known_defect"])

    print(f"# workload={args.workload} seed={args.seed} held_out_seed={HELD_OUT_SEED}")
    print("# machine " + json.dumps(info, sort_keys=True))
    for failure in res["failures"]:
        print(f"# failed: {failure}")
    for error in res["errors"]:
        sys.stderr.write(error)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
