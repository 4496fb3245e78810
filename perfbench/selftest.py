"""The benchmark's own test: computed counts repeat exactly for one seed.

    python3 perfbench/selftest.py

Runs the traced worker twice per workload with seed 7 and requires every
count (calls, coefficients, iterations, words, indices, bytes computed, and
the rate-cache hit ratio) to be identical, and every request to pass its
check.  `cli.report_bytes` is left out: each report carries its wall time,
whose printed digits vary.  Exits 1 on any difference.
"""

from __future__ import annotations

import sys

from run import WORKLOADS, worker

SEED = 7
EXACT_UNITS = {"count", "B"}
EXACT_NAMES = {"cso.certified_contraction_rate.cache_hit_ratio"}
TIMED_NAMES = {"cli.report_bytes"}


def exact_metrics(res: dict) -> dict:
    return {name: value for name, (value, unit, _) in res["metrics"].items()
            if (unit in EXACT_UNITS or name in EXACT_NAMES) and name not in TIMED_NAMES}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = (worker(workload, SEED, "trace", 0) for _ in range(2))
        a, b = exact_metrics(first), exact_metrics(second)
        diff = sorted(k for k in a if a[k] != b.get(k))
        failed = first["failed"] + second["failed"]
        print(f"{workload}: {len(a)} counts, {len(diff)} differ, {failed} failed checks")
        for k in diff:
            print(f"  {k}: {a[k]} != {b[k]}")
        for failure in first["failures"] + second["failures"]:
            print(f"  failed: {failure}")
        ok = ok and not diff and not failed
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
