"""Harness smoke test: a few ops per workload through both run modes.

Run from the root of a modecount checkout (about a minute on 2 cores):

    python3 bench/smoke.py

It checks that a plain run reports every end-to-end metric of
BENCHMARK.json and a traced run every per-layer metric, each with its unit;
that every kind of reference check runs, including the one that catches the
known witness failure; and that the selected ops reproduce the stored
fingerprints.  Exit code 0 means all of that held.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SMOKE_OPS = {
    "sweep1d": {"sweep1d/000", "sweep1d/001", "sweep1d/002"},
    # pure padding, the known failure, a lifted simplex seed, product and lift
    "witness": {"witness/simplex_family/d1k2", "witness/simplex_family/d1k6",
                "witness/simplex_family/d3k3", "witness/product_pair_pair",
                "witness/lift_product_r3"},
    "highdim": {"highdim/het_d6k6_0", "highdim/hom_d6r2k4_pair"},
}


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "modecount" / "__init__.py").is_file():
        print("error: run from the root of a modecount checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import run
    import workloads

    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    baseline = json.loads(run.FINGERPRINT_FILE.read_text())
    problems = []
    for workload, names in SMOKE_OPS.items():
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            result = run.measure(workload, seed=1, seconds=0, trace=trace, select=names)
            units = {name: result["units"][name] for name in result["metrics"]}
            if units != expected[trace]:
                problems.append(f"{label}: metrics {sorted(units)} differ from BENCHMARK.json")
            if result["attempted"] != len(names):
                problems.append(f"{label}: ran {result['attempted']} of {len(names)} ops")
            failed = {f["op"] for f in result["failures"]}
            if failed != names & set(workloads.KNOWN_FAILURES) or not result["correct"]:
                problems.append(f"{label}: failures {result['failures']}")
            for name in names:
                if result["fingerprints"][name] != baseline[workload]["ops"][name]:
                    problems.append(f"{label}: {name} fingerprint differs from the baseline")
            known = sum(f["known"] for f in result["failures"])
            print(f"{label}: {result['attempted']} ops, {len(failed)} failed ({known} known), "
                  f"{len(units)} metrics", flush=True)
    for problem in problems:
        print("SMOKE FAIL " + problem)
    print("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
