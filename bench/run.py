"""modecount benchmark: one closed-loop caller driving the public API.

Run from the root of a modecount checkout:

    python3 bench/run.py --workload sweep1d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One caller runs one op at a time with the default SolverConfig and
MODECOUNT_THREADS unset.  A run makes whole passes over the workload's op
list, starting another pass only while it fits in --seconds (the first pass
always runs).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
times every traced layer and reports the per-layer metrics instead.  Op
timings are rescaled by the speed reference in speed.py.  The reference
checks, the fingerprint and the environment record run outside
the timed region and are printed on every run; the last line of standard
output is the JSON result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
FINGERPRINT_FILE = BENCH_DIR / "fingerprints.json"
TRACE_DIR = Path(".bench_out")
THREADS_ENV_VAR = "MODECOUNT_THREADS"
WORKLOADS = ("sweep1d", "witness", "highdim")
SETUP_REPEATS = 5
HARD_STOP_S = 120.0   # no new op after this, so a run ends well inside 180 s
P90 = 90   # op latency percentile, printed but not bounded (README.md says why)

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
COUNTER_UNITS = {
    "solver.starts": "count",
    "solver.converged": "count",
    "solver.converged_ratio": "ratio",
    "solver.points": "count",
    "construct.tilt_applied": "count",
    "trace.ops_per_s": "ops/s",
    "trace.overhead_frac": "ratio",
}


def _setup_seconds(workload: str, seed: int, pool_seed: int | None) -> list[float]:
    """Cold import plus input building, each time in a fresh process.

    These stay wall-clock seconds: rescaling them by the speed reference,
    which runs in this process, widened their spread instead of narrowing it.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed),
           str(-1 if pool_seed is None else pool_seed)]
    env = {k: v for k, v in os.environ.items() if k not in (THREADS_ENV_VAR, "PYTHONPATH")}
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def _run_passes(ops, seconds: float, recorder, workloads, ref) -> list[list[dict]]:
    """Whole passes over `ops`, one row per op.

    Each op's latency is kept as wall seconds and rescaled by the speed
    reference sampled right before and after it.  Its output is checked
    and fingerprinted right after the timed call and then dropped, so the
    heap, and with it the garbage collector's work, does not grow over the
    run.
    """
    from speed import rescale

    passes: list[list[dict]] = []
    first_fp: dict[str, list] = {}
    start = time.perf_counter()
    before = ref.sample()
    while True:
        pass_start = time.perf_counter()
        rows = []
        for op in ops:
            if time.perf_counter() - start > HARD_STOP_S:
                break
            args = op.prepare()
            gc.collect()
            if recorder is not None:
                recorder.op = op.name
            t0 = time.perf_counter()
            try:
                out, err = op.call(*args), None
            except Exception as exc:  # an op that raises counts as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if recorder is not None:
                recorder.op = None
            after = ref.sample()
            scaled, before = rescale(latency, before, after), after
            problems, fp = [err] if err else [], None
            if err is None:
                try:
                    problems = op.check(out)
                    fp = [workloads.report_fingerprint(r) for r in out["reports"]]
                except Exception as exc:  # an output the check cannot read is a failure too
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if first_fp.setdefault(op.name, fp) != fp:
                problems.append("output differs from the first pass")
            rows.append({"op": op.name, "wall": latency, "latency": scaled,
                         "problems": problems, "fingerprint": fp,
                         "tilted": bool(out and out.get("provenance", {}).get("tilt_applied"))})
        passes.append(rows)
        now = time.perf_counter()
        if len(rows) < len(ops) or (now - start) + (now - pass_start) > seconds:
            return passes


def _digest(fingerprints: dict) -> str:
    return hashlib.sha256(json.dumps(fingerprints, sort_keys=True).encode()).hexdigest()


def _baseline_diff(workload: str, pool_seed: int | None, fingerprints: dict) -> tuple[str, list[str]]:
    """Compare with the stored baseline fingerprint of the default pool."""
    if pool_seed is not None:
        return "no baseline for a non-default pool seed", []
    if not FINGERPRINT_FILE.is_file():
        return "no baseline file", []
    stored = json.loads(FINGERPRINT_FILE.read_text())
    if workload not in stored:
        return "no baseline for this workload", []
    baseline = stored[workload]["ops"]
    changed = [name for name in fingerprints if baseline.get(name) != fingerprints[name]]
    return ("DIFFERS" if changed else "match"), changed


def _environment(workload, seed, pool_seed, threads_env) -> dict:
    import numpy
    import scipy
    from modecount import SolverConfig
    import workloads

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "pool_seed": workloads.POOL_SEEDS.get(workload) if pool_seed is None else pool_seed,
        "held_out_pool_seed": workloads.HELD_OUT_POOL_SEED,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "modecount_threads_env": "unset" if threads_env is None else f"removed (was {threads_env!r})",
        "solver_config": SolverConfig().to_dict(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            pool_seed: int | None = None, select: set[str] | None = None) -> dict:
    """One benchmark run; returns everything that run prints."""
    threads_env = os.environ.pop(THREADS_ENV_VAR, None)
    from speed import NOMINAL_S, SpeedReference

    setup = _setup_seconds(workload, seed, pool_seed)
    ref = SpeedReference()

    import workloads
    from tracer import SpanRecorder, wrapper_cost_s

    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        recorder.install()        # before the report log, which wraps the traced binding
    log = workloads.ReportLog()
    log.install()
    ops = workloads.build(workload, seed, pool_seed, log)
    if select is not None:
        ops = [op for op in ops if op.name in select]
    try:
        passes = _run_passes(ops, seconds, recorder, workloads, ref)
    finally:
        log.uninstall()
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [{"op": row["op"], "known": row["op"] in workloads.KNOWN_FAILURES,
                 "problems": row["problems"]}
                for rows in passes for row in rows if row["problems"]]
    fingerprints = dict(sorted((row["op"], row["fingerprint"]) for row in passes[0]))
    latencies = [row["latency"] for rows in passes for row in rows]
    complete = [rows for rows in passes if len(rows) == len(ops)] or passes

    def throughput(key):
        return statistics.median(len(rows) / sum(row[key] for row in rows) for rows in complete)

    ops_per_s = throughput("latency")
    attempted = len(latencies)
    unexpected = [f for f in failures if not f["known"]]
    status, changed = _baseline_diff(workload, pool_seed, fingerprints) if select is None else ("not compared", [])

    result = {
        "workload": workload,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "correct": not unexpected and attempted > 0,
        "fingerprint": {"sha256": _digest(fingerprints), "baseline": status, "changed_ops": changed},
        "fingerprints": fingerprints,
        "setup_samples_s": setup,
        "wall_clock": {
            "ops_per_s": throughput("wall"),
            "speed_factor": NOMINAL_S / statistics.median(ref.samples),
        },
        "environment": _environment(workload, seed, pool_seed, threads_env),
    }
    if recorder is None:
        result["metrics"] = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        result["units"] = END_TO_END_UNITS
        if attempted > 1:
            result["op_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[P90 - 1]
    else:
        result["metrics"], result["units"] = _layer_metrics(
            recorder, passes, ops_per_s, wrapper_cost_s())
        recorder.write(TRACE_DIR / f"trace_{workload}_seed{seed}.json",
                       {"workload": workload, "seed": seed, "passes": len(passes)})
    return result


def _layer_metrics(recorder, passes, ops_per_s: float, call_cost_s: float) -> tuple[dict, dict]:
    """Per-layer metrics, each per pass over the op list."""
    n = len(passes)
    metrics, units = {}, {}
    for name, row in recorder.span_totals().items():
        metrics[f"{name}.calls"] = row["calls"] / n
        metrics[f"{name}.self_s"] = row["self_s"] / n
        units[f"{name}.calls"], units[f"{name}.self_s"] = "count", "s"
    tilts = sum(row["tilted"] for rows in passes for row in rows)
    starts, converged, points = recorder.starts, recorder.converged, recorder.points
    busy = sum(row["wall"] for rows in passes for row in rows)
    metrics.update({
        "solver.starts": starts / n,
        "solver.converged": converged / n,
        "solver.converged_ratio": converged / starts if starts else 0.0,
        "solver.points": points / n,
        "construct.tilt_applied": tilts / n,
        "trace.ops_per_s": ops_per_s,
        "trace.overhead_frac": recorder.wrapped_calls * call_cost_s / max(busy, 1e-12),
    })
    units.update(COUNTER_UNITS)
    return metrics, units


def _print_run(result: dict, seconds: float) -> None:
    env = result["environment"]
    print(f"modecount benchmark  workload={result['workload']}  seed={env['seed']}  "
          f"pool_seed={env['pool_seed']}  held_out_pool_seed={env['held_out_pool_seed']}")
    print(f"  {result['passes']} pass(es) of {result['ops_per_pass']} ops within {seconds:g} s; "
          f"{result['attempted']} latency samples; setup samples "
          + ", ".join(f"{s:.3f}" for s in result["setup_samples_s"]) + " s")
    wall = result["wall_clock"]
    print(f"  op timings rescaled to the speed reference (speed.py); this run's speed factor "
          f"{wall['speed_factor']:.3f}, wall-clock ops_per_s {wall['ops_per_s']:.6g}")
    width = max(len(k) for k in result["metrics"]) + 2
    for name, value in result["metrics"].items():
        print(f"  {name:<{width}}{value:>16.6g}  {result['units'][name]}")
    n = result["attempted"]
    if "op_p90_ms" in result:
        print(f"  {'op_p90_ms':<{width}}{result['op_p90_ms']:>16.6g}  ms  "
              f"(not bounded; {n - n * P90 // 100} of {n} samples beyond it)")
    print(f"  {'failed_frac':<{width}}{result['failed_frac']:>16.6g}  ratio  "
          f"({result['failed']} of {result['attempted']} ops)")
    known = sum(f["known"] for f in result["failures"])
    print(f"reference checks: {result['attempted'] - result['failed']} passed, "
          f"{result['failed']} failed ({known} known)")
    for f in result["failures"]:
        print(f"  FAIL{' (known)' if f['known'] else ''} {f['op']}: {'; '.join(f['problems'])}")
    fp = result["fingerprint"]
    print(f"fingerprint sha256={fp['sha256']} baseline={fp['baseline']}")
    for name in fp["changed_ops"]:
        print(f"  changed: {name} {json.dumps(result['fingerprints'].get(name))}")
    print("environment " + json.dumps(env, sort_keys=True))


def _run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    rows = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.pool_seed is not None:
            cmd += ["--pool-seed", str(args.pool_seed)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        rows[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    print("summary")
    names = sorted({name for row in rows.values() for name in row["metrics"]})
    print(f"  {'metric':<40}" + "".join(f"{w:>16}" for w in rows) + "  unit")
    for name in names:
        unit = next(row["metrics"][name]["unit"] for row in rows.values() if name in row["metrics"])
        print(f"  {name:<40}" + "".join(f"{row['metrics'][name]['value']:>16.6g}" for row in rows.values())
              + f"  {unit}")
    print(f"  {'failed_frac':<40}"
          + "".join(f"{row['failed'] / row['attempted']:>16.6g}" for row in rows.values()) + "  ratio")
    correct = all(row["correct"] for row in rows.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(row["attempted"] for row in rows.values()),
        "failed": sum(row["failed"] for row in rows.values()),
        "metrics": {f"{w}.{name}": value for w, row in rows.items() for name, value in row["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="sets the op order")
    parser.add_argument("--seconds", type=float, required=True,
                        help="passes start only while they fit in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-seed", type=int, default=None,
                        help="draw the random instances from this seed instead of the fixed pool "
                             "(see README.md: the held-out pool seed validates a claim)")
    parser.add_argument("--write-fingerprints", action="store_true",
                        help="store this run's fingerprints as the workload's baseline")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "modecount" / "__init__.py").is_file():
        print(f"error: {root} has no src/modecount; run from the root of a modecount checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(root / "src"))
    import modecount
    if Path(modecount.__file__).resolve().parent != (root / "src" / "modecount").resolve():
        print(f"error: imported modecount from {modecount.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.pool_seed)
    _print_run(result, args.seconds)
    if args.write_fingerprints:
        stored = json.loads(FINGERPRINT_FILE.read_text()) if FINGERPRINT_FILE.is_file() else {}
        stored[args.workload] = {"sha256": result["fingerprint"]["sha256"], "ops": result["fingerprints"]}
        FINGERPRINT_FILE.write_text(json.dumps(dict(sorted(stored.items())), indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
