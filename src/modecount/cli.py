"""Command-line interface: bounds, tables, solving, construction, verification.

Every command echoes its effective configuration into the output and is
deterministic: identical invocations produce byte-identical output.  Exit
codes: 0 success, 1 verification failure, 2 input error, 3 inconclusive.

Subcommands return 0, 1 or 3 and raise on failure; `main` alone maps the
exceptions to exit codes.  A failed recipe verification or remote padding
exits 1, and any `ValueError` or `OSError` is an input error, exit 2: among
them an unreadable or malformed input file, an unwritable `--out` and an
out-of-range `--dmax` or `--claim`.  Each error prints one line to stderr,
never a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bounds import (
    CROSSOVER_K_RANGE,
    CROSSOVER_KINDS,
    LOWER_FAMILIES,
    UPPER_FAMILIES,
    SeedRecipe,
    SeedTriple,
    aim_conjecture,
    crossover_dimension,
    lower_bound,
    mode_bound_from_critical,
    render_table_csv,
    render_table_text,
    table_rows,
    upper_bound,
)
from .construct import (
    PAD_BOUNDARY_SEED,
    REALIZE_EPSILON,
    TILT_MAGNITUDE,
    TILT_SEED,
    PaddingError,
    PaddingSpec,
    RecipeVerificationError,
    pad_remote,
    product,
    realize_recipe,
    simplex_seed,
)
from .mixture import mixture_to_dict, read_mixture, write_mixture
from .solver import MAX_COMPONENTS, MAX_DIM, SolverConfig, find_critical_points, solve_reduced_homoscedastic

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


# -- output plumbing -----------------------------------------------------------


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _config_echo(args: argparse.Namespace, solver: SolverConfig | None = None) -> dict:
    skip = {"func"}
    echo = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    if solver is not None:
        echo["solver"] = solver.to_dict()
    return echo


def _emit(doc: dict, fmt: str, text: str, csv: str) -> None:
    """Write `doc` as json, or the text or csv body (each ending in a newline) with its config."""
    config = json.dumps(doc["config"], sort_keys=True)
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    elif fmt == "csv":
        sys.stdout.write(f"# config: {config}\n{csv}")
    else:
        sys.stdout.write(f"{text}config: {config}\n")


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    kwargs = {"force": args.force}
    if args.tol_grad is not None:
        kwargs["grad_accept_tol"] = args.tol_grad
    if args.tol_dedup is not None:
        kwargs["dedup_tol"] = args.tol_dedup
    if args.tol_degenerate is not None:
        kwargs["degeneracy_tol"] = args.tol_degenerate
    return SolverConfig(**kwargs)


def _checks_ok(report) -> bool:
    """The report's own pass rule, shared by `solve` and `verify`."""
    return report.morse_inequality_ok and report.morse_equality_ok and report.upper_sandwich_ok


def _report_text(report, header: str) -> str:
    lines = [header]
    lines.append(
        f"critical points: {report.n_critical}   modes: {report.n_modes}   "
        f"index-(d-1): {report.n_index_dminus1}"
    )
    for i, p in enumerate(report.points):
        loc = ", ".join(_fmt(v) for v in p.location)
        kind = "mode" if p.is_mode else f"index-{p.morse_index}"
        flag = " DEGENERATE" if p.degenerate else ""
        lines.append(
            f"  [{i}] x=({loc})  log_density={_fmt(p.log_density)}  {kind}  "
            f"grad_residual={p.gradient_residual:.3e}  eig_ratio={p.eig_ratio:.3e}{flag}"
        )
    lines.append(
        f"all_nondegenerate: {report.all_nondegenerate}   "
        f"morse_inequality_ok: {report.morse_inequality_ok}   "
        f"morse_equality_ok: {report.morse_equality_ok}   "
        f"upper_sandwich_ok: {report.upper_sandwich_ok}"
    )
    if report.u_best is not None:
        hom = "" if report.u_best_hom is None else f"   U_best_hom={report.u_best_hom.exact}"
        lines.append(f"U_best={report.u_best.exact}   U_mode={report.u_mode.exact}{hom}")
    lines.append(
        f"starts: {report.n_starts}   converged: {report.n_converged}   dropped: {report.n_dropped}"
    )
    return "\n".join(lines) + "\n"


def _report_csv(report) -> str:
    d = report.mixture.dim
    cols = ["index"] + [f"loc_{i}" for i in range(d)] + [
        "log_density", "gradient_residual", "morse_index", "eig_ratio", "degenerate", "is_mode",
    ]
    rows = [",".join(cols)]
    for i, p in enumerate(report.points):
        rows.append(",".join(
            [str(i)] + [_fmt(v) for v in p.location]
            + [_fmt(p.log_density), f"{p.gradient_residual:.6e}", str(p.morse_index),
               f"{p.eig_ratio:.6e}", str(p.degenerate).lower(), str(p.is_mode).lower()]
        ))
    return "\n".join(rows) + "\n"


# -- subcommands ----------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    family = args.family.upper()
    d, k = args.d, args.k
    if family == "AIM":
        if k is None:
            raise ValueError("the conjectural count needs both d and k")
        value = aim_conjecture(d, k)
    elif family in UPPER_FAMILIES:
        value = upper_bound(family, d, k)
        if family == "AUG_HOM" and k is None:   # the k-only form: its one number is k
            d, k = None, d
    elif family in LOWER_FAMILIES:
        if k is None:
            raise ValueError("lower bounds need both d and k")
        value = lower_bound(family, d, k)
    else:
        raise ValueError(
            f"unknown family '{args.family}'; choose from "
            f"{', '.join(UPPER_FAMILIES + LOWER_FAMILIES + ('AIM',))}"
        )
    if args.modes:
        if family not in UPPER_FAMILIES:
            raise ValueError("--modes applies only to critical-point upper bounds")
        value = mode_bound_from_critical(value)
    label = family + ("_MODES" if args.modes else "")
    doc = {
        "command": "bounds",
        "family": label,
        "d": d,
        "k": k,
        "exact": value.exact,
        "rendered": value.rendered,
        "config": _config_echo(args),
    }
    text = f"{label}(d={d}, k={k}) = {value.exact}  [{value.rendered}]\n"
    csv = "d,k,family,exact,rendered\n" + f"{'' if d is None else d},{'' if k is None else k},{label},{value.exact},{value.rendered}\n"
    _emit(doc, args.output, text=text, csv=csv)
    return EXIT_OK


def cmd_tables(args: argparse.Namespace) -> int:
    which = args.which
    rows = []
    for row in table_rows(which, d_max=args.dmax):
        entry = {
            "d": row["d"],
            "k": row["k"],
            "family": row["family"],
            "exact": None if row["value"] is None else row["value"].exact,
            "rendered": None if row["value"] is None else row["value"].rendered,
        }
        if "realizable" in row:
            entry["realizable"] = row["realizable"]
        rows.append(entry)
    doc = {
        "command": "tables",
        "table": which,
        "rows": rows,
        "config": _config_echo(args),
    }
    _emit(doc, args.output,
          text=render_table_text(which, d_max=args.dmax),
          csv=render_table_csv(which, d_max=args.dmax))
    return EXIT_OK


def cmd_crossover(args: argparse.Namespace) -> int:
    kind = args.kind.upper()
    if kind not in CROSSOVER_KINDS:
        raise ValueError(f"unknown crossover kind '{args.kind}'; choose from {', '.join(CROSSOVER_KINDS)}")
    ks = [args.k] if args.k is not None else list(CROSSOVER_K_RANGE)
    rows = [{"kind": kind, "k": k, "d": crossover_dimension(kind, k, d_max=args.dmax)} for k in ks]
    doc = {"command": "crossover", "rows": rows, "config": _config_echo(args)}
    text_lines = [f"{kind}: smallest d where the contender overtakes (searched d <= {args.dmax})"]
    for row in rows:
        text_lines.append(f"  k={row['k']}: {'none' if row['d'] is None else row['d']}")
    csv = "kind,k,d\n" + "\n".join(
        f"{r['kind']},{r['k']},{'' if r['d'] is None else r['d']}" for r in rows
    ) + "\n"
    _emit(doc, args.output, text="\n".join(text_lines) + "\n", csv=csv)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    config = _solver_config(args)
    mixture = read_mixture(args.file)
    solve = solve_reduced_homoscedastic if args.reduce_rank else find_critical_points
    report = solve(mixture, config)
    doc = {
        "command": "solve",
        "input": args.file,
        "report": report.to_dict(),
        "config": _config_echo(args, config),
    }
    header = f"solve {args.file}: d={mixture.dim}, k={mixture.n_components}" + (
        " (rank-reduced)" if args.reduce_rank else ""
    )
    _emit(doc, args.output, text=_report_text(report, header), csv=_report_csv(report))
    return EXIT_OK if _checks_ok(report) else EXIT_VERIFICATION


def _parse_seed_list(text: str) -> list[SeedTriple]:
    triples = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ValueError(f"seed '{chunk}' must have three comma-separated integers d,k,m")
        triples.append(SeedTriple(int(parts[0]), int(parts[1]), int(parts[2])))
    if not triples:
        raise ValueError("empty seed list; pass at least one d,k,m triple or use pad-only recipes")
    return triples


def cmd_construct(args: argparse.Namespace) -> int:
    pad_seed = PAD_BOUNDARY_SEED if args.seed is None else args.seed
    tilt_seed = TILT_SEED if args.seed is None else args.seed
    config = _solver_config(args)
    if args.kind == "simplex":
        if args.K is None:
            raise ValueError("construct simplex needs --K")
        eps = REALIZE_EPSILON if args.eps is None else args.eps
        mixture, expected = simplex_seed(args.K, eps)
        provenance = {
            "kind": "simplex",
            "K": args.K,
            "epsilon": eps,
            "expected_modes": expected,
            "verified_modes": None,
        }
    elif args.kind == "pad":
        if args.base is None:
            raise ValueError("construct pad needs --base")
        base = read_mixture(args.base)
        spec = PaddingSpec(count=args.count, separation_factor=args.sep_factor,
                           weight_theta=args.theta)
        mixture = pad_remote(base, spec, config=config, seed=pad_seed)
        provenance = {
            "kind": "pad",
            "base": args.base,
            "count": args.count,
            "separation_factor": args.sep_factor,
            "weight_theta": args.theta,
            "components": mixture.n_components,
        }
    elif args.kind == "product":
        if args.a is None or args.b is None:
            raise ValueError("construct product needs --a and --b")
        mixture = product(read_mixture(args.a), read_mixture(args.b))
        provenance = {"kind": "product", "a": args.a, "b": args.b,
                      "components": mixture.n_components, "dim": mixture.dim}
    elif args.kind == "recipe":
        if args.seeds is None or args.d is None or args.k is None:
            raise ValueError("construct recipe needs --seeds, --d, and --k")
        triples = _parse_seed_list(args.seeds)
        seed_comps = math.prod(t.comps for t in triples)
        pad = args.k - seed_comps
        if pad < 0:
            raise ValueError(
                f"component budget k={args.k} is below the {seed_comps} components the seeds use"
            )
        value = pad + math.prod(t.modes for t in triples)
        recipe = SeedRecipe(seeds=tuple(triples), lift_to=args.d, pad=pad, value=value)
        eps = REALIZE_EPSILON if args.eps is None else args.eps
        padding = PaddingSpec(count=pad, separation_factor=args.sep_factor,
                              weight_theta=args.theta) if pad > 0 else None
        mixture, provenance = realize_recipe(
            recipe, epsilon=eps, config=config, padding=padding,
            pad_seed=pad_seed, tilt_seed=tilt_seed,
        )
        provenance["kind"] = "recipe"
    else:
        raise ValueError(f"unknown construction kind '{args.kind}'")

    write_mixture(mixture, args.out)
    sidecar = args.out + ".provenance.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(provenance, indent=2, sort_keys=True) + "\n")
    doc = {
        "command": "construct",
        "kind": args.kind,
        "out": args.out,
        "provenance_file": sidecar,
        "dim": mixture.dim,
        "n_components": mixture.n_components,
        "provenance": provenance,
        "config": _config_echo(args, config),
    }
    text = (
        f"wrote {args.out}: {mixture.n_components} components in R^{mixture.dim}\n"
        f"provenance: {sidecar}\n"
    )
    csv = "out,kind,dim,n_components\n" + f"{args.out},{args.kind},{mixture.dim},{mixture.n_components}\n"
    _emit(doc, args.output, text=text, csv=csv)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.claim < 0:
        raise ValueError(f"claimed mode count must be >= 0, got {args.claim}")
    config = _solver_config(args)
    report = find_critical_points(read_mixture(args.file), config)
    degenerate_present = any(p.degenerate for p in report.points)
    if degenerate_present:
        mantissa, exponent = f"{TILT_MAGNITUDE:.0e}".split("e")
        verdict = "INCONCLUSIVE"
        exit_code = EXIT_INCONCLUSIVE
        note = ("degenerate critical points present; retry after a small exponential tilt "
                f"(tilt_polish applies |c| = {mantissa}e{int(exponent)}, halving on failure)")
    else:
        ok = report.n_modes >= args.claim and _checks_ok(report)
        verdict = "PASS" if ok else "FAIL"
        exit_code = EXIT_OK if ok else EXIT_VERIFICATION
        note = None
    doc = {
        "command": "verify",
        "input": args.file,
        "claim": args.claim,
        "verdict": verdict,
        "verified_modes": report.n_modes,
        "n_critical": report.n_critical,
        "morse_inequality_ok": report.morse_inequality_ok,
        "morse_equality_ok": report.morse_equality_ok,
        "upper_sandwich_ok": report.upper_sandwich_ok,
        "note": note,
        "config": _config_echo(args, config),
    }
    text_lines = [
        f"verdict: {verdict}",
        f"claimed modes: {args.claim}   verified modes: {report.n_modes}   "
        f"critical points: {report.n_critical}",
        f"morse_inequality_ok: {report.morse_inequality_ok}   "
        f"morse_equality_ok: {report.morse_equality_ok}   "
        f"upper_sandwich_ok: {report.upper_sandwich_ok}",
    ]
    if note:
        text_lines.append(f"note: {note}")
    csv = ("verdict,claim,verified_modes,n_critical\n"
           f"{verdict},{args.claim},{report.n_modes},{report.n_critical}\n")
    _emit(doc, args.output, text="\n".join(text_lines) + "\n", csv=csv)
    return exit_code


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modecount",
        description="Critical-point and mode bounds for Gaussian mixtures: "
                    "exact bound tables, a reduced-system solver, and witness constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("text", "csv", "json"), default="text",
                       help="output format (default text)")

    def add_tols(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol-grad", type=float, default=None,
                       help="gradient acceptance tolerance (default 1e-9)")
        p.add_argument("--tol-dedup", type=float, default=None,
                       help="relative dedup tolerance (default 1e-6)")
        p.add_argument("--tol-degenerate", type=float, default=None,
                       help="eigenvalue-ratio degeneracy tolerance (default 1e-8)")
        p.add_argument("--force", action="store_true",
                       help=f"solve beyond the default d <= {MAX_DIM}, k <= {MAX_COMPONENTS} limits")

    p_bounds = sub.add_parser("bounds", help="evaluate one bound family at (d, k)")
    p_bounds.add_argument("family", help="family name: "
                          + ", ".join(UPPER_FAMILIES + LOWER_FAMILIES + ("AIM",)))
    p_bounds.add_argument("d", type=int)
    p_bounds.add_argument("k", type=int, nargs="?", default=None)
    p_bounds.add_argument("--modes", action="store_true",
                          help="convert a critical-point bound to a mode bound")
    add_output(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_tables = sub.add_parser("tables", help="render a bound table (1-4)")
    p_tables.add_argument("which", type=int, choices=(1, 2, 3, 4))
    p_tables.add_argument("--dmax", type=int, default=200,
                          help="search cap for crossover dimensions (default 200)")
    add_output(p_tables)
    p_tables.set_defaults(func=cmd_tables)

    p_cross = sub.add_parser("crossover", help="smallest dimension where one bound overtakes another")
    p_cross.add_argument("kind", help=", ".join(CROSSOVER_KINDS))
    p_cross.add_argument("--k", type=int, default=None,
                         help=f"single k (default: k = {CROSSOVER_K_RANGE[0]}..{CROSSOVER_K_RANGE[-1]})")
    p_cross.add_argument("--dmax", type=int, default=200)
    add_output(p_cross)
    p_cross.set_defaults(func=cmd_crossover)

    p_solve = sub.add_parser("solve", help="find and classify the critical points of a mixture file")
    p_solve.add_argument("file")
    p_solve.add_argument("--reduce-rank", action="store_true",
                         help="solve homoscedastic input through its affine-rank reduction")
    add_tols(p_solve)
    add_output(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_con = sub.add_parser("construct", help="build a witness mixture file plus provenance sidecar")
    p_con.add_argument("kind", choices=("simplex", "pad", "product", "recipe"))
    p_con.add_argument("--out", required=True, help="output mixture file path")
    p_con.add_argument("--K", type=int, default=None, help="simplex component count")
    p_con.add_argument("--eps", type=float, default=None,
                       help=f"simplex and recipe covariance excess (default {REALIZE_EPSILON})")
    p_con.add_argument("--base", default=None, help="base mixture file for padding")
    p_con.add_argument("--count", type=int, default=1, help="number of padding components")
    p_con.add_argument("--theta", type=float, default=0.25, help="padding weight in (0, 1/2]")
    p_con.add_argument("--sep-factor", type=float, default=1.5,
                       help="initial separation factor for padding")
    p_con.add_argument("--a", default=None, help="first factor file for product")
    p_con.add_argument("--b", default=None, help="second factor file for product")
    p_con.add_argument("--seeds", default=None,
                       help='recipe seed list "d,k,m;d,k,m;..."')
    p_con.add_argument("--d", type=int, default=None, help="recipe target dimension")
    p_con.add_argument("--k", type=int, default=None, help="recipe component budget")
    p_con.add_argument("--seed", type=int, default=None,
                       help="RNG seed for padding boundary sampling and tilt polish")
    add_tols(p_con)
    add_output(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser("verify", help="check a claimed mode count against the solver")
    p_verify.add_argument("file")
    p_verify.add_argument("--claim", type=int, required=True, help="claimed number of modes")
    add_tols(p_verify)
    add_output(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except RecipeVerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except PaddingError as exc:
        print(f"construction failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
