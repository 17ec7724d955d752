"""Exact-integer bound formulas, crossover searches, and reference tables.

Every bound is evaluated in arbitrary-precision integer arithmetic; no
floating point enters any formula.  A `BoundValue` pairs the exact integer
with a deterministic 3-significant-digit scientific rendering used by the
table emitters.

Each family is declared once, in one of three tables beside the closed
forms: `_UPPER` (upper-bound families), `_LOWER` (lower-bound families)
and `_CROSSOVERS` (crossover searches).  A new family is added there; the
exported name tuples, the evaluators, the reference tables and the command
line read it.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from decimal import Context, ROUND_HALF_EVEN
from typing import Callable, Iterable, Sequence

__all__ = [
    "BoundValue",
    "SeedTriple",
    "SeedRecipe",
    "UPPER_FAMILIES",
    "LOWER_FAMILIES",
    "CROSSOVER_KINDS",
    "upper_bound",
    "lower_bound",
    "mode_bound_from_critical",
    "aim_conjecture",
    "crossover_dimension",
    "ray_ren_family",
    "simplex_family",
    "seed_closure_bound",
    "table_rows",
    "render_table_text",
    "render_table_csv",
]

_RENDER_CTX = Context(prec=3, rounding=ROUND_HALF_EVEN)


def _ints(*values) -> tuple[int, ...]:
    """The arguments as Python ints; a float or other non-integer raises TypeError."""
    return tuple(operator.index(v) for v in values)


def _render(exact: int) -> str:
    if exact < 1000:
        return str(exact)
    quantized = _RENDER_CTX.create_decimal(exact)
    sign, digits, exp = quantized.as_tuple()
    ds = "".join(map(str, digits)).ljust(3, "0")
    return f"{ds[0]}.{ds[1:3]}e{exp + len(digits) - 1}"


@dataclass(frozen=True, order=True)
class BoundValue:
    """An exact nonnegative integer plus its 3-significant-digit rendering."""

    exact: int

    def __post_init__(self) -> None:
        if self.exact < 0:
            raise ValueError("bound values are nonnegative")

    @property
    def rendered(self) -> str:
        return _render(self.exact)

    def __str__(self) -> str:
        return self.rendered

    def __int__(self) -> int:
        return self.exact


@dataclass(frozen=True, order=True)
class SeedTriple:
    """Witness triple (dim, comps, modes): `comps` components in R^dim with `modes` modes."""

    dim: int
    comps: int
    modes: int

    def __post_init__(self) -> None:
        for name, v in zip(("dim", "comps", "modes"), _ints(self.dim, self.comps, self.modes)):
            object.__setattr__(self, name, v)
        if self.dim < 1 or self.comps < 1 or self.modes < 1:
            raise ValueError("seed triple entries must be positive")


@dataclass(frozen=True)
class SeedRecipe:
    """A composition plan: product of seeds, lifted to `lift_to` dims, plus `pad` remote components."""

    seeds: tuple[SeedTriple, ...]
    lift_to: int
    pad: int
    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for name, v in zip(("lift_to", "pad", "value"), _ints(self.lift_to, self.pad, self.value)):
            object.__setattr__(self, name, v)
        if self.pad < 0:
            raise ValueError("padding count must be nonnegative")
        if sum(s.dim for s in self.seeds) > self.lift_to:
            raise ValueError("seed dimensions exceed the lift target")
        if self.value != self.pad + math.prod(s.modes for s in self.seeds):
            raise ValueError("recipe value must equal pad + product of seed modes")

    @property
    def total_components(self) -> int:
        return math.prod(s.comps for s in self.seeds) + self.pad


# -- closed forms -------------------------------------------------------------


def _u_het(d: int, k: int) -> int:
    return 2 ** (d + math.comb(k - 1, 2)) * (d + 2 * min(d, k - 1) + 1) ** (k - 1)


def _u_aug(d: int, k: int) -> int:
    return 2 ** math.comb(k - 1, 2) * (d + 1) * ((2 * k - 1) * d + 2 * k - 1) ** (k - 1)


def _u_aeh(d: int, k: int) -> int:
    return 2 ** (d + math.comb(k, 2)) * (5 + 3 * d) ** k


def _u_hom(r: int, k: int) -> int:
    return 2 ** (r + math.comb(k - 1, 2)) * (r + min(r, k - 1) + 1) ** (k - 1)


def _u_aug_hom(k: int) -> int:
    return 2 ** (math.comb(k - 1, 2) + 1) * (2 * k) ** (k - 1)


def _u_crit(d: int, k: int) -> int:
    return 2 ** (math.comb(k - 1, 2) + 2) * 5 ** (d - 1) * (6 * d - 2) ** (k - 1)


def _u_crit_hom(r: int, k: int) -> int:
    return 2 ** (math.comb(k - 1, 2) + 2) * 4 ** (r - 1) * (4 * r - 1) ** (k - 1)


# Upper-bound family -> formula of (d, k).  HOM, BEST_HOM and CRIT_HOM read
# d as the affine rank r; AUG_HOM depends on k alone.
_UPPER: dict[str, Callable[[int, int], int]] = {
    "AEH": _u_aeh,
    "HET": _u_het,
    "AUG": _u_aug,
    "HOM": _u_hom,
    "AUG_HOM": lambda d, k: _u_aug_hom(k),
    "BEST": lambda d, k: min(_u_het(d, k), _u_aug(d, k)),
    "BEST_HOM": lambda d, k: min(_u_hom(d, k), _u_aug(d, k), _u_aug_hom(k)),
    "CRIT": _u_crit,
    "CRIT_HOM": _u_crit_hom,
}
UPPER_FAMILIES = tuple(_UPPER)


def upper_bound(family: str, d: int, k: int | None = None) -> BoundValue:
    """Exact upper bound of the given family on critical points / modes.

    For the dimension-dependent families the arguments are (d, k); the
    intrinsic-rank families HOM, BEST_HOM and CRIT_HOM read the first
    argument as the affine rank r >= 1.  AUG_HOM depends on k alone and
    accepts `upper_bound("AUG_HOM", k)`.
    """
    family = family.upper()
    if family not in _UPPER:
        raise ValueError(f"unknown upper bound family {family!r}")
    if family == "AUG_HOM" and k is None:
        d, k = 1, d
    if k is None:
        raise ValueError("missing component count k")
    d, k = _ints(d, k)
    if k < 2:
        raise ValueError("upper bounds need k >= 2")
    if d < 1 and family != "AUG_HOM":
        raise ValueError("dimension (or rank) must be >= 1; rank 0 means one critical point")
    return BoundValue(_UPPER[family](d, k))


def mode_bound_from_critical(u: BoundValue | int) -> BoundValue:
    """Mode bound floor((U + 1) / 2) from a critical-point bound U, a BoundValue or an integer."""
    (n,) = _ints(u.exact if isinstance(u, BoundValue) else u)
    if n < 0:
        raise ValueError("critical-point bound must be nonnegative")
    return BoundValue((n + 1) // 2)


def _l_aeh(d: int, k: int) -> int:
    return math.comb(k, d) + k


def _l_bin(d: int, k: int) -> int:
    return k + max(math.comb(k, r) for r in range(2, min(d, k) + 1))


def _l_pp(d: int, k: int) -> int:
    s_max = min(d, k.bit_length() - 1)   # floor(log2 k)
    best = 0
    for s in range(1, s_max + 1):
        q, rem = divmod(d, s)
        best = max(best, k - 2 ** s + (q + 1) ** (s - rem) * (q + 2) ** rem)
    return best


# Lower-bound family -> (least d, formula of (d, k)).
_LOWER: dict[str, tuple[int, Callable[[int, int], int]]] = {
    "AEH_L": (2, _l_aeh),
    "BIN": (2, _l_bin),
    "PP": (1, _l_pp),
    "BEST_L": (2, lambda d, k: max(_l_bin(d, k), _l_pp(d, k))),
}
LOWER_FAMILIES = tuple(_LOWER)


def lower_bound(family: str, d: int, k: int) -> BoundValue:
    """Exact lower bound on the attainable mode count."""
    family = family.upper()
    if family not in _LOWER:
        raise ValueError(f"unknown lower bound family {family!r}")
    d, k = _ints(d, k)
    if k < 2:
        raise ValueError("lower bounds need k >= 2")
    least_d, formula = _LOWER[family]
    if d < least_d:
        raise ValueError(f"{family} needs d >= {least_d}")
    return BoundValue(formula(d, k))


def aim_conjecture(d: int, k: int) -> BoundValue:
    """The conjectural extremal mode count C(d + k - 1, d)."""
    d, k = _ints(d, k)
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    return BoundValue(math.comb(d + k - 1, d))


# -- crossover searches --------------------------------------------------------

# Crossover kind -> (first d searched, test that the contender has overtaken
# at (d, k), the kind's row label in reference table 1 or 3).
_CROSSOVERS: dict[str, tuple[int, Callable[[int, int], bool], str]] = {
    "AUG_VS_HET": (1, lambda d, k: _u_aug(d, k) <= _u_het(d, k), "d_star"),
    "AUG_VS_AEH": (1, lambda d, k: _u_aug(d, k) <= _u_aeh(d, k), "d_aeh"),
    "PP_VS_BIN": (2, lambda d, k: _l_pp(d, k) > _l_bin(d, k), "d_pp"),
}
CROSSOVER_KINDS = tuple(_CROSSOVERS)


def crossover_dimension(kind: str, k: int, d_max: int = 200) -> int | None:
    """Smallest dimension where one bound family overtakes another.

    AUG_VS_HET / AUG_VS_AEH scan d = 1..d_max for the first d with
    U_aug <= U_het (resp. U_aug <= U_AEH); PP_VS_BIN scans d = 2..d_max for
    the first d with L_pp > L_bin.  Returns None when no crossover occurs
    within d_max.
    """
    kind = kind.upper()
    if kind not in _CROSSOVERS:
        raise ValueError(f"unknown crossover kind {kind!r}")
    k, d_max = _ints(k, d_max)
    if k < 2 or d_max < 1:
        raise ValueError("need k >= 2 and d_max >= 1")
    start, overtaken, _ = _CROSSOVERS[kind]
    return next((d for d in range(start, d_max + 1) if overtaken(d, k)), None)


# -- seed closure ---------------------------------------------------------------


def ray_ren_family(d: int, k: int) -> list[SeedTriple]:
    """Seed triples (s, 2, s+1) for 1 <= s <= d, truncated to the budget."""
    if k < 2:
        return []
    return [SeedTriple(s, 2, s + 1) for s in range(1, d + 1)]


def simplex_family(d: int, k: int) -> list[SeedTriple]:
    """Seed triples (K-1, K, K+1) for 3 <= K, truncated to the budget."""
    return [SeedTriple(K - 1, K, K + 1) for K in range(3, k + 1) if K - 1 <= d]


def seed_closure_bound(
    d: int, k: int, family: Sequence[SeedTriple] | Callable[[int, int], Iterable[SeedTriple]]
) -> tuple[BoundValue, SeedRecipe]:
    """Best mode count from products of seeds, lifting, and remote padding.

    Maximizes k - K + prod(modes) over seed multisets with total dimension
    <= d and total component product K <= k.  `family` is either an explicit
    triple list or a generator function like `ray_ren_family`.  The search is
    exhaustive over canonically ordered lists with memoized suffix states, so
    the returned recipe is deterministic; the empty list (pure padding) is
    always admissible and gives k modes.
    """
    d, k = _ints(d, k)
    if d < 1 or k < 2:
        raise ValueError("need d >= 1 and k >= 2")
    triples = family(d, k) if callable(family) else list(family)
    seeds = sorted(
        {(s.dim, s.comps, s.modes) for s in triples if s.dim <= d and s.comps <= k}
    )

    # State: (next seed index, dimension budget, multiplicative component
    # budget).  Values: achievable (K, modes-product) pairs for the suffix,
    # pruned to the (K min, modes max) Pareto frontier with witness lists.
    memo: dict[tuple[int, int, int], list[tuple[int, int, tuple]]] = {}

    def suffix(idx: int, dim_left: int, comp_budget: int) -> list[tuple[int, int, tuple]]:
        key = (idx, dim_left, comp_budget)
        if key in memo:
            return memo[key]
        found: dict[tuple[int, int], tuple] = {(1, 1): ()}
        for j in range(idx, len(seeds)):
            dim_j, comp_j, modes_j = seeds[j]
            if dim_j > dim_left or comp_j > comp_budget:
                continue
            for comps, modes, chosen in suffix(j, dim_left - dim_j, comp_budget // comp_j):
                cand = (comp_j * comps, modes_j * modes)
                witness = (seeds[j],) + chosen
                if cand not in found or witness < found[cand]:
                    found[cand] = witness
        pareto: list[tuple[int, int, tuple]] = []
        for (comps, modes), witness in sorted(found.items()):
            if any(pc <= comps and pm >= modes for pc, pm, _ in pareto):
                continue
            pareto = [p for p in pareto if not (comps <= p[0] and modes >= p[1])]
            pareto.append((comps, modes, witness))
        memo[key] = pareto
        return pareto

    # Ties prefer seed-heavy recipes (larger component product, so less
    # padding), then the lexicographically smallest seed list.
    best_value, _, best_witness = min(
        ((k - comps + modes, comps, witness) for comps, modes, witness in suffix(0, d, k)),
        key=lambda c: (-c[0], -c[1], c[2]),
    )
    chosen = tuple(SeedTriple(*t) for t in best_witness)
    recipe = SeedRecipe(
        seeds=chosen,
        lift_to=d,
        pad=k - math.prod(t.comps for t in chosen),
        value=best_value,
    )
    return BoundValue(best_value), recipe


# -- reference tables ------------------------------------------------------------

# Row sets exactly as printed in the source tables.
GENERAL_ROWS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (10, 4), (10, 5))
HOM_ROWS = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5))
CROSSOVER_K_RANGE = tuple(range(2, 12))


def table_rows(which: int, d_max: int = 200) -> list[dict]:
    """Rows of reference table 1..4 as dicts with keys d, k, family, value.

    Table 1: upper-bound crossover dimensions per k.  Table 2: conjectural
    count and upper bounds, general block then homoscedastic block (rows of
    the latter with r > k - 1 carry realizable=False).  Table 3: lower-bound
    crossover dimensions.  Table 4: conjectural count and lower bounds.
    """
    if which not in (1, 2, 3, 4):
        raise ValueError("table number must be 1, 2, 3 or 4")
    if _ints(d_max)[0] < 1:
        raise ValueError("need k >= 2 and d_max >= 1")
    rows: list[dict] = []
    if which in (1, 3):
        for kind in ("AUG_VS_HET", "AUG_VS_AEH") if which == 1 else ("PP_VS_BIN",):
            for k in CROSSOVER_K_RANGE:
                d = crossover_dimension(kind, k, d_max)
                rows.append({"d": None, "k": k, "family": _CROSSOVERS[kind][2],
                             "value": None if d is None else BoundValue(d)})
        return rows
    if which == 2:
        bound, blocks = upper_bound, [(GENERAL_ROWS, ("BEST", "HET", "AUG", "AEH")),
                                      (HOM_ROWS, ("BEST_HOM", "HOM", "AUG", "AUG_HOM"))]
    else:
        bound, blocks = lower_bound, [(GENERAL_ROWS, LOWER_FAMILIES)]
    for pairs, families in blocks:
        for d, k in pairs:
            for fam in ("M_AIM",) + families:
                value = aim_conjecture(d, k) if fam == "M_AIM" else bound(fam, d, k)
                row = {"d": d, "k": k, "family": fam, "value": value}
                if pairs is HOM_ROWS:
                    row["realizable"] = d <= k - 1
                rows.append(row)
    return rows


def render_table_csv(which: int, d_max: int = 200) -> str:
    """CSV rendering with columns exactly d,k,family,exact,rendered."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["d", "k", "family", "exact", "rendered"])
    for row in table_rows(which, d_max):
        val: BoundValue | None = row["value"]
        family = row["family"]
        if row.get("realizable") is False:
            family += " (not realizable)"
        writer.writerow([
            "" if row["d"] is None else row["d"],
            row["k"],
            family,
            "" if val is None else val.exact,
            "" if val is None else val.rendered,
        ])
    return out.getvalue()


def _format_grid(header: list[str], lines: list[list[str]]) -> str:
    widths = [max(len(h), *(len(line[i]) for line in lines)) for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    out = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    out.extend(fmt.format(*line) for line in lines)
    return "\n".join(out) + "\n"


def render_table_text(which: int, d_max: int = 200) -> str:
    """Aligned plain-text rendering mirroring the printed table layout."""
    rows = table_rows(which, d_max)
    if which in (1, 3):
        by_label: dict[str, list[str]] = {}
        for r in rows:
            by_label.setdefault(r["family"], [r["family"]]).append(
                "-" if r["value"] is None else str(r["value"].exact))
        return _format_grid(["k"] + [str(k) for k in CROSSOVER_K_RANGE], list(by_label.values()))

    blocks: dict[tuple, dict] = {}
    for r in rows:
        key = (r["d"], r["k"], r.get("realizable", True))
        blocks.setdefault(key, {})[r["family"]] = r["value"]
    header_fams = list(dict.fromkeys(r["family"] for r in rows))
    lines = []
    for (d, k, realizable), vals in blocks.items():
        line = [str(d), str(k)]
        for fam in header_fams:
            v = vals.get(fam)
            line.append("" if v is None else v.rendered)
        line.append("" if realizable else "not realizable")
        lines.append(line)
    return _format_grid(["d/r", "k"] + header_fams + ["note"], lines)
