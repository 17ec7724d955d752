"""Bound-calculator tests: exact integers, published tables, rendering, seeds."""

import hashlib

import numpy as np
import pytest

from modecount import (
    CROSSOVER_KINDS,
    LOWER_FAMILIES,
    UPPER_FAMILIES,
    BoundValue,
    SeedRecipe,
    SeedTriple,
    aim_conjecture,
    crossover_dimension,
    lower_bound,
    mode_bound_from_critical,
    ray_ren_family,
    render_table_csv,
    render_table_text,
    seed_closure_bound,
    simplex_family,
    table_rows,
    upper_bound,
)
from modecount.bounds import GENERAL_ROWS, HOM_ROWS

# Frozen reference values.  The general block lists, per (d, k), the rendered
# strings for (M_AIM, BEST, HET, AUG, AEH); the homoscedastic block lists, per
# (r, k), the strings for (M_AIM, BEST_HOM, HOM, AUG, AUG_HOM); the lower
# block lists exact integers for (AEH_L, BIN, PP, BEST_L).
GENERAL_TABLE = {
    (2, 2): ("3", "20", "20", "27", "968"),
    (2, 3): ("6", "392", "392", "1.35e3", "4.26e4"),
    (2, 4): ("10", "1.10e4", "1.10e4", "2.22e5", "3.75e6"),
    (3, 3): ("10", "1.02e3", "1.02e3", "3.20e3", "1.76e5"),
    (3, 4): ("20", "6.40e4", "6.40e4", "7.02e5", "1.97e7"),
    (4, 4): ("35", "1.70e5", "1.70e5", "1.72e6", "8.55e7"),
    (4, 5): ("70", "2.92e7", "2.92e7", "1.31e9", "2.33e10"),
    (5, 5): ("126", "7.87e7", "7.87e7", "3.27e9", "1.05e11"),
    (10, 4): ("286", "4.02e7", "4.02e7", "4.02e7", "9.83e10"),
    (10, 5): ("1.00e3", "8.54e9", "8.54e9", "6.76e10", "5.51e13"),
}
HOM_TABLE = {
    (1, 2): ("2", "6", "6", "12", "8"),
    (1, 3): ("3", "36", "36", "400", "144"),
    (2, 3): ("6", "144", "200", "1.35e3", "144"),
    (1, 4): ("4", "432", "432", "4.39e4", "8.19e3"),
    (2, 4): ("10", "4.00e3", "4.00e3", "2.22e5", "8.19e3"),
    (3, 4): ("20", "8.19e3", "2.20e4", "7.02e5", "8.19e3"),
    (1, 5): ("5", "1.04e4", "1.04e4", "1.34e7", "1.28e6"),
    (2, 5): ("15", "1.60e5", "1.60e5", "1.02e8", "1.28e6"),
    (3, 5): ("35", "1.23e6", "1.23e6", "4.30e8", "1.28e6"),
    (4, 5): ("70", "1.28e6", "6.72e6", "1.31e9", "1.28e6"),
}
LOWER_TABLE = {
    (2, 2): (3, 3, 3, 3),
    (2, 3): (6, 6, 4, 6),
    (2, 4): (10, 10, 5, 10),
    (3, 3): (4, 6, 5, 6),
    (3, 4): (8, 10, 6, 10),
    (4, 4): (5, 10, 9, 10),
    (4, 5): (10, 15, 10, 15),
    (5, 5): (6, 15, 13, 15),
    (10, 4): (4, 10, 36, 36),
    (10, 5): (5, 15, 37, 37),
}
D_STAR = {k: d for k, d in zip(range(2, 12), (3, 7, 10, 15, 19, 24, 29, 34, 39, 45))}
D_AEH = {k: d for k, d in zip(range(2, 12), (1, 1, 1, 1, 1, 4, 7, 10, 13, 16))}
D_PP = {k: d for k, d in zip(range(2, 12), (3, 5, 5, 6, 8, 11, 10, 13, 17, 21))}


# -- exact integer anchors -------------------------------------------------------


def test_integer_anchors():
    assert int(upper_bound("HET", 2, 2)) == 20
    assert int(upper_bound("AUG", 2, 2)) == 27
    assert int(upper_bound("AEH", 2, 2)) == 968
    assert int(upper_bound("HET", 3, 3)) == 1024
    assert int(upper_bound("AUG_HOM", 4)) == 8192
    assert int(upper_bound("HET", 10, 4)) == 40247296
    assert int(upper_bound("AUG", 10, 4)) == 40174904
    assert int(upper_bound("AUG", 2, 3)) == 1350
    assert int(lower_bound("PP", 10, 4)) == 36
    assert int(lower_bound("BIN", 4, 5)) == 15
    assert int(lower_bound("BIN", 2, 3)) == 6
    assert int(lower_bound("PP", 4, 4)) == 9
    assert int(lower_bound("BEST_L", 5, 5)) == 15
    assert int(aim_conjecture(10, 5)) == 1001
    assert int(aim_conjecture(3, 3)) == 10


def test_aug_hom_ignores_its_dimension_argument():
    # AUG_HOM depends on k alone, so a dimension of 0 is no error for it
    assert upper_bound("AUG_HOM", 5).exact == 1_280_000
    assert upper_bound("AUG_HOM", 0, 5) == upper_bound("AUG_HOM", 3, 5) == upper_bound("AUG_HOM", 5)
    with pytest.raises(ValueError, match="must be >= 1"):
        upper_bound("HOM", 0, 5)


def test_best_is_pointwise_min():
    for d in range(1, 12):
        for k in range(2, 8):
            best = int(upper_bound("BEST", d, k))
            assert best == min(int(upper_bound("HET", d, k)), int(upper_bound("AUG", d, k)))
            bh = int(upper_bound("BEST_HOM", d, k))
            assert bh == min(
                int(upper_bound("HOM", d, k)),
                int(upper_bound("AUG", d, k)),
                int(upper_bound("AUG_HOM", d, k)),
            )


def test_critical_point_bounds():
    # binom(k-1,2)+2 powers of two times the orthant-wise root counts
    assert int(upper_bound("CRIT", 1, 2)) == 2**2 * 5**0 * 4
    assert int(upper_bound("CRIT", 2, 2)) == 2**2 * 5 * 10
    assert int(upper_bound("CRIT_HOM", 2, 3)) == 2**3 * 4 * 7**2
    # mode bound from a critical-point bound is the halved, rounded-up value
    assert int(mode_bound_from_critical(upper_bound("CRIT", 2, 2))) == (200 + 1) // 2
    assert int(mode_bound_from_critical(7)) == 4
    assert int(mode_bound_from_critical(8)) == 4
    assert mode_bound_from_critical(BoundValue(7)) == mode_bound_from_critical(7) == BoundValue(4)


def test_non_integer_arguments_raise_type_error():
    # a float is never truncated to an integer d, k, d_max, critical-point
    # bound or seed entry
    calls = [
        lambda: upper_bound("HET", 2.7, 3),
        lambda: upper_bound("HET", 2, 3.0),
        lambda: upper_bound("AUG_HOM", 3.5),
        lambda: lower_bound("PP", 10.5, 4),
        lambda: lower_bound("BIN", 4, 5.0),
        lambda: aim_conjecture(2.5, 3),
        lambda: crossover_dimension("AUG_VS_HET", 3.0),
        lambda: crossover_dimension("AUG_VS_HET", 3, d_max=50.5),
        lambda: seed_closure_bound(2.9, 4, simplex_family),
        lambda: seed_closure_bound(2, 4.0, ray_ren_family),
        lambda: table_rows(1, d_max=5.5),
        lambda: table_rows(2, d_max=200.0),
        lambda: mode_bound_from_critical(7.9),
        lambda: SeedTriple(1.5, 2, 2),
        lambda: SeedRecipe(seeds=(SeedTriple(1, 2, 2),), lift_to=2.0, pad=0, value=2),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="integer"):
            call()
    # numpy integers are integers
    assert int(upper_bound("HET", np.int64(2), np.int64(3))) == 392
    assert int(lower_bound("PP", np.int32(10), np.int64(4))) == 36
    assert crossover_dimension("PP_VS_BIN", np.int64(2), np.int64(2)) is None
    assert seed_closure_bound(np.int64(10), np.int64(4), ray_ren_family)[1].lift_to == 10


def test_family_validation():
    with pytest.raises(ValueError):
        upper_bound("NOPE", 2, 2)
    with pytest.raises(ValueError):
        lower_bound("HET", 2, 2)
    with pytest.raises(ValueError):
        crossover_dimension("NOPE", 3)
    with pytest.raises(ValueError):
        upper_bound("HET", 0, 2)
    with pytest.raises(ValueError):
        lower_bound("BIN", 2, 1)


# -- rendering --------------------------------------------------------------------


def test_render_three_significant_digits():
    assert BoundValue(999).rendered == "999"
    assert BoundValue(1000).rendered == "1.00e3"
    assert BoundValue(968).rendered == "968"
    # banker's rounding on the third digit
    assert BoundValue(1005).rendered == "1.00e3"
    assert BoundValue(1015).rendered == "1.02e3"
    assert BoundValue(29246464).rendered == "2.92e7"
    assert BoundValue(3).rendered == "3"


def test_bound_value_is_int_like():
    v = upper_bound("AEH", 2, 2)
    assert int(v) == v.exact == 968
    assert v.rendered == "968"


# -- published tables ---------------------------------------------------------------


def test_crossover_rows():
    for k in range(2, 12):
        assert crossover_dimension("AUG_VS_HET", k) == D_STAR[k]
        assert crossover_dimension("AUG_VS_AEH", k) == D_AEH[k]
        assert crossover_dimension("PP_VS_BIN", k) == D_PP[k]


def test_crossover_not_found():
    assert crossover_dimension("PP_VS_BIN", 2, d_max=2) is None


def test_general_upper_table():
    for (d, k), expected in GENERAL_TABLE.items():
        got = (
            aim_conjecture(d, k).rendered,
            upper_bound("BEST", d, k).rendered,
            upper_bound("HET", d, k).rendered,
            upper_bound("AUG", d, k).rendered,
            upper_bound("AEH", d, k).rendered,
        )
        assert got == expected, (d, k)


def test_homoscedastic_upper_table():
    for (r, k), expected in HOM_TABLE.items():
        got = (
            aim_conjecture(r, k).rendered,
            upper_bound("BEST_HOM", r, k).rendered,
            upper_bound("HOM", r, k).rendered,
            upper_bound("AUG", r, k).rendered,
            upper_bound("AUG_HOM", r, k).rendered,
        )
        assert got == expected, (r, k)


def test_lower_table():
    for (d, k), expected in LOWER_TABLE.items():
        got = (
            int(lower_bound("AEH_L", d, k)),
            int(lower_bound("BIN", d, k)),
            int(lower_bound("PP", d, k)),
            int(lower_bound("BEST_L", d, k)),
        )
        assert got == expected, (d, k)


def test_table_rows_cover_published_rows():
    rows2 = table_rows(2)
    gen = {(r["d"], r["k"], r["family"]): r["value"].rendered for r in rows2 if "realizable" not in r}
    assert gen[(4, 5, "BEST")] == "2.92e7"
    hom = {(r["d"], r["k"], r["family"]): r for r in rows2 if "realizable" in r}
    assert hom[(4, 5, "BEST_HOM")]["value"].rendered == "1.28e6"
    # every printed homoscedastic row satisfies r <= k - 1
    assert all(r["realizable"] for r in rows2 if "realizable" in r)
    assert {r["k"] for r in table_rows(1)} == set(range(2, 12))
    with pytest.raises(ValueError):
        table_rows(5)


def test_table_csv_golden():
    csv2 = render_table_csv(2).splitlines()
    assert csv2[0] == "d,k,family,exact,rendered"
    assert "4,5,BEST,29246464,2.92e7" in csv2
    assert "4,5,BEST_HOM,1280000,1.28e6" in csv2
    csv1 = render_table_csv(1).splitlines()
    assert csv1[1] == ",2,d_star,3,3"
    csv3 = render_table_csv(3).splitlines()
    assert csv3[1] == ",2,d_pp,3,3"


def test_tables_dmax_below_one_raises_for_every_table():
    for which in (1, 2, 3, 4):
        with pytest.raises(ValueError, match="d_max >= 1"):
            table_rows(which, d_max=0)
    with pytest.raises(ValueError, match="table number"):
        table_rows(5, d_max=0)


# sha256 of the full text and csv rendering of each table at the default d_max
TABLE_DIGESTS = {
    1: ("2840eea95fccf0ab78882aacadedf890dd8ef57a52b73d9c7451a2f1e39b2c92",
        "feeb9103c58cebc5a6a2e6876db9f42fce3651af76df0ac624ee8417628c7002"),
    2: ("fb84c8e2e47c6ca7aebd1b8f587f89100ec62aa3a96487aab43cd0b1aa9aa7c3",
        "1cef18732fa926d4268581b0cb4f9b08678188087e834cecc488f6049b2c92a2"),
    3: ("9ed0b1b8587510fcd2a5d7f86f11802e576ccecca1c0f54f3db63ba93c58b1a1",
        "92f74d4bfb5317b5d10b41fa94b001f648ec819d9e139e025855ce193f601af4"),
    4: ("0d7420fc16909fa34abf0729f32016dcbdc99cfb4ff3566b6d277b9ef9391977",
        "b3dbc2c915d3a68f53aa0c4b548a6d4809d0949cc3518fbeda4667400d1fbca0"),
}


def test_full_tables_are_pinned():
    for which, (text_digest, csv_digest) in TABLE_DIGESTS.items():
        assert hashlib.sha256(render_table_text(which).encode()).hexdigest() == text_digest, which
        assert hashlib.sha256(render_table_csv(which).encode()).hexdigest() == csv_digest, which


def test_table_text_layout():
    text1 = render_table_text(1)
    lines = text1.splitlines()
    assert lines[0].split() == ["k"] + [str(k) for k in range(2, 12)]
    star = next(l for l in lines if l.lstrip().startswith("d_star"))
    assert star.split()[1:] == ["3", "7", "10", "15", "19", "24", "29", "34", "39", "45"]
    text2 = render_table_text(2)
    assert "2.92e7" in text2 and "1.28e6" in text2


# -- grid order properties -----------------------------------------------------------


def test_grid_order_properties():
    for d in range(1, 31):
        for k in range(2, 9):
            assert int(upper_bound("HET", d, k)) < int(upper_bound("AEH", d, k))
            assert int(lower_bound("PP", d, k)) >= d + k - 1
            if d >= 2:
                assert int(lower_bound("BIN", d, k)) >= int(lower_bound("AEH_L", d, k))
                assert int(lower_bound("BEST_L", d, k)) <= (int(upper_bound("BEST", d, k)) + 1) // 2


# -- seed closure ---------------------------------------------------------------------


def test_seed_families():
    assert ray_ren_family(3, 4) == [SeedTriple(1, 2, 2), SeedTriple(2, 2, 3), SeedTriple(3, 2, 4)]
    assert simplex_family(4, 5) == [SeedTriple(2, 3, 4), SeedTriple(3, 4, 5), SeedTriple(4, 5, 6)]
    assert simplex_family(1, 5) == []


def test_seed_closure_examples():
    value, recipe = seed_closure_bound(10, 4, ray_ren_family)
    assert int(value) == 36
    assert recipe.seeds == (SeedTriple(5, 2, 6), SeedTriple(5, 2, 6))
    assert recipe.pad == 0 and recipe.value == 36

    value, recipe = seed_closure_bound(1, 2, ray_ren_family)
    assert int(value) == 2
    assert recipe.seeds == (SeedTriple(1, 2, 2),) and recipe.pad == 0

    value, recipe = seed_closure_bound(4, 5, simplex_family)
    assert int(value) == 6
    assert recipe.seeds == (SeedTriple(4, 5, 6),) and recipe.pad == 0


def test_seed_closure_pure_padding():
    # no eligible seeds: the trivial one-component base (one mode) plus
    # k - 1 remote components, one extra mode each
    value, recipe = seed_closure_bound(2, 5, simplex_family(1, 2))
    assert int(value) == 5
    assert recipe.seeds == () and recipe.pad == 4 and recipe.lift_to == 2
    assert recipe.total_components == 5


def test_seed_closure_dominates_pp():
    for d in range(1, 16):
        for k in range(2, 7):
            value, recipe = seed_closure_bound(d, k, ray_ren_family)
            assert int(value) >= int(lower_bound("PP", d, k)), (d, k)
            # admissibility re-check: every budget is spent consistently
            assert sum(t.dim for t in recipe.seeds) <= recipe.lift_to == d
            assert recipe.pad >= 0
            assert recipe.total_components == k
            modes = 1
            for t in recipe.seeds:
                modes *= t.modes
            assert recipe.value == recipe.pad + modes


def test_seed_recipe_validation():
    with pytest.raises(ValueError):
        SeedRecipe(seeds=(SeedTriple(3, 2, 4),), lift_to=2, pad=0, value=4)
    with pytest.raises(ValueError):
        SeedRecipe(seeds=(SeedTriple(1, 2, 2),), lift_to=1, pad=1, value=4)
    with pytest.raises(ValueError):
        SeedTriple(0, 2, 2)
    r = SeedRecipe(seeds=(SeedTriple(1, 2, 2), SeedTriple(1, 2, 2)), lift_to=3, pad=1, value=5)
    assert r.total_components == 5


def test_family_tuples_exported():
    assert "BEST" in UPPER_FAMILIES and "PP" in LOWER_FAMILIES
    assert set(CROSSOVER_KINDS) == {"AUG_VS_HET", "AUG_VS_AEH", "PP_VS_BIN"}
    assert len(GENERAL_ROWS) == len(HOM_ROWS) == 10


def test_family_tuples_keep_their_order():
    assert UPPER_FAMILIES == (
        "AEH", "HET", "AUG", "HOM", "AUG_HOM", "BEST", "BEST_HOM", "CRIT", "CRIT_HOM")
    assert LOWER_FAMILIES == ("AEH_L", "BIN", "PP", "BEST_L")
    assert CROSSOVER_KINDS == ("AUG_VS_HET", "AUG_VS_AEH", "PP_VS_BIN")
