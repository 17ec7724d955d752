"""End-to-end CLI tests through main(argv), covering all exit codes."""

import dataclasses
import json
import re

import numpy as np
import pytest

from modecount import (
    CROSSOVER_KINDS,
    LOWER_FAMILIES,
    UPPER_FAMILIES,
    Mixture,
    PaddingError,
    cli,
    write_mixture,
)
from modecount.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFICATION,
    main,
)


@pytest.fixture
def pair_file(tmp_path):
    m = Mixture.from_arrays([0.5, 0.5], [[-2.0], [2.0]], shared_covariance=np.eye(1))
    path = tmp_path / "pair.json"
    write_mixture(m, path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- bounds ---------------------------------------------------------------------


def test_bounds_text(capsys):
    code, out, _ = run(capsys, ["bounds", "BEST", "4", "5"])
    assert code == EXIT_OK
    assert "BEST(d=4, k=5) = 29246464  [2.92e7]" in out
    assert out.strip().endswith('"output": "text"}') or "config:" in out


def test_bounds_json(capsys):
    code, out, _ = run(capsys, ["bounds", "AEH", "2", "2", "--output", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["exact"] == 968 and doc["rendered"] == "968"
    assert doc["config"]["family"] == "AEH"


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, ["bounds", "PP", "10", "4", "--output", "csv"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "d,k,family,exact,rendered"
    assert lines[2] == "10,4,PP,36,36"


def test_bounds_modes_flag(capsys):
    code, out, _ = run(capsys, ["bounds", "CRIT", "1", "2", "--output", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["exact"] == 16
    code, out, _ = run(capsys, ["bounds", "CRIT", "1", "2", "--modes", "--output", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["exact"] == 8 and doc["family"] == "CRIT_MODES"


def test_bounds_aug_hom_k_only_form(capsys):
    # `bounds AUG_HOM 3` reads its one number as k, and reports it as k
    code, out, _ = run(capsys, ["bounds", "AUG_HOM", "3"])
    assert code == EXIT_OK
    assert out.startswith("AUG_HOM(d=None, k=3) = 144  [144]\n")
    code, out, _ = run(capsys, ["bounds", "AUG_HOM", "3", "--output", "csv"])
    assert out.splitlines()[2] == ",3,AUG_HOM,144,144"
    code, out, _ = run(capsys, ["bounds", "AUG_HOM", "3", "--modes", "--output", "json"])
    doc = json.loads(out)
    assert (doc["d"], doc["k"], doc["exact"], doc["family"]) == (None, 3, 72, "AUG_HOM_MODES")
    assert (doc["config"]["d"], doc["config"]["k"]) == (3, None)
    # with both numbers the first is still reported as d
    code, out, _ = run(capsys, ["bounds", "AUG_HOM", "2", "3", "--output", "csv"])
    assert out.splitlines()[2] == "2,3,AUG_HOM,144,144"


def test_bounds_input_errors(capsys):
    code, _, err = run(capsys, ["bounds", "NOPE", "2", "2"])
    assert code == EXIT_INPUT and "unknown family" in err
    code, _, err = run(capsys, ["bounds", "BIN", "2"])
    assert code == EXIT_INPUT and "need both" in err
    code, _, err = run(capsys, ["bounds", "PP", "10", "4", "--modes"])
    assert code == EXIT_INPUT and "--modes" in err


# -- tables and crossover ----------------------------------------------------------


def test_tables_csv_golden(capsys):
    code, out, _ = run(capsys, ["tables", "2", "--output", "csv"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "d,k,family,exact,rendered"
    assert "4,5,BEST,29246464,2.92e7" in lines


def test_tables_json(capsys):
    code, out, _ = run(capsys, ["tables", "1", "--output", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    stars = {r["k"]: r["exact"] for r in doc["rows"] if r["family"] == "d_star"}
    assert stars == {2: 3, 3: 7, 4: 10, 5: 15, 6: 19, 7: 24, 8: 29, 9: 34, 10: 39, 11: 45}


def test_tables_rerun_byte_identical(capsys):
    _, first, _ = run(capsys, ["tables", "4", "--output", "csv"])
    _, second, _ = run(capsys, ["tables", "4", "--output", "csv"])
    assert first == second


def test_tables_dmax_below_one_is_input_error_for_every_table(capsys):
    for which in ("1", "2", "3", "4"):
        code, out, err = run(capsys, ["tables", which, "--dmax", "0"])
        assert code == EXIT_INPUT and out == "", which
        assert err == "error: need k >= 2 and d_max >= 1\n", which


def test_crossover_single_k(capsys):
    code, out, _ = run(capsys, ["crossover", "AUG_VS_HET", "--k", "5", "--output", "csv"])
    assert code == EXIT_OK
    assert out.splitlines()[2] == "AUG_VS_HET,5,15"


def test_crossover_none_rendering(capsys):
    code, out, _ = run(capsys, ["crossover", "PP_VS_BIN", "--k", "2", "--dmax", "2"])
    assert code == EXIT_OK
    assert "k=2: none" in out
    code, out, _ = run(capsys, ["crossover", "PP_VS_BIN", "--k", "2", "--dmax", "2",
                                "--output", "csv"])
    assert out.splitlines()[2] == "PP_VS_BIN,2,"


def test_crossover_default_range(capsys):
    code, out, _ = run(capsys, ["crossover", "AUG_VS_AEH", "--output", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [r["d"] for r in doc["rows"]] == [1, 1, 1, 1, 1, 4, 7, 10, 13, 16]


def test_crossover_bad_kind(capsys):
    code, _, err = run(capsys, ["crossover", "WHAT"])
    assert code == EXIT_INPUT and "unknown crossover kind" in err


# -- solve -------------------------------------------------------------------------


def test_solve_json(capsys, pair_file):
    code, out, _ = run(capsys, ["solve", pair_file, "--output", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["report"]["n_critical"] == 3
    assert doc["report"]["n_modes"] == 2
    assert doc["config"]["solver"]["grad_accept_tol"] == 1e-9


def test_solve_echoes_every_solver_option(capsys, pair_file):
    code, out, _ = run(capsys, ["solve", pair_file, "--output", "json", "--tol-grad", "1e-8",
                                "--tol-dedup", "1e-5", "--tol-degenerate", "1e-7", "--force"])
    assert code == EXIT_OK
    doc = json.loads(out)
    expected = {"dedup_tol": 1e-5, "degeneracy_tol": 1e-7, "grad_accept_tol": 1e-8, "force": True}
    assert doc["config"]["solver"] == expected
    assert doc["report"]["config"] == expected


def test_solve_csv_columns(capsys, pair_file):
    code, out, _ = run(capsys, ["solve", pair_file, "--output", "csv"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[1] == ("index,loc_0,log_density,gradient_residual,"
                        "morse_index,eig_ratio,degenerate,is_mode")
    assert len(lines) == 5          # config comment + header + three points


def test_solve_text(capsys, pair_file):
    code, out, _ = run(capsys, ["solve", pair_file])
    assert code == EXIT_OK
    assert "critical points: 3   modes: 2" in out
    assert "morse_inequality_ok: True" in out


def test_solve_rerun_byte_identical(capsys, pair_file):
    _, first, _ = run(capsys, ["solve", pair_file, "--output", "json"])
    _, second, _ = run(capsys, ["solve", pair_file, "--output", "json"])
    assert first == second


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["solve", str(tmp_path / "nope.json")])
    assert code == EXIT_INPUT and "error:" in err


def test_solve_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"weights": [1.0]}')
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == EXIT_INPUT


def test_solve_rejects_non_finite_mean(capsys, tmp_path):
    # json.load accepts NaN and Infinity: a NaN mean died in a LinAlgError
    # traceback, and an infinite one reported 0 critical points and exit 0
    path = tmp_path / "bad.json"
    for mean in ("NaN", "Infinity", "-Infinity"):
        path.write_text('{"weights": [0.5, 0.5], "means": [[%s], [1.0]], "shared_covariance": [[1.0]]}' % mean)
        for argv in (["solve", str(path)], ["verify", str(path), "--claim", "1"]):
            code, out, err = run(capsys, argv)
            assert code == EXIT_INPUT and out == "" and err.startswith("error:"), (mean, argv)
            assert "mean must be finite" in err


def test_invalid_tolerances_are_input_errors(capsys, tmp_path, pair_file):
    # a NaN or negative tolerance reported 0 critical points, and exit 0,
    # for the pair, which has 3
    out_path = tmp_path / "s3.json"
    commands = (["solve", pair_file], ["verify", pair_file, "--claim", "2"],
                ["construct", "simplex", "--K", "3", "--out", str(out_path)])
    for flag, field in (("--tol-grad", "grad_accept_tol"), ("--tol-dedup", "dedup_tol"),
                        ("--tol-degenerate", "degeneracy_tol")):
        for value in ("nan", "-1", "0", "inf"):
            for argv in commands:
                code, out, err = run(capsys, argv + [flag, value])
                assert code == EXIT_INPUT and out == "" and err.startswith("error:"), (argv, flag, value)
                assert f"{field} must be finite and positive" in err
    assert not out_path.exists()


def test_input_errors_exit_2_with_one_line(capsys, tmp_path, pair_file):
    # an unwritable --out and --dmax 0 escaped as tracebacks with exit 1, and
    # a non-finite --sep-factor failed as a non-finite component mean
    out_path = str(tmp_path / "x.json")
    cases = [
        (["construct", "simplex", "--K", "3", "--out", str(tmp_path / "missing" / "x.json")],
         "No such file or directory"),
        (["tables", "1", "--dmax", "0"], "d_max >= 1"),
        (["tables", "3", "--dmax", "0"], "d_max >= 1"),
    ]
    for value in ("nan", "inf"):
        cases += [
            (["construct", "pad", "--base", pair_file, "--sep-factor", value, "--out", out_path],
             f"separation factor must be finite, got {value}"),
            (["construct", "recipe", "--seeds", "1,2,2", "--d", "2", "--k", "3",
              "--sep-factor", value, "--out", out_path],
             f"separation factor must be finite, got {value}"),
        ]
    # a finite factor whose distance squared overflows failed as a non-finite component mean
    cases += [
        (["construct", "pad", "--base", pair_file, "--sep-factor", "1e308", "--out", out_path],
         "separation factor 1e+308 is too large"),
        (["construct", "recipe", "--seeds", "1,2,2", "--d", "2", "--k", "3",
          "--sep-factor", "1e308", "--out", out_path],
         "separation factor 1e+308 is too large"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, argv)
        assert code == EXIT_INPUT and out == "" and err.startswith("error:"), argv
        assert message in err and "Traceback" not in err and err.count("\n") == 1, (argv, err)


def test_solve_limits_respected(capsys, tmp_path):
    rng = np.random.default_rng(60)
    m = Mixture.from_arrays(
        np.full(7, 1.0 / 7), rng.uniform(-3, 3, size=(7, 1)), shared_covariance=np.eye(1)
    )
    path = tmp_path / "wide.json"
    write_mixture(m, path)
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == EXIT_INPUT and "force=True" in err
    code, out, _ = run(capsys, ["solve", str(path), "--force", "--output", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["report"]["n_modes"] >= 1


def test_solve_reduce_rank(capsys, tmp_path):
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]).T      # span of first two axes
    coords = np.array([[-2.0, 0.0], [2.0, 0.0], [0.0, 2.5]])
    m = Mixture.from_arrays(
        [1.0, 1.0, 1.0], coords @ basis, shared_covariance=np.eye(3)
    )
    path = tmp_path / "planar.json"
    write_mixture(m, path)
    code, direct_out, _ = run(capsys, ["solve", str(path), "--output", "json"])
    assert code == EXIT_OK
    code, reduced_out, _ = run(capsys, ["solve", str(path), "--reduce-rank", "--output", "json"])
    assert code == EXIT_OK
    direct = json.loads(direct_out)["report"]
    reduced = json.loads(reduced_out)["report"]
    assert reduced["hom_rank"] == 2
    assert direct["n_critical"] == reduced["n_critical"]
    assert direct["n_modes"] == reduced["n_modes"]


def test_solve_reduce_rank_coincident_means(capsys, tmp_path):
    m = Mixture.from_arrays([0.3, 0.7], [[1.0, 2.0], [1.0, 2.0]], shared_covariance=np.eye(2))
    path = tmp_path / "coincident.json"
    write_mixture(m, path)
    code, out, err = run(capsys, ["solve", str(path), "--reduce-rank", "--output", "json"])
    assert code == EXIT_OK, err
    report = json.loads(out)["report"]
    assert report["n_critical"] == report["n_modes"] == 1
    assert report["hom_rank"] == 0


# -- verify ------------------------------------------------------------------------


def test_verify_pass_and_fail(capsys, pair_file):
    code, out, _ = run(capsys, ["verify", pair_file, "--claim", "2"])
    assert code == EXIT_OK and "verdict: PASS" in out
    code, out, _ = run(capsys, ["verify", pair_file, "--claim", "3"])
    assert code == EXIT_VERIFICATION and "verdict: FAIL" in out


def test_verify_csv(capsys, pair_file):
    code, out, _ = run(capsys, ["verify", pair_file, "--claim", "2", "--output", "csv"])
    assert code == EXIT_OK
    assert out.splitlines()[1] == "verdict,claim,verified_modes,n_critical"
    assert out.splitlines()[2] == "PASS,2,2,3"


def test_cli_fails_a_report_that_breaks_only_the_morse_equality(capsys, pair_file, monkeypatch):
    # without one of its two modes the pair's report has N = 2 and M = 1: it
    # keeps the inequalities and the sandwich, and breaks the equality 1 - 1 != 1
    solve = cli.find_critical_points

    def one_mode_missing(*args, **kwargs):
        report = solve(*args, **kwargs)
        drop = next(i for i, p in enumerate(report.points) if p.is_mode)
        return dataclasses.replace(report, points=report.points[:drop] + report.points[drop + 1:])

    monkeypatch.setattr(cli, "find_critical_points", one_mode_missing)
    code, out, _ = run(capsys, ["solve", pair_file])
    assert code == EXIT_VERIFICATION
    assert "critical points: 2   modes: 1" in out
    assert "morse_inequality_ok: True   morse_equality_ok: False   upper_sandwich_ok: True" in out
    code, out, _ = run(capsys, ["verify", pair_file, "--claim", "1"])
    assert code == EXIT_VERIFICATION and "verdict: FAIL" in out
    assert "morse_equality_ok: False" in out
    code, out, _ = run(capsys, ["verify", pair_file, "--claim", "1", "--output", "json"])
    doc = json.loads(out)
    assert doc["verdict"] == "FAIL" and doc["morse_equality_ok"] is False
    assert doc["morse_inequality_ok"] is True and doc["upper_sandwich_ok"] is True


def test_verify_negative_claim_is_input_error(capsys, pair_file):
    code, out, err = run(capsys, ["verify", pair_file, "--claim", "-3"])
    assert code == EXIT_INPUT and out == ""
    assert err == "error: claimed mode count must be >= 0, got -3\n"


def test_verify_degenerate_is_inconclusive(capsys, tmp_path):
    m = Mixture.from_arrays([0.5, 0.5], [[-1.0], [1.0]], shared_covariance=np.eye(1))
    path = tmp_path / "fold.json"
    write_mixture(m, path)
    code, out, _ = run(capsys, ["verify", str(path), "--claim", "1", "--output", "json"])
    assert code == EXIT_INCONCLUSIVE
    doc = json.loads(out)
    assert doc["verdict"] == "INCONCLUSIVE"
    assert "(tilt_polish applies |c| = 1e-3, halving on failure)" in doc["note"]


# -- construct ----------------------------------------------------------------------


def test_construct_simplex_roundtrip(capsys, tmp_path):
    out_path = str(tmp_path / "s3.json")
    code, out, _ = run(capsys, ["construct", "simplex", "--K", "3", "--eps", "0.05",
                                "--out", out_path, "--output", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n_components"] == 3 and doc["dim"] == 2
    prov = json.loads(open(out_path + ".provenance.json").read())
    assert prov["expected_modes"] == 4 and prov["verified_modes"] is None
    code, out, _ = run(capsys, ["verify", out_path, "--claim", "4"])
    assert code == EXIT_OK and "verdict: PASS" in out


def test_construct_simplex_default_epsilon(capsys, tmp_path):
    out_path = str(tmp_path / "s4.json")
    code, out, _ = run(capsys, ["construct", "simplex", "--K", "4", "--out", out_path,
                                "--output", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["provenance"]["epsilon"] == 0.05
    prov = json.loads(open(out_path + ".provenance.json").read())
    assert prov["epsilon"] == 0.05 and prov["expected_modes"] == 5


def test_construct_simplex_default_builds_every_mode(capsys, tmp_path):
    # the default epsilon lies inside the K = 3 seed's window (its fold is
    # near 0.09), so the default build has the center and three ray modes
    out_path = str(tmp_path / "s3.json")
    code, out, _ = run(capsys, ["construct", "simplex", "--K", "3", "--out", out_path,
                                "--output", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["provenance"]["expected_modes"] == 4
    code, out, _ = run(capsys, ["verify", out_path, "--claim", "4"])
    assert code == EXIT_OK and "verdict: PASS" in out


def test_construct_product(capsys, tmp_path, pair_file):
    out_path = str(tmp_path / "prod.json")
    code, out, _ = run(capsys, ["construct", "product", "--a", pair_file, "--b", pair_file,
                                "--out", out_path, "--output", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n_components"] == 4 and doc["dim"] == 2
    code, out, _ = run(capsys, ["verify", out_path, "--claim", "4"])
    assert code == EXIT_OK


def test_construct_pad(capsys, tmp_path, pair_file):
    out_path = str(tmp_path / "padded.json")
    code, out, _ = run(capsys, ["construct", "pad", "--base", pair_file, "--count", "1",
                                "--out", out_path, "--output", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["n_components"] == 3
    code, _, _ = run(capsys, ["verify", out_path, "--claim", "3"])
    assert code == EXIT_OK


def test_construct_recipe(capsys, tmp_path):
    out_path = str(tmp_path / "recipe.json")
    code, out, _ = run(capsys, ["construct", "recipe", "--seeds", "1,2,2;1,2,2",
                                "--d", "2", "--k", "4", "--out", out_path,
                                "--output", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["provenance"]["verified_modes"] >= 4
    assert doc["provenance"]["claimed_modes"] == 4
    assert doc["provenance"]["pad"] == 0


def test_construct_recipe_with_pad(capsys, tmp_path):
    out_path = str(tmp_path / "recipe_pad.json")
    code, out, _ = run(capsys, ["construct", "recipe", "--seeds", "1,2,2",
                                "--d", "2", "--k", "3", "--out", out_path,
                                "--output", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["provenance"]["pad"] == 1
    assert doc["provenance"]["verified_modes"] == 3


def test_construct_recipe_budget_error(capsys, tmp_path):
    code, _, err = run(capsys, ["construct", "recipe", "--seeds", "1,2,2;1,2,2",
                                "--d", "2", "--k", "3",
                                "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INPUT and "component budget" in err


def test_construct_recipe_unregistered_seed(capsys, tmp_path):
    code, _, err = run(capsys, ["construct", "recipe", "--seeds", "2,2,3",
                                "--d", "2", "--k", "2",
                                "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INPUT and "no builder" in err


def test_construct_recipe_verification_shortfall(capsys, tmp_path):
    # the K = 3 simplex loses its ray modes past the fold, so realizing at
    # eps = 0.15 cannot reach the claimed 4 modes
    code, _, err = run(capsys, ["construct", "recipe", "--seeds", "2,3,4",
                                "--d", "2", "--k", "3", "--eps", "0.15",
                                "--out", str(tmp_path / "x.json")])
    assert code == EXIT_VERIFICATION and "shortfall" in err


def test_construct_padding_failure_exits_1(capsys, tmp_path, pair_file, monkeypatch):
    def fail(*args, **kwargs):
        raise PaddingError("boundary test failed at every separation tried")

    monkeypatch.setattr(cli, "pad_remote", fail)
    code, out, err = run(capsys, ["construct", "pad", "--base", pair_file,
                                  "--out", str(tmp_path / "x.json")])
    assert code == EXIT_VERIFICATION and out == ""
    assert err == "construction failure: boundary test failed at every separation tried\n"


def test_construct_missing_required(capsys, tmp_path):
    code, _, err = run(capsys, ["construct", "simplex", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INPUT and "--K" in err


# -- argparse plumbing -----------------------------------------------------------------


def test_no_command_is_input_error(capsys):
    assert main([]) == EXIT_INPUT
    capsys.readouterr()


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bounds" in out and "construct" in out


def test_help_names_every_family_and_kind(capsys):
    assert main(["bounds", "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in UPPER_FAMILIES + LOWER_FAMILIES + ("AIM",):
        assert re.search(rf"\b{name}\b", out), name
    assert main(["crossover", "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in CROSSOVER_KINDS:
        assert re.search(rf"\b{name}\b", out), name
    assert "k = 2..11" in out
