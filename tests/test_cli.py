import json
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest

from rplap import cli
from rplap.cli import main
from rplap.reporting import write_csv, write_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_veronese_check_passes(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "veronese-check",
        "--dims", "1-3",
        "--samples", "50",
        "--json", str(json_path),
    )
    assert code == 0
    assert out.count("[pass]") == 3
    payload = json.loads(json_path.read_text())
    assert payload["passed"] is True
    assert [row["dim"] for row in payload["rows"]] == [1, 2, 3]


def test_veronese_check_impossible_tolerance_fails(capsys):
    code, out, _ = run(
        capsys, "veronese-check", "--dims", "2", "--samples", "20", "--norm-tol", "1e-20"
    )
    assert code == 1
    assert "[FAIL]" in out


def test_spectrum_round(capsys):
    code, out, _ = run(capsys, "spectrum", "--dim", "2", "--factor", "round", "--count", "6")
    assert code == 0
    assert "metric: round on dimension 2" in out
    assert "multiplicity 5" in out


def test_spectrum_normalized_zonal(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--dim", "2", "--factor", "zonal:0.5",
        "--normalize", "true", "--count", "4",
    )
    assert code == 0
    assert "zonal:0.5" in out


def test_theorem_check_round(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "theorem-check", "--factor", "round", "--csv", str(csv_path))
    assert code == 0
    assert "[pass]" in out
    header, row = csv_path.read_text().strip().splitlines()
    assert header.split(",")[:3] == ["dim", "factor", "lambda_2"]
    assert row.split(",")[1] == "round"


def test_rayleigh_chain_with_image_pole(capsys):
    code, out, _ = run(
        capsys,
        "rayleigh-chain", "--dim", "2", "--factor", "zonal:0.5",
        "--pole", "image:1,0,0", "--t", "0.5",
    )
    assert code == 0
    assert "[FAIL]" not in out


def test_com_solve_synthetic(capsys, tmp_path):
    json_path = tmp_path / "com.json"
    code, out, _ = run(
        capsys,
        "com-solve", "--shift", "0.3,0,0,0", "--pairs", "32",
        "--json", str(json_path),
    )
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert payload["recovery_error"] < 1e-8
    np_center = np.asarray(payload["center"])
    assert np.linalg.norm(np_center - np.array([0.3, 0, 0, 0])) < 1e-8


def test_com_solve_numerical_failure_exits_3(capsys):
    code, _, err = run(capsys, "com-solve", "--shift", "0.9,0,0", "--max-iter", "1")
    assert code == 3
    assert err.startswith("numerical failure")


def test_com_solve_near_the_sphere_is_never_a_configuration_error(capsys):
    # trial centers whose Moebius denominators degenerate are rejected steps
    code, _, err = run(capsys, "com-solve", "--shift", "0.9999999,0,0", "--pairs", "16")
    assert code in (0, 3)
    assert "configuration error" not in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("--shift", "0.5,0,0", "--pairs", "16", "--max-iter", "2"), "iteration cap 2 reached"),
        (("--shift", "0.9999999,0,0"), "no step halving to 2^-10 lowered the residual"),
    ],
    ids=["cap", "halving"],
)
def test_com_solve_failure_names_why_it_stopped(capsys, argv, reason):
    code, _, err = run(capsys, "com-solve", *argv)
    assert code == 3
    assert err.startswith("numerical failure: center of mass stopped at residual")
    assert err.endswith(f": {reason}\n")


@pytest.mark.parametrize("t_max", ["-1", "nan"])
def test_vfield_search_t_max_below_zero_is_a_one_line_config_error(capsys, t_max):
    code, out, err = run(capsys, "vfield-search", "--t-max", t_max)
    assert code == 2
    assert out == ""
    assert err == f"configuration error: t_max must be >= 0, got {float(t_max)!r}\n"


def test_vfield_search_below_threshold_exits_1(capsys, tmp_path):
    json_path = tmp_path / "vf.json"
    code, out, _ = run(
        capsys,
        "vfield-search", "--dim", "2", "--factor", "zonal:0.5", "--starts", "1",
        "--maxiter", "0", "--threshold", "1e-30", "--json", str(json_path),
    )
    assert code == 1
    assert out.startswith("[FAIL] best residual")
    assert json.loads(json_path.read_text())["meets_threshold"] is False


@pytest.mark.parametrize("command", ["spectrum", "theorem-check"])
@pytest.mark.parametrize("dim", ["1", "4"])
def test_unsupported_dimension_is_a_config_error(capsys, command, dim):
    code, _, err = run(capsys, command, "--dim", dim)
    assert code == 2
    assert err.startswith("configuration error") and "dimension" in err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_nonpositive_count_is_a_config_error(capsys, count):
    code, out, err = run(capsys, "spectrum", "--count", count)
    assert code == 2
    assert out == ""
    assert "count" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("veronese-check", "--seed", "-1"),
        ("degree", "--seed", "-1"),
        ("vfield-search", "--seed", "-1"),
        ("com-solve", "--seed", "-1"),
        ("veronese-check", "--samples", "0"),
        ("veronese-check", "--samples", "-1"),
        ("veronese-check", "--dims", "-3"),
        ("com-solve", "--shift", "0.1,0,0", "--pairs", "0"),
        ("com-solve", "--shift", "0.1,0,0", "--pairs", "-2"),
        ("vfield-search", "--starts", "-1"),
        ("vfield-search", "--maxiter", "-1"),
        ("com-solve", "--max-iter", "-1"),
    ],
    ids=" ".join,
)
def test_count_or_seed_below_its_minimum_is_a_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"configuration error: argument {argv[-2]}: must be at least")


def test_unparsable_count_names_its_type(capsys):
    code, _, err = run(capsys, "veronese-check", "--samples", "many")
    assert code == 2
    assert "argument --samples: invalid int value: 'many'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("limits-fold", "--t-values", ","),
        ("limits-moebius", "--radii", ""),
        ("com-solve", "--shift", ","),
    ],
)
def test_empty_number_list_is_a_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {argv[1]}: empty number list" in err


def test_rayleigh_chain_on_the_circle_is_a_config_error(capsys):
    code, out, err = run(capsys, "rayleigh-chain", "--dim", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error") and "dimension" in err


def test_com_solve_with_a_heavy_atom_is_a_numerical_failure(capsys):
    # the degree-12 rule puts half the factor's mass on one node
    code, out, err = run(
        capsys, "com-solve", "--dim", "2", "--factor", "exp:2,0,10", "--degree", "12"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure") and "half the mass" in err


@pytest.mark.parametrize("spec", ["const:inf", "zonal:nan"])
def test_non_finite_factor_is_a_config_error(capsys, spec):
    code, out, err = run(capsys, "theorem-check", "--factor", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error") and "not finite" in err


def test_overflowing_factor_is_a_numerical_failure_without_warnings(capsys):
    # a valid expansion whose exponential floating point cannot hold
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "theorem-check", "--factor", "exp:2,0,1000")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure") and "quadrature nodes" in err


def test_subnormal_volume_is_a_numerical_failure(capsys):
    # exp(u) stays positive at every node, but the volume is subnormal
    code, out, err = run(capsys, "theorem-check", "--dim", "3", "--factor", "exp:0,0,-1500")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure") and "not positive" in err


def test_com_solve_pushforward_mode(capsys):
    code, out, _ = run(capsys, "com-solve", "--dim", "2", "--factor", "round", "--t", "0.4")
    assert code == 0
    assert "pushforward of round" in out


def test_degree_command(capsys, tmp_path):
    json_path = tmp_path / "deg.json"
    code, out, _ = run(
        capsys, "degree", "--map", "doubling-s1", "--method", "both", "--json", str(json_path)
    )
    assert code == 0
    assert "degree[integral] of doubling-s1 = 2" in out
    assert "[pass] methods agree" in out
    payload = json.loads(json_path.read_text())
    assert payload["degrees"] == {"integral": 2, "regular-value": 2}


def test_degree_paired_examples(capsys):
    code, out, _ = run(
        capsys, "degree", "--map", "flip-b", "--method", "regular-value", "--paired", "true"
    )
    assert code == 0
    assert "shifted_identity_example" in out
    assert "zero_free_example" in out
    assert "[FAIL]" not in out


def test_degree_unknown_map_is_a_config_error(capsys):
    code, _, err = run(capsys, "degree", "--map", "nonsense")
    assert code == 2
    assert "configuration error" in err


FOLD_ROWS = {"half-circle": 5, "quarter-arc": 5, "veronese-patch": 4, "cap-patch": 4}
MOEBIUS_ROWS = {"full-circle": 4, "avoiding-arc": 4}
DEGREE_ROWS = {"integral": 1, "regular-value": 1, "both": 2}


@pytest.mark.parametrize(
    "command, flag, name, count",
    [("limits-fold", "--surface", *item) for item in FOLD_ROWS.items()]
    + [("limits-moebius", "--surface", *item) for item in MOEBIUS_ROWS.items()]
    + [("degree", "--method", *item) for item in DEGREE_ROWS.items()],
)
def test_every_surface_and_method_runs(capsys, tmp_path, command, flag, name, count):
    csv_path = tmp_path / "rows.csv"
    code, out, err = run(capsys, command, flag, name, "--csv", str(csv_path))
    assert (code, err) == (0, "")
    assert len(csv_path.read_text().splitlines()) == 1 + count
    if command != "degree":
        assert out.count("[pass]") == count


def test_every_surface_and_method_is_covered():
    assert list(cli.FOLD_SURFACES) == list(FOLD_ROWS)
    assert list(cli.MOEBIUS_SURFACES) == list(MOEBIUS_ROWS)
    assert list(cli.DEGREE_METHODS) == list(DEGREE_ROWS)


def test_limits_fold_quarter_arc(capsys):
    code, out, _ = run(
        capsys, "limits-fold", "--surface", "quarter-arc", "--t-values", "0,0.9"
    )
    assert code == 0
    assert out.count("[pass]") == 2


def test_limits_moebius_full_circle(capsys):
    code, out, _ = run(
        capsys, "limits-moebius", "--surface", "full-circle", "--radii", "0.5,0.9"
    )
    assert code == 0
    assert out.count("[pass]") == 2


def test_limits_moebius_at_the_origin_is_the_identity(capsys):
    code, out, _ = run(capsys, "limits-moebius", "--radii", "0,0.5")
    assert code == 0
    assert out == (
        "[pass] |x| = 0       volume 6.28318531  bound 6.28318531\n"
        "[pass] |x| = 0.5     volume 6.28318531  bound 6.28318531\n"
    )


def test_limits_moebius_rejects_a_negative_radius(capsys):
    # -0.999 would scale the direction to the far side, under the label |x| = 0.999
    code, out, err = run(
        capsys, "limits-moebius", "--surface", "avoiding-arc", "--radii=-0.999,0.999"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error") and "radii" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("com-solve", "--shift", "nan,0,0", "--pairs", "16"),
        ("limits-moebius", "--radii", "nan"),
        ("rayleigh-chain", "--pole", "nan,0,0,0,0", "--t", "0.3"),
    ],
)
def test_non_finite_points_are_config_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "nan" not in out
    assert err.startswith("configuration error") and "nan" in err


@pytest.mark.parametrize("command", ["limits-fold", "limits-moebius"])
def test_negative_band_is_a_config_error(capsys, command):
    code, out, err = run(capsys, command, "--band", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error") and "band" in err


@pytest.mark.parametrize(
    "argv",
    [
        # each of these used to run: exit 3 (no step halving), 3, 3, 0, 1, 1, 0, 1, 0, 0
        ("com-solve", "--shift", "0.1,0,0", "--pairs", "16", "--tol", "nan"),
        ("com-solve", "--shift", "0.1,0,0", "--pairs", "16", "--tol", "-1"),
        ("com-solve", "--shift", "0.1,0,0", "--pairs", "16", "--tol", "0"),  # unreachable
        ("com-solve", "--shift", "0.1,0,0", "--pairs", "16", "--tol", "inf"),
        ("vfield-search", "--starts", "0", "--threshold", "nan"),
        ("veronese-check", "--norm-tol", "nan"),
        ("veronese-check", "--norm-tol", "inf"),
        ("veronese-check", "--gram-tol", "-1"),
        ("limits-fold", "--band", "inf"),
        ("limits-moebius", "--band", "inf"),
    ],
)
def test_vacuous_or_impossible_tolerance_is_a_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error") and argv[-2].strip("-") in err
    assert err.count("\n") == 1


def test_ratio_table(capsys, tmp_path):
    csv_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "ratio-table", "--n-min", "2", "--n-max", "5", "--csv", str(csv_path))
    assert code == 0
    assert "two-dimensional constants are 10 and 12" in out
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 5  # header + four dimensions


def test_config_file_layering(capsys, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[defaults]\nseed = 3\n\n[spectrum]\ndim = 3\ncount = 3\nfactor = round\n"
    )
    code, out, _ = run(capsys, "spectrum", "--config", str(config))
    assert code == 0
    assert "dimension 3" in out

    # explicit flags beat the config section
    code, out, _ = run(capsys, "spectrum", "--config", str(config), "--dim", "2")
    assert code == 0
    assert "dimension 2" in out


def test_seed_layering_defaults_section_flag(capsys, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[defaults]\nseed = 3\ndims = 2\nsamples = 10\n")
    json_path = tmp_path / "report.json"
    base = ["veronese-check", "--config", str(config), "--json", str(json_path)]

    def seed(*flags):
        assert run(capsys, *base, *flags)[0] == 0
        return json.loads(json_path.read_text())["seed"]

    assert seed() == 3
    config.write_text(config.read_text() + "\n[veronese-check]\nseed = 5\n")
    assert seed() == 5
    assert seed("--seed", "7") == 7


@pytest.mark.parametrize(
    "text, named",
    [
        ("[theorem-check]\ngapp = true\n", "[theorem-check] has no option 'gapp'"),
        ("[defaults]\nfactr = zonal:0.5\n", "[defaults] has no option 'factr'"),
        ("[theorem-chek]\ngap = true\n", "unknown section [theorem-chek]"),
        (
            "[spectrum]\ncount = 3\n[vfield-search]\nstart = 2\n",
            "[vfield-search] has no option 'start'",
        ),
        ("[theorem-check]\nseed = 3\n", "[theorem-check] has no option 'seed'"),
        ("[DEFAULT]\ngap = true\n", "unknown section [DEFAULT]"),
    ],
    ids=[
        "own-key", "defaults-key", "section", "other-section-key", "other-command-key", "DEFAULT",
    ],
)
def test_config_typo_is_a_config_error(capsys, tmp_path, text, named):
    # each of these used to run theorem-check on its defaults and exit 0
    config = tmp_path / "typo.ini"
    config.write_text(text)
    code, out, err = run(capsys, "theorem-check", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err == f"configuration error: config file {config}: {named}\n"


def test_config_defaults_may_hold_other_commands_options(capsys, tmp_path):
    config = tmp_path / "shared.ini"
    config.write_text("[defaults]\nstarts = 2\nsamples = 10\ngap = true\n")
    code, out, _ = run(capsys, "theorem-check", "--config", str(config))
    assert code == 0
    assert "basis-degree convergence gap" in out


def test_bad_config_value_names_the_flag(capsys, tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[spectrum]\ndim = x\n")
    code, out, err = run(capsys, "spectrum", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error: argument --dim:")


def test_bad_choice_names_its_flag(capsys, tmp_path):
    code, out, err = run(capsys, "degree", "--method", "bogus")
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error: argument --method:")
    config = tmp_path / "bad.ini"
    config.write_text("[limits-fold]\nsurface = bogus\n")
    code, out, err = run(capsys, "limits-fold", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error: argument --surface:")


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (tmp_path / "run.ini").write_text(re.search(r"```ini\n(.*?)```", readme, re.S)[1])
    monkeypatch.chdir(tmp_path)
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("rplap ")
    ]
    assert len(lines) == 13
    for line in lines:
        assert run(capsys, *shlex.split(line, comments=True)[1:])[0] == 0, line


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "spectrum", "--config", "/nonexistent/path.ini")
    assert code == 2
    assert "configuration error" in err


def test_bad_factor_spec(capsys):
    code, _, err = run(capsys, "spectrum", "--factor", "triangle")
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize("spec", ["const:inf", "zonal:nan"])
def test_non_finite_factor_is_named_as_such(capsys, spec):
    code, _, err = run(capsys, "theorem-check", "--factor", spec)
    assert code == 2
    assert "not finite" in err and "not positive" not in err


def test_json_and_csv_writers_are_deterministic(tmp_path):
    payload = {"alpha": np.float64(1.5), "beta": np.arange(3), "flag": np.bool_(True)}
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_json(first, payload)
    write_json(second, payload)
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text()) == {"alpha": 1.5, "beta": [0, 1, 2], "flag": True}

    rows = [{"x": np.int64(1), "y": 2.0}, {"x": 3, "y": np.float64(4.0)}]
    csv_path = tmp_path / "rows.csv"
    write_csv(csv_path, rows)
    assert csv_path.read_text().splitlines() == ["x,y", "1,2.0", "3,4.0"]
