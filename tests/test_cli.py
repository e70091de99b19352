"""Command-line interface: detrending math, CSV handling, and end-to-end
subcommand runs through main()."""

import csv
import dataclasses
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from kstruct import DesignMatrix, KendallSample, cli, jackknife_cov
from kstruct.indexing import _pairs0
from kstruct.projection import gamma_projection
from kstruct.simulation import desk_scale
from kstruct.cli import (
    ConstantCovariate,
    detrend_linear,
    load_study_json,
    main,
    read_data_csv,
)

# ---------------------------------------------------------------------------
# detrend_linear


def test_detrend_matches_polyfit():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3)) + np.outer(np.arange(40), [0.5, -0.2, 0.0])
    resid, slopes, intercepts = detrend_linear(X)
    t = np.arange(40.0)
    for j in range(3):
        coef = np.polyfit(t, X[:, j], 1)
        assert slopes[j] == pytest.approx(coef[0], rel=1e-10)
        assert intercepts[j] == pytest.approx(coef[1], rel=1e-10)
        oracle = X[:, j] - np.polyval(coef, t)
        assert np.abs(resid[:, j] - oracle).max() < 1e-10


def test_detrend_residual_invariants():
    rng = np.random.default_rng(1)
    t = rng.standard_normal(30)
    X = rng.standard_normal((30, 2))
    resid, _, _ = detrend_linear(X, t)
    assert np.abs(resid.sum(axis=0)).max() < 1e-10
    assert np.abs(resid.T @ (t - t.mean())).max() < 1e-10
    # adding any linear function of the covariate leaves residuals unchanged
    shifted = X + np.outer(3.0 * t - 7.0, np.ones(2))
    resid2, _, _ = detrend_linear(shifted, t)
    assert np.abs(resid - resid2).max() < 1e-10


def test_detrend_exactly_linear_data_gives_zero():
    t = np.arange(10.0)
    X = np.column_stack([2.0 + 0.3 * t, -1.0 - t])
    resid, slopes, intercepts = detrend_linear(X)
    assert np.abs(resid).max() < 1e-12
    assert slopes == pytest.approx([0.3, -1.0])
    assert intercepts == pytest.approx([2.0, -1.0])


def test_detrend_validation():
    with pytest.raises(ConstantCovariate):
        detrend_linear(np.random.default_rng(2).standard_normal((10, 2)), np.ones(10))
    with pytest.raises(ValueError):
        detrend_linear(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        detrend_linear(np.zeros((10, 2)), np.arange(9.0))
    with pytest.raises(ValueError):
        detrend_linear(np.zeros(10))


# ---------------------------------------------------------------------------
# CSV reading


def test_read_data_csv_header_detection(tmp_path):
    X = np.array([[1.5, 2.0], [3.0, -4.25], [0.5, 6.0]])
    plain = tmp_path / "plain.csv"
    headed = tmp_path / "headed.csv"
    np.savetxt(plain, X, delimiter=",", fmt="%.17g")
    with open(headed, "w") as fh:
        fh.write("alpha,beta\n")
        np.savetxt(fh, X, delimiter=",", fmt="%.17g")
    assert np.array_equal(read_data_csv(str(plain)), X)
    assert np.array_equal(read_data_csv(str(headed)), X)


def test_read_data_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_data_csv(str(empty))
    messy = tmp_path / "messy.csv"
    messy.write_text("a,b\n1.0,2.0\nx,y\n")
    with pytest.raises(ValueError):
        read_data_csv(str(messy))
    # a header and no rows: no data, not a (0, 1) array
    header = tmp_path / "header.csv"
    header.write_text("a,b\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="header.csv: no data rows after the header"):
            read_data_csv(str(header))


def test_read_data_csv_reads_past_a_blank_first_line(tmp_path):
    # the header rule looks at the first line that holds a cell
    X = np.array([[1.5, 2.0], [3.0, -4.25], [0.5, 6.0]])
    for head in ("\n", "  \n\nx,y\n", "# from the gauge log\n\n"):
        path = tmp_path / "blank.csv"
        with open(path, "w") as fh:
            fh.write(head)
            np.savetxt(fh, X, delimiter=",", fmt="%.17g")
        assert np.array_equal(read_data_csv(str(path)), X), repr(head)


def test_a_non_finite_cell_is_refused_by_the_file_name(tmp_path, capsys):
    # detrend wrote NaN slopes and residuals from such a file
    path = tmp_path / "gap.csv"
    path.write_text("t,level\n1,2\n2,nan\n3,5\n4,4\n")
    with pytest.raises(ValueError, match="gap.csv: a cell holds a non-finite value"):
        read_data_csv(str(path))
    assert main(["detrend", "--data", str(path), "--out", str(tmp_path / "r.csv")]) == 1
    assert "gap.csv: a cell holds a non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


# ---------------------------------------------------------------------------
# helpers for end-to-end runs


def _write_csv(path, X):
    np.savetxt(path, X, delimiter=",", fmt="%.17g")
    return str(path)


def _gaussian_data(n=60, d=4, tau=0.3, seed=5):
    from kstruct import ScenarioConfig, build_tau_matrix, sample_gaussian_with_tau

    T = build_tau_matrix(ScenarioConfig(n=n, d=d, tau=tau))
    return sample_gaussian_with_tau(T, n, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# test subcommand


def test_cmd_test_json_stdout(tmp_path, capsys):
    data = _write_csv(tmp_path / "x.csv", _gaussian_data())
    code = main(
        [
            "test",
            "--data",
            data,
            "--hypothesis",
            "exchangeable",
            "--seed",
            "7",
            "--replicates",
            "300",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["statistic"] == "euclidean"
    assert report["weighting"] == "sigma"
    assert report["estimator"] == "structured"
    assert 0.0 <= report["p_value"] <= 1.0
    assert report["n"] == 60 and report["d"] == 4 and report["p"] == 6
    assert report["seed"] == 7


def test_cmd_test_output_files(tmp_path, capsys):
    X = _gaussian_data()
    data = _write_csv(tmp_path / "x.csv", X)
    out = tmp_path / "report.json"
    code = main(
        [
            "test",
            "--data",
            data,
            "--hypothesis",
            "exchangeable",
            "--seed",
            "11",
            "--replicates",
            "300",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out) as fh:
        report = json.load(fh)
    assert 0.0 <= report["p_value"] <= 1.0

    tau_matrix = np.loadtxt(tmp_path / "report_tau.csv", delimiter=",")
    theta_matrix = np.loadtxt(tmp_path / "report_theta.csv", delimiter=",")
    assert tau_matrix.shape == (4, 4)
    assert np.allclose(tau_matrix, tau_matrix.T)
    assert np.all(np.diag(tau_matrix) == 1.0)
    tau = KendallSample(X).tau
    off = ~np.eye(4, dtype=bool)
    # exchangeable fit: every off-diagonal fitted value is the grand mean
    assert np.allclose(theta_matrix[off], tau.mean(), atol=1e-12)
    # the tau matrix embeds the estimated vector
    assert tau_matrix[0, 1] == pytest.approx(tau[0], abs=1e-15)


def test_cmd_test_theta_is_the_fit_the_test_used(tmp_path, capsys):
    # a general design with covariance weighting is fitted by GLS, and
    # <stem>_theta.csv holds that fit; identity weighting fits orthogonally
    X = _gaussian_data(d=6)
    data = _write_csv(tmp_path / "x.csv", X)
    design = DesignMatrix(np.random.default_rng(9).standard_normal((15, 3)), "general")
    design_file = _write_csv(tmp_path / "B.csv", design.matrix)
    sample = KendallSample(X)
    fits = {
        "sigma": gamma_projection(design, jackknife_cov(sample).factor).apply(sample.tau),
        "identity": gamma_projection(design).apply(sample.tau),
    }
    assert np.abs(fits["sigma"] - fits["identity"]).max() > 1e-3
    ii0, jj0 = _pairs0(6)
    for weighting, fit in fits.items():
        out = tmp_path / ("%s.json" % weighting)
        code = main(["test", "--data", data, "--hypothesis", "design",
                     "--hypothesis-file", design_file, "--estimator", "jackknife",
                     "--weighting", weighting, "--seed", "3", "--replicates", "200",
                     "--out", str(out)])
        assert code == 0
        theta = np.loadtxt(tmp_path / ("%s_theta.csv" % weighting), delimiter=",")
        assert np.array_equal(theta[ii0, jj0], fit), weighting
    capsys.readouterr()


def test_cmd_test_comonotone_fits_exactly(tmp_path, capsys):
    col = np.arange(20.0)
    X = np.column_stack([col, 2 * col + 1, col**3, np.exp(col / 10.0)])
    data = _write_csv(tmp_path / "mono.csv", X)
    code = main(
        [
            "test",
            "--data",
            data,
            "--hypothesis",
            "exchangeable",
            "--seed",
            "3",
            "--replicates",
            "200",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == 0.0
    assert report["p_value"] == 1.0


def test_cmd_test_diagonal_free_design(tmp_path, capsys):
    # the 18-variable grouping (1,5,2,1,8,1): 15 between-block columns plus
    # 10 + 1 + 28 within-block pair columns = 54
    sizes = (1, 5, 2, 1, 8, 1)
    groups, nxt = [], 1
    for s in sizes:
        groups.append(list(range(nxt, nxt + s)))
        nxt += s
    part_file = tmp_path / "partition.json"
    part_file.write_text(json.dumps({"d": 18, "groups": groups}))

    rng = np.random.default_rng(21)
    X = rng.standard_normal((40, 18))
    data = _write_csv(tmp_path / "x18.csv", X)
    out = tmp_path / "out.json"
    code = main(
        [
            "test",
            "--data",
            data,
            "--hypothesis",
            "diagonal-free",
            "--hypothesis-file",
            str(part_file),
            "--estimator",
            "jackknife",
            "--weighting",
            "identity",
            "--seed",
            "13",
            "--replicates",
            "300",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out) as fh:
        report = json.load(fh)
    assert report["L"] == 54
    assert report["p"] == 153

    # fitted matrix: between-block entries are block means of tau_hat,
    # within-block entries are left at the raw estimates
    tau_matrix = np.loadtxt(tmp_path / "out_tau.csv", delimiter=",")
    theta_matrix = np.loadtxt(tmp_path / "out_theta.csv", delimiter=",")
    group_of = np.empty(18, dtype=int)
    for g, members in enumerate(groups):
        for v in members:
            group_of[v - 1] = g
    for g in range(6):
        for h in range(g + 1, 6):
            mask = (group_of[:, None] == g) & (group_of[None, :] == h)
            mask = mask | mask.T
            assert np.allclose(
                theta_matrix[mask], tau_matrix[mask].mean(), atol=1e-12
            )
    within = (group_of[:, None] == group_of[None, :]) & ~np.eye(18, dtype=bool)
    assert np.allclose(theta_matrix[within], tau_matrix[within], atol=1e-12)


def test_cmd_test_detrend_equals_detrend_then_test(tmp_path, capsys):
    rng = np.random.default_rng(9)
    X = _gaussian_data(n=50, seed=14) + np.outer(np.arange(50.0), [1.0, -0.5, 0.25, 2.0])
    raw = _write_csv(tmp_path / "raw.csv", X)
    resid_file = tmp_path / "resid.csv"

    code = main(["detrend", "--data", raw, "--out", str(resid_file)])
    assert code == 0
    capsys.readouterr()

    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    base = ["--hypothesis", "exchangeable", "--seed", "17", "--replicates", "300"]
    assert main(["test", "--data", raw, "--detrend", "--out", str(out_a)] + base) == 0
    assert (
        main(["test", "--data", str(resid_file), "--out", str(out_b)] + base) == 0
    )
    with open(out_a) as fh:
        ra = json.load(fh)
    with open(out_b) as fh:
        rb = json.load(fh)
    # residuals round-trip exactly at %.17g, so the reports agree bitwise
    assert ra["value"] == rb["value"]
    assert ra["p_value"] == rb["p_value"]
    ta = np.loadtxt(tmp_path / "a_tau.csv", delimiter=",")
    tb = np.loadtxt(tmp_path / "b_tau.csv", delimiter=",")
    assert np.array_equal(ta, tb)


def test_cmd_test_partition_hypothesis(tmp_path, capsys):
    part_file = tmp_path / "part.json"
    part_file.write_text(json.dumps({"d": 4, "groups": [[1, 2], [3, 4]]}))
    data = _write_csv(tmp_path / "x.csv", _gaussian_data(n=40, seed=30))
    code = main(
        [
            "test",
            "--data",
            data,
            "--hypothesis",
            "partition",
            "--hypothesis-file",
            str(part_file),
            "--seed",
            "4",
            "--replicates",
            "200",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["estimator"] == "structured"
    assert report["L"] == 3  # classes (1,1), (1,2), (2,2)


def test_cmd_test_errors(tmp_path, capsys):
    data = _write_csv(tmp_path / "x.csv", _gaussian_data(n=20, seed=1))
    # missing hypothesis file
    assert (
        main(
            ["test", "--data", data, "--hypothesis", "partition", "--seed", "1"]
        )
        == 1
    )
    # nonexistent data file
    assert (
        main(
            [
                "test",
                "--data",
                str(tmp_path / "nope.csv"),
                "--hypothesis",
                "exchangeable",
                "--seed",
                "1",
            ]
        )
        == 1
    )
    # covariate column without detrend
    assert (
        main(
            [
                "test",
                "--data",
                data,
                "--hypothesis",
                "exchangeable",
                "--seed",
                "1",
                "--covariate-column",
                "0",
            ]
        )
        == 1
    )
    capsys.readouterr()


@pytest.mark.parametrize("kind, make_file, message", [
    ("partition", lambda p: p.write_text('{"d": 5, "groups": [[1, 2], [3, 4, 5]]}'),
     "h: partition is for 5 variables but the data has 4"),
    ("diagonal-free", lambda p: p.write_text('{"d": 3, "groups": [[1, 2, 3]]}'),
     "h: partition is for 3 variables but the data has 4"),
    ("design", None, "--hypothesis design needs --hypothesis-file with a CSV"),
    ("design", lambda p: np.savetxt(p, np.ones((10, 2)), delimiter=","),
     "h: design has 10 rows but the data implies 6 variable pairs"),
])
def test_cmd_test_refuses_a_hypothesis_file_that_does_not_fit(tmp_path, capsys, kind,
                                                              make_file, message):
    data = _write_csv(tmp_path / "x.csv", _gaussian_data(n=20, seed=1))
    args = ["test", "--data", data, "--hypothesis", kind, "--seed", "1"]
    if make_file is not None:
        make_file(tmp_path / "h")
        args += ["--hypothesis-file", str(tmp_path / "h")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("kstruct: error: ") and err.rstrip().endswith(message)


def test_cmd_test_refuses_flags_it_would_ignore(tmp_path, capsys):
    data = _write_csv(tmp_path / "x.csv", _gaussian_data(n=20, seed=1))
    part = tmp_path / "part.json"
    part.write_text('{"d": 4, "groups": [[1, 2], [3, 4]]}')
    args = ["test", "--data", data, "--hypothesis", "exchangeable", "--seed", "1"]
    for extra, message in (
            (["--hypothesis-file", str(part)],
             "--hypothesis exchangeable takes no --hypothesis-file"),
            (["--tie-seed", "4"],
             "tie_seed does not apply to ties='error', which jitters nothing")):
        assert main(args + extra) == 1
        assert capsys.readouterr().err == "kstruct: error: %s\n" % message
    assert main(args + ["--tie-seed", "4", "--jitter-ties"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["options"]["ties"], report["options"]["tie_seed"]) == ("jitter", 4)


def test_cmd_test_refuses_an_out_of_range_covariate_column(tmp_path, capsys):
    data = _write_csv(tmp_path / "x.csv", _gaussian_data(n=20, seed=1))
    for column in ("4", "-1"):
        assert main(["test", "--data", data, "--hypothesis", "exchangeable", "--seed", "1",
                     "--detrend", "--covariate-column", column]) == 1
        assert capsys.readouterr().err == "kstruct: error: covariate column %s out of range\n" % (
            column)


def test_test_flags_take_their_choices_and_defaults_from_the_options(capsys):
    from kstruct.testing import TestOptions

    parser = cli._build_parser()
    base = ["test", "--data", "x.csv", "--hypothesis", "exchangeable", "--seed", "1"]
    args = parser.parse_args(base)
    names = [f.name for f in dataclasses.fields(TestOptions)]
    assert {name: getattr(args, name) for name in names} == dataclasses.asdict(
        TestOptions(seed=1))
    for flag, choices in (("--statistic", ("euclidean", "max")),
                          ("--weighting", ("sigma", "identity")),
                          ("--estimator", ("structured", "jackknife")),
                          ("--null-draws", ("auto", "gaussian", "bootstrap"))):
        for value in choices:
            args = parser.parse_args(base + [flag, value])
            assert getattr(args, flag[2:].replace("-", "_")) == value
        with pytest.raises(SystemExit):
            parser.parse_args(base + [flag, choices[0].upper()])
    capsys.readouterr()


def test_cmd_test_rejects_ignored_null_draws(tmp_path, capsys):
    data = _write_csv(tmp_path / "x.csv", _gaussian_data(n=20, seed=1))
    code = main(
        [
            "test",
            "--data",
            data,
            "--hypothesis",
            "exchangeable",
            "--seed",
            "1",
            "--null-draws",
            "bootstrap",
        ]
    )
    assert code != 0
    err = capsys.readouterr().err
    assert "null_draws='bootstrap' does not apply" in err
    assert "always chi-square" in err


def test_cmd_test_plus_one_only_on_monte_carlo_routes(tmp_path, capsys):
    # the default route's p-value is a chi-square tail, which --plus-one
    # would leave unchanged; a Monte Carlo route takes it
    data = _write_csv(tmp_path / "x.csv", _gaussian_data(n=20, seed=1))
    args = ["test", "--data", data, "--hypothesis", "exchangeable", "--seed", "1",
            "--replicates", "200", "--plus-one"]
    assert main(args) != 0
    assert "plus_one does not apply" in capsys.readouterr().err
    assert main(args + ["--statistic", "max"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "max-mc" and report["options"]["plus_one"] is True
    hits = round(report["p_value"] * 201) - 1
    assert hits >= 0 and report["p_value"] == (1.0 + hits) / 201  # (1 + hits) / (1 + N)


# ---------------------------------------------------------------------------
# simulate subcommand


def _study_config_file(path, reps=8):
    cfg = {
        "seed": 99,
        "scenarios": [
            {
                "n": 30,
                "d": 4,
                "tau": 0.3,
                "repetitions": reps,
                "tests": [
                    {
                        "statistic": "euclidean",
                        "weighting": "sigma",
                        "estimator": "structured",
                        "replicates": 200,
                    }
                ],
            }
        ],
    }
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_study_json(tmp_path):
    cfg = _study_config_file(tmp_path / "study.json")
    scenarios, seed = load_study_json(cfg)
    assert seed == 99
    assert len(scenarios) == 1
    assert scenarios[0].n == 30
    assert scenarios[0].tests[0].replicates == 200


def _config_with(path, scenario=None, test=None, top=None):
    cfg = json.loads(Path(_study_config_file(path)).read_text())
    cfg.update(top or {})
    cfg["scenarios"][0].update(scenario or {})
    cfg["scenarios"][0]["tests"][0].update(test or {})
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_study_json_takes_every_option_field(tmp_path):
    cfg = _config_with(tmp_path / "s.json", scenario={"repetitions": 7, "alpha": 0.1},
                       test={"ties": "jitter", "tie_seed": 9, "null_draws": "auto",
                             "plus_one": True})
    (scenario,), _ = load_study_json(cfg)
    assert (scenario.repetitions, scenario.alpha) == (7, 0.1)
    opts = scenario.tests[0]
    assert (opts.ties, opts.tie_seed, opts.null_draws, opts.plus_one) == (
        "jitter", 9, "auto", True)
    # one scenario on its own may hold the study seed
    single = dict(json.loads(Path(cfg).read_text())["scenarios"][0], seed=5)
    (tmp_path / "one.json").write_text(json.dumps(single))
    (scenario,), seed = load_study_json(str(tmp_path / "one.json"))
    assert seed == 5 and scenario.repetitions == 7


@pytest.mark.parametrize("where, key", [
    ("scenario", "repetitons"),
    ("test", "nul_draws"),
    ("test", "tie_sed"),
    ("top", "sed"),
])
def test_load_study_json_refuses_unknown_keys(tmp_path, where, key):
    cfg = _config_with(tmp_path / "s.json", **{where: {key: 1}})
    with pytest.raises(ValueError, match="unknown key.*'%s'" % key):
        load_study_json(cfg)


@pytest.mark.parametrize("where, key, value, message", [
    ("scenario", "n", 30.9, "scenario 0: n 30.9 is not an integer"),
    ("scenario", "repetitions", 2.5, "scenario 0: repetitions 2.5 is not an integer"),
    ("scenario", "sizes", [2, 2.5], "scenario 0: sizes 2.5 is not an integer"),
    ("scenario", "tau", "0.3", "scenario 0: tau '0.3' is not a number"),
    ("scenario", "alpha", True, "scenario 0: alpha True is not a number"),
    ("test", "replicates", 200.7, "test 0: replicates 200.7 is not an integer"),
    ("test", "plus_one", "false", "test 0: plus_one 'false' is not a boolean"),
    ("test", "plus_one", 1, "test 0: plus_one 1 is not a boolean"),
    ("test", "tie_seed", True, "test 0: tie_seed True is not an integer"),
    ("top", "seed", 7.5, "s.json: seed 7.5 is not an integer"),
    ("top", "seed", "7", "s.json: seed '7' is not an integer"),
])
def test_load_study_json_refuses_what_it_would_change(tmp_path, where, key, value, message):
    cfg = _config_with(tmp_path / "s.json", **{where: {key: value}})
    with pytest.raises(ValueError, match=re.escape(message)):
        load_study_json(cfg)


def test_load_study_json_takes_whole_numbers_as_integers(tmp_path):
    cfg = _config_with(tmp_path / "s.json", scenario={"n": 30.0, "tau": 0},
                       test={"replicates": 200.0}, top={"seed": 99.0})
    (scenario,), seed = load_study_json(cfg)
    assert (scenario.n, scenario.tau, scenario.tests[0].replicates, seed) == (30, 0.0, 200, 99)
    assert [type(v) for v in (scenario.n, scenario.tau, scenario.tests[0].replicates, seed)] == [
        int, float, int, int]


@pytest.mark.parametrize("text, message", [
    ("", "s.json: Expecting value: line 1 column 1"),
    ("[1, 2]", "s.json, scenario 0: 1 is not an object"),
    ("5", "s.json: 5 is not an object"),
    ('{"scenarios": {"n": 30}}', "s.json: scenarios {'n': 30} is not a list"),
    ('{"n": 30, "d": 4, "tests": 5}', "s.json, scenario 0: tests 5 is not a list"),
    ('{"n": 30, "d": 4, "tests": [3]}', "s.json, scenario 0, test 0: 3 is not an object"),
    ('{"n": 30, "d": 4, "tau": NaN, "tests": [{}]}', "s.json: NaN is not a number JSON allows"),
    ('{"n": 30, "d": 4, "tau": 1e400, "tests": [{}]}',
     "s.json, scenario 0: tau inf is not a number"),
    ('{"n": 30, "d": 4, "tests": [{"replicates": null}]}',
     "s.json, scenario 0, test 0: replicates None is not an integer"),
    ('{"n": 30, "d": 4, "n": 40, "tests": [{}]}', "s.json: key(s) 'n' given twice"),
    ('{"d": 4, "tests": [{}]}', "s.json, scenario 0: missing key(s) 'n'"),
])
def test_load_study_json_refuses_a_malformed_config_by_name(tmp_path, text, message):
    # each was a bare JSONDecodeError or TypeError, a value read last-wins,
    # or a NaN that reached the sampler, with neither file nor field named
    path = tmp_path / "s.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="^%s" % re.escape(str(path.parent / message))):
        load_study_json(str(path))


@pytest.mark.parametrize("where, key, value, message", [
    ("test", "statistic", "sup",
     "scenario 0, test 0: statistic 'sup' is not 'euclidean' or 'max'"),
    ("test", "ties", "drop", "scenario 0, test 0: ties 'drop' is not 'error' or 'jitter'"),
    ("test", "null_draws", "Auto",
     "scenario 0, test 0: null_draws 'Auto' is not 'auto', 'gaussian' or 'bootstrap'"),
    ("scenario", "structure", "blocks",
     "scenario 0: structure 'blocks' is not 'equicorrelated', 'block' or 'custom'"),
    ("scenario", "departure", "row", "scenario 0: departure 'row' is not 'single' or 'column'"),
    ("scenario", "departure", 1, "scenario 0: departure 1 is not 'single' or 'column'"),
])
def test_cmd_simulate_refuses_a_bad_choice_by_file_and_field(tmp_path, capsys, where, key,
                                                             value, message):
    # a bad statistic or ties ended "statistic must be 'euclidean' or 'max'",
    # naming neither the file nor the scenario nor the test
    cfg = _config_with(tmp_path / "s.json", **{where: {key: value}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "kstruct: error: %s, %s\n" % (cfg, message)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("test, message", [
    ({"replicates": 10}, "replicates must be at least 100"),
    ({"tie_seed": 3}, "tie_seed does not apply to ties='error', which jitters nothing"),
    ({"null_draws": "bootstrap"},
     "null_draws='bootstrap' does not apply to statistic='euclidean', weighting='sigma', "
     "whose null law is always chi-square"),
    ({"plus_one": True},
     "plus_one does not apply to statistic='euclidean', weighting='sigma', whose p-value "
     "is a chi-square tail"),
])
def test_cmd_simulate_names_a_cross_field_refusal(tmp_path, capsys, monkeypatch, test, message):
    # each was printed bare, as "kstruct: error: replicates must be at
    # least 100", with neither file nor scenario nor test named
    cfg = _config_with(tmp_path / "s.json", test=test)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "kstruct: error: %s, scenario 0, test 0: %s\n" % (
        cfg, message)
    assert not (tmp_path / "o").exists()
    # checked on the replicates that desk scale sets
    calls = []
    monkeypatch.setattr(cli, "run_study", lambda scenarios, **kw: calls.append(scenarios) or [])
    flags = ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--desk-scale"]
    assert main(flags) == (0 if "replicates" in test else 1)
    assert len(calls) == (1 if "replicates" in test else 0)


@pytest.mark.parametrize("scenario, message", [
    ({"n": 2}, "scenarios need n >= 3"),
    ({"alpha": 1.5}, "alpha must be in (0, 1)"),
    ({"repetitions": 0}, "repetitions must be positive"),
    ({"tests": []}, "scenario has no tests configured"),
    ({"tau": -0.5}, "sin-transformed correlation matrix is not positive definite (smallest "
                    "eigenvalue -1.121e+00)"),
    ({"hypothesis_groups": [[1, 2], [3]]},
     "groups must partition 1..4 exactly, got ((1, 2), (3,))"),
])
def test_cmd_simulate_names_a_scenario_refusal(tmp_path, capsys, scenario, message):
    # each was printed bare, as "kstruct: error: scenarios need n >= 3",
    # or (the sampler's) named by the scenario's label, not the file
    path = tmp_path / "s.json"
    cfg = json.loads(Path(_study_config_file(path)).read_text())
    cfg["scenarios"][0].update(scenario)
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "kstruct: error: %s, scenario 0: %s\n" % (path, message)
    assert not (tmp_path / "o").exists()


def test_cmd_simulate_refuses_workers_below_one(tmp_path, capsys):
    cfg = _study_config_file(tmp_path / "study.json")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--workers", "-3"]) == 1
    assert capsys.readouterr().err == "kstruct: error: workers must be at least 1, got -3\n"
    assert not (tmp_path / "o").exists()


def test_cmd_simulate_needs_a_seed(tmp_path, capsys):
    cfg = _config_with(tmp_path / "s.json")
    Path(cfg).write_text(json.dumps(json.loads(Path(cfg).read_text())["scenarios"]))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        'kstruct: error: no seed: pass --seed or put "seed" in the config\n')
    assert not (tmp_path / "o").exists()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "3"]) == 0


def test_load_study_json_refuses_a_config_without_scenarios(tmp_path):
    path = tmp_path / "s.json"
    for text in ('{"scenarios": [], "seed": 1}', "[]"):
        path.write_text(text)
        with pytest.raises(ValueError, match="^%s$" % re.escape("%s: no scenarios found" % path)):
            load_study_json(str(path))


def test_cmd_simulate_names_a_nan_in_the_config(tmp_path, capsys):
    # it ended in "Eigenvalues did not converge"
    cfg = _config_with(tmp_path / "s.json")
    Path(cfg).write_text(Path(cfg).read_text().replace('"tau": 0.3', '"tau": NaN'))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "s.json: NaN is not a number JSON allows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_load_study_json_takes_a_list_of_scenarios(tmp_path):
    cfg = json.loads(Path(_study_config_file(tmp_path / "s.json")).read_text())
    (tmp_path / "list.json").write_text(json.dumps(cfg["scenarios"] * 2))
    scenarios, seed = load_study_json(str(tmp_path / "list.json"))
    assert seed is None and scenarios == load_study_json(str(tmp_path / "s.json"))[0] * 2


def test_cmd_simulate_refuses_a_test_seed(tmp_path, capsys):
    cfg = _config_with(tmp_path / "s.json", test={"seed": 4})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "kstruct: error: %s, scenario 0, test 0: a test takes no \"seed\"; run_study derives "
        "each test's seed from the study seed\n" % cfg)
    assert not (tmp_path / "o").exists()


def test_cmd_simulate_shards_match_whole(tmp_path, capsys):
    cfg = _study_config_file(tmp_path / "study.json")
    whole = tmp_path / "whole"
    shards = tmp_path / "shards"
    assert main(["simulate", "--config", cfg, "--out", str(whole)]) == 0
    assert (
        main(["simulate", "--config", cfg, "--out", str(shards), "--shard", "0:4"])
        == 0
    )
    assert (
        main(["simulate", "--config", cfg, "--out", str(shards), "--shard", "4:8"])
        == 0
    )
    capsys.readouterr()
    for name in ("summary.csv", "results.csv"):
        assert (whole / name).read_bytes() == (shards / name).read_bytes()
    with open(whole / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["status"] == "complete"
    assert manifest["seed"] == 99


def test_cmd_simulate_bad_shard(tmp_path, capsys):
    cfg = _study_config_file(tmp_path / "study.json")
    assert (
        main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--shard", "x"]
        )
        == 1
    )
    assert (
        main(
            [
                "simulate",
                "--config",
                cfg,
                "--out",
                str(tmp_path / "o"),
                "--shard",
                "5:2",
            ]
        )
        == 1
    )
    # refused by run_study, as an API call is, before any file is written
    assert "shard needs 0 <= A < B, got (5, 2)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cmd_simulate_desk_scale_runs_every_scenario_at_desk_scale(tmp_path, monkeypatch,
                                                                   capsys):
    calls = []
    monkeypatch.setattr(cli, "run_study", lambda scenarios, **kw: calls.append(scenarios) or [])
    cfg = _study_config_file(tmp_path / "study.json")
    for flags in ([], ["--desk-scale"]):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")] + flags) == 0
    capsys.readouterr()
    (plain,), (desk,) = calls
    assert (plain.repetitions, plain.tests[0].replicates) == (8, 200)
    assert desk == desk_scale(plain)
    assert (desk.repetitions, desk.tests[0].replicates) == (1000, 2000)


# ---------------------------------------------------------------------------
# detrend subcommand


def test_cmd_detrend_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((25, 3)) + np.outer(np.arange(25.0), [1.0, 0.0, -2.0])
    data = _write_csv(tmp_path / "x.csv", X)
    out = tmp_path / "resid.csv"
    assert main(["detrend", "--data", data, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "slope" in captured.out
    resid = np.loadtxt(out, delimiter=",")
    oracle, _, _ = detrend_linear(X)
    assert np.abs(resid - oracle).max() < 1e-14
