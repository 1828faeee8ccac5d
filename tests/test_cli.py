import contextlib
import csv
import hashlib
import io
import itertools
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derivreg.cli import main
from derivreg import split_stream


def run(args):
    return main([str(a) for a in args])


class TestVerify:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        code = run(["verify", "--out-dir", tmp_path, "--quad-nodes", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "identity checks passed" in out
        report = (tmp_path / "verify_report.csv").read_text().splitlines()
        assert report[0] == "name,residual,tol,passed"
        assert all(line.endswith(",1") for line in report[1:])

    def test_failing_check_exits_two(self, tmp_path, monkeypatch, capsys):
        from derivreg.functionals import CheckResult

        monkeypatch.setattr(
            "derivreg.cli.identity_checks",
            lambda quad_nodes: [CheckResult("plan/k=2/p=1/ell=0/poly", 1.0, 1e-8)],
        )
        code = run(["verify", "--out-dir", tmp_path])
        assert code == 2
        assert "plan/k=2/p=1/ell=0/poly" in capsys.readouterr().err

    def test_coarse_quadrature_exceeds_tight_tolerances(self, tmp_path, capsys):
        # 4 nodes per panel stays exact for the polynomial checks but leaves
        # ~1e-9 residuals on the analytic integrands, which trips the
        # tightest (1e-10) identity tolerances: larger residuals are
        # reported and the run exits nonzero.
        code = run(["verify", "--out-dir", tmp_path, "--quad-nodes", "4"])
        assert code == 2
        assert "exceeds" in capsys.readouterr().err
        lines = (tmp_path / "verify_report.csv").read_text().splitlines()[1:]
        failing = [ln for ln in lines if ln.endswith(",0")]
        assert failing
        assert all("poly" not in ln.split(",")[0] for ln in failing)  # polynomials stay exact


class TestSimulate:
    def test_rerun_and_workers_byte_identical(self, tmp_path):
        args = ["simulate", "--ns", 60, "--rhos", 0.0, "--reps", 8, "--seed", 3]
        for sub, extra in (("a", []), ("b", []), ("c", ["--workers", "2"])):
            assert run(args + ["--out-dir", tmp_path / sub] + extra) == 0
        payload = (tmp_path / "a" / "benchmark.csv").read_bytes()
        assert payload == (tmp_path / "b" / "benchmark.csv").read_bytes()
        assert payload == (tmp_path / "c" / "benchmark.csv").read_bytes()
        meta = (tmp_path / "a" / "benchmark_metadata.json").read_bytes()
        assert meta == (tmp_path / "b" / "benchmark_metadata.json").read_bytes()

    def test_dump_reps(self, tmp_path):
        code = run(
            ["simulate", "--ns", 60, "--rhos", 0.0, "--reps", 3, "--out-dir", tmp_path, "--dump-reps"]
        )
        assert code == 0
        lines = (tmp_path / "benchmark_replications.csv").read_text().splitlines()
        assert len(lines) == 4  # header + 3 replications

    def test_invalid_rho_fails_before_writing(self, tmp_path):
        out = tmp_path / "never"
        code = run(["simulate", "--rhos", 2.0, "--reps", 2, "--out-dir", out])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag",
        [
            ["--sigma", "nan"],
            ["--sigma", "inf"],
            ["--rhos", "nan"],
            ["--h-deriv-const", "nan"],
            ["--h-base-const", "-1"],
            ["--h-base-const", "1e-200"],  # too small: (0.75/h)^2 overflows
        ],
    )
    def test_non_finite_inputs_exit_one(self, tmp_path, capsys, flag):
        out = tmp_path / "never"
        assert run(["simulate", "--ns", 60, "--reps", 2, "--out-dir", out] + flag) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message", [(["--reps", 0], "--reps must be >= 1"), (["--ns", 1], "sample sizes must be >= 2")]
    )
    def test_bad_sizes_exit_one(self, tmp_path, capsys, flags, message):
        assert run(["simulate", "--out-dir", tmp_path, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "benchmark.csv").exists()

    @pytest.mark.parametrize(
        "cells, got",
        [
            (["--ns", 60, 60, "--rhos", 0, 0], "[60, 60] and [0.0, 0.0]"),
            (["--ns", 60, "--rhos", 0, "-0.0"], "[60] and [0.0, -0.0]"),
        ],
    )
    def test_repeated_cells_exit_one(self, tmp_path, capsys, cells, got):
        # Each (n, rho) names one cell; a repeat wrote duplicate table rows
        # and one cell's replications.
        out = tmp_path / "never"
        assert run(["simulate", *cells, "--reps", 2, "--dump-reps", "--seed", 3, "--out-dir", out]) == 1
        assert capsys.readouterr().err == f"error: ns and rhos must each list one or more distinct values, got {got}\n"
        assert not out.exists()

    def test_negative_seed_exits_one_with_one_line(self, tmp_path, capsys):
        # numpy's SeedSequence raised a ValueError traceback.
        out = tmp_path / "never"
        assert run(["simulate", "--ns", 60, "--reps", 2, "--seed", -1, "--out-dir", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n" and captured.out == ""
        assert not out.exists()

    def test_low_reps_warns(self, tmp_path, capsys):
        assert run(["simulate", "--ns", 60, "--rhos", 0.0, "--reps", 2, "--out-dir", tmp_path]) == 0
        assert "noisy" in capsys.readouterr().err


def _write_csv(path, X, Y):
    k = X.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join([f"x{j + 1}" for j in range(k)] + ["y"]) + "\n")
        for i in range(X.shape[0]):
            fh.write(",".join(repr(float(v)) for v in X[i]) + f",{float(Y[i])!r}\n")


@pytest.fixture
def example_config(tmp_path):
    """Derivative data in the first coordinate only (k = 2)."""
    n = 400
    X0 = split_stream(17, [0]).uniform(size=(n, 2))
    X1 = split_stream(17, [1]).uniform(size=(n, 2))
    g = lambda X: X[:, 0] * X[:, 1] + 0.5 * X[:, 1]
    g10 = lambda X: X[:, 1]
    _write_csv(tmp_path / "g00.csv", X0, g(X0))
    _write_csv(tmp_path / "g10.csv", X1, g10(X1))
    cfg = tmp_path / "plan.ini"
    cfg.write_text(
        "[plan]\nk = 2\ncoords = 1\nell = 0\nd = 2\n\n"
        "[data 00]\npath = %s\n\n[data 10]\npath = %s\n\n"
        "[grid]\npoints = 4\noffset = auto\n" % (tmp_path / "g00.csv", tmp_path / "g10.csv")
    )
    return cfg


class TestEstimate:
    def test_fit_csv_schema_and_determinism(self, tmp_path, example_config):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["estimate", "--config", example_config, "--out-dir", out1]) == 0
        assert run(["estimate", "--config", example_config, "--out-dir", out2]) == 0
        text = (out1 / "fit.csv").read_text()
        header = text.splitlines()[0].split(",")
        assert header[:3] == ["x1", "x2", "ghat"]
        assert "term_recon[10]" in header and "term_avg[10]" in header
        assert (out1 / "fit.csv").read_bytes() == (out2 / "fit.csv").read_bytes()

    def test_fit_approximates_truth(self, tmp_path, example_config):
        out = tmp_path / "o"
        assert run(["estimate", "--config", example_config, "--out-dir", out]) == 0
        rows = np.loadtxt(out / "fit.csv", delimiter=",", skiprows=1)
        truth = rows[:, 0] * rows[:, 1] + 0.5 * rows[:, 1]
        assert np.max(np.abs(rows[:, 2] - truth)) < 0.2

    def test_missing_dataset_named(self, tmp_path, example_config, capsys):
        cfg = example_config.read_text().split("[data 10]")[0]
        bad = tmp_path / "bad.ini"
        bad.write_text(cfg)
        code = run(["estimate", "--config", bad, "--out-dir", tmp_path / "x"])
        assert code == 1
        assert "10" in capsys.readouterr().err

    def test_plan_report_does_not_fit(self, tmp_path, example_config, capsys):
        out = tmp_path / "report-only"
        code = run(["estimate", "--config", example_config, "--plan-report", "--out-dir", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "nonparametric dimension bound: 1" in text
        assert not (out / "fit.csv").exists()

    def test_rescaled_units_with_chain_rule(self, tmp_path):
        # raw domain [0, 10]; derivative responses stay in raw units (dy/dx)
        n = 300
        x_raw = np.linspace(0.0, 10.0, n)[:, None]
        _write_csv(tmp_path / "f.csv", x_raw, 0.25 * x_raw[:, 0] ** 2)  # g(x) = x^2/4
        _write_csv(tmp_path / "df.csv", x_raw, 0.5 * x_raw[:, 0])  # g'(x) = x/2
        cfg = tmp_path / "p.ini"
        cfg.write_text(
            "[plan]\nk = 1\ncoords = 1\nell = 0\n\n"
            "[data 0]\npath = %s\n\n[data 1]\npath = %s\n\n"
            "[grid]\npoints = 5\noffset = 0.1\n" % (tmp_path / "f.csv", tmp_path / "df.csv")
        )
        out = tmp_path / "o"
        assert run(["estimate", "--config", cfg, "--out-dir", out]) == 0
        rows = np.loadtxt(out / "fit.csv", delimiter=",", skiprows=1)
        assert rows[:, 0].max() > 5.0  # grid reported in raw units
        assert np.max(np.abs(rows[:, 1] - 0.25 * rows[:, 0] ** 2)) < 0.5

    def test_nan_in_csv_exits_one(self, tmp_path, example_config, capsys):
        g00 = tmp_path / "g00.csv"
        lines = g00.read_text().splitlines()
        lines[5] = "nan," + lines[5].split(",", 1)[1]
        g00.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert run(["estimate", "--config", example_config, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "data row 5 has a non-finite value" in err
        assert len(err.splitlines()) == 1
        assert not (out / "fit.csv").exists()

    def test_bad_cell_names_its_file(self, tmp_path, example_config, capsys):
        g10 = tmp_path / "g10.csv"
        lines = g10.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",abc"
        g10.write_text("\n".join(lines) + "\n")
        assert run(["estimate", "--config", example_config, "--out-dir", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {g10}: line 3: could not convert string to float: 'abc'\n"


    def _bad_config_exits_one(self, tmp_path, example_config, capsys, edit):
        bad = tmp_path / "bad.ini"
        bad.write_text(edit(example_config.read_text()))
        out = tmp_path / "o"
        assert run(["estimate", "--config", bad, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (out / "fit.csv").exists()
        return err

    def test_inline_comments_as_in_readme(self, tmp_path, example_config):
        commented = tmp_path / "commented.ini"
        commented.write_text(example_config.read_text().replace("coords = 1", "coords = 1  ; 1-based"))
        for cfg, sub in ((example_config, "a"), (commented, "b")):
            assert run(["estimate", "--config", cfg, "--out-dir", tmp_path / sub]) == 0
        assert (tmp_path / "a" / "fit.csv").read_bytes() == (tmp_path / "b" / "fit.csv").read_bytes()

    def test_non_integer_k_exits_one(self, tmp_path, example_config, capsys):
        edit = lambda text: text.replace("k = 2", "k = two")
        err = self._bad_config_exits_one(tmp_path, example_config, capsys, edit)
        assert "[plan] k" in err and "'two'" in err

    def test_duplicate_section_exits_one(self, tmp_path, example_config, capsys):
        edit = lambda text: text + "\n[data 10]\npath = elsewhere.csv\n"
        err = self._bad_config_exits_one(tmp_path, example_config, capsys, edit)
        assert "section 'data 10' already exists" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.replace("d = 2", "d = 2\ndensity = loo\nfloor = nan"), "density floor must be finite"),
            (lambda t: t.replace("d = 2", "d = 2\nh_const = nan"), "bandwidth constants must be finite"),
            (lambda t: t.replace("points = 4", "points = -1"), "[grid] points must be a positive integer"),
            (lambda t: t + "\n[output]\nrescale = maybe\n", "[output] rescale must be auto, always or never"),
            (lambda t: t.replace("d = 2", "d = 2\nh_const = 1e-6"), "no design points within h="),
            (lambda t: t.replace("coords = 1", "coords = 3"), "coords must list 1-based derivative coordinates in 1..2, got '3'"),
            (lambda t: t.replace("d = 2", "d = 3"), "kernel orders must be even, got d=3"),
            (lambda t: t.replace("d = 2", "d = 2\nd1 = 5"), "kernel orders must be even, got d=2, d1=5"),
            (lambda t: t.replace("points = 4", "points = 100000"), "gives more than 10^6 grid points"),
            (lambda t: t.replace("d = 2", "d = 2\nh_const = 2"), "offset = auto is the largest bandwidth h, which must be below 0.5"),
            (lambda t: t.replace("[plan]", "[plans]"), "config needs a [plan] section"),
            (lambda t: t.replace("k = 2", "k = 0"), "[plan] k must be a positive integer"),
            (lambda t: t.replace("coords = 1", "coords = a"), "coords must list 1-based derivative coordinates in 1..2, got 'a'"),
            (lambda t: t + "\n[data 1]\npath = g1.csv\n", "[data 1] index has k=1, plan has k=2"),
            (lambda t: t.replace("[data 10]\npath", "[data 10]\nfile"), "[data 10] needs a path"),
        ],
    )
    def test_bad_values_exit_one(self, tmp_path, example_config, capsys, edit, message):
        err = self._bad_config_exits_one(tmp_path, example_config, capsys, edit)
        assert message in err

    @pytest.mark.parametrize("density", ["uniform", "loo"])
    @pytest.mark.parametrize("floor", ["nan", "inf", "-1"])
    def test_bad_floor_exits_one_in_every_density_mode(self, tmp_path, example_config, capsys, density, floor):
        # With density = uniform these exited 0 and wrote NaN or Infinity into fit_metadata.json.
        edit = lambda t: t.replace("d = 2", f"d = 2\ndensity = {density}\nfloor = {floor}")
        err = self._bad_config_exits_one(tmp_path, example_config, capsys, edit)
        assert err == f"error: density floor must be finite and positive, got {float(floor)}\n"

    @pytest.mark.parametrize("density", ["uniform", "loo"])
    def test_keys_left_out_take_the_plan_defaults(self, tmp_path, example_config, density):
        text = example_config.read_text()
        stated = tmp_path / "stated.ini"
        stated.write_text(text.replace("d = 2", f"d = 2\ndensity = {density}\nfloor = 0.05\nh_const = 1.0"))
        left_out = tmp_path / "left_out.ini"
        left_out.write_text(text.replace("d = 2", "d = 2\ndensity = loo") if density == "loo" else text)
        for cfg, sub in ((stated, "a"), (left_out, "b")):
            assert run(["estimate", "--config", cfg, "--out-dir", tmp_path / sub]) == 0
        for name in ("fit.csv", "fit_metadata.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_one_term_plan_per_run(self, tmp_path, example_config, monkeypatch):
        import derivreg.cli
        import derivreg.estimators

        calls = []
        for module in (derivreg.cli, derivreg.estimators):
            original = module.build_term_plan
            counted = lambda *args, _original=original, **kwargs: calls.append(args) or _original(*args, **kwargs)
            monkeypatch.setattr(module, "build_term_plan", counted)
        assert run(["estimate", "--config", example_config, "--out-dir", tmp_path / "o"]) == 0
        assert len(calls) == 1

    def test_missing_config_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "absent.ini"
        assert run(["estimate", "--config", cfg, "--out-dir", tmp_path / "o"]) == 3
        assert capsys.readouterr().err == f"I/O error: cannot read config file {cfg}\n"

    @pytest.mark.parametrize(
        "text, message",
        [("", "line 1: missing header row"), ("x1,y\n0.5,1.0\n", "line 1: expected 3 columns, found 2")],
    )
    def test_bad_csv_header_exits_one(self, tmp_path, example_config, capsys, text, message):
        g00 = tmp_path / "g00.csv"
        g00.write_text(text)
        assert run(["estimate", "--config", example_config, "--out-dir", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == f"error: {g00}: {message}\n"

    def test_constant_coordinate_with_rescale_always_exits_one(self, tmp_path, example_config, capsys):
        # x2 = 0.5 lies in the unit cube, so only an explicit rescale fails.
        for name in ("g00.csv", "g10.csv"):
            rows = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
            rows[:, 1] = 0.5
            _write_csv(tmp_path / name, rows[:, :2], rows[:, 2])
        assert run(["estimate", "--config", example_config, "--out-dir", tmp_path / "auto"]) == 0
        edit = lambda t: t + "\n[output]\nrescale = always\n"
        err = self._bad_config_exits_one(tmp_path, example_config, capsys, edit)
        assert "coordinate 2 is constant" in err


@st.composite
def _fuzz_case(draw) -> dict:
    """One ``estimate`` case; mostly valid, so the fit itself runs often."""
    k = draw(st.integers(1, 3))
    valid = st.lists(st.integers(1, k), min_size=1, max_size=k, unique=True)
    rare = lambda common, *odd: st.sampled_from([common] * 4 + list(odd))
    return {
        "k": k,
        # 1-based; 0 and k + 1 are out of range
        "coords": draw(st.lists(st.integers(0, k + 1), min_size=1, max_size=3) if draw(rare(False, True)) else valid),
        "ell": draw(rare(0, 1, 2, 3)),
        "d": draw(rare(None, 1, 2, 3, 4, 6)),
        "d1": draw(rare(None, 1, 2, 3, 4, 5, 6)),
        "density": draw(st.sampled_from(["uniform", "loo", "uniform", "loo", "LOO"])),
        "h_const": draw(rare(None, "0.5", "1e-6", "3", "nan")),
        "points": draw(st.sampled_from([1, 2, 3, 4, 100000])),
        "offset": draw(st.sampled_from(["auto", "auto", "0", "0.2", "nan", "0.7", "-0.1"])),
        "rescale": draw(st.sampled_from([None, "always", "never"])),
        "n": draw(st.sampled_from([1, 2, 7, 40, 40])),
        "span": draw(st.sampled_from([1.0, 10.0])),  # raw coordinates in [0, span]
        "ties": draw(st.booleans()),
        "drop": draw(rare(False, True)),  # leave out the last dataset the coordinates allow
        "seed": draw(st.integers(0, 3)),
    }


_FUZZ_BASE = {
    "k": 2, "coords": [1], "ell": 0, "d": None, "d1": None, "density": "uniform", "h_const": None,
    "points": 3, "offset": "auto", "rescale": None, "n": 40, "span": 1.0, "ties": False, "drop": False, "seed": 0,
}


def _fuzz_inputs(root: Path, case: dict) -> Path:
    """Write the config and CSVs of one generated ``estimate`` case."""
    k = case["k"]
    rng = np.random.default_rng(case["seed"])
    lines = ["[plan]", f"k = {k}", "coords = " + " ".join(map(str, case["coords"])), f"ell = {case['ell']}"]
    lines += [f"{key} = {case[key]}" for key in ("d", "d1", "h_const") if case[key] is not None]
    lines += [f"density = {case['density']}", "", "[grid]", f"points = {case['points']}", f"offset = {case['offset']}"]
    if case["rescale"] is not None:
        lines += ["", "[output]", f"rescale = {case['rescale']}"]
    valid = sorted({c - 1 for c in case["coords"] if 1 <= c <= k})
    subsets = [s for r in range(len(valid) + 1) for s in itertools.combinations(valid, r)]
    if case["drop"]:
        subsets = subsets[:-1]
    for support in subsets:
        bits = "".join("1" if j in support else "0" for j in range(k))
        X = rng.uniform(0.0, case["span"], size=(case["n"], k))
        if case["ties"]:
            X = np.round(X, 1)
            X[1::2] = X[::2][: X[1::2].shape[0]]  # duplicate rows
        _write_csv(root / f"g{bits}.csv", X, rng.normal(size=case["n"]))
        lines += ["", f"[data {bits}]", f"path = {root / f'g{bits}.csv'}"]
    config = root / "plan.ini"
    config.write_text("\n".join(lines) + "\n")
    return config


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``, with every warning raised, since
    a warning would print to stderr."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue()


class TestEstimateFuzz:
    """Generated configs and CSVs through ``main``: each run exits 0 with an
    empty stderr, or exits 1, 2 or 3 with exactly one stderr line."""

    @settings(max_examples=150, deadline=None)
    @given(_fuzz_case())
    @example({**_FUZZ_BASE, "d": 3})
    @example({**_FUZZ_BASE, "d1": 2})  # d1 <= k
    @example({**_FUZZ_BASE, "n": 1, "density": "loo"})
    @example({**_FUZZ_BASE, "h_const": "1e-6"})
    @example({**_FUZZ_BASE, "h_const": "1e-200"})  # kernel values would overflow
    @example({**_FUZZ_BASE, "offset": "nan"})
    @example({**_FUZZ_BASE, "offset": "0.7"})
    @example({**_FUZZ_BASE, "offset": "-0.1"})
    @example({**_FUZZ_BASE, "ell": 2})  # ell > p
    @example({**_FUZZ_BASE, "coords": [3]})
    @example({**_FUZZ_BASE, "coords": [0]})
    @example({**_FUZZ_BASE, "density": "LOO"})
    @example({**_FUZZ_BASE, "points": 100000})
    @example({**_FUZZ_BASE, "n": 1})
    @example({**_FUZZ_BASE, "k": 3, "coords": [1, 2, 3], "density": "loo", "ties": True})
    def test_one_line_or_success(self, case):
        with tempfile.TemporaryDirectory() as tmp:
            config = _fuzz_inputs(Path(tmp), case)
            code, text = _run_quietly(["estimate", "--config", str(config), "--out-dir", str(Path(tmp) / "out")])
            if code == 0:
                assert text == ""
                assert (Path(tmp) / "out" / "fit.csv").exists()
            else:
                assert code in (1, 2, 3)
                assert text.endswith("\n") and text.count("\n") == 1, text


_SIMULATE_FLAGS = st.fixed_dictionaries(
    {
        "--ns": st.lists(st.sampled_from([0, 1, 2, 3, 60]), min_size=1, max_size=2),
        "--rhos": st.lists(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1.5, float("nan"), float("inf")]), min_size=1, max_size=2
        ),
        "--reps": st.sampled_from([0, 1, 2]),
        "--sigma": st.sampled_from([0.0, 0.35, -1.0, float("nan")]),
        "--h-deriv-const": st.sampled_from([0.35, 1e-9, -1.0, float("inf")]),
        "--h-base-const": st.sampled_from([0.35, 1e-9, -1.0, float("inf")]),
        "--seed": st.sampled_from([0, 5, -1]),
    }
)
_SIMULATE_BASE = {
    "--ns": [60],
    "--rhos": [0.0],
    "--reps": 2,
    "--sigma": 0.35,
    "--h-deriv-const": 0.35,
    "--h-base-const": 0.35,
    "--seed": 0,
}


class TestSimulateFuzz:
    """Generated ``simulate`` flags through ``main``: each run exits 0 with
    only the low-reps warning on stderr, or exits 1 with one ``error:`` line
    and writes no output directory.  Payloads may hold NaN by design (the
    standard error at reps = 1, a tiny n with no trimmed point)."""

    @settings(max_examples=40, deadline=None)
    @given(_SIMULATE_FLAGS)
    @example({**_SIMULATE_BASE, "--ns": [60, 60]})
    @example({**_SIMULATE_BASE, "--rhos": [0.0, -0.0]})
    @example({**_SIMULATE_BASE, "--ns": [2, 3], "--reps": 1})
    @example({**_SIMULATE_BASE, "--ns": [2], "--sigma": 0.0, "--rhos": [1.0, -1.0]})  # a zero MSE
    @example({**_SIMULATE_BASE, "--ns": [3], "--sigma": 0.0, "--reps": 1, "--seed": 5})
    def test_one_line_or_success(self, flags):
        argv = ["simulate", "--workers", "1"]
        for flag, value in flags.items():
            argv += [flag, *map(str, value if isinstance(value, list) else [value])]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code, text = _run_quietly(argv + ["--out-dir", str(out)])
            if code == 0:
                assert text == f"warning: reps={flags['--reps']} gives a noisy MC standard error\n"
                assert (out / "benchmark.csv").exists()
            else:
                assert code == 1
                assert text.startswith("error: ") and text.count("\n") == 1, text
                assert not out.exists()


def _assert_finite_csvs(out: Path) -> None:
    """Every cell of every CSV in ``out`` that reads as a number is finite."""
    paths = list(out.glob("*.csv"))
    assert paths
    for path in paths:
        with open(path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # a name
                    assert np.isfinite(value), (path.name, row)


class TestVerifyKernelsFuzz:
    """Generated ``verify`` and ``kernels`` flags through ``main``: each run
    exits 0 with an empty stderr and finite CSVs, or exits 1 (or 2 from
    ``kernels``) with exactly one stderr line, or, from ``verify``, exits 2
    with one ``FAILED:`` line per failed report row.  Left out: ``--workers``;
    ``--quad-nodes 64``, at about 3 s a run; and kernel orders above 40, since
    the kernels take time quadratic in the order to build."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([-1, 0, 1, 2, 3, 8, 65]))
    def test_verify(self, nodes):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code, text = _run_quietly(["verify", "--quad-nodes", str(nodes), "--out-dir", str(out)])
            if code == 0:
                assert text == ""
                _assert_finite_csvs(out)
            elif code == 2:
                with open(out / "verify_report.csv", newline="") as fh:
                    failed = [row["name"] for row in csv.DictReader(fh) if row["passed"] == "0"]
                lines = text.splitlines()
                assert failed and len(lines) == len(failed) and text.endswith("\n")
                assert all(line.startswith(f"FAILED: {name} ") for line, name in zip(lines, failed))
            else:
                assert code == 1
                assert text.startswith("error: ") and text.count("\n") == 1, text

    @settings(max_examples=40, deadline=None)
    @given(
        st.fixed_dictionaries(
            {
                "--interior": st.lists(st.sampled_from([0, 1, 2, 3, 4, 22, 40]), min_size=1, max_size=2),
                "--edge": st.lists(st.sampled_from([0, 1, 5, 8, 9]), min_size=1, max_size=2),
                "--samples": st.sampled_from([-1, 0, 1, 2, 201]),
            }
        )
    )
    def test_kernels(self, flags):
        argv = ["kernels"]
        for flag, value in flags.items():
            argv += [flag, *map(str, value if isinstance(value, list) else [value])]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code, text = _run_quietly(argv + ["--out-dir", str(out)])
            if code == 0:
                assert text == ""
                _assert_finite_csvs(out)
            else:
                assert code in (1, 2)
                assert text.endswith("\n") and text.count("\n") == 1, text


class TestGoldenPayloads:
    """sha256 digests of payloads.  The kernel samples and the LOO fit were
    recorded before the kernel evaluator moved to in-place workspace buffers,
    the simulate and verify payloads before the NW baseline took DataSet's
    row checks and one den_floor mode; neither change moved a bit.  A change
    meant to alter these bytes updates the digest and says why."""

    @staticmethod
    def _digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_default_kernel_samples(self, tmp_path):
        assert run(["kernels", "--out-dir", tmp_path]) == 0
        assert self._digest(tmp_path / "kernel_samples.csv") == (
            "3a423955555074086f6cdf4e9ecccd2ce84ee50f1e4096cc2e00404adc797fcc"
        )

    @staticmethod
    def _loo_config(root):
        """The LOO fit's config and CSVs: a non-uniform design, so every
        density weight differs from one."""
        n = 500
        X0 = split_stream(23, [0]).uniform(size=(n, 2)) ** 1.5
        X1 = split_stream(23, [1]).uniform(size=(n, 2)) ** 1.5
        _write_csv(root / "g00.csv", X0, X0[:, 0] * X0[:, 1] + np.sin(3 * X0[:, 1]))
        _write_csv(root / "g10.csv", X1, X1[:, 1])
        cfg = root / "plan.ini"
        cfg.write_text(
            "[plan]\nk = 2\ncoords = 1\nell = 0\nd = 2\nd1 = 4\ndensity = loo\n\n"
            f"[data 00]\npath = {root / 'g00.csv'}\n\n[data 10]\npath = {root / 'g10.csv'}\n\n"
            "[grid]\npoints = 5\noffset = auto\n"
        )
        return cfg

    _SIMULATE = ["simulate", "--ns", 200, 1000, "--rhos", 0, 0.9, "--reps", 4, "--dump-reps", "--seed", 5]

    def test_loo_density_fit(self, tmp_path):
        assert run(["estimate", "--config", self._loo_config(tmp_path), "--out-dir", tmp_path / "out"]) == 0
        assert self._digest(tmp_path / "out" / "fit.csv") == (
            "9f4f1678bd74ef887edd81d5391b64bb7c80b9252e4881586390232abc3d645b"
        )

    @pytest.mark.parametrize("extra", [[], ["--workers", 2]], ids=["serial", "workers2"])
    def test_simulate_tables(self, tmp_path, extra):
        assert run(self._SIMULATE + extra + ["--out-dir", tmp_path]) == 0
        assert self._digest(tmp_path / "benchmark.csv") == (
            "b362ca6c746fa98c501fafd70023af033461768ba64a425db512070ad188b0eb"
        )
        assert self._digest(tmp_path / "benchmark_replications.csv") == (
            "8561baeb865b2b477bd28c54e8eee5e374428e3e7d5d0dc25c69e4005c4cabe9"
        )

    def test_verify_report(self, tmp_path):
        assert run(["verify", "--quad-nodes", 16, "--out-dir", tmp_path]) == 0
        assert self._digest(tmp_path / "verify_report.csv") == (
            "e6f9d0fff427a222b939cfe40c174aad17dde4b9164d93ea5edadc069401f599"
        )

    def test_verify_report_default_nodes(self, tmp_path):
        # 32 nodes, the default; recorded before integrands moved from the
        # materialized tensor points to the open grid, which moved no bit.
        assert run(["verify", "--quad-nodes", 32, "--out-dir", tmp_path]) == 0
        assert self._digest(tmp_path / "verify_report.csv") == (
            "741d28b4473b477f854357e7133c7b58dac2fe4cccebc79ed5eeedede0406f1d"
        )

    def test_every_sidecar_is_strict_json(self, tmp_path):
        # Python's json writes NaN and Infinity, which strict parsers reject.
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        runs = {
            "verify": ["verify", "--quad-nodes", 16],
            "kernels": ["kernels"],
            "simulate": self._SIMULATE,
            "estimate": ["estimate", "--config", self._loo_config(tmp_path)],
        }
        for name, argv in runs.items():
            assert run(argv + ["--out-dir", tmp_path / name]) == 0
            (sidecar,) = (tmp_path / name).glob("*_metadata.json")
            json.loads(sidecar.read_text(), parse_constant=reject)


class TestKernelsCommand:
    def test_writes_samples_and_moments(self, tmp_path):
        assert run(["kernels", "--out-dir", tmp_path, "--interior", 2, "--edge", 1, 2]) == 0
        moments = (tmp_path / "kernel_moments.csv").read_text().splitlines()
        assert moments[0] == "kernel,j,moment,deviation"
        first = moments[1].split(",")
        assert first[0] == "interior-d2" and abs(float(first[2]) - 1.0) < 1e-10
        assert (tmp_path / "kernel_samples.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--edge", 8], "-d8 moment j="),
            (["--interior", 40], "interior-d40 moment j="),
        ],
    )
    def test_moment_deviation_above_tolerance_exits_two(self, tmp_path, capsys, argv, message):
        # Both reports are written before the check, as verify writes its own.
        assert run(["kernels", "--out-dir", tmp_path] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("tolerance failure: ") and message in err and err.endswith("above 1e-10\n")
        assert err.count("\n") == 1
        assert (tmp_path / "kernel_moments.csv").exists() and (tmp_path / "kernel_samples.csv").exists()

    def test_reports_the_deviations_of_verify(self, tmp_path):
        from derivreg.functionals import kernel_checks

        assert run(["kernels", "--out-dir", tmp_path]) == 0
        worst = {}
        for row in (tmp_path / "kernel_moments.csv").read_text().splitlines()[1:]:
            name, j, _, deviation = row.split(",")
            order = int(name.rsplit("-d", 1)[1])
            if int(j) < order:
                worst[f"moment/{name}"] = max(worst.get(f"moment/{name}", 0.0), abs(float(deviation)))
        checks = {c.name: c.residual for c in kernel_checks() if c.name.startswith("moment/")}
        assert worst == checks

    def test_odd_interior_order_exits_one_with_one_line(self, tmp_path, capsys):
        assert run(["kernels", "--out-dir", tmp_path, "--interior", 3]) == 1
        assert capsys.readouterr().err == "error: interior kernel order must be even, got 3\n"


class TestExitCodes:
    def test_io_failure_exits_three(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = run(["kernels", "--out-dir", blocker / "sub"])
        assert code == 3

    def test_bad_workers_validated(self, tmp_path):
        assert run(["verify", "--workers", 0, "--out-dir", tmp_path]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["kernels", "--samples", "0"], "--samples must be >= 1, got 0"),
            (["kernels", "--samples", "-5"], "--samples must be >= 1, got -5"),
            (["verify", "--quad-nodes", "1"], "--quad-nodes must lie in 2..64, got 1"),
            (["verify", "--quad-nodes", "65"], "--quad-nodes must lie in 2..64, got 65"),
        ],
    )
    def test_bad_flag_values_exit_one_with_one_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "never"
        assert run(argv + ["--out-dir", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate"], "the following arguments are required: --config"),
            ([], "the following arguments are required: command"),
            (["simulate", "--reps", "many"], "argument --reps: invalid int value: 'many'"),
            (["fit"], "invalid choice: 'fit'"),
            # --quad-nodes belongs to verify alone.
            (["simulate", "--quad-nodes", "16"], "unrecognized arguments: --quad-nodes 16"),
            (["estimate", "--config", "plan.ini", "--quad-nodes", "16"], "unrecognized arguments: --quad-nodes 16"),
            (["kernels", "--quad-nodes", "16"], "unrecognized arguments: --quad-nodes 16"),
            # kernels draws nothing at random and runs in one process.
            (["kernels", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["kernels", "--workers", "2"], "unrecognized arguments: --workers 2"),
        ],
    )
    def test_usage_errors_exit_one_with_one_line(self, capsys, argv, message):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: derivreg") and len(captured.err.splitlines()) == 1
        assert message in captured.err and captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["estimate", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out
