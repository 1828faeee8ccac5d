"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantities.  Criterion 3 documents a known
calibration discrepancy of the data generator (see the assertion message);
it is asserted as stated rather than weakened."""

import numpy as np
import pytest

import derivreg as dr
from derivreg.functionals import identity_checks, kernel_checks

import reference


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


@pytest.fixture(scope="module")
def benchmark_cells():
    res, _ = dr.relative_mse_table(ns=(100, 1000), rhos=(0.0,), reps=1000, seed=42)
    return {(r.n, r.rho): r for r in res}


def test_criterion_1_relative_mse_ratios(benchmark_cells):
    r100 = benchmark_cells[(100, 0.0)].ratio
    r1000 = benchmark_cells[(1000, 0.0)].ratio
    ok = abs(r100 - 0.384) <= 0.10 and abs(r1000 - 0.185) <= 0.07
    _report(
        1,
        ok,
        f"ratio(n=100, rho=0) = {r100:.3f} (0.384 +- 0.10), "
        f"ratio(n=1000, rho=0) = {r1000:.3f} (0.185 +- 0.07), 1000 reps, seed 42",
    )
    assert abs(r100 - 0.384) <= 0.10
    assert abs(r1000 - 0.185) <= 0.07


def test_criterion_2_ratio_trend(benchmark_cells):
    r100 = benchmark_cells[(100, 0.0)].ratio
    r1000 = benchmark_cells[(1000, 0.0)].ratio
    ok = r1000 < r100
    _report(2, ok, f"ratio strictly decreases: {r100:.3f} (n=100) -> {r1000:.3f} (n=1000)")
    assert ok


def test_criterion_3_generator_r2():
    r2_ac, r2_al = dr.equation_r2(dr.CobbDouglasConfig(), 100_000)
    ok = abs(r2_ac - 0.75) <= 0.05 and abs(r2_al - 0.15) <= 0.05
    _report(
        3,
        ok,
        f"R2_AC = {r2_ac:.3f} (required 0.75 +- 0.05), R2_AL = {r2_al:.3f} (required 0.15 +- 0.05)",
    )
    assert ok, (
        f"measured R2_AC = {r2_ac:.3f}, R2_AL = {r2_al:.3f}. The stated generator "
        "(uniform Q and w/r on [0.5, 1.5], both error standard deviations 0.35, r = 1) "
        "has signal variances 0.1236 (cost equation) and 0.0387 (labor equation), "
        "so R2 is near 0.50 and 0.24 regardless of the error scale. Reaching "
        "(0.75, 0.15) jointly would need a signal-variance ratio of 17, but the "
        "generator fixes it at 3.2; the targets are unreachable for any "
        "parameters consistent with the stated design, so this check documents "
        "the discrepancy rather than hiding it."
    )


def test_criterion_4_identity_suite():
    checks = identity_checks()
    failed = [c for c in checks if not c.passed]
    worst = max(checks, key=lambda c: c.residual / c.tol)
    _report(
        4,
        not failed,
        f"{len(checks) - len(failed)}/{len(checks)} exact-identity checks passed; "
        f"worst margin {worst.name} residual {worst.residual:.2e} (tol {worst.tol:.0e})",
    )
    assert not failed, [c.name for c in failed]


def test_criterion_5_kernel_construction():
    checks = kernel_checks()
    failed = [c for c in checks if not c.passed]
    _report(5, not failed, f"{len(checks) - len(failed)}/{len(checks)} kernel moment/endpoint checks passed")
    assert not failed, [c.name for c in failed]


def test_criterion_6_rate_checks():
    cases = [
        (2, 2, -1.0),
        (1, 2, -0.8),
        (0, 2, -2.0 / 3.0),
    ]
    results, msgs = [], []
    for p, d, target in cases:
        rr = dr.convergence_rate_experiment(2, p, d, ns=(250, 500, 1000, 2000, 4000, 8000), reps=200)
        results.append((p, rr.slope, target))
        msgs.append(f"p={p}: slope {rr.slope:.3f} vs {target:.3f} (se {rr.se:.3f})")
    ok = all(abs(slope - target) <= 0.15 for _, slope, target in results)
    _report(6, ok, "; ".join(msgs))
    for p, slope, target in results:
        assert abs(slope - target) <= 0.15, (p, slope, target)


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst = {"nonlocal": 0.0, "smoothed": 0.0, "density": 0.0, "windowed-ac": 0.0}

    for inst in range(100):
        n = int(rng.integers(5, 101))
        k = int(rng.integers(2, 4))
        X = rng.uniform(size=(n, k))
        Y = rng.normal(size=n)
        x = rng.uniform(0.05, 0.95, size=k)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=k))
        alpha = dr.DerivIndex(bits)
        ds = dr.DataSet(k, alpha, X, Y)

        prod = dr.nonlocal_estimate(ds, alpha, x)
        naive = reference.nonlocal_avg(X.tolist(), Y.tolist(), bits, x.tolist())
        worst["nonlocal"] = max(worst["nonlocal"], abs(prod - naive))

    for inst in range(100):
        n = int(rng.integers(6, 101))
        k = int(rng.integers(2, 4))
        p = int(rng.integers(1, k))
        X = rng.uniform(size=(n, k))
        Y = rng.normal(size=n)
        x = rng.uniform(0.05, 0.95, size=k)
        bits = tuple(int(b) if j < p else 0 for j, b in enumerate(rng.integers(0, 2, size=k)))
        beta = dr.DerivIndex(bits)
        ds = dr.DataSet(k, beta, X, Y)
        h = float(rng.uniform(0.15, 0.4))
        H = float(rng.uniform(0.2, 0.5))
        d1 = 4
        est = dr.DensityEstimator(ds, d1=d1, H=H, floor=0.05)
        dens = dr.loo_at_rows(est, floored=True)
        prod = dr.smoothed_nonlocal_estimate(ds, beta, x, p=p, h=h, d=2, density=dens)
        naive = reference.smoothed_nonlocal(
            X.tolist(), Y.tolist(), bits, p, x.tolist(), h, 2, H, d1, 0.05
        )
        worst["smoothed"] = max(worst["smoothed"], abs(prod - naive))

    for inst in range(100):
        n = int(rng.integers(3, 101))
        k = int(rng.integers(1, 4))
        X = rng.uniform(size=(n, k))
        ds = dr.DataSet(k, dr.DerivIndex.zeros(k), X, np.zeros(n))
        H = float(rng.uniform(0.15, 0.5))
        d1 = 4
        est = dr.DensityEstimator(ds, d1=d1, H=H)
        i = int(rng.integers(0, n))
        x = rng.uniform(size=k)
        prod = dr.loo_density(est, i, x)
        naive = reference.loo_density(X.tolist(), i, x.tolist(), H, d1)
        worst["density"] = max(worst["density"], abs(prod - naive))

    for inst in range(100):
        n = int(rng.integers(30, 101))
        cfg = dr.CobbDouglasConfig(n=n, seed=int(rng.integers(0, 10_000)), rho=float(rng.uniform(-0.9, 0.9)))
        sample = dr.generate(cfg)
        h = float(rng.uniform(0.3, 0.6))
        j = int(rng.integers(0, n))
        q0, v0 = float(sample.q[j]), float(sample.v[j])
        prod = dr.derivative_ac_curve(sample, [q0], [v0], 1.0, h)[2][0]
        naive = reference.derivative_ac(
            sample.q.tolist(), sample.v.tolist(), sample.r.tolist(),
            sample.y_ac.tolist(), sample.y_al.tolist(), q0, v0, 1.0, h,
        )
        worst["windowed-ac"] = max(worst["windowed-ac"], abs(prod - naive))

    ok = all(v <= 1e-12 for v in worst.values())
    _report(7, ok, "max |production - naive|: " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    for name, v in worst.items():
        assert v <= 1e-12, (name, v)


def test_criterion_8_statistical_invariants():
    # (a) unbiasedness t-checks of the nonlocal estimator on a 5-point grid
    g = dr.poly_function(1, {(2,): 1.0})
    one = dr.DerivIndex.from_string("1")
    reps, n, sigma = 2000, 500, 0.3
    xs = (0.1, 0.3, 0.5, 0.7, 0.9)
    estimates = np.empty((reps, len(xs)))
    for r in range(reps):
        X = dr.split_stream(2718, (r, 0)).uniform((n, 1))
        Y = g.deriv(one, X) + sigma * dr.split_stream(2718, (r, 1)).standard_normal(n)
        ds = dr.DataSet(1, one, X, Y)
        for j, x in enumerate(xs):
            estimates[r, j] = dr.nonlocal_estimate(ds, one, [x])
    targets = np.array([x * x - 1.0 / 3.0 for x in xs])
    terr = (estimates.mean(axis=0) - targets) / (estimates.std(axis=0, ddof=1) / np.sqrt(reps))
    ok_t = bool(np.all(np.abs(terr) < 4.0))

    # (b) interior leave-one-out density mean under a uniform design
    vals = np.empty(10_000)
    for r in range(vals.shape[0]):
        X = dr.split_stream(99, (r,)).uniform((40, 1))
        est = dr.DensityEstimator(dr.DataSet(1, dr.DerivIndex.zeros(1), X, np.zeros(40)), d1=2, H=0.3)
        vals[r] = dr.loo_density(est, 0, [0.5])
    se = vals.std(ddof=1) / np.sqrt(vals.shape[0])
    ok_d = abs(vals.mean() - 1.0) <= 3 * se

    # (c) limit covariance: symmetry and the univariate closed form
    sym = abs(
        dr.limit_covariance(dr.DerivIndex.from_string("11"), [0.2, 0.7], [0.8, 0.3], 1.7)
        - dr.limit_covariance(dr.DerivIndex.from_string("11"), [0.8, 0.3], [0.2, 0.7], 1.7)
    )
    closed = max(
        abs(dr.limit_covariance(one, [x], [x], 2.0) - 2.0 * (x * x - x + 1.0 / 3.0))
        for x in xs
    )
    ok_c = sym <= 1e-14 and closed <= 1e-10

    ok = ok_t and ok_d and ok_c
    _report(
        8,
        ok,
        f"max |t| = {np.abs(terr).max():.2f} (< 4); density mean {vals.mean():.4f} "
        f"(1.0 +- {3 * se:.4f}); covariance symmetry {sym:.1e}, closed form {closed:.1e}",
    )
    assert ok_t and ok_d and ok_c


def test_criterion_9_determinism(tmp_path):
    from derivreg.cli import main

    sim = ["simulate", "--ns", "80", "--rhos", "0.0", "--reps", "6", "--seed", "9"]
    for sub, extra in (("s1", []), ("s2", []), ("s3", ["--workers", "3"])):
        assert main(sim + ["--out-dir", str(tmp_path / sub)] + extra) == 0
    payload = (tmp_path / "s1" / "benchmark.csv").read_bytes()
    sim_ok = payload == (tmp_path / "s2" / "benchmark.csv").read_bytes()
    sim_ok = sim_ok and payload == (tmp_path / "s3" / "benchmark.csv").read_bytes()

    n = 60
    X = dr.split_stream(4, [0]).uniform((n, 1))
    with open(tmp_path / "f.csv", "w") as fh:
        fh.write("x1,y\n")
        for xi in X[:, 0]:
            fh.write(f"{float(xi)!r},{float(xi * xi)!r}\n")
    with open(tmp_path / "df.csv", "w") as fh:
        fh.write("x1,y\n")
        for xi in X[:, 0]:
            fh.write(f"{float(xi)!r},{float(2 * xi)!r}\n")
    cfg = tmp_path / "p.ini"
    cfg.write_text(
        "[plan]\nk = 1\ncoords = 1\nell = 0\n\n"
        f"[data 0]\npath = {tmp_path / 'f.csv'}\n\n[data 1]\npath = {tmp_path / 'df.csv'}\n\n"
        "[grid]\npoints = 7\noffset = 0.1\n"
    )
    est = ["estimate", "--config", str(cfg)]
    for sub, extra in (("e1", []), ("e2", ["--workers", "4"])):
        assert main(est + ["--out-dir", str(tmp_path / sub)] + extra) == 0
    est_ok = (tmp_path / "e1" / "fit.csv").read_bytes() == (tmp_path / "e2" / "fit.csv").read_bytes()

    _report(9, sim_ok and est_ok, f"simulate byte-identical: {sim_ok}; estimate byte-identical: {est_ok}")
    assert sim_ok and est_ok
