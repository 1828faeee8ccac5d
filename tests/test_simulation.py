import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference

from derivreg import (
    CobbDouglasConfig,
    CobbDouglasOracle,
    ValidationError,
    convergence_rate_experiment,
    derivative_ac_curve,
    derivative_ac_estimate,
    equation_r2,
    generate,
    relative_mse_table,
)
from derivreg.simulation import BenchmarkRules, _replication_mse


class TestConfigAndOracle:
    def test_c_tilde_value(self):
        # direct arithmetic: (8/7)^(7/15) + (8/7)^(-8/15) with c = 1
        cfg = CobbDouglasConfig(c1=0.8, c2=0.7, c=1.0)
        expected = (8.0 / 7.0) ** (7.0 / 15.0) + (8.0 / 7.0) ** (-8.0 / 15.0)
        assert cfg.c_tilde == pytest.approx(expected, abs=1e-12)
        assert cfg.c_tilde == pytest.approx(1.9956, abs=5e-4)

    def test_labor_is_price_derivative_of_cost(self):
        cfg = CobbDouglasConfig()
        oracle = CobbDouglasOracle(cfg)
        q, v, r, dw = 1.1, 0.9, 1.3, 1e-6
        # AC as a function of (w, r) with v = w/r; AL = dAC/dw
        ac = lambda w: oracle.ac(q, w / r, r)
        fd = (ac(v * r + dw) - ac(v * r - dw)) / (2 * dw)
        assert fd == pytest.approx(float(oracle.al(q, v)), rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CobbDouglasConfig(rho=1.5)
        with pytest.raises(ValidationError):
            CobbDouglasConfig(c1=-1.0)
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValidationError, match="sigma"):
                CobbDouglasConfig(sigma=bad)
        with pytest.raises(ValidationError, match="rho"):
            CobbDouglasConfig(rho=np.nan)


class TestGenerate:
    def test_independent_errors_when_rho_zero(self):
        sample = generate(CobbDouglasConfig(n=100_000, rho=0.0, seed=1))
        corr = np.corrcoef(sample.y_ac - sample.ac_true, sample.y_al - sample.al_true)[0, 1]
        assert abs(corr) <= 0.01

    def test_correlated_errors(self):
        sample = generate(CobbDouglasConfig(n=100_000, rho=0.9, seed=1))
        corr = np.corrcoef(sample.y_ac - sample.ac_true, sample.y_al - sample.al_true)[0, 1]
        assert corr == pytest.approx(0.9, abs=0.01)

    def test_noiseless_observations_equal_oracle(self):
        sample = generate(CobbDouglasConfig(n=50, sigma=0.0, seed=2))
        assert np.array_equal(sample.y_ac, sample.ac_true)
        assert np.array_equal(sample.y_al, sample.al_true)

    def test_rho_changes_only_error_draws(self):
        a = generate(CobbDouglasConfig(n=500, rho=0.0, seed=3), path_prefix=(4,))
        b = generate(CobbDouglasConfig(n=500, rho=0.9, seed=3), path_prefix=(4,))
        assert np.array_equal(a.q, b.q) and np.array_equal(a.v, b.v)
        assert np.array_equal(a.y_ac - a.ac_true, b.y_ac - b.ac_true)  # AC errors coupled
        assert not np.array_equal(a.y_al - a.al_true, b.y_al - b.al_true)

    def test_datasets_are_unit_cube(self):
        sample = generate(CobbDouglasConfig(n=20, seed=5))
        assert sample.ds_ac.X.min() >= 0.0 and sample.ds_ac.X.max() <= 1.0
        assert str(sample.ds_al.deriv) == "01"


class TestDerivativeAcEstimator:
    def test_zero_labor_gives_windowed_cost_mean(self):
        cfg = CobbDouglasConfig(n=60, seed=7)
        sample = replace(generate(cfg), y_al=np.zeros(cfg.n))
        q0, v0, h = 1.0, 1.1, 0.4
        ga, gb, ac = derivative_ac_curve(sample, [q0], [v0], 1.0, h)
        assert ga[0] == 0.0
        win = np.abs(sample.q - q0) <= 0.5 * h
        assert ac[0] == pytest.approx(sample.y_ac[win].sum() / win.sum(), rel=1e-14)

    def test_doubling_responses_doubles_estimate(self):
        cfg = CobbDouglasConfig(n=80, seed=8)
        s1 = generate(cfg)
        s2 = replace(s1, y_ac=2.0 * s1.y_ac, y_al=2.0 * s1.y_al)
        a = derivative_ac_estimate(s1, 1.0, 1.0, 0.3)
        b = derivative_ac_estimate(s2, 1.0, 1.0, 0.3)
        assert b == 2.0 * a

    def test_empty_window_errors(self):
        cfg = CobbDouglasConfig(n=30, seed=9)
        sample = generate(cfg)
        with pytest.raises(ValidationError, match="increase h"):
            derivative_ac_curve(sample, [5.0], [1.0], 1.0, 0.01)

    def test_consistent_in_the_large(self):
        cfg = CobbDouglasConfig(n=40_000, sigma=0.05, seed=10)
        sample = generate(cfg)
        est = derivative_ac_estimate(sample, 1.0, 1.0, h=0.05)
        truth = float(sample.oracle.ac(1.0, 1.0))
        assert est == pytest.approx(truth, abs=0.02)


def _sample(q, v, r, y_ac, y_al):
    """A SimSample carrying the given rows (truth fields are unused here)."""
    base = generate(CobbDouglasConfig(n=len(q), seed=0))
    arrays = dict(q=q, v=v, r=r, y_ac=y_ac, y_al=y_al)
    return replace(base, **{name: np.asarray(a, dtype=float) for name, a in arrays.items()})


def _naive_ac(s, eq, ev, er, h):
    rows = [a.tolist() for a in (s.q, s.v, s.r, s.y_ac, s.y_al)]
    return np.array([reference.derivative_ac(*rows, q0, v0, r0, h) for q0, v0, r0 in zip(eq, ev, er)])


# Dyadic values put data exactly on window edges q0 +- h/2; free floats fill in.
_dyadic = st.sampled_from([0.5 + j / 8 for j in range(9)])
_q = st.one_of(_dyadic, st.floats(0.5, 1.5))


@st.composite
def _ac_problems(draw, max_n, max_m):
    """(sample, eval_q, eval_v, eval_r, h); some rows share a prefix of
    (q, v, r, y_al, y_ac) with another row, up to an exact repeat."""
    n = draw(st.one_of(st.integers(1, 20), st.integers(65, max_n)))  # one block or several
    r = st.one_of(st.sampled_from([0.75, 1.0]), st.floats(0.5, 1.5))
    y = st.one_of(st.sampled_from([-1.0, 0.5, 2.0]), st.floats(-3.0, 3.0))
    cols = [draw(st.lists(c, min_size=n, max_size=n)) for c in (_q, _q, r, y, y)]
    rows = [list(t) for t in zip(*cols)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5))
    for src, dst, width in draw(st.lists(pairs, max_size=n // 2)):
        rows[dst][:width] = rows[src][:width]
    q, v, r, y_al, y_ac = (np.array(c) for c in zip(*rows))
    m = draw(st.one_of(st.integers(1, 20), st.integers(65, max_m)))
    at_data = st.sampled_from(sorted(set(q.tolist())))
    evals = [np.array(draw(st.lists(st.one_of(_q, at_data), min_size=m, max_size=m)))]
    evals += [np.array(draw(st.lists(_q, min_size=m, max_size=m))) for _ in range(2)]
    h = draw(st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0]), st.floats(0.01, 1.2)))
    return _sample(q, v, r, y_ac, y_al), *evals, h


class TestWindowedSweep:
    """derivative_ac_curve's sorted-band sweep against the naive oracle."""

    @settings(max_examples=40, deadline=None)
    @given(_ac_problems(max_n=90, max_m=80))
    def test_matches_naive_oracle(self, problem):
        s, eq, ev, er, h = problem
        if np.any(np.all(np.abs(s.q[None, :] - eq[:, None]) > 0.5 * h, axis=1)):
            with pytest.raises(ValidationError, match="empty Q-window"):
                derivative_ac_curve(s, eq, ev, er, h)
            return
        _, _, got = derivative_ac_curve(s, eq, ev, er, h)
        want = _naive_ac(s, eq, ev, er, h)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_rows_exactly_on_window_edges(self):
        # h = 0.25 at q0 = 1.0: rows at 0.875 and 1.125 are in, their neighbours out.
        q = [0.875, 1.0, 1.125, np.nextafter(1.125, 2.0), np.nextafter(0.875, 0.0), 1.3]
        s = _sample(q, [0.9, 1.2, 0.7, 0.8, 0.6, 1.0], [1.0, 1.2, 0.8, 1.0, 1.1, 0.9],
                    [2.0, 1.5, 1.0, -4.0, 8.0, 3.0], [0.5, 0.25, 1.0, 16.0, 32.0, 2.0])
        ga, gb, ac = derivative_ac_curve(s, [1.0], [1.0], 1.0, 0.25)
        assert ga[0] == (0.5 + 1.0) / 3  # v <= 1.0 among the three in-window rows
        assert ac[0] == pytest.approx(_naive_ac(s, [1.0], [1.0], [1.0], 0.25)[0], abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(_ac_problems(max_n=200, max_m=80), st.randoms(use_true_random=False))
    def test_row_permutation_invariance_bitwise(self, problem, rnd):
        s, eq, ev, er, h = problem
        perm = np.array(rnd.sample(range(len(s.q)), len(s.q)))
        shuffled = _sample(s.q[perm], s.v[perm], s.r[perm], s.y_ac[perm], s.y_al[perm])
        try:
            a = derivative_ac_curve(s, eq, ev, er, h)
        except ValidationError:
            with pytest.raises(ValidationError):
                derivative_ac_curve(shuffled, eq, ev, er, h)
            return
        b = derivative_ac_curve(shuffled, eq, ev, er, h)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_memory_stays_bounded_at_large_n(self):
        # The dense m x n window blocks took 20 MB of masks plus 160 MB of products.
        sample = generate(CobbDouglasConfig(n=20_000, seed=3))
        tracemalloc.start()
        try:
            derivative_ac_curve(sample, sample.q[:2000], sample.v[:2000], 1.0, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestBenchmark:
    def test_deterministic_across_runs_and_workers(self):
        a, _ = relative_mse_table(ns=(60,), rhos=(0.0,), reps=12, seed=11, workers=1)
        b, _ = relative_mse_table(ns=(60,), rhos=(0.0,), reps=12, seed=11, workers=1)
        c, _ = relative_mse_table(ns=(60,), rhos=(0.0,), reps=12, seed=11, workers=3)
        assert a == b == c

    def test_ratio_improves_with_sample_size(self):
        res, _ = relative_mse_table(ns=(100, 1000), rhos=(0.0,), reps=60, seed=12)
        assert res[1].ratio < res[0].ratio

    def test_ratio_nearly_invariant_to_error_correlation(self):
        res, _ = relative_mse_table(ns=(200,), rhos=(0.0, 0.4, 0.9), reps=200, seed=14)
        ratios = [r.ratio for r in res]
        assert max(ratios) - min(ratios) < 0.05

    def test_noiseless_mse_far_below_noisy(self):
        # Baseline: removing response noise collapses its MSE by >= 10x.
        # The windowed-cumulative estimator keeps design-sampling noise that
        # carries the labor-response levels even at sigma = 0, so only a
        # directional drop is asserted for it.
        rules = BenchmarkRules()
        noisy = np.zeros(2)
        noiseless = np.zeros(2)
        for rep in range(10):
            noisy += _replication_mse(CobbDouglasConfig(n=500, seed=13), rep, rules)
            noiseless += _replication_mse(CobbDouglasConfig(n=500, sigma=0.0, seed=13), rep, rules)
        assert noisy[1] / noiseless[1] >= 10.0
        assert noiseless[0] < 0.6 * noisy[0]

    def test_reps_validated(self):
        with pytest.raises(ValidationError):
            relative_mse_table(reps=0)


class TestRates:
    def test_grid_validated(self):
        with pytest.raises(ValidationError):
            convergence_rate_experiment(2, 2, 2, ns=(100, 200), reps=2)

    def test_root_n_smoke(self):
        rr = convergence_rate_experiment(2, 2, 2, ns=(250, 500, 1000, 2500), reps=30)
        assert abs(rr.slope + 1.0) <= 0.3
        assert rr.se < 0.2


class TestR2:
    def test_noiseless_r2_is_one(self):
        r2_ac, r2_al = equation_r2(CobbDouglasConfig(sigma=0.0), 10_000)
        assert r2_ac == pytest.approx(1.0) and r2_al == pytest.approx(1.0)

    def test_huge_noise_r2_near_zero(self):
        r2_ac, r2_al = equation_r2(CobbDouglasConfig(sigma=50.0), 50_000)
        assert r2_ac < 0.01 and r2_al < 0.01

    def test_sample_size_validated(self):
        with pytest.raises(ValidationError):
            equation_r2(CobbDouglasConfig(), 50)


class TestAcCurveInputs:
    @pytest.mark.parametrize(
        "eval_q, eval_v, eval_r, h",
        [
            ([1.0, 1.1], [1.0], 1.0, 0.3),  # longer eval_q
            ([1.0], [1.0, 1.1], 1.0, 0.3),  # longer eval_v
            ([1.0, 1.1], [1.0, 1.1], [1.0], 0.3),  # short array eval_r
            ([1.0], [1.0], [1.0, 1.0], 0.3),  # long array eval_r
            ([np.nan], [1.0], 1.0, 0.3),
            ([1.0], [np.inf], 1.0, 0.3),
            ([1.0], [1.0], np.nan, 0.3),
            ([1.0], [1.0], 1.0, np.nan),
            ([1.0], [1.0], 1.0, np.inf),
            ([1.0], [1.0], 1.0, 0.0),
        ],
    )
    def test_bad_evaluation_inputs_rejected(self, eval_q, eval_v, eval_r, h):
        sample = generate(CobbDouglasConfig(n=50, seed=11))
        with pytest.raises(ValidationError) as err:
            derivative_ac_curve(sample, eval_q, eval_v, eval_r, h)
        assert "empty Q-window" not in str(err.value)
