import itertools
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivreg import (
    BandwidthPlan,
    DataSet,
    DensityEstimator,
    DerivIndex,
    EstimationPlan,
    Quadrature,
    ValidationError,
    fit,
    limit_covariance,
    loo_at_rows,
    make_grid,
    nadaraya_watson_grid,
    nonlocal_estimate,
    poly_function,
    smoothed_nonlocal_estimate,
    split_stream,
)
from derivreg.estimators import _point_chunks, _term_column
from derivreg.functionals import Term, Weight, build_term_plan, term_weights, weighted_integral

D = DerivIndex.from_string
QUAD = Quadrature(nodes=32)


def _uniform_dataset(k, deriv, n, g, sigma, seed, path):
    X = split_stream(seed, (*path, 0)).uniform(size=(n, k))
    noise = sigma * split_stream(seed, (*path, 1)).standard_normal(n) if sigma else 0.0
    return DataSet(k=k, deriv=deriv, X=X, Y=g.deriv(deriv, X) + noise)


class TestNonlocalEstimate:
    def test_single_observation(self):
        ds = DataSet(1, D("0"), np.array([[0.123]]), np.array([2.0]))
        assert nonlocal_estimate(ds, D("0"), [0.5]) == 2.0

    def test_unbiased_for_uniform_design(self):
        # target: integral of (u - 1 + 1{u<=x}) 2u du = x^2 - 1/3 at x = 0.5
        g = poly_function(1, {(2,): 1.0})
        reps, n = 1000, 200
        vals = np.empty(reps)
        for r in range(reps):
            ds = _uniform_dataset(1, D("1"), n, g, 0.3, 99, (r,))
            vals[r] = nonlocal_estimate(ds, D("1"), [0.5])
        target = 0.25 - 1.0 / 3.0
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - target) <= 3 * se

    def test_exact_linearity_in_responses(self):
        g = poly_function(1, {(2,): 1.0})
        ds = _uniform_dataset(1, D("1"), 64, g, 0.5, 4, (0,))
        doubled = DataSet(1, D("1"), ds.X, 2.0 * ds.Y)
        assert nonlocal_estimate(doubled, D("1"), [0.4]) == 2.0 * nonlocal_estimate(ds, D("1"), [0.4])

    def test_dataset_index_checked(self):
        ds = DataSet(1, D("0"), np.array([[0.1]]), np.array([1.0]))
        with pytest.raises(ValidationError):
            nonlocal_estimate(ds, D("1"), [0.5])

    @pytest.mark.parametrize("bad", [[1.5], [np.nan], [0.5, 0.5], [[0.5], [0.6]]])
    def test_point_checked(self, bad):
        ds = DataSet(1, D("1"), np.array([[0.1]]), np.array([1.0]))
        with pytest.raises(ValidationError):
            nonlocal_estimate(ds, D("1"), bad)


class TestSmoothedEstimate:
    def test_zero_outside_kernel_window(self):
        X = np.column_stack([np.linspace(0.1, 0.9, 20), np.full(20, 0.9)])
        ds = DataSet(2, D("10"), X, np.ones(20))
        # evaluation point far from every design point in the smoothed coordinate
        assert smoothed_nonlocal_estimate(ds, D("10"), [0.5, 0.1], p=1, h=0.05) == 0.0

    def test_converges_to_quadrature_target(self):
        # noiseless data, k=2, p=1: compare against the exact integral target
        g = poly_function(2, {(1, 1): 1.0})
        beta = D("10")
        n, h = 20_000, 0.12
        ds = _uniform_dataset(2, beta, n, g, 0.0, 21, (0,))
        x = [0.5, 0.5]
        target = weighted_integral(g.partial(beta), term_weights(beta, [0]), x, QUAD)
        est = smoothed_nonlocal_estimate(ds, beta, x, p=1, h=h)
        # tolerance: 3x the (bias + MC sd) scale recorded when the test was frozen
        assert abs(est - target) <= 3 * (h**2 + 1.0 / np.sqrt(n * h))

    def test_requires_p_below_k(self):
        ds = DataSet(1, D("1"), np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ValidationError):
            smoothed_nonlocal_estimate(ds, D("1"), [0.5], p=1, h=0.1)

    def test_beta_outside_first_p_rejected(self):
        ds = DataSet(2, D("01"), np.array([[0.1, 0.5]]), np.array([1.0]))
        with pytest.raises(ValidationError, match=r"^alpha 01 differentiates outside the active coordinates$"):
            smoothed_nonlocal_estimate(ds, D("01"), [0.5, 0.5], p=1, h=0.2)

    @pytest.mark.parametrize("bad", [[0.5, 1.5], [np.nan, 0.5], [0.5], [[0.5, 0.5], [0.6, 0.5]]])
    def test_point_checked(self, bad):
        ds = DataSet(2, D("10"), np.array([[0.1, 0.5]]), np.array([1.0]))
        with pytest.raises(ValidationError):
            smoothed_nonlocal_estimate(ds, D("10"), bad, p=1, h=0.2)


class TestOnePointInputs:
    """Both one-point estimators reject a bad density or bandwidth."""

    X = np.column_stack([np.linspace(0.05, 0.95, 10), np.linspace(0.9, 0.1, 10)])

    @pytest.mark.parametrize(
        "density",
        [
            pytest.param(np.ones(20), id="long"),
            pytest.param(np.ones(5), id="short"),
            pytest.param(np.ones((10, 1)), id="column"),
            pytest.param(np.zeros(10), id="zero"),
            pytest.param(-np.ones(10), id="negative"),
            pytest.param(np.r_[np.ones(9), np.nan], id="nan"),
            pytest.param(np.r_[np.ones(9), np.inf], id="inf"),
            pytest.param([1.0] * 9 + [[1.0, 1.1]], id="ragged"),
        ],
    )
    @pytest.mark.parametrize("estimator", ["nonlocal", "smoothed"])
    def test_bad_density_rejected(self, estimator, density):
        ds = DataSet(2, D("10"), self.X, np.ones(10))
        with pytest.raises(ValidationError, match="density"):
            if estimator == "nonlocal":
                nonlocal_estimate(ds, D("10"), [0.5, 0.5], density=density)
            else:
                smoothed_nonlocal_estimate(ds, D("10"), [0.5, 0.5], p=1, h=0.3, density=density)

    @pytest.mark.parametrize("h", [-0.3, 0.0, np.inf, np.nan, 1e-200])
    def test_bad_bandwidth_rejected(self, h):
        ds = DataSet(2, D("10"), self.X, np.ones(10))
        with pytest.raises(ValidationError, match="bandwidth"):
            smoothed_nonlocal_estimate(ds, D("10"), [0.5, 0.5], p=1, h=h)

    def test_valid_density_accepted(self):
        ds = DataSet(2, D("10"), self.X, np.ones(10))
        half = np.full(10, 0.5)
        assert nonlocal_estimate(ds, D("10"), [0.5, 0.5], density=half) == 2.0 * nonlocal_estimate(ds, D("10"), [0.5, 0.5])


class TestFit:
    def _full_hierarchy_plan(self, g, n, seed, sigma=0.0, density="uniform"):
        datasets = {}
        for bits in ("0", "1"):
            idx = D(bits)
            datasets[idx] = _uniform_dataset(1, idx, n, g, sigma, seed, (int(bits, 2),))
        return EstimationPlan.build(1, [0], 0, datasets, density=density)

    def test_noiseless_square_small_error(self):
        # deterministic draw; the recorded error of this exact run is 0.0102
        g = poly_function(1, {(2,): 1.0})
        plan = self._full_hierarchy_plan(g, 1000, seed=7)
        pts = make_grid(1, 9, offset=0.1)
        res = fit(plan, pts)
        assert np.max(np.abs(res.values - g(pts))) <= 0.02

    def test_contributions_sum_exactly(self):
        g = poly_function(1, {(2,): 1.0, (1,): -0.3})
        plan = self._full_hierarchy_plan(g, 300, seed=3, sigma=0.4)
        res = fit(plan, make_grid(1, 5, offset=0.1))
        total = np.zeros_like(res.values)
        for col in res.contributions.values():
            total = total + col
        assert np.max(np.abs(total - res.values)) <= 1e-12

    def test_row_permutation_invariance_bitwise(self):
        g = poly_function(2, {(1, 1): 1.0, (2, 0): 0.5})
        idx0, idx1 = D("00"), D("10")
        ds0 = _uniform_dataset(2, idx0, 200, g, 0.3, 5, (0,))
        ds1 = _uniform_dataset(2, idx1, 150, g, 0.3, 5, (1,))
        perm = split_stream(6, [0]).permutation(200)
        ds0p = DataSet(2, idx0, ds0.X[perm], ds0.Y[perm])
        plan_a = EstimationPlan.build(2, [0], 0, {idx0: ds0, idx1: ds1}, d=2)
        plan_b = EstimationPlan.build(2, [0], 0, {idx0: ds0p, idx1: ds1}, d=2)
        pts = make_grid(2, 3, offset=0.2)
        ra, rb = fit(plan_a, pts), fit(plan_b, pts)
        assert np.array_equal(ra.values, rb.values)

    def test_row_permutation_invariance_bitwise_with_loo_density(self):
        g = poly_function(2, {(1, 1): 1.0, (2, 0): 0.5})
        idx0, idx1 = D("00"), D("10")
        ds0 = _uniform_dataset(2, idx0, 300, g, 0.3, 8, (0,))
        ds1 = _uniform_dataset(2, idx1, 250, g, 0.3, 8, (1,))
        # exact duplicate rows, some in different blocks of the density sweep
        X1 = ds1.X.copy()
        X1[200:] = X1[:50]
        ds1 = DataSet(2, idx1, X1, g.deriv(idx1, X1))
        perms = [split_stream(9, [j]).permutation(ds.n) for j, ds in enumerate((ds0, ds1))]
        permuted = [DataSet(2, ds.deriv, ds.X[p], ds.Y[p]) for ds, p in zip((ds0, ds1), perms)]
        plans = [
            EstimationPlan.build(2, [0], 0, {idx0: a, idx1: b}, d=2, density="loo")
            for a, b in ((ds0, ds1), permuted)
        ]
        pts = make_grid(2, 4, offset=0.2)
        ra, rb = fit(plans[0], pts), fit(plans[1], pts)
        assert np.array_equal(ra.values, rb.values)
        for label in ra.contributions:
            assert np.array_equal(ra.contributions[label], rb.contributions[label])

    @pytest.mark.parametrize("density", ["uniform", "loo"])
    @settings(max_examples=10, deadline=None)
    @given(c=st.floats(-50.0, 50.0), seed=st.integers(0, 2**16))
    def test_scaling_responses_scales_the_fit(self, density, c, seed):
        # Local smoothing in x2 and root-n terms in x1, for each density.
        g = poly_function(2, {(1, 1): 1.0, (2, 0): 0.5})
        datasets = {idx: _uniform_dataset(2, idx, 150, g, 0.3, seed, (j,)) for j, idx in enumerate((D("00"), D("10")))}
        scaled = {idx: DataSet(2, idx, ds.X, c * ds.Y) for idx, ds in datasets.items()}
        pts = make_grid(2, 3, offset=0.2)
        base, res = (
            fit(EstimationPlan.build(2, [0], 0, dsets, d=2, density=density), pts) for dsets in (datasets, scaled)
        )
        want = c * base.values
        assert np.all(np.abs(res.values - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_separable_remainder_plan_shape(self):
        # only the top derivative and the function itself observed (k = 2)
        g = poly_function(2, {(1, 1): 1.0, (1, 0): 1.0})
        idx_top, idx_zero = D("11"), D("00")
        datasets = {
            idx_top: _uniform_dataset(2, idx_top, 100, g, 0.1, 9, (0,)),
            idx_zero: _uniform_dataset(2, idx_zero, 100, g, 0.1, 9, (1,)),
        }
        plan = EstimationPlan.build(2, [0, 1], 2, datasets, d=4)
        res = fit(plan, make_grid(2, 3, offset=0.2))
        assert set(res.contributions) == {"recon[11]", "avg[10]", "avg[01]", "avg[11]"}
        # every remainder term smooths at most one coordinate
        assert all(t["free_dims"] <= 1 for t in res.metadata["terms"])

    def test_missing_dataset_error_names_index(self):
        g = poly_function(2, {(1, 1): 1.0})
        datasets = {D("00"): _uniform_dataset(2, D("00"), 50, g, 0.0, 1, (0,))}
        with pytest.raises(ValidationError, match="10"):
            EstimationPlan.build(2, [0], 0, datasets, d=2)

    def _k2_datasets(self):
        g = poly_function(2, {(1, 1): 1.0})
        return {idx: _uniform_dataset(2, idx, 50, g, 0.0, 1, (j,)) for j, idx in enumerate((D("00"), D("10")))}

    def test_dataset_of_wrong_k_rejected(self):
        datasets = self._k2_datasets()
        datasets[D("10")] = DataSet(3, D("100"), np.full((4, 3), 0.5), np.ones(4))
        with pytest.raises(ValidationError, match=r"^dataset for 10 has k=3, plan has k=2$"):
            EstimationPlan.build(2, [0], 0, datasets, d=2)

    def test_dataset_under_wrong_index_rejected(self):
        datasets = self._k2_datasets()
        datasets[D("10")] = datasets[D("00")]
        with pytest.raises(ValidationError, match=r"^dataset registered under 10 holds 00$"):
            EstimationPlan.build(2, [0], 0, datasets, d=2)

    def test_constructor_checks_and_defaults(self):
        # The plain constructor runs the same checks and fills the same defaults as build.
        datasets = self._k2_datasets()
        plan = EstimationPlan(build_term_plan(2, [0], 0), datasets)
        assert plan == EstimationPlan.build(2, [0], 0, datasets)
        assert (plan.d, plan.d1, plan.bandwidths) == (2, 4, BandwidthPlan())
        assert plan.datasets is not datasets
        with pytest.raises(ValidationError, match="density mode must be"):
            EstimationPlan(build_term_plan(2, [0], 0), datasets, density="none")
        with pytest.raises(ValidationError, match="kernel orders must be even"):
            EstimationPlan(build_term_plan(2, [0], 0), datasets, d=3)
        with pytest.raises(ValidationError, match="plan needs a dataset for derivative index 10"):
            EstimationPlan(build_term_plan(2, [0], 0), {D("00"): datasets[D("00")]})

    @pytest.mark.parametrize("density", ["uniform", "loo"])
    @pytest.mark.parametrize("floor", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_floor_rejected_in_every_density_mode(self, density, floor):
        # fit_metadata.json records the floor in every mode; NaN and Infinity are not JSON.
        message = f"^density floor must be finite and positive, got {floor}$"
        with pytest.raises(ValidationError, match=message):
            EstimationPlan(build_term_plan(2, [0], 0), self._k2_datasets(), density=density, floor=floor)

    def test_bandwidth_per_term(self):
        plan = EstimationPlan.build(2, [0], 0, self._k2_datasets(), bandwidths=BandwidthPlan(h_const=0.5))
        hs = {t.label: plan.bandwidth(t) for t in plan.plan.terms}
        assert hs == {"recon[10]": 0.5 * 50 ** (-1.0 / 5.0), "avg[10]": 0.5 * 50 ** (-1.0 / 5.0)}
        assert plan.bandwidth(Term(1, D("10"), (Weight.RECON, Weight.FLAT))) is None

    @pytest.mark.parametrize("bad", [7.0, -0.5, np.nan, np.inf])
    def test_rejects_points_outside_unit_cube(self, bad):
        g = poly_function(1, {(2,): 1.0})
        plan = self._full_hierarchy_plan(g, 50, seed=7)
        with pytest.raises(ValidationError, match="unit cube"):
            fit(plan, [[0.5], [bad]])

    def test_loo_density_weighting_path(self):
        g = poly_function(1, {(1,): 1.0})
        plan = self._full_hierarchy_plan(g, 120, seed=12, sigma=0.2, density="loo")
        res = fit(plan, make_grid(1, 3, offset=0.2))
        assert np.all(np.isfinite(res.values))
        assert res.metadata["density"] == "loo"

    def test_empty_local_window_names_term_point_and_h(self):
        g = poly_function(2, {(1, 1): 1.0})
        idx0, idx1 = D("00"), D("10")
        X = np.column_stack([np.linspace(0.0, 1.0, 40), np.full(40, 0.9)])
        datasets = {idx: DataSet(2, idx, X, g.deriv(idx, X)) for idx in (idx0, idx1)}
        plan = EstimationPlan.build(2, [0], 0, datasets, d=2, bandwidths=BandwidthPlan(h_const=0.1))
        with pytest.raises(ValidationError, match=r"term avg\[10\]: no design points within h=.* of \[0.5 0.1\]; increase h"):
            fit(plan, [[0.5, 0.9], [0.5, 0.1]])
        assert np.all(np.isfinite(fit(plan, [[0.5, 0.9]]).values))
        # Grouping by x2 takes [0.5 0.1] first; the error names the first failing point in input order.
        with pytest.raises(ValidationError, match=r"of \[0.3 0.2\]; increase h"):
            fit(plan, [[0.5, 0.9], [0.3, 0.2], [0.5, 0.1], [0.3, 0.2]])


class TestBaselineSmoother:
    def test_constant_responses(self):
        X = split_stream(2, [0]).uniform(size=(60, 2))
        ds = DataSet(2, D("00"), X, np.full(60, 3.25))
        for x in ([0.5, 0.5], [0.2, 0.8]):
            assert nadaraya_watson_grid(ds.X, ds.Y, [x], h=0.3)[0] == pytest.approx(3.25, rel=1e-12)

    def test_single_in_window_point(self):
        ds = DataSet(1, D("0"), np.array([[0.5], [0.95]]), np.array([7.0, -1.0]))
        assert nadaraya_watson_grid(ds.X, ds.Y, [[0.48]], h=0.1)[0] == pytest.approx(7.0)

    @pytest.mark.parametrize(
        "h, message",
        [
            (0.0, "must be finite and positive, got 0.0"),
            (-0.1, "must be finite and positive, got -0.1"),
            (np.nan, "must be finite and positive, got nan"),
            (np.inf, "must be finite and positive, got inf"),
            (1e-200, "bandwidth h=1e-200 is too small for order-2 kernels"),
        ],
    )
    def test_bad_bandwidth_rejected_before_any_kernel(self, h, message):
        # A kernel evaluated at such an h warns (RuntimeWarning is an error here).
        X = split_stream(2, [0]).uniform(size=(40, 2))
        with pytest.raises(ValidationError, match=message):
            nadaraya_watson_grid(X, X[:, 0], np.array([[0.5, 0.5]]), h, widen_on_empty=True)

    def test_zero_mass_errors(self):
        ds = DataSet(1, D("0"), np.array([[0.9]]), np.array([1.0]))
        with pytest.raises(ValidationError, match="increase h"):
            nadaraya_watson_grid(ds.X, ds.Y, [[0.2]], h=0.05)

    def test_matches_naive_reference(self):
        import reference

        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(20, 80))
            k = int(rng.integers(1, 3))
            X = rng.uniform(size=(n, k))
            Y = rng.normal(size=n)
            ds = DataSet(k, DerivIndex.zeros(k), X, Y)
            x = rng.uniform(0.05, 0.95, size=k)
            h = float(rng.uniform(0.3, 0.5))
            naive = reference.nadaraya_watson(X.tolist(), Y.tolist(), x.tolist(), h, 2, 0.05)
            assert nadaraya_watson_grid(ds.X, ds.Y, [x], h, den_floor=0.05)[0] == pytest.approx(naive, abs=1e-12)

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_grid_matches_naive_reference(self, h):
        # At h = 0.7 points within h of both faces take the interior kernel.
        import reference

        rng = np.random.default_rng(78)
        X = rng.uniform(size=(60, 2))
        Y = rng.normal(size=60)
        pts = np.array([[0.5, 0.5], [0.05, 0.95], [0.4, 0.6], [1.0, 0.0]])
        got = nadaraya_watson_grid(X, Y, pts, h, den_floor=0.05)
        for x, v in zip(pts, got):
            naive = reference.nadaraya_watson(X.tolist(), Y.tolist(), x.tolist(), h, 2, 0.05)
            assert v == pytest.approx(naive, abs=1e-12)

    @pytest.mark.parametrize("bad", [[7.0, 0.5], [0.5, -0.01], [np.nan, 0.5], [0.5, np.inf]])
    def test_rejects_points_outside_unit_cube(self, bad):
        X = split_stream(2, [0]).uniform(size=(40, 2))
        with pytest.raises(ValidationError, match="unit cube"):
            nadaraya_watson_grid(X, X[:, 0], np.array([[0.5, 0.5], bad]), 0.2, widen_on_empty=True)
        with pytest.raises(ValidationError, match="unit cube"):
            nadaraya_watson_grid(X, X[:, 0], [bad], 0.2)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "x1, y, message",
        [
            (np.nan, 1.0, r"^X has a non-finite value in row 2: "),
            (1e200, 1.0, r"^design coordinate x1=1e\+200 in row 2 outside \[0, 1\]$"),
            (0.5, np.nan, r"^Y has a non-finite value in row 2: nan$"),
        ],
    )
    def test_design_rows_checked_as_in_dataset(self, k, x1, y, message):
        # Without the check the other two rows gave a value, or Y's NaN a NaN.
        X = np.full((3, k), 0.5)
        X[:, 0] = [0.2, x1, 0.4]
        Y = np.array([1.0, y, 2.0])
        pts = np.full((1, k), 0.3)
        for call in (
            lambda: nadaraya_watson_grid(X, Y, pts, 0.5, widen_on_empty=True),
            lambda: DataSet(k, DerivIndex.zeros(k), X, Y),
        ):
            with pytest.raises(ValidationError, match=message) as exc:
                call()
            assert "\n" not in str(exc.value)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: DataSet(1, D("0"), [[0.5], [0.2, 0.3]], [1.0, 2.0]), "X"),
            (lambda: DataSet(1, D("0"), [[0.5], [0.2]], [1.0, [2.0, 3.0]]), "Y"),
            (lambda: nadaraya_watson_grid([[0.5], [0.2, 0.3]], [1.0, 2.0], [[0.5]], 0.5), "X"),
            (lambda: nadaraya_watson_grid([[0.5], [0.2]], [1.0, [2.0, 3.0]], [[0.5]], 0.5), "Y"),
            (lambda: nadaraya_watson_grid([[0.5], [0.2]], [1.0, 2.0], [[0.5], [0.2, 0.3]], 0.5), "evaluation points"),
        ],
        ids=["DataSet-X", "DataSet-Y", "grid-X", "grid-Y", "grid-points"],
    )
    def test_ragged_input_rejected(self, call, name):
        # numpy raised its own "inhomogeneous shape" ValueError.
        with pytest.raises(ValidationError, match=rf"^{name} is not a rectangular array of numbers$") as exc:
            call()
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("X", [0.5, [0.2, 0.5, 0.8]], ids=["scalar", "1-D"])
    def test_X_must_be_two_dimensional(self, X):
        # A scalar X raised IndexError, and a 1-D X of length 3 was read as k = 3.
        with pytest.raises(ValidationError, match=r"^X must be a 2-D \(n, k\) array, got shape \(") as exc:
            nadaraya_watson_grid(X, [1.0, 2.0, 3.0], np.array([[0.5]]), 0.5)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("den_floor", [0.0, -1.0, np.nan, np.inf])
    def test_den_floor_must_be_finite_and_positive(self, den_floor):
        X = split_stream(2, [0]).uniform(size=(40, 2))
        message = f"den_floor must be finite and positive, got {den_floor}"
        with pytest.raises(ValidationError, match=message):
            nadaraya_watson_grid(X, X[:, 0], np.array([[0.5, 0.5]]), 0.3, den_floor=den_floor)

    def test_leaves_the_callers_arrays_writable(self):
        X = split_stream(2, [0]).uniform(size=(40, 2))
        Y = X[:, 0].copy()
        nadaraya_watson_grid(X, Y, np.array([[0.5, 0.5]]), 0.3)
        assert X.flags.writeable and Y.flags.writeable

    def test_bias_order_on_fixed_grid(self):
        # noiseless quadratic on a deterministic grid: error scales like h^2
        grid = np.linspace(0.0, 1.0, 2001)[:, None]
        g = poly_function(1, {(2,): 1.0})
        ds = DataSet(1, D("0"), grid, g(grid))
        hs = np.array([0.32, 0.16, 0.08, 0.04])
        errs = np.array([abs(nadaraya_watson_grid(ds.X, ds.Y, [[0.5]], h=h)[0] - 0.25) for h in hs])
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) <= 0.2


# Coordinates from a fixed menu hit the faces, the interior/edge switch points
# and exact ties; free floats fill in the rest.
_coord = st.one_of(
    st.sampled_from([0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def _nw_problems(draw, max_n, max_m):
    """(X, Y, pts, h, d): data in [0, 1]^k; some rows repeat another row's X,
    and with a response from a short menu some repeat it exactly."""
    k = draw(st.integers(1, 3))
    n = draw(st.one_of(st.integers(1, 20), st.integers(65, max_n)))
    X = np.array(draw(st.lists(st.lists(_coord, min_size=k, max_size=k), min_size=n, max_size=n)))
    y = st.one_of(st.sampled_from([-1.0, 0.5, 2.0]), st.floats(-3.0, 3.0))
    Y = np.array(draw(st.lists(y, min_size=n, max_size=n)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2)):
        X[dst] = X[src]
    m = draw(st.one_of(st.integers(1, 20), st.integers(65, max_m)))  # one block or several
    pts = np.array(draw(st.lists(st.lists(_coord, min_size=k, max_size=k), min_size=m, max_size=m)))
    h = draw(st.one_of(st.sampled_from([0.05, 0.25, 0.5, 0.7]), st.floats(0.02, 0.9)))
    return X, Y, pts, h, draw(st.sampled_from([2, 4]))


def _naive_widened_nw(X, Y, x, h, d, den_floor):
    """The oracle at the first of h, 2h, ..., 64h that puts kernel mass at x."""
    import reference

    for t in range(7):
        hj = h * 2.0**t
        if any(
            np.prod([reference._kernel_value(reference._select(x[c], hj, d), (row[c] - x[c]) / hj) for c in range(len(x))])
            != 0.0
            for row in X
        ):
            return reference.nadaraya_watson(X.tolist(), Y.tolist(), list(x), hj, d, den_floor)
    return None


class TestWindowedBaseline:
    """nadaraya_watson_grid's sorted-band sweep against the naive oracle."""

    @settings(max_examples=40, deadline=None)
    @given(_nw_problems(max_n=100, max_m=100))
    def test_matches_naive_oracle_with_widening(self, problem):
        X, Y, pts, h, d = problem
        want = [_naive_widened_nw(X, Y, x, h, d, 0.05) for x in pts]
        if any(w is None for w in want):
            with pytest.raises(ValidationError, match="even after widening"):
                nadaraya_watson_grid(X, Y, pts, h, d=d, den_floor=0.05, widen_on_empty=True)
            return
        got = nadaraya_watson_grid(X, Y, pts, h, d=d, den_floor=0.05, widen_on_empty=True)
        want = np.array(want)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("h", [0.15, 0.7])
    def test_many_blocks_match_naive_oracle(self, h):
        import reference

        X = split_stream(32, [0]).uniform(size=(300, 2)) ** 1.5
        Y = split_stream(32, [1]).standard_normal(300)
        pts = np.vstack([split_stream(32, [2]).uniform(size=(150, 2)), [[0.0, 1.0], [1.0, 0.5]]])
        got = nadaraya_watson_grid(X, Y, pts, h, d=4)
        want = np.array([reference.nadaraya_watson(X.tolist(), Y.tolist(), x.tolist(), h, 4, 0.05) for x in pts])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_design_points_raises(self, k):
        with pytest.raises(ValidationError, match="n >= 1 required"):
            nadaraya_watson_grid(np.empty((0, k)), np.empty(0), np.full((1, k), 0.5), 0.2)

    @pytest.mark.parametrize("x", [1.0, 0.5])
    def test_widening_reaches_data_below_the_point(self, x):
        # Once the widened h exceeds 1/2 the point lies within h of both
        # faces and takes the interior kernel, which reaches the data near 0;
        # a left edge kernel would weight only [x, x + h].
        X = np.array([[0.05], [0.1]])
        Y = np.array([1.0, 3.0])
        got = nadaraya_watson_grid(X, Y, np.array([[x]]), 0.1, widen_on_empty=True)
        want = _naive_widened_nw(X, Y, [x], 0.1, 2, 0.05)
        assert want is not None and got[0] == pytest.approx(want, abs=1e-12)

    def test_starved_points_widen_only_themselves(self):
        X = np.array([[0.1, 0.1], [0.15, 0.12], [0.9, 0.9]])
        Y = np.array([1.0, 2.0, 5.0])
        pts = np.array([[0.12, 0.1], [0.5, 0.5], [0.9, 0.88]])
        got = nadaraya_watson_grid(X, Y, pts, 0.1, widen_on_empty=True)
        for x, v in zip(pts, got):
            assert v == pytest.approx(_naive_widened_nw(X, Y, x, 0.1, 2, 0.05), abs=1e-12)
        with pytest.raises(ValidationError, match="increase h"):
            nadaraya_watson_grid(X, Y, pts, 0.1)

    @settings(max_examples=40, deadline=None)
    @given(_nw_problems(max_n=300, max_m=100), st.randoms(use_true_random=False))
    def test_row_permutation_invariance_bitwise(self, problem, rnd):
        X, Y, pts, h, d = problem
        out = []
        for perm in (np.arange(len(X)), np.array(rnd.sample(range(len(X)), len(X)))):
            try:
                out.append(nadaraya_watson_grid(X[perm], Y[perm], pts, h, d=d, widen_on_empty=True))
            except ValidationError as exc:
                out.append(str(exc))
        a, b = out
        assert a == b if isinstance(a, str) else np.array_equal(a, b)

    def test_row_permutation_invariance_bitwise_at_k3(self):
        X = split_stream(33, [0]).uniform(size=(600, 3)) ** 1.5
        X[300:400] = X[:100]  # repeated design rows, in the same tiles or not
        Y = split_stream(33, [1]).standard_normal(600)
        pts = np.vstack([split_stream(33, [2]).uniform(size=(150, 3)), X[:20], [[0.0, 1.0, 0.5]]])
        perm = split_stream(33, [3]).permutation(600)
        for h in (0.08, 0.3, 0.7):
            a = nadaraya_watson_grid(X, Y, pts, h, d=4, widen_on_empty=True)
            b = nadaraya_watson_grid(X[perm], Y[perm], pts, h, d=4, widen_on_empty=True)
            assert np.array_equal(a, b)

    @staticmethod
    def _peak_bytes(X):
        Y = split_stream(5, [1]).standard_normal(X.shape[0])
        tracemalloc.start()
        try:
            nadaraya_watson_grid(X, Y, X[:2000], 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_memory_stays_bounded_at_large_n(self):
        # The dense m x n weight block would need 320 MB per temporary here.
        assert self._peak_bytes(split_stream(5, [0]).uniform(size=(20_000, 2))) < 64 * 2**20

    def test_memory_stays_bounded_when_rows_share_coordinate_2(self):
        # Every tile's rows are then its whole coordinate-1 window.
        X = split_stream(5, [0]).uniform(size=(20_000, 2))
        X[:, 1] = 0.5
        assert self._peak_bytes(X) < 64 * 2**20


class TestConcurrentSweeps:
    def test_two_threads_match_serial_bitwise(self):
        # LOO density and NW share the cached order-4 product kernel; each
        # sweep must keep its scratch buffers to itself.
        X = split_stream(41, [0]).uniform(size=(3000, 2)) ** 1.5
        Y = split_stream(41, [1]).standard_normal(3000)
        pts = split_stream(41, [2]).uniform(size=(1500, 2))
        est = DensityEstimator(DataSet(2, D("00"), X, Y), d1=4, H=0.1)
        loo = lambda: loo_at_rows(est, floored=False).tobytes()
        nw = lambda: nadaraya_watson_grid(X, Y, pts, 0.08, d=4).tobytes()
        serial = {loo: loo(), nw: nw()}
        barrier = threading.Barrier(2, timeout=60)

        def repeat(job):
            barrier.wait()
            return [job() for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' tiles finely
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                for pair in ((loo, loo), (nw, nw), (loo, nw)):
                    for job, got in zip(pair, pool.map(repeat, pair, timeout=120)):
                        assert got == [serial[job]] * 3
        finally:
            sys.setswitchinterval(interval)


_SHAPES = (Weight.FLAT, Weight.CUM, Weight.RAMP, Weight.RECON, Weight.LOCAL)
_NAMES = {Weight.FLAT: "flat", Weight.CUM: "cum", Weight.RAMP: "ramp", Weight.RECON: "recon", Weight.LOCAL: "local"}


@st.composite
def _term_problems(draw):
    """(term, X, Y, density, pts, h, d): repeated rows, points on faces and on
    data coordinates, scattered point sets with many distinct coordinates or
    with shared LOCAL coordinates, and tensor grids."""
    k = draw(st.integers(1, 3))
    kinds = tuple(draw(st.lists(st.sampled_from(_SHAPES), min_size=k, max_size=k)))
    n = draw(st.integers(1, 40))
    X = np.array(draw(st.lists(st.lists(_coord, min_size=k, max_size=k), min_size=n, max_size=n)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2)):
        X[dst] = X[src]
    Y = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    density = np.array(draw(st.lists(st.floats(0.05, 4.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        # A tensor grid whose axes may hold data coordinates.
        axes = [draw(st.lists(st.one_of(_coord, st.sampled_from(X[:, j].tolist())), min_size=1, max_size=4)) for j in range(k)]
        pts = np.array(list(itertools.product(*axes)))
    else:
        m = draw(st.integers(1, 60))
        pts = np.array(draw(st.lists(st.lists(_coord, min_size=k, max_size=k), min_size=m, max_size=m)))
        for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), max_size=m)):
            pts[dst] = X[src]  # a point on a data row: RECON takes u where u = x
        local = [j for j, kind in enumerate(kinds) if kind is Weight.LOCAL]
        for src, dst in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=m)):
            pts[dst, local] = pts[src, local]  # points that share one kernel row
    h = draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.25, 1.5)))
    d = draw(st.sampled_from([2, 4]))
    bits = tuple(int(kind is Weight.RECON) for kind in kinds)
    return Term(1, DerivIndex(bits), kinds), X, Y, density, pts, h, d


def _close(got, want):
    want = np.asarray(want)
    return np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestOrthantSums:
    """The term evaluator against the naive per-point oracle."""

    @settings(max_examples=120, deadline=None)
    @given(_term_problems())
    def test_matches_naive_oracle(self, problem):
        import reference

        term, X, Y, density, pts, h, d = problem
        ds = DataSet(X.shape[1], term.deriv, X, Y)
        kinds = [_NAMES[w] for w in term.weights]
        want = [reference.integrated_term(X.tolist(), Y.tolist(), kinds, x.tolist(), density.tolist(), h, d) for x in pts]
        assert _close(_term_column(term, ds, density, pts, h, d)[0], want)

    def test_scattered_points_take_several_chunks(self):
        import reference

        X = split_stream(41, [0]).uniform(size=(50, 3))
        Y = split_stream(41, [1]).standard_normal(50)
        pts = np.vstack([split_stream(41, [2]).uniform(size=(200, 3)), X[:5], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])
        keys = np.unique(pts, axis=0)
        assert len(_point_chunks(keys, 8 * keys.shape[0])) > 1
        for kinds in ((Weight.RECON,) * 3, (Weight.CUM, Weight.RAMP, Weight.RECON)):
            term = Term(1, D("111"), kinds)
            ds = DataSet(3, term.deriv, X, Y)
            names = [_NAMES[w] for w in kinds]
            want = [reference.integrated_term(X.tolist(), Y.tolist(), names, x.tolist()) for x in pts]
            assert _close(_term_column(term, ds, np.ones(50), pts)[0], want)

    def test_tensor_grid_is_one_chunk(self):
        for k, per_dim in ((1, 1), (2, 9), (3, 9), (3, 2)):
            keys = make_grid(k, per_dim, offset=0.1)
            assert _point_chunks(keys, 2**k * keys.shape[0]) == [(0, keys.shape[0])]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 60), st.integers(1, 40), st.integers(0, 2**16))
    def test_fit_matches_naive_oracle(self, k, n, m, seed):
        import reference

        rng = np.random.default_rng(seed)
        datasets = {}
        for bits in itertools.product((0, 1), repeat=k):
            X = rng.uniform(size=(n, k))
            X[n // 2 :] = X[: n - n // 2]  # repeated rows
            datasets[DerivIndex(bits)] = DataSet(k, DerivIndex(bits), X, rng.normal(size=n))
        plan = EstimationPlan.build(k, range(k), 0, datasets)
        pts = np.vstack([rng.uniform(size=(m, k)), np.zeros(k), np.ones(k), datasets[DerivIndex.ones(k)].X[:1]])
        res = fit(plan, pts)
        for term in plan.plan.terms:
            ds = plan.datasets[term.deriv]
            names = [_NAMES[w] for w in term.weights]
            want = [term.coef * reference.integrated_term(ds.X.tolist(), ds.Y.tolist(), names, x.tolist()) for x in pts]
            assert _close(res.contributions[term.label], want)

    @pytest.mark.parametrize(
        "density, coords",
        [
            pytest.param("uniform", [0, 1], id="uniform"),
            pytest.param("loo", [0, 1], id="loo"),
            pytest.param("uniform", [0], id="uniform-coord1"),
            pytest.param("loo", [0], id="loo-coord1"),
            pytest.param("uniform", [1], id="uniform-coord2"),
            pytest.param("loo", [1], id="loo-coord2"),
        ],
    )
    def test_fit_bitwise_invariant_under_row_and_point_permutations(self, density, coords):
        g = poly_function(2, {(1, 1): 1.0, (2, 0): 0.5})
        datasets = {}
        for j, bits in enumerate(("00", "01", "10", "11")):
            ds = _uniform_dataset(2, D(bits), 300, g, 0.3, 13, (j,))
            X = ds.X.copy()
            X[250:] = X[:50]  # exact duplicate rows
            datasets[D(bits)] = DataSet(2, D(bits), X, ds.Y)
        permuted = {}
        for j, (idx, ds) in enumerate(datasets.items()):
            perm = split_stream(14, [j]).permutation(ds.n)
            permuted[idx] = DataSet(2, idx, ds.X[perm], ds.Y[perm])
        pts = np.vstack([split_stream(15, [0]).uniform(size=(40, 2)), make_grid(2, 5)])
        pperm = split_stream(15, [1]).permutation(pts.shape[0])
        plans = [EstimationPlan.build(2, coords, 0, dsets, density=density) for dsets in (datasets, permuted)]
        ra, rb = fit(plans[0], pts), fit(plans[1], pts[pperm])
        assert np.array_equal(ra.values[pperm], rb.values)
        for label in ra.contributions:
            assert np.array_equal(ra.contributions[label][pperm], rb.contributions[label])

    def test_memory_stays_bounded_with_scattered_points(self):
        # A dense m x n weight block would take 320 MB here.
        X = split_stream(16, [0]).uniform(size=(20_000, 3))
        Y = split_stream(16, [1]).standard_normal(20_000)
        pts = split_stream(16, [2]).uniform(size=(2_000, 3))
        for kinds, h in (((Weight.RECON,) * 3, None), ((Weight.RECON, Weight.RECON, Weight.LOCAL), 0.1)):
            term = Term(1, D("110") if h else D("111"), kinds)
            ds = DataSet(3, term.deriv, X, Y)
            ds.order  # computed once per dataset, outside the bound
            tracemalloc.start()
            try:
                _term_column(term, ds, np.ones(ds.n), pts, h)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20


class TestLimitCovariance:
    def test_order_zero_uniform(self):
        assert limit_covariance(D("0"), [0.3], [0.9], 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_univariate_closed_form(self):
        for x in (0.1, 0.3, 0.5, 0.8):
            val = limit_covariance(D("1"), [x], [x], 1.0)
            assert val == pytest.approx(x * x - x + 1.0 / 3.0, abs=1e-10)

    def test_symmetry_bitwise(self):
        x1, x2 = [0.25, 0.7], [0.6, 0.4]
        a = limit_covariance(D("11"), x1, x2, 1.3)
        b = limit_covariance(D("11"), x2, x1, 1.3)
        assert abs(a - b) <= 1e-14

    def test_distinct_points_against_dense_oracle(self):
        x1, x2, s2 = 0.3, 0.7, 1.7
        u = np.linspace(0.0, 1.0, 2_000_001)
        w = np.where(u <= x1, u, u - 1.0) * np.where(u <= x2, u, u - 1.0)
        oracle = s2 * np.trapezoid(w, u)
        val = limit_covariance(D("1"), [x1], [x2], s2)
        assert val == pytest.approx(oracle, abs=1e-6)

    def test_nonuniform_density(self):
        f = lambda pts: 0.5 + pts[:, 0]
        val = limit_covariance(D("0"), [0.5], [0.5], 1.0, f=f)
        # integral of 1/(0.5 + u) du = log(2) / ... = log(1.5/0.5)
        assert val == pytest.approx(np.log(3.0), abs=1e-10)

    @pytest.mark.parametrize(
        "x1, x2, message",
        [
            ([0.5], [0.5, 0.5], "x1/x2 dimension mismatch with beta"),
            ([0.5, 0.5, 0.5], [0.5, 0.5], "x1/x2 dimension mismatch with beta"),
            ([np.nan, 0.5], [0.5, 0.5], r"evaluation point \[nan 0.5\] is not a finite point of the unit cube"),
            ([np.inf, 0.5], [0.5, 0.5], r"evaluation point \[inf 0.5\] is not a finite point of the unit cube"),
            ([1.7, 0.5], [0.5, 0.5], r"evaluation point \[1.7 0.5\] is not a finite point of the unit cube"),
            ([0.5, 0.5], [0.5, -0.1], r"evaluation point \[ 0.5 -0.1\] is not a finite point of the unit cube"),
        ],
    )
    def test_bad_points_rejected(self, x1, x2, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            limit_covariance(D("11"), x1, x2, 1.0)

    @pytest.mark.parametrize("sigma2", [-1.0, np.nan, np.inf])
    def test_bad_sigma2_rejected(self, sigma2):
        with pytest.raises(ValidationError, match=r"^sigma2 must be finite and nonnegative, got "):
            limit_covariance(D("11"), [0.5, 0.5], [0.5, 0.5], sigma2)

    @pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_density_values_rejected(self, value):
        f = lambda pts: np.full(pts.shape[0], value)
        with pytest.raises(ValidationError, match=r"^design density f must return finite positive values$"):
            limit_covariance(D("11"), [0.5, 0.5], [0.5, 0.5], 1.0, f=f)

    def test_faces_and_zero_sigma2_accepted(self):
        assert limit_covariance(D("1"), [0.0], [1.0], 0.0) == 0.0
        assert limit_covariance(D("1"), [1.0], [1.0], 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestGaussianLimit:
    def test_standardized_errors_near_normal(self):
        # distributional sanity of the root-n estimator at n = 2000
        g = poly_function(1, {(2,): 1.0})
        reps, n, x = 2000, 2000, 0.5
        target = 0.25 - 1.0 / 3.0
        rng = np.random.default_rng(314)
        U = rng.uniform(size=(reps, n))
        Y = 2.0 * U + 0.3 * rng.standard_normal((reps, n))
        w = np.where(U <= x, U, U - 1.0)
        vals = (Y * w).mean(axis=1)
        z = (vals - vals.mean()) / vals.std(ddof=1)
        skew = float(np.mean(z**3))
        kurt = float(np.mean(z**4) - 3.0)
        assert abs(vals.mean() - target) < 4 * vals.std(ddof=1) / np.sqrt(reps)
        assert abs(skew) < 0.2
        assert abs(kurt) < 0.5


class TestGrid:
    def test_interior_grid(self):
        pts = make_grid(2, 3, offset=0.1)
        assert pts.shape == (9, 2)
        assert pts.min() == 0.1 and pts.max() == 0.9

    def test_offset_validated(self):
        with pytest.raises(ValidationError):
            make_grid(2, 3, offset=0.6)
