import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from derivreg import DataSet, DensityEstimator, DerivIndex, ValidationError, loo_at_rows, loo_density, split_stream

Z2 = DerivIndex.zeros(2)
Z1 = DerivIndex.zeros(1)


def _ds(X):
    X = np.asarray(X, dtype=float)
    return DataSet(k=X.shape[1], deriv=DerivIndex.zeros(X.shape[1]), X=X, Y=np.zeros(X.shape[0]))


class TestPointEvaluations:
    def test_far_point_contributes_nothing(self):
        est = DensityEstimator(_ds([[0.1], [0.9]]), d1=2, H=0.2)
        assert loo_density(est, 0, [0.1]) == 0.0

    def test_single_neighbor_at_peak(self):
        H = 0.25
        est = DensityEstimator(_ds([[0.5], [0.5]]), d1=2, H=H)
        assert loo_density(est, 0, [0.5]) == pytest.approx(0.75 / H)

    def test_leave_one_out_drops_own_row(self):
        est = DensityEstimator(_ds([[0.5], [0.5], [0.9]]), d1=2, H=0.2)
        # row 2 is isolated: only the other cluster point remains after dropping row 0
        with_row = loo_density(est, 2, [0.5])
        without = loo_density(est, 0, [0.5])
        assert with_row > without

    def test_row_index_validated(self):
        est = DensityEstimator(_ds([[0.5], [0.6]]), d1=2, H=0.2)
        with pytest.raises(ValidationError):
            loo_density(est, 2, [0.5])
        with pytest.raises(ValidationError, match="shape"):
            loo_density(est, 0, [0.5, 0.5])
        assert loo_density(est, np.int64(1), [0.5]) == loo_density(est, 1, [0.5])

    @pytest.mark.parametrize("bad", [True, False, 1.5, 1.0, "1"])
    def test_non_integer_row_index_rejected(self, bad):
        # True left out every row and returned 0.0; 1.5 raised an IndexError.
        est = DensityEstimator(_ds([[0.5], [0.6]]), d1=2, H=0.2)
        with pytest.raises(ValidationError, match=r"^row index must be an integer, got "):
            loo_density(est, bad, [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.1])
    def test_point_outside_cube_rejected(self, bad):
        est = DensityEstimator(_ds([[0.5, 0.5], [0.6, 0.6]]), d1=4, H=0.2)
        with pytest.raises(ValidationError, match=r"^x = \[.*\] is not a finite point of the unit cube$"):
            loo_density(est, 0, [bad, 0.5])

    def test_faces_accepted(self):
        est = DensityEstimator(_ds([[0.05, 0.95], [0.5, 0.5]]), d1=4, H=0.2)
        near, far = loo_density(est, 1, [0.0, 1.0]), loo_density(est, 0, [1.0, 0.0])
        assert np.isfinite(near) and near != 0.0 and far == 0.0

    def test_ragged_x_rejected(self):
        # numpy raised its own "inhomogeneous shape" ValueError.
        est = DensityEstimator(_ds([[0.5, 0.5], [0.6, 0.6]]), d1=4, H=0.2)
        with pytest.raises(ValidationError, match=r"^x is not a rectangular array of numbers$"):
            loo_density(est, 0, [[1.0], [1.0, 1.1]])


class TestFloor:
    def test_floor_behaviour(self):
        est = DensityEstimator(_ds([[0.1], [0.12], [0.9]]), d1=2, H=0.05, floor=0.05)
        raw, floored = loo_at_rows(est, floored=False), loo_at_rows(est)
        # isolated row: raw value 0 -> floored to the floor
        assert raw[2] == 0.0 and floored[2] == 0.05
        # dense cluster: raw value far above the floor passes through
        assert raw[0] > 0.05
        assert floored[0] == raw[0]

    def test_rows_match_per_call(self):
        X = split_stream(8, [0]).uniform(size=(40, 2))
        est = DensityEstimator(_ds(X), d1=4, H=0.3, floor=0.05)
        rows = loo_at_rows(est, floored=True)
        for i in (0, 7, 39):
            assert rows[i] == pytest.approx(max(loo_density(est, i, X[i]), est.floor), abs=1e-14)


class TestStatisticalBehaviour:
    def _mc_mean(self, x, nres=3000, n=40, H=0.3, d1=2, k=1):
        vals = np.empty(nres)
        for r in range(nres):
            X = split_stream(77, [r]).uniform(size=(n, k))
            est = DensityEstimator(_ds(X), d1=d1, H=H)
            vals[r] = loo_density(est, 0, np.full(k, x) if np.isscalar(x) else x)
        return vals.mean(), vals.std(ddof=1) / np.sqrt(nres)

    def test_interior_unbiased_for_uniform(self):
        mean, se = self._mc_mean(0.5)
        assert abs(mean - 1.0) <= 3 * se

    def test_boundary_unbiased_with_edge_kernels(self):
        mean, se = self._mc_mean(0.0)
        assert abs(mean - 1.0) <= 3 * se

    def test_independent_of_responses(self):
        X = split_stream(5, [0]).uniform(size=(30, 2))
        a = DensityEstimator(DataSet(2, Z2, X, np.zeros(30)), d1=4, H=0.3)
        b = DensityEstimator(DataSet(2, Z2, X, np.arange(30.0)), d1=4, H=0.3)
        assert loo_density(a, 3, X[3]) == loo_density(b, 3, X[3])
        assert np.array_equal(loo_at_rows(a), loo_at_rows(b))

    def test_variance_shrinks_like_one_over_n(self):
        H, nres = 0.25, 800
        ns = (25, 50, 100, 200)
        variances = []
        for n in ns:
            vals = np.empty(nres)
            for r in range(nres):
                X = split_stream(123, [n, r]).uniform(size=(n, 1))
                est = DensityEstimator(_ds(X), d1=2, H=H)
                vals[r] = loo_density(est, 0, [0.5])
            variances.append(vals.var(ddof=1))
        slope = np.polyfit(np.log(ns), np.log(variances), 1)[0]
        assert abs(slope + 1.0) <= 0.2


class TestValidation:
    def test_needs_two_rows(self):
        with pytest.raises(ValidationError, match="n >= 2"):
            DensityEstimator(_ds([[0.5]]), d1=2, H=0.2)

    def test_bandwidth_range(self):
        with pytest.raises(ValidationError):
            DensityEstimator(_ds([[0.4], [0.6]]), d1=2, H=1.5)
        with pytest.raises(ValidationError, match="bandwidth H=1e-200 is too small"):
            DensityEstimator(_ds([[0.4], [0.6]]), d1=2, H=1e-200)

    def test_order_gate(self):
        with pytest.raises(ValidationError, match="d1"):
            DensityEstimator(_ds([[0.4, 0.4], [0.6, 0.6]]), d1=2, H=0.2)

    def test_order_cap(self):
        DensityEstimator(_ds([[0.4], [0.6]]), d1=6, H=0.2)
        with pytest.raises(ValidationError, match="density kernel order d1 = 8 is above 6"):
            DensityEstimator(_ds([[0.4], [0.6]]), d1=8, H=0.2)

    def test_floor_positive(self):
        with pytest.raises(ValidationError):
            DensityEstimator(_ds([[0.4], [0.6]]), d1=2, H=0.2, floor=0.0)

    @pytest.mark.parametrize("floor", [np.nan, np.inf])
    def test_floor_finite(self, floor):
        with pytest.raises(ValidationError, match="floor must be finite"):
            DensityEstimator(_ds([[0.4], [0.6]]), d1=2, H=0.2, floor=floor)


# Coordinates on and near the faces and on a coarse grid give rows inside the
# edge-kernel regions and ties in coordinate 1; free floats fill in the rest.
_coord = st.one_of(
    st.sampled_from([0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def _designs(draw, max_n):
    """(X, H): rows in [0, 1]^k, some repeated exactly."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(2, max_n))
    rows = draw(st.lists(st.lists(_coord, min_size=k, max_size=k), min_size=n, max_size=n))
    X = np.array(rows, dtype=float)
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2))
    for src, dst in copies:
        X[dst] = X[src]
    H = draw(st.floats(min_value=1e-3, max_value=1.0, exclude_max=True))
    return X, H


class TestWindowedSweep:
    """loo_at_rows against the naive oracle, on any design and bandwidth."""

    @staticmethod
    def _naive(X, H, d1=4):
        return np.array([reference.loo_density(X.tolist(), i, X[i].tolist(), H, d1) for i in range(len(X))])

    @settings(max_examples=60, deadline=None)
    @given(_designs(max_n=140))
    def test_matches_naive_oracle(self, design):
        X, H = design
        est = DensityEstimator(_ds(X), d1=4, H=H)
        got = loo_at_rows(est, floored=False)
        want = self._naive(X, H)
        # Summation order differs from the oracle's; values scale like H^-k.
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize(
        "X, H",
        [
            ([[0.3], [0.7]], 0.5),  # n = 2
            ([[0.0, 1.0], [1.0, 0.0]], 0.999),  # one window covers every row
            ([[0.5, 0.2], [0.5, 0.2], [0.5, 0.9], [0.02, 0.98]], 0.6),  # ties, duplicates, faces
            ([[0.0]] * 3 + [[1.0]] * 3, 0.05),  # duplicate rows on both faces
        ],
    )
    def test_edge_cases_match_naive_oracle(self, X, H):
        X = np.asarray(X, dtype=float)
        est = DensityEstimator(_ds(X), d1=4, H=H)
        got = loo_at_rows(est, floored=False)
        assert np.all(np.abs(got - self._naive(X, H)) <= 1e-12)

    def test_many_blocks_match_naive_oracle(self):
        X = split_stream(31, [0]).uniform(size=(300, 2)) ** 1.5
        est = DensityEstimator(_ds(X), d1=4, H=0.12)
        got = loo_at_rows(est, floored=False)
        assert np.max(np.abs(got - self._naive(X, 0.12))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_designs(max_n=300), st.randoms(use_true_random=False))
    def test_row_permutation_permutes_output_bitwise(self, design, rnd):
        X, H = design
        perm = np.array(rnd.sample(range(len(X)), len(X)))
        a = loo_at_rows(DensityEstimator(_ds(X), d1=4, H=H), floored=False)
        b = loo_at_rows(DensityEstimator(_ds(X[perm]), d1=4, H=H), floored=False)
        assert np.array_equal(a[perm], b)

    def test_duplicate_run_across_blocks_permutes_bitwise(self):
        # 150 copies of one row span three blocks of the sweep.
        X = np.vstack([np.full((150, 2), 0.3), split_stream(4, [0]).uniform(size=(50, 2))])
        perm = split_stream(4, [1]).permutation(200)
        a = loo_at_rows(DensityEstimator(_ds(X), d1=4, H=0.2))
        b = loo_at_rows(DensityEstimator(_ds(X[perm]), d1=4, H=0.2))
        assert np.array_equal(a[perm], b)
        assert np.all(a[:150] == a[0])

    @staticmethod
    def _peak_bytes(X):
        est = DensityEstimator(_ds(X), d1=4, H=0.05)
        tracemalloc.start()
        try:
            loo_at_rows(est)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_memory_stays_bounded_at_large_n(self):
        # A dense n x n kernel matrix would need 3.2 GB per temporary here.
        assert self._peak_bytes(split_stream(3, [0]).uniform(size=(20_000, 2))) < 64 * 2**20

    def test_memory_stays_bounded_when_rows_share_coordinate_2(self):
        # Every tile's rows are then its whole coordinate-1 window.
        X = split_stream(3, [0]).uniform(size=(20_000, 2))
        X[:, 1] = 0.5
        assert self._peak_bytes(X) < 64 * 2**20
