import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivreg import (
    CobbDouglasConfig,
    DataSet,
    DensityEstimator,
    DerivIndex,
    ValidationError,
    check_orders,
    derivative_ac_curve,
    generate,
    kernel_moment,
    loo_at_rows,
    make_edge_kernel,
    make_interior_kernel,
    nadaraya_watson_grid,
    product_kernel,
)
from derivreg import density, estimators, kernels, simulation
from derivreg.core import canonical_order
from derivreg.functionals import kernel_moments, moment_check
from derivreg.kernels import (
    MAX_EDGE_ORDER,
    MAX_INTERIOR_ORDER,
    BandwidthPlan,
    _TILE_ENTRIES,
    _solve_moment_system,
    band_sweep,
    check_cap,
    default_orders,
)
from derivreg.simulation import BenchmarkRules

import reference


class TestInteriorKernels:
    def test_order_two_is_epanechnikov(self):
        spec = make_interior_kernel(2)
        t = np.linspace(-1, 1, 21)
        assert np.allclose(spec.eval(t), 0.75 * (1 - t**2), atol=1e-14)
        assert spec.eval(0.0) == pytest.approx(0.75)

    def test_order_two_second_moment(self):
        # hand integral of t^2 * (3/4)(1 - t^2) over [-1, 1] is 1/5
        assert kernel_moment(make_interior_kernel(2), 2) == pytest.approx(0.2, abs=1e-12)

    def test_order_four_moments(self):
        spec = make_interior_kernel(4)
        assert abs(kernel_moment(spec, 0) - 1.0) < 1e-10
        for j in (1, 2, 3):
            assert abs(kernel_moment(spec, j)) < 1e-10
        assert abs(kernel_moment(spec, 4)) > 1e-3  # order-d kernel has nonzero dth moment

    def test_odd_order_rejected(self):
        # Interior kernels are even; an odd order would run as the next even one.
        for d in (3, 5, 41):
            with pytest.raises(ValidationError, match=f"must be even, got {d}"):
                make_interior_kernel(d)

    def test_minimum_order(self):
        with pytest.raises(ValidationError):
            make_interior_kernel(0)


class TestEdgeKernels:
    def test_order_one_left(self):
        spec = make_edge_kernel(1, "left")
        assert spec.support == (0.0, 1.0)
        assert kernel_moment(spec, 0) == pytest.approx(1.0, abs=1e-12)
        assert spec.eval(-0.1) == 0.0 and spec.eval(1.1) == 0.0

    def test_order_two_left_moments_and_endpoints(self):
        spec = make_edge_kernel(2, "left")
        assert kernel_moment(spec, 0) == pytest.approx(1.0, abs=1e-12)
        assert abs(kernel_moment(spec, 1)) < 1e-12
        assert spec.eval(0.0) == 0.0 and spec.eval(1.0) == 0.0

    def test_right_is_mirror_of_left(self):
        left = make_edge_kernel(3, "left")
        right = make_edge_kernel(3, "right")
        t = np.linspace(-1.0, 0.0, 33)
        assert np.array_equal(right.eval(t), left.eval(-t))

    def test_all_orders_and_sides(self):
        for d in range(1, 6):
            for side in ("left", "right"):
                spec = make_edge_kernel(d, side)
                for j in range(d):
                    target = 1.0 if j == 0 else 0.0
                    assert abs(kernel_moment(spec, j) - target) < 1e-10
                lo, hi = spec.support
                assert abs(spec.eval(lo)) <= 1e-12 and abs(spec.eval(hi)) <= 1e-12


class TestProductKernel:
    def test_peak_product(self):
        fam = product_kernel(2)
        val = fam.weights(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), 0.1)
        assert val.shape == (1, 1)
        assert val[0, 0] * 0.1**2 == pytest.approx(0.75**2)

    def test_outside_support_is_zero(self):
        fam = product_kernel(2)
        X = np.array([[0.65, 0.5], [0.5, 0.35], [0.2, 0.7]])
        assert np.all(fam.weights(np.array([[0.5, 0.5]]), X, 0.1) == 0.0)

    def test_boundary_switches_to_edge_kernel(self):
        fam = product_kernel(2)
        specs = (fam.interior, fam.left, fam.right)
        kinds = [specs[c].kind for c in kernels._kernel_choice(np.array([0.0, 1.0, 0.5]), 0.1)]
        assert kinds == ["left", "right", "interior"]
        # Above h = 1/2 a point within h of both faces takes the interior kernel.
        kinds = [specs[c].kind for c in kernels._kernel_choice(np.array([0.3, 0.7, 0.45, 0.0, 1.0]), 0.6)]
        assert kinds == ["left", "right", "interior", "left", "right"]
        # edge-coordinate mass equals interior mass (both integrate to one)
        t, w = np.polynomial.legendre.leggauss(40)
        for x, lo in ((0.0, 0.0), (1.0, 0.9)):
            rows = lo + 0.05 * (t + 1.0)
            mass = 0.05 * np.sum(w * fam.weights(np.array([[x]]), rows[:, None], 0.1)[0])
            assert mass == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([0.05, 0.2, 0.45, 0.5, 0.6, 0.95]), st.integers(0, 2**32 - 1))
    def test_kernel_choice_follows_the_rule_point_by_point(self, h, seed):
        # Points at h, 1 - h, both faces and their neighbours (near both faces
        # when h > 1/2), and NaN, which takes the interior kernel.
        rng = np.random.default_rng(seed)
        fam = product_kernel(4)
        specs = (fam.interior, fam.left, fam.right)
        edges = [0.0, 1.0, h, 1.0 - h]
        values = np.concatenate([edges, [np.nextafter(e, side) for e in edges for side in (0.0, 1.0)], rng.uniform(size=4)])
        x = rng.choice(values, size=rng.integers(1, 30))
        got = kernels._kernel_choice(x, h)
        assert got.dtype == np.int8 and got.shape == x.shape
        assert all(specs[c] is reference._select(v, h, 4) for v, c in zip(x, got))
        assert specs[kernels._kernel_choice(np.array([np.nan]), h)[0]] is fam.interior

    def test_product_equals_univariate_product(self):
        fam = product_kernel(4)
        rng = np.random.default_rng(5)
        for h in (0.2, 0.5, 0.7, 0.95):
            x = np.vstack([rng.uniform(size=(20, 3)), [[0.0, 0.5, 1.0], [h, 1.0 - h, 0.5]]])
            X = np.clip(x[:, None, :] + rng.uniform(-1.2, 1.2, size=(22, 5, 3)) * h, 0.0, 1.0).reshape(-1, 3)
            got = fam.weights(x, X, h)
            for a in range(x.shape[0]):
                for b in range(X.shape[0]):
                    want = 1.0
                    for c in range(3):
                        spec = reference._select(x[a, c], h, 4)
                        want *= reference._kernel_value(spec, (X[b, c] - x[a, c]) / h) / h
                    assert got[a, b] == pytest.approx(want, rel=1e-14, abs=1e-300)


# Every kernel up to the order caps (interior kernels have zero odd
# coefficients, edge kernels none), and edge kernels past their cap.
_SPECS = [make_interior_kernel(d) for d in range(2, MAX_INTERIOR_ORDER + 1, 2)] + [
    make_edge_kernel(d, side) for d in range(1, 13) for side in ("left", "right")
]
# Every support endpoint and its neighbours, signed zeros, subnormals, points
# outside every support, and non-finite values.
_SPECIAL_U = [v for e in (-1.0, 0.0, 1.0) for v in (e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))]
_SPECIAL_U += [-0.0, -1.5, 1.5, -np.inf, np.inf, np.nan]
_SPECIAL_U += [s * v for s in (1.0, -1.0) for v in (5e-324, 2.2250738585072009e-308, 1e-310)]


class TestInPlaceEvaluator:
    """The in-place evaluator against the frozen formulas of
    ``reference.kernel_eval`` and ``reference.product_weights``, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(_SPECS),
        st.lists(st.one_of(st.sampled_from(_SPECIAL_U), st.floats(-1.5, 1.5)), min_size=1, max_size=40),
    )
    def test_eval_matches_frozen_formula(self, spec, us):
        u = np.array(us)
        given_bytes = u.tobytes()
        with np.errstate(invalid="ignore"):
            want = reference.kernel_eval(spec, u).tobytes()
            assert spec.eval(u).tobytes() == want
            assert spec.eval(u.reshape(-1, 1)).tobytes() == want
            assert spec.eval(us[0]).shape == ()
            assert spec.eval(us[0]).tobytes() == reference.kernel_eval(spec, us[0]).tobytes()
        assert u.tobytes() == given_bytes  # eval leaves its argument alone

    def test_every_kernel_at_every_special_value(self):
        u = np.array(_SPECIAL_U)
        with np.errstate(invalid="ignore"):
            for spec in _SPECS:
                assert spec.eval(u).tobytes() == reference.kernel_eval(spec, u).tobytes(), spec

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([2, 4, 6, 8]),
        st.sampled_from([0.05, 0.2, 0.45, 0.5, 0.6, 0.95]),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_weights_match_frozen_loop(self, d, h, k, seed):
        # Points on and beside the faces and at h and 1 - h, so a tile's rows
        # split across the left, right and interior kernels (near both faces
        # when h > 1/2); data rows at exactly one bandwidth from a point.
        # With k = 0 (a term with no smoothed coordinate) the product is empty.
        rng = np.random.default_rng(seed)
        fam = product_kernel(d)
        values = np.concatenate([[0.0, 1.0, h, 1.0 - h, np.nextafter(h, 0.0), np.nextafter(1.0 - h, 1.0)], rng.uniform(size=6)])
        for m, n in rng.integers(1, 40, size=(3, 2)):
            x = rng.choice(values, size=(m, k))
            near = x[rng.integers(m, size=n)]
            X = np.clip(near + rng.uniform(-1.2, 1.2, size=(n, k)) * h, 0.0, 1.0)
            X = np.vstack([X, np.clip(near[:1] + h, 0.0, 1.0), np.clip(near[:1] - h, 0.0, 1.0)])
            assert fam.weights(x, X, h).tobytes() == reference.product_weights(x, X, h, d).tobytes()


class TestKernelSweep:
    """Tiles of a :meth:`ProductKernel.sweep` against the frozen loop and
    :meth:`ProductKernel.weights` on the same points and rows, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([2, 4, 6]),
        st.sampled_from([0.05, 0.2, 0.45, 0.5, 0.6, 0.95]),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_tiles_match_weights_bit_for_bit(self, d, h, k, seed):
        # Every point set holds 0, 1/2 and 1 in each coordinate, which take the
        # left, interior and right kernels at every h here (1/2 is near both
        # faces when h > 1/2), so the first tile, all points in a random
        # order, mixes the three kernels in every coordinate.  Points repeat
        # and rows copy points; later tiles, random subsets, grow and shrink
        # the sweep's one workspace.
        rng = np.random.default_rng(seed)
        fam = product_kernel(d)
        values = np.concatenate([[0.0, 1.0, h, 1.0 - h, np.nextafter(h, 0.0), np.nextafter(1.0 - h, 1.0)], rng.uniform(size=4)])
        m = rng.integers(1, 40)
        x = np.vstack([np.full((1, k), v) for v in (0.0, 0.5, 1.0)] + [rng.choice(values, size=(m, k))])
        near = x[rng.integers(x.shape[0], size=rng.integers(1, 40))]
        X = np.vstack([np.clip(near + rng.uniform(-1.2, 1.2, size=near.shape) * h, 0.0, 1.0), x[rng.integers(x.shape[0], size=5)]])
        sweep = fam.sweep(x, np.asfortranarray(X), h)  # columns as views, as the callers pass them
        tiles = [(rng.permutation(x.shape[0]), np.arange(X.shape[0]))]
        for _ in range(4):
            idx = rng.choice(x.shape[0], size=rng.integers(0, x.shape[0] + 1), replace=False)
            tiles.append((idx, np.sort(rng.choice(X.shape[0], size=rng.integers(0, X.shape[0] + 1), replace=False))))
        for idx, rows in tiles:
            got = sweep.tile(idx, rows).tobytes()
            assert got == reference.product_weights(x[idx], X[rows], h, d).tobytes()
            assert got == fam.weights(x[idx], X[rows], h).tobytes()


def _weight(spec, u):
    """The weight of ``spec`` at ``u`` in the evaluator's association."""
    if spec.kind == "interior":
        return (1.0 - u) * (1.0 + u)
    if spec.kind == "left":
        return u * (1.0 - u)
    return -u * (1.0 + u)


class TestSupportMask:
    """The evaluator zeroes ``~(weight >= 0)``, so it relies on one fact:
    the weight is negative or NaN exactly outside the closed support."""

    @staticmethod
    def _check(spec, u):
        lo, hi = spec.support
        with np.errstate(all="ignore"):
            w = _weight(spec, u)
        outside = ~((u >= lo) & (u <= hi))
        assert np.array_equal((w < 0.0) | np.isnan(w), outside), spec
        assert np.array_equal(~(w >= 0.0), outside), spec

    def test_at_every_special_value(self):
        for spec in _SPECS:
            self._check(spec, np.array(_SPECIAL_U))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(_SPECS),
        st.lists(st.one_of(st.sampled_from(_SPECIAL_U), st.floats(-1.5, 1.5), st.floats()), min_size=1, max_size=40),
    )
    def test_on_any_float(self, spec, us):
        self._check(spec, np.array(us))


def _tile_size(first, queries, radius):
    """Queries per tile as specified: _TILE_ENTRIES over the mean number of
    rows in [q - radius, q + radius] in coordinate 1, within 16 to 64."""
    counts = [np.count_nonzero((first >= q - radius) & (first <= q + radius)) for q in queries]
    return min(64, max(16, int(_TILE_ENTRIES / max(sum(counts) / len(counts), 1.0))))


def _one_column_sweep(first, radius, queries):
    """The one-column sweep as specified: queries in stable ascending order,
    blocks of the tile size, each paired with its padded coordinate-1
    window."""
    qorder = np.argsort(queries, kind="stable")
    qs = queries[qorder]
    t = _tile_size(first, qs, radius)
    pad = 1e-9 * max(1.0, float(np.abs(first).max(initial=0.0)))
    out = []
    for a in range(0, qs.size, t):
        b = min(a + t, qs.size)
        lo = int(np.searchsorted(first, qs[a] - radius - pad, side="left"))
        hi = int(np.searchsorted(first, qs[b - 1] + radius + pad, side="right"))
        out.append((qorder[a:b], slice(lo, hi)))
    return out


def _two_column_sweep(keys, radius, qs):
    """The two-column sweep as specified: with t the tile size, queries in
    stable coordinate-1 order, cut into strips of t * ceil(sqrt(m / t)); each
    strip in stable coordinate-2 order, cut into tiles of t; each tile paired
    with the rows inside its padded range in both coordinates."""
    m = qs.shape[0]
    t = _tile_size(keys[:, 0], qs[:, 0], radius)
    strip = t * max(1, math.ceil(math.sqrt(m / t)))
    pad = 1e-9 * max(1.0, float(np.abs(keys).max(initial=0.0)))
    qorder = np.argsort(qs[:, 0], kind="stable")
    out = []
    for a in range(0, m, strip):
        run = qorder[a : a + strip]
        run = run[np.argsort(qs[run, 1], kind="stable")]
        for b in range(0, run.size, t):
            idx = run[b : b + t]
            lo = qs[idx].min(axis=0) - radius - pad
            hi = qs[idx].max(axis=0) + radius + pad
            out.append((idx, np.flatnonzero(np.all((keys >= lo) & (keys <= hi), axis=1))))
    return out


def _index_rows(blocks, n):
    """Sweep blocks with their rows as index arrays, whether given as slices
    or as index arrays."""
    return [(idx, np.arange(n)[rows]) for idx, rows in blocks]


class TestBandSweep:
    # Few distinct values, so the sorted columns and the queries have ties.
    _values = st.integers(0, 40).map(lambda i: i / 40.0)
    _radii = st.sampled_from([0.0, 0.025, 0.1, 0.6, 1.0, 1.5])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_values, min_size=1, max_size=300),
        st.one_of(st.none(), st.lists(_values, min_size=1, max_size=300)),
        _radii,
    )
    def test_blocks_cover_every_window(self, rows, queries, radius):
        first = np.sort(np.array(rows))
        qs = first if queries is None else np.array(queries)
        blocks = _index_rows(band_sweep(first, radius, qs), first.size)
        idx = np.concatenate([b[0] for b in blocks])
        assert np.array_equal(np.sort(idx), np.arange(qs.size))  # every query exactly once
        assert np.all(np.diff(qs[idx]) >= 0.0)  # blocks ascending
        for block, rows in blocks:
            assert 1 <= block.size <= 64
            for q in qs[block]:
                near = np.flatnonzero(np.abs(first - q) <= radius)
                assert np.all(np.isin(near, rows))
        # A column given as (n, 1) is the same one-column sweep.
        want = _index_rows(_one_column_sweep(first, radius, qs), first.size)
        column = band_sweep(first[:, None], radius, qs[:, None])
        for got in (blocks, _index_rows(column, first.size)):
            assert len(got) == len(want)
            for (a, ra), (b, rb) in zip(got, want):
                assert np.array_equal(a, b) and np.array_equal(ra, rb)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 400),
        st.one_of(st.none(), st.integers(1, 300)),
        _radii,
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_two_column_tiles_cover_every_window(self, n, m, radius, flat, seed):
        # Lattice values give ties; a few hundred rows give several strips and tiles.
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 41, size=(n, 2)) / 40.0
        if flat:  # every row shares coordinate 2, so a tile reads its whole coordinate-1 window
            keys[:, 1] = 0.5
        keys = keys[canonical_order(tuple(keys.T))]
        qs = keys if m is None else rng.integers(0, 41, size=(m, 2)) / 40.0
        tiles = list(band_sweep(keys, radius, qs))
        idx = np.concatenate([t[0] for t in tiles])
        assert np.array_equal(np.sort(idx), np.arange(qs.shape[0]))  # every query exactly once
        for tile, sel in tiles:
            assert 1 <= tile.size <= 64
            assert sel.dtype.kind == "i" and np.all(np.diff(sel) > 0)  # ascending rows
            for q in qs[tile]:
                near = np.flatnonzero(np.all(np.abs(keys - q) <= radius, axis=1))
                assert np.all(np.isin(near, sel))

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([1, 2]),
        st.one_of(st.integers(1, 400), st.integers(1030, 1200)),  # wide windows of 1030+ rows give the floor of 16
        st.one_of(st.none(), st.integers(1, 300)),
        _radii,
        st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_the_reference_layout(self, c, n, m, radius, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 41, size=(n, c)) / 40.0
        keys = keys[canonical_order(tuple(keys.T))]
        qs = keys if m is None else rng.integers(0, 41, size=(m, c)) / 40.0
        if c == 1:
            want = _index_rows(_one_column_sweep(keys[:, 0], radius, qs[:, 0]), n)
        else:
            want = _two_column_sweep(keys, radius, qs)
        got = _index_rows(band_sweep(keys, radius, qs), n)
        assert len(got) == len(want)
        for (a, ra), (b, rb) in zip(got, want):
            assert np.array_equal(a, b) and np.array_equal(ra, rb)

    @pytest.mark.parametrize("queries", [False, True])
    def test_columns_past_the_second_are_not_windowed(self, queries):
        # Enough queries for 8 tiles of 64.
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 41, size=(2000, 3)) / 40.0
        keys = keys[canonical_order(tuple(keys.T))]
        qs = rng.integers(0, 41, size=(600, 3)) / 40.0 if queries else keys
        got = list(band_sweep(keys, 0.1, qs))
        want = list(band_sweep(keys[:, :2], 0.1, qs[:, :2]))
        assert len(got) == len(want) >= 8  # several tiles
        for (a, ra), (b, rb) in zip(got, want):
            assert np.array_equal(a, b) and np.array_equal(ra, rb)

    def test_wide_windows_are_not_held_at_once(self):
        # Every tile's rows are nearly all n = 20 000 rows; holding the rows of
        # all 1250 tiles at once would take about 190 MB.
        keys = np.random.default_rng(0).uniform(size=(20_000, 2))
        keys = keys[canonical_order(tuple(keys.T))]
        tracemalloc.start()
        try:
            for _ in band_sweep(keys, 0.8, keys):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestSweepWork:
    """Work counts of the sweeps that the benchmark's workloads run, with no
    timing: tiles, and entries of each tile's slab."""

    @staticmethod
    def _counted(monkeypatch, module):
        tiles, sweep = [], kernels.band_sweep

        def counted(*args):
            for idx, rows in sweep(*args):
                tiles.append((idx.size, rows.size))
                yield idx, rows

        monkeypatch.setattr(module, "band_sweep", counted)
        return tiles

    def test_nw_baseline_at_the_mc_tables_largest_n(self, monkeypatch):
        # Fixed tiles of 16 queries made 163 tiles here.
        tiles = self._counted(monkeypatch, estimators)
        n, rules = 4000, BenchmarkRules()
        s = generate(CobbDouglasConfig(n=n, seed=0), path_prefix=(0,))
        lo, hi = rules.trim
        keep = (s.q >= lo) & (s.q <= hi) & (s.v >= lo) & (s.v <= hi)
        X = np.column_stack([s.q - 0.5, s.v - 0.5])
        nadaraya_watson_grid(
            X, s.y_ac, X[keep], rules.h_base(n), d=rules.base_order, den_floor=rules.base_floor, widen_on_empty=True
        )
        assert len(tiles) <= 64

    def test_ac_curve_at_the_mc_tables_largest_n(self, monkeypatch):
        # One sweep serves both rhos' labor columns: part a tiles the 4000
        # rows' points and part b the 2553 trimmed points, 107 tiles of 32 to
        # 62 queries.  Fixed tiles of 16 queries would make 410.
        tiles = self._counted(monkeypatch, simulation)
        n, rules = 4000, BenchmarkRules()
        cfg = CobbDouglasConfig(n=n, seed=0)
        s = generate(cfg, path_prefix=(0,))
        y_al = np.column_stack([generate(replace(cfg, rho=rho), path_prefix=(0,)).y_al for rho in (0.0, 0.9)])
        lo, hi = rules.trim
        keep = (s.q >= lo) & (s.q <= hi) & (s.v >= lo) & (s.v <= hi)
        derivative_ac_curve(replace(s, y_al=y_al), s.q[keep], s.v[keep], 1.0, rules.h_deriv(n))
        assert len(tiles) <= 128
        assert all(16 <= size <= 64 for size, _ in tiles)

    def test_loo_slabs_on_the_fit_loo_shape(self, monkeypatch):
        # fit_loo's density: n = 4000 rows of U^1.5, d1 = 4, H = 4000^(-0.21).
        # Its windows put the tiles at the rule's floor of 16 queries, so a
        # slab is 16 times a tile's rows: 16 320 to 19 008 entries over
        # design seeds 1 to 7, about 2^14.  Tiles of 25 queries reach 28 750.
        tiles = self._counted(monkeypatch, density)
        X = np.random.default_rng([1, 2, 1]).uniform(size=(4000, 2)) ** 1.5
        est = DensityEstimator(DataSet(2, DerivIndex.zeros(2), X, np.zeros(4000)), 4, BandwidthPlan().H(4000, 4, 2, 1))
        loo_at_rows(est)
        assert {size for size, _ in tiles} == {16}
        assert max(size * rows for size, rows in tiles) <= 1.25 * 2**14

    def test_the_kernel_rule_runs_once_per_sweep(self, monkeypatch):
        # fit_loo's density makes about 250 tiles, and the NW baseline at the
        # MC table's largest n about 50; each sweep chooses every point's
        # kernels once per coordinate, not once per tile.
        calls, rule = [], kernels._kernel_choice

        def counted(x, bandwidth):
            calls.append(x.size)
            return rule(x, bandwidth)

        monkeypatch.setattr(kernels, "_kernel_choice", counted)
        tiles = self._counted(monkeypatch, density)
        X = np.random.default_rng([1, 2, 1]).uniform(size=(4000, 2)) ** 1.5
        est = DensityEstimator(DataSet(2, DerivIndex.zeros(2), X, np.zeros(4000)), 4, BandwidthPlan().H(4000, 4, 2, 1))
        loo_at_rows(est)
        assert len(tiles) > 200 and calls == [4000, 4000]
        calls.clear()
        tiles = self._counted(monkeypatch, estimators)
        s = generate(CobbDouglasConfig(n=4000, seed=0), path_prefix=(0,))
        X = np.column_stack([s.q - 0.5, s.v - 0.5])
        rules = BenchmarkRules()
        nadaraya_watson_grid(X, s.y_ac, X, rules.h_base(4000), d=rules.base_order, den_floor=rules.base_floor, widen_on_empty=True)
        # One sweep per pass (h, then each doubling): each pass's points once per coordinate.
        assert len(tiles) > 20 and len(calls) <= 14 and sum(calls) == 2 * sum(size for size, _ in tiles)


class TestOrderGate:
    def test_rejects_low_orders(self):
        with pytest.raises(ValidationError, match="d > "):
            check_orders(d=2, d1=4, k=2, p=2)
        with pytest.raises(ValidationError, match="d1"):
            check_orders(d=2, d1=2, k=2, p=1)

    @pytest.mark.parametrize("d, d1", [(3, 4), (4, 5), (5, 3)])
    def test_rejects_odd_orders(self, d, d1):
        # An odd order would run with the next even kernel but keep its own rate.
        with pytest.raises(ValidationError, match="kernel orders must be even"):
            check_orders(d=d, d1=d1, k=1, p=1)

    def test_accepts_valid(self):
        check_orders(d=2, d1=4, k=2, p=1)
        check_orders(d=4, d1=4, k=2, p=2)

    def test_defaults_pass_gate(self):
        # The smallest passing orders: two less fails.
        for k in range(1, 30):
            for p in range(30):
                d, d1 = default_orders(k, p)
                check_orders(d, d1, k, p)
                assert d % 2 == 0 and d1 % 2 == 0
                with pytest.raises(ValidationError, match="d > "):
                    check_orders(d - 2, d1, k, p)
                with pytest.raises(ValidationError, match="d1"):
                    check_orders(d, d1 - 2, k, p)

    def test_density_orders_alone(self):
        check_orders(None, 4, 3, 0)
        with pytest.raises(ValidationError, match="density kernel order d1=2 violates d1 > k = 2"):
            check_orders(None, 2, 2, 0)
        with pytest.raises(ValidationError, match="kernel orders must be even, got d1=3$"):
            check_orders(None, 3, 2, 0)


class TestOrderCaps:
    @pytest.mark.parametrize(
        "build, cap, step",
        [
            (lambda d: [make_interior_kernel(d)], MAX_INTERIOR_ORDER, 2),
            (lambda d: [make_edge_kernel(d, "left"), make_edge_kernel(d, "right")], MAX_EDGE_ORDER, 1),
        ],
        ids=["interior", "edge"],
    )
    def test_each_cap_is_the_last_order_to_pass_the_moment_check(self, build, cap, step):
        passed = lambda d: all(moment_check("", kernel_moments(spec)).passed for spec in build(d))
        assert passed(cap) and not passed(cap + step)

    def test_product_cap_is_six(self):
        # A product kernel of order d uses the edge kernels of order d.
        check_cap("d", 6)
        with pytest.raises(ValidationError, match="^d = 8 is above 6, the largest order"):
            check_cap("d", 8)

    @pytest.mark.parametrize("d", [1, 2, 7, 20])
    @pytest.mark.parametrize(
        "moment",
        [lambda m: 1.0 / (m + 2) - 1.0 / (m + 3), lambda m: 0.0 if m % 2 else 2.0 / (m + 1) - 2.0 / (m + 3)],
        ids=["edge", "interior"],
    )
    def test_moment_solve_takes_each_moment_once(self, moment, d):
        calls = []
        q = _solve_moment_system(lambda m: calls.append(m) or moment(m), d)
        assert calls == list(range(2 * d - 1))
        # The d x d loop reference: the same matrix entries, so the same bits.
        A = np.empty((d, d))
        for j in range(d):
            for m in range(d):
                A[j, m] = moment(j + m)
        rhs = np.zeros(d)
        rhs[0] = 1.0
        assert np.array(q).tobytes() == np.linalg.solve(A, rhs).tobytes()


class TestBandwidthPlan:
    def test_h_rate(self):
        bw = BandwidthPlan(h_const=2.0)
        assert bw.h(1000, d=2, free_dims=1) == pytest.approx(2.0 * 1000 ** (-1.0 / 5.0))

    def test_H_inside_window(self):
        bw = BandwidthPlan()
        d, d1, k, p = 2, 4, 2, 1
        for n in (100, 1000, 10_000, 100_000):
            H = bw.H(n, d1, d, free_dims=k - p)
            h = bw.h(n, d, free_dims=k - p)
            assert H <= min(n ** (-1.0 / (2 * d1)), n ** (-1.0 / (2 * d + k - p)))
            assert H >= n ** (-1.0 / (2 * k))  # lower edge of the admissible window
            assert H / h < 1.0
        ratios = [
            bw.H(n, d1, d, 1) / bw.h(n, d, 1) for n in (100, 1000, 10_000, 100_000)
        ]
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))  # H/h decreasing

    def test_positive_constants_required(self):
        with pytest.raises(ValidationError):
            BandwidthPlan(h_const=0.0)
