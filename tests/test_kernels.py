import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivreg import ValidationError, check_orders, kernel_moment, make_edge_kernel, make_interior_kernel, product_kernel
from derivreg.core import canonical_order
from derivreg.kernels import BandwidthPlan, Workspace, band_sweep, default_orders

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
        kinds = {spec.kind: rows.tolist() for spec, rows in fam.regions([0.0, 1.0, 0.5], 0.1)}
        assert kinds == {"left": [0], "right": [1], "interior": [2]}
        # Above h = 1/2 a point within h of both faces takes the interior kernel.
        kinds = {spec.kind: rows.tolist() for spec, rows in fam.regions([0.3, 0.7, 0.45, 0.0, 1.0], 0.6)}
        assert kinds == {"left": [0, 3], "right": [1, 4], "interior": [2]}
        # edge-coordinate mass equals interior mass (both integrate to one)
        t, w = np.polynomial.legendre.leggauss(40)
        for x, lo in ((0.0, 0.0), (1.0, 0.9)):
            rows = lo + 0.05 * (t + 1.0)
            mass = 0.05 * np.sum(w * fam.weights(np.array([[x]]), rows[:, None], 0.1)[0])
            assert mass == pytest.approx(1.0, abs=1e-10)

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


_SPECS = [make_interior_kernel(d) for d in range(2, 13, 2)] + [
    make_edge_kernel(d, side) for d in range(2, 13) for side in ("left", "right")
]
# Every support endpoint and its neighbours, signed zeros, points outside
# every support, and non-finite values.
_SPECIAL_U = [v for e in (-1.0, 0.0, 1.0) for v in (e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))]
_SPECIAL_U += [-0.0, -1.5, 1.5, -np.inf, np.inf, np.nan]


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

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([2, 4, 6, 8]),
        st.sampled_from([0.05, 0.2, 0.45, 0.5, 0.6, 0.95]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_weights_match_frozen_loop(self, d, h, k, seed):
        # Points on and beside the faces and at h and 1 - h, so a tile's rows
        # split across the left, right and interior kernels (near both faces
        # when h > 1/2); data rows at exactly one bandwidth from a point.
        rng = np.random.default_rng(seed)
        fam = product_kernel(d)
        values = np.concatenate([[0.0, 1.0, h, 1.0 - h, np.nextafter(h, 0.0), np.nextafter(1.0 - h, 1.0)], rng.uniform(size=6)])
        work = Workspace()
        for m, n in rng.integers(1, 40, size=(3, 2)):
            x = rng.choice(values, size=(m, k))
            near = x[rng.integers(m, size=n)]
            X = np.clip(near + rng.uniform(-1.2, 1.2, size=(n, k)) * h, 0.0, 1.0)
            X = np.vstack([X, np.clip(near[:1] + h, 0.0, 1.0), np.clip(near[:1] - h, 0.0, 1.0)])
            want = reference.product_weights(x, X, h, d).tobytes()
            assert fam.weights(x, X, h, work).tobytes() == want  # reused, grown or shrunk
            assert fam.weights(x, X, h).tobytes() == want  # a fresh workspace


def _one_column_sweep(first, radius, queries=None):
    """The one-column sweep as specified: queries in stable ascending order,
    blocks of 64, each paired with its padded coordinate-1 window."""
    qorder = np.arange(first.size) if queries is None else np.argsort(queries, kind="stable")
    qs = first[qorder] if queries is None else queries[qorder]
    pad = 1e-9 * max(1.0, float(np.abs(first).max(initial=0.0)))
    out = []
    for a in range(0, qs.size, 64):
        b = min(a + 64, qs.size)
        lo = int(np.searchsorted(first, qs[a] - radius - pad, side="left"))
        hi = int(np.searchsorted(first, qs[b - 1] + radius + pad, side="right"))
        out.append((qorder[a:b], slice(lo, hi)))
    return out


def _two_column_sweep(keys, radius, queries=None):
    """The two-column sweep as specified: queries in stable coordinate-1
    order, cut into strips of 16 * ceil(sqrt(m / 16)); each strip in stable
    coordinate-2 order, cut into tiles of 16; each tile paired with the rows
    inside its padded range in both coordinates."""
    qs = keys if queries is None else queries
    m = qs.shape[0]
    strip = 16 * max(1, math.ceil(math.sqrt(m / 16)))
    pad = 1e-9 * max(1.0, float(np.abs(keys).max(initial=0.0)))
    qorder = np.argsort(qs[:, 0], kind="stable")
    out = []
    for a in range(0, m, strip):
        run = qorder[a : a + strip]
        run = run[np.argsort(qs[run, 1], kind="stable")]
        for b in range(0, run.size, 16):
            idx = run[b : b + 16]
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
        blocks = _index_rows(band_sweep(first, radius, None if queries is None else qs), first.size)
        idx = np.concatenate([b[0] for b in blocks])
        assert np.array_equal(np.sort(idx), np.arange(qs.size))  # every query exactly once
        assert np.all(np.diff(qs[idx]) >= 0.0)  # blocks ascending
        for block, rows in blocks:
            assert 1 <= block.size <= 64
            for q in qs[block]:
                near = np.flatnonzero(np.abs(first - q) <= radius)
                assert np.all(np.isin(near, rows))
        # A column given as (n, 1) is the same one-column sweep.
        want = _index_rows(_one_column_sweep(first, radius, None if queries is None else qs), first.size)
        column = band_sweep(first[:, None], radius, None if queries is None else qs[:, None])
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
        tiles = list(band_sweep(keys, radius, None if m is None else qs))
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
        st.integers(1, 400),
        st.one_of(st.none(), st.integers(1, 300)),
        _radii,
        st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_the_reference_layout(self, c, n, m, radius, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 41, size=(n, c)) / 40.0
        keys = keys[canonical_order(tuple(keys.T))]
        qs = None if m is None else rng.integers(0, 41, size=(m, c)) / 40.0
        if c == 1:
            want = _index_rows(_one_column_sweep(keys[:, 0], radius, None if qs is None else qs[:, 0]), n)
        else:
            want = _two_column_sweep(keys, radius, qs)
        got = _index_rows(band_sweep(keys, radius, qs), n)
        assert len(got) == len(want)
        for (a, ra), (b, rb) in zip(got, want):
            assert np.array_equal(a, b) and np.array_equal(ra, rb)

    @pytest.mark.parametrize("queries", [False, True])
    def test_columns_past_the_second_are_not_windowed(self, queries):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 41, size=(300, 3)) / 40.0
        keys = keys[canonical_order(tuple(keys.T))]
        qs = rng.integers(0, 41, size=(120, 3)) / 40.0 if queries else None
        got = list(band_sweep(keys, 0.1, qs))
        want = list(band_sweep(keys[:, :2], 0.1, None if qs is None else qs[:, :2]))
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
            for _ in band_sweep(keys, 0.8):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


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
        for k in (1, 2, 3):
            for p in range(1, k + 1):
                d, d1 = default_orders(k, p)
                check_orders(d, d1, k, p)
                assert d % 2 == 0 and d1 % 2 == 0


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
