import concurrent.futures
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from derivreg import (
    DataSet,
    DerivIndex,
    ParseError,
    ValidationError,
    poly_function,
    product_function,
    rescale_to_unit,
    split_stream,
    write_csv,
)
from derivreg.core import _parse_rows, canonical_order, read_csv


class TestDerivIndex:
    def test_basic(self):
        a = DerivIndex.from_string("101")
        assert a.k == 3 and a.order == 2
        assert a.support == {0, 2}
        assert str(a) == "101"
        assert DerivIndex.from_support(3, [0, 2]) == a

    def test_popcount_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            a = DerivIndex(tuple(int(b) for b in rng.integers(0, 2, k)))
            b = DerivIndex(tuple(int(b) for b in rng.integers(0, 2, k)))
            both = sum(x & y for x, y in zip(a.bits, b.bits))
            assert (a | b).order + both == a.order + b.order

    def test_validation(self):
        with pytest.raises(ValidationError):
            DerivIndex(())
        with pytest.raises(ValidationError):
            DerivIndex((0, 2))
        with pytest.raises(ValidationError):
            DerivIndex.from_string("10") | DerivIndex.from_string("100")


class TestCsv:
    def test_parse_three_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x1,x2,y\n0.1,0.2,3.0\n0.4,0.5,-1.0\n1.0,0.0,0.25\n")
        arr = read_csv(f, 2)
        assert arr.shape == (3, 3)
        assert arr[2, 0] == 1.0 and arr[1, 2] == -1.0

    def test_empty_data_section(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x1,x2,y\n")
        with pytest.raises(ValidationError, match="n >= 1 required"):
            read_csv(f, 2)

    def test_malformed_cell_names_line(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x1,y\n0.5,1.0\n0.6,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            read_csv(f, 1)

    def test_bulk_parse_matches_row_parser(self, tmp_path):
        rng = np.random.default_rng(5)
        cells = [repr(float(v)) for v in rng.uniform(-2.0, 2.0, 300)]
        cells[:6] = ["1e-3", " 0.5 ", "-0", "inf", "7", "-2.5E+2"]
        f = tmp_path / "d.csv"
        lines = [",".join(cells[i : i + 3]) for i in range(0, 300, 3)]
        f.write_text("x1,x2,y\n" + "\n".join(lines[:50]) + "\n\n" + "\r\n".join(lines[50:]) + "\n")
        bulk, rows = read_csv(f, 2), _parse_rows(f, 2)
        assert bulk.shape == (100, 3)
        assert np.array_equal(bulk, rows) and np.array_equal(np.signbit(bulk), np.signbit(rows))

    def test_row_parser_fallback_keeps_errors(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text('x1,y\n"0.5","1.0"\n0.25,2.0\n')
        assert read_csv(f, 1).tolist() == [[0.5, 1.0], [0.25, 2.0]]
        at = re.escape(str(f))
        f.write_text("x1,y\n0.5,1.0\n\n0.6,#\n")
        with pytest.raises(ParseError, match=rf"^{at}: line 4: could not convert string to float: '#'$"):
            read_csv(f, 1)
        f.write_text("x1,y\n0.5,1.0\n0.6,2.0,\n")
        with pytest.raises(ParseError, match=rf"^{at}: line 3: expected 2 cells, found 3$"):
            read_csv(f, 1)
        f.write_text("x1,y\n0.5,1.0\n  \n")
        with pytest.raises(ParseError, match=rf"^{at}: line 3: expected 2 cells, found 1$"):
            read_csv(f, 1)
        f.write_text("x1,y\n\n\n")
        with pytest.raises(ValidationError, match="n >= 1 required"):
            read_csv(f, 1)

    def test_round_trip_bit_exact(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x1,y\n0.1,0.30000000000000004\n0.7071067811865476,-2.5\n")
        out1 = tmp_path / "o1.csv"
        out2 = tmp_path / "o2.csv"
        write_csv(out1, ["x1", "y"], read_csv(f, 1).tolist())
        write_csv(out2, ["x1", "y"], read_csv(out1, 1).tolist())
        assert out1.read_bytes() == out2.read_bytes()
        assert np.array_equal(read_csv(out2, 1), read_csv(f, 1))


class TestRescale:
    def test_affine_example(self):
        scaled, maps = rescale_to_unit(np.array([[2.0], [4.0], [6.0]]))
        assert np.allclose(scaled[:, 0], [0.0, 0.5, 1.0])
        assert maps[0].offset == 2.0 and maps[0].scale == 4.0

    def test_spanning_unit_column_is_identity(self):
        scaled, maps = rescale_to_unit(np.array([[0.0], [0.5], [1.0]]))
        assert maps[0].offset == 0.0 and maps[0].scale == 1.0
        assert np.array_equal(scaled[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_error(self):
        with pytest.raises(ValidationError, match="coordinate 2"):
            rescale_to_unit(np.array([[1.0, 5.0], [2.0, 5.0]]))

    def test_ragged_input_rejected(self):
        # numpy raised its own "inhomogeneous shape" ValueError.
        with pytest.raises(ValidationError, match=r"^raw is not a rectangular array of numbers$"):
            rescale_to_unit([[1.0], [1.0, 1.1]])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(scale=100.0, size=(50, 3)) + 17.0
        scaled, maps = rescale_to_unit(raw)
        back = np.column_stack([maps[j].invert(scaled[:, j]) for j in range(3)])
        assert np.max(np.abs(back - raw) / np.maximum(np.abs(raw), 1.0)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            float,
            st.tuples(st.integers(2, 40), st.integers(1, 3)),
            elements=st.floats(-1e9, 1e9, allow_subnormal=False),
        )
    )
    def test_inverse_round_trip_within_a_few_ulp(self, raw):
        assume(all(np.ptp(raw, axis=0) > 0))
        scaled, maps = rescale_to_unit(raw)
        assert ((scaled >= 0.0) & (scaled <= 1.0)).all()
        for j, m in enumerate(maps):
            # lo + s ((x - lo) / s) rounds three times in x - lo (|x - lo| <= s)
            # and once in x: about (3 s + |x|) u <= 7 u max|x| for unit
            # roundoff u, which is under 8 ulp of max|x|.
            bound = 8 * np.spacing(np.abs(raw[:, j]).max())
            assert np.abs(m.invert(scaled[:, j]) - raw[:, j]).max() <= bound


class TestDataSet:
    def test_rejects_out_of_cube(self):
        with pytest.raises(ValidationError, match="outside"):
            DataSet(1, DerivIndex.from_string("0"), np.array([[1.5]]), np.array([1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            DataSet(2, DerivIndex.from_string("00"), np.zeros((3, 2)), np.zeros(2))

    def test_rejects_nan_in_X(self):
        X = np.array([[0.2, 0.3], [0.4, np.nan]])
        with pytest.raises(ValidationError, match="X has a non-finite value in row 2"):
            DataSet(2, DerivIndex.from_string("00"), X, np.zeros(2))

    def test_rejects_inf_in_Y(self):
        Y = np.array([1.0, 2.0, np.inf])
        with pytest.raises(ValidationError, match="Y has a non-finite value in row 3"):
            DataSet(1, DerivIndex.from_string("0"), np.full((3, 1), 0.5), Y)

    def test_immutability(self):
        ds = DataSet(1, DerivIndex.from_string("0"), np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 0.2

    def test_keeps_copies_of_the_callers_arrays(self):
        X = np.array([[0.2], [0.5]])
        Y = np.array([1.0, 2.0])
        ds = DataSet(1, DerivIndex.from_string("0"), X, Y)
        assert X.flags.writeable and Y.flags.writeable
        X[0, 0], Y[0] = 0.9, -1.0
        assert ds.X.tolist() == [[0.2], [0.5]] and ds.Y.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("ties", [False, True])
    def test_order_is_lexsort(self, ties):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(500, 3))
        Y = rng.normal(size=500)
        if ties:
            X[:, 0] = np.round(X[:, 0], 1)
            X[:250, 1] = np.round(X[:250, 1], 1)
            X[400:] = X[:100]
            Y[450:] = Y[:50]
        ds = DataSet(3, DerivIndex.from_string("000"), X, Y)
        assert np.array_equal(ds.order, np.lexsort((Y, X[:, 2], X[:, 1], X[:, 0])))
        assert ds.order is ds.order

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 60), st.integers(1, 4), st.data())
    def test_canonical_order_is_lexsort(self, nkeys, n, levels, data):
        # Keys on a few levels tie, in the first key too; repeated rows duplicate.
        rows = data.draw(
            st.lists(st.lists(st.integers(0, levels), min_size=nkeys, max_size=nkeys), min_size=1, max_size=n)
        )
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))
        keys = tuple(np.array([rows[i][j] / levels for i in picks]) for j in range(nkeys))
        assert np.array_equal(canonical_order(keys), np.lexsort(keys[::-1]))


class TestRngStreams:
    def test_reproducible(self):
        a = split_stream(42, [0]).uniform(size=10)
        b = split_stream(42, [0]).uniform(size=10)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = split_stream(42, [0]).uniform(size=10)
        b = split_stream(42, [1]).uniform(size=10)
        assert not np.array_equal(a, b)

    def test_thread_schedule_independence(self):
        serial = split_stream(42, [3, 7]).uniform(size=64)

        def draw(_):
            return split_stream(42, [3, 7]).uniform(size=64)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(draw, range(8)))
        for arr in results:
            assert np.array_equal(arr, serial)


class TestTestFunctions:
    def _fd(self, g, alpha, x, h=1e-5):
        """Central finite differences, one coordinate at a time."""
        pts = np.array([x], dtype=float)
        fn = lambda p: g(p)[0]
        for j in sorted(alpha.support):
            inner = fn

            def fn(p, j=j, inner=inner):
                up = p.copy()
                dn = p.copy()
                up[:, j] += h
                dn[:, j] -= h
                return (inner(up) - inner(dn)) / (2 * h)

        return fn(pts)

    def test_poly_derivatives_match_finite_differences(self):
        g = poly_function(2, {(2, 1): 1.0, (1, 0): -0.5, (0, 3): 2.0})
        x = np.array([0.4, 0.6])
        for bits in ((0, 0), (1, 0), (0, 1), (1, 1)):
            alpha = DerivIndex(bits)
            exact = g.deriv(alpha, x[None, :])[0]
            approx = self._fd(g, alpha, x)
            assert abs(exact - approx) < 1e-6

    def test_product_derivatives_match_finite_differences(self):
        g = product_function([(np.exp, np.exp), (np.sin, np.cos)])
        x = np.array([0.3, 0.9])
        for bits in ((1, 0), (1, 1)):
            alpha = DerivIndex(bits)
            exact = g.deriv(alpha, x[None, :])[0]
            approx = self._fd(g, alpha, x)
            assert abs(exact - approx) < 1e-6

    def test_zero_index_is_eval(self):
        g = poly_function(2, {(1, 1): 1.0})
        pts = np.array([[0.2, 0.9]])
        assert g.deriv(DerivIndex.zeros(2), pts) == g(pts)

    @pytest.mark.parametrize(
        "g, pts",
        [
            # A 1-D array is one point, here 64 coordinates wide.
            (poly_function(1, {(2,): 1.0}), np.linspace(0.0, 1.0, 64)),
            (product_function([(np.exp, np.exp), (np.sin, np.cos)]), np.full((4, 3), 0.5)),
        ],
        ids=["k=1", "k=2"],
    )
    def test_points_of_the_wrong_width_rejected(self, g, pts):
        with pytest.raises(ValidationError, match=rf"pts must be \(m, {g.k}\)"):
            g(pts)
        with pytest.raises(ValidationError, match=rf"pts must be \(m, {g.k}\)"):
            g.deriv(DerivIndex.ones(g.k), pts)

    def test_partial_is_deriv_on_columns(self):
        g = product_function([(np.exp, np.exp), (np.sin, np.cos)])
        pts = split_stream(9, [0]).uniform(size=(50, 2))
        for bits in ((0, 0), (1, 0), (0, 1), (1, 1)):
            alpha = DerivIndex(bits)
            want = g.deriv(alpha, pts)
            assert g.partial(alpha)(tuple(pts.T)).tobytes() == want.tobytes()
            # Open-grid columns give the same values on the whole grid.
            grid = g.partial(alpha)((pts[:, 0][:, None], pts[:, 1][None, :]))
            assert grid.shape == (50, 50)
            assert grid[np.arange(50), np.arange(50)].tobytes() == want.tobytes()

    def test_partial_rejects_an_index_of_another_k(self):
        with pytest.raises(ValidationError, match="alpha has k=1"):
            poly_function(2, {(1, 1): 1.0}).partial(DerivIndex.ones(1))


_ELEMENTWISE = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "**1": lambda a: a**1,
    "**2": lambda a: a**2,
    "**3": lambda a: a**3,
}


class TestElementwisePremise:
    """Integrals evaluate a test function's factors once per axis node, on the
    quadrature's open grid, where the tensor rule evaluated them at every
    tensor point.  Their results keep their bits only if these functions give
    a value the same bits wherever it sits; another CPU may take other SIMD
    paths, and this test is what would say so."""

    @settings(max_examples=150, deadline=None)
    @given(
        axis=arrays(np.float64, st.integers(1, 64), elements=st.floats(-4.0, 4.0)),
        shift=st.integers(0, 17),
        copies=st.integers(1, 9),
    )
    @pytest.mark.parametrize("name", sorted(_ELEMENTWISE))
    def test_same_bits_wherever_a_value_sits(self, name, axis, shift, copies):
        fn = _ELEMENTWISE[name]
        want = fn(axis).tobytes()
        zero_d = np.array([fn(np.asarray(v)) for v in axis])
        assert zero_d.tobytes() == want
        # A long contiguous column holds each value at many offsets, and a
        # column of a row-major (m, 3) array holds them strided.
        long = np.concatenate([np.linspace(-1.0, 1.0, shift), np.tile(axis, copies)])
        strided = np.repeat(long[:, None], 3, axis=1)[:, 1]
        for col in (long, strided):
            got = fn(col)[shift:].reshape(copies, axis.size)
            assert all(row.tobytes() == want for row in got)
