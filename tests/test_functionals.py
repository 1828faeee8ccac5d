import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derivreg import functionals
from derivreg import (
    DerivIndex,
    Quadrature,
    ValidationError,
    build_term_plan,
    nonparametric_dimension,
    poly_function,
    product_function,
    recon_weight,
)
from derivreg.functionals import (
    Term,
    TermPlan,
    Weight,
    analytic_suite,
    corner_sum,
    identity_checks,
    polynomial_suite,
    separable_integral,
    subindices,
    tensor_rule,
    term_weights,
    weighted_integral,
)

QUAD = Quadrature(nodes=32)
D = DerivIndex.from_string


def _const(c):
    """The integrand that is ``c`` everywhere."""
    return lambda cols: np.asarray(c)


def _avg(index: DerivIndex) -> tuple[Weight, ...]:
    """FLAT on the coordinates that ``index`` flags, LOCAL elsewhere."""
    return term_weights(DerivIndex.zeros(index.k), index.support)


def _cum(index: DerivIndex) -> tuple[Weight, ...]:
    """CUM on the coordinates that ``index`` flags, LOCAL elsewhere."""
    return tuple(Weight.CUM if bit else Weight.LOCAL for bit in index.bits)


def _terms_value(g, terms, x):
    """The signed sum of coef times the weighted integral of g's partial,
    over ``terms`` in order."""
    return sum(t.coef * weighted_integral(g.partial(t.deriv), t.weights, x, QUAD) for t in terms)


def _residual(g, terms, x) -> float:
    x = np.asarray(x, dtype=float)
    return abs(float(g(x[None, :])[0]) - _terms_value(g, terms, x))


def _decomposition(k: int, p: int) -> list[Term]:
    """The 2^p terms that rewrite g over coordinates 1..p; the others stay
    pinned at the evaluation point."""
    return [Term(1, beta, term_weights(beta, range(p))) for beta in subindices(DerivIndex.from_support(k, range(p)))]


class TestReconWeight:
    def test_order_zero_is_one(self):
        assert recon_weight(D("0"), [[0.8]], [[0.1]]) == pytest.approx(1.0)

    def test_univariate_closed_form(self):
        # u - 1 + 1{u <= x}: below x the value is u itself
        assert recon_weight(D("1"), [[0.3]], [[0.5]])[0] == pytest.approx(0.3)
        assert recon_weight(D("1"), [[0.9]], [[0.5]])[0] == pytest.approx(-0.1)
        assert recon_weight(D("1"), [[0.5]], [[0.5]])[0] == pytest.approx(0.5)  # ties count

    def test_product_form(self):
        val = recon_weight(D("11"), [[0.9, 0.2]], [[0.5, 0.5]])[0]
        assert val == pytest.approx(-0.02)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(size=(10_000, 3))
        x = rng.uniform(size=(10_000, 3))
        for alpha in subindices(DerivIndex.ones(3)):
            assert np.abs(recon_weight(alpha, u, x)).max() <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            recon_weight(D("10"), [[0.1]], [[0.2]])


class TestTermWeights:
    R, F, L = Weight.RECON, Weight.FLAT, Weight.LOCAL

    def test_shapes(self):
        assert term_weights(D("101")) == (self.R, self.F, self.R)
        assert term_weights(D("100"), [0, 1]) == (self.R, self.F, self.L)
        # A plain average is the zero index's term over its set.
        assert term_weights(D("000"), D("010").support) == (self.L, self.F, self.L)
        assert term_weights(D("00"), ()) == (self.L, self.L)

    def test_derivative_outside_coords_rejected(self):
        with pytest.raises(ValidationError, match=r"^alpha 001 differentiates outside the active coordinates$"):
            term_weights(D("001"), [0, 1])

    @pytest.mark.parametrize("coords, bad", [([0, 5], 5), ([0, -1], -1), ([2], 2)])
    def test_coordinate_outside_range_rejected(self, coords, bad):
        # Such coordinates were dropped: [0, 5] gave (RECON, LOCAL).
        with pytest.raises(ValidationError, match=rf"^coordinate {bad} is outside 0\.\.1$"):
            term_weights(D("10"), coords)

    def test_plan_terms_are_term_weights(self):
        for k in (1, 2, 3):
            for ell in range(k + 1):
                for t in build_term_plan(k, range(k), ell).terms:
                    integrated = [i for i, w in enumerate(t.weights) if w is not Weight.LOCAL]
                    assert t.weights == term_weights(t.deriv, integrated)


# Points just outside the unit interval; each was clamped to 0 or 1.
_OUTSIDE = [-0.5, 1.5, 1.0 + 2.0**-52]


class TestLineRules:
    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
    def test_each_shape_integrates_exactly(self, x):
        exact = {
            Weight.FLAT: (1.0, 0.5),
            Weight.CUM: (x, x**2 / 2),
            Weight.RAMP: (0.5, 1.0 / 6.0),
            Weight.RECON: (x**2 / 2 - (1 - x) ** 2 / 2, x**2 / 2 - 1.0 / 6.0),
        }
        for kind, (mass, first) in exact.items():
            t, w = QUAD.line_rule(kind, x)
            assert w.sum() == pytest.approx(mass, abs=1e-14)
            assert (w * t).sum() == pytest.approx(first, abs=1e-14)

    @pytest.mark.parametrize("x", _OUTSIDE + [np.nan])
    def test_coordinate_outside_the_unit_interval_rejected(self, x):
        for kind in (Weight.FLAT, Weight.CUM, Weight.RAMP, Weight.RECON):
            with pytest.raises(ValidationError, match=r"^evaluation coordinate .* lies outside \[0, 1\]$"):
                QUAD.line_rule(kind, x)

    def test_local_is_not_integrable(self):
        with pytest.raises(ValidationError, match="not integrable"):
            QUAD.line_rule(Weight.LOCAL, 0.5)

    @pytest.mark.parametrize("nodes", [0, -1, 2.5])
    def test_nodes_must_be_a_positive_integer(self, nodes):
        with pytest.raises(ValidationError, match="quadrature nodes must be an integer >= 1"):
            Quadrature(nodes)


def _meshgrid_rule(x, axes):
    """Reference tensor rule from meshgrid copies of nodes and weights and
    tiled pinned coordinates; no axes give the single point x."""
    if not axes:
        return x[None, :], np.ones(1)
    grids = np.meshgrid(*[t for _, t, _ in axes], indexing="ij")
    wgrids = np.meshgrid(*[w for _, _, w in axes], indexing="ij")
    pts = np.tile(x, (grids[0].size, 1))
    for (i, _, _), g in zip(axes, grids):
        pts[:, i] = g.ravel()
    wprod = np.ones(grids[0].size)
    for wg in wgrids:
        wprod *= wg.ravel()
    return pts, wprod


@st.composite
def _tensor_problems(draw):
    k = draw(st.integers(1, 4))
    coords = draw(st.permutations(range(k)))[: draw(st.integers(0, min(k, 3)))]
    values = st.floats(-1e3, 1e3)
    x = np.array(draw(st.lists(values, min_size=k, max_size=k)))
    axes = []
    for i in coords:
        size = draw(st.integers(0, 4))
        t = np.array(draw(st.lists(values, min_size=size, max_size=size)))
        w = np.array(draw(st.lists(values, min_size=size, max_size=size)))
        axes.append((i, t, w))
    return x, axes


class TestTensorRule:
    @settings(max_examples=300, deadline=None)
    @given(_tensor_problems())
    @example((np.array([0.3, -0.0]), []))
    @example((np.array([0.3, 0.6, 0.9]), [(2, np.array([0.1, 0.5]), np.array([0.5, 0.5])), (0, np.empty(0), np.empty(0))]))
    def test_bitwise_equal_to_meshgrid_construction(self, problem):
        x, axes = problem
        pts, w = tensor_rule(x, axes)
        want_pts, want_w = _meshgrid_rule(x, axes)
        assert pts.shape == want_pts.shape and pts.tobytes() == want_pts.tobytes()
        assert w.shape == want_w.shape and w.tobytes() == want_w.tobytes()


class TestWeightedIntegral:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bitwise_equal_to_the_materialized_rule(self, k):
        # The sum of g^alpha times the weights over the rows of tensor_rule.
        x = np.array([0.3, 0.7, 0.45][:k])
        kinds = [Weight.RECON, Weight.CUM, Weight.LOCAL, Weight.FLAT, Weight.RAMP]
        for g in polynomial_suite(k) + analytic_suite(k):
            for shift in range(len(kinds)):
                weights = [kinds[(i + shift) % len(kinds)] for i in range(k)]
                axes = [(i, *QUAD.line_rule(w, x[i])) for i, w in enumerate(weights) if w is not Weight.LOCAL]
                pts, wprod = tensor_rule(x, axes)
                for alpha in subindices(DerivIndex.ones(k)):
                    want = float(np.sum(g.deriv(alpha, pts) * wprod))
                    assert weighted_integral(g.partial(alpha), weights, x, QUAD) == want

    @pytest.mark.parametrize("k", [1, 2])
    def test_point_array_integrand_rejected(self, k):
        # The integrand gets k coordinate columns, not an (m, k) point array.
        g = polynomial_suite(k)[0]
        with pytest.raises(ValidationError, match="pts"):
            weighted_integral(lambda pts: g(pts), _avg(DerivIndex.ones(k)), [0.5] * k, QUAD)


_KINDS = [Weight.RECON, Weight.CUM, Weight.LOCAL, Weight.FLAT, Weight.RAMP]
# The univariate (f, f') pairs that analytic_suite multiplies.
_ANALYTIC_FACTORS = [
    (np.exp, np.exp),
    (lambda t: np.sin(t + 0.3), lambda t: np.cos(t + 0.3)),
    (lambda t: np.cos(0.7 * t), lambda t: -0.7 * np.sin(0.7 * t)),
]


def _assert_separable_matches_tensor_rule(g, alpha, weights, x, quad):
    want = weighted_integral(g.partial(alpha), weights, x, quad)
    got = separable_integral(g, alpha, weights, x, quad)
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (g, alpha, weights, x, got, want)


@st.composite
def _separable_problems(draw):
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        exps = st.tuples(*[st.integers(0, 3)] * k)
        coefs = st.floats(-2.0, 2.0, allow_nan=False)
        g = poly_function(k, draw(st.dictionaries(exps, coefs, min_size=1, max_size=5)))
    else:
        g = product_function([draw(st.sampled_from(_ANALYTIC_FACTORS)) for _ in range(k)])
    alpha = DerivIndex(tuple(draw(st.integers(0, 1)) for _ in range(k)))
    weights = [Weight.RECON if bit else draw(st.sampled_from(_KINDS[1:])) for bit in alpha.bits]
    x = np.array([draw(st.floats(0.0, 1.0)) for _ in range(k)])
    return g, alpha, weights, x, Quadrature(draw(st.sampled_from([1, 4, 16])))


@st.composite
def _test_functions(draw, k):
    """A polynomial (exponents 0-3, up to 5 terms) or an analytic product,
    labelled "g" or "h", so that labels repeat across functions."""
    label = draw(st.sampled_from(["g", "h"]))
    if draw(st.booleans()):
        exps = st.tuples(*[st.integers(0, 3)] * k)
        coefs = st.floats(-2.0, 2.0, allow_nan=False)
        return poly_function(k, draw(st.dictionaries(exps, coefs, min_size=1, max_size=5)), label)
    return product_function([draw(st.sampled_from(_ANALYTIC_FACTORS)) for _ in range(k)], label)


@st.composite
def _shared_cache_problems(draw):
    """Functions of one k and integrals of them, in an order that mixes the
    functions; coordinates and node counts come from small sets as well, so
    that integrals share rules, factors and points."""
    k = draw(st.integers(1, 3))
    funcs = draw(st.lists(_test_functions(k), min_size=1, max_size=4))
    coord = st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0)
    query = st.tuples(
        st.integers(0, len(funcs) - 1),
        st.tuples(*[st.integers(0, 1)] * k),
        st.tuples(*[st.sampled_from(_KINDS)] * k),
        st.tuples(*[coord] * k),
        st.sampled_from([1, 4]),
    )
    return funcs, draw(st.lists(query, min_size=1, max_size=12))


def _equal_labels():
    # Two functions with one label and different values.
    f = poly_function(2, {(1, 1): 1.0}, "g")
    g = poly_function(2, {(1, 1): 2.0}, "g")
    weights = (Weight.RECON, Weight.LOCAL)
    return [f, g], [(i, (1, 1), weights, (0.3, 0.7), 4) for i in (0, 1, 0)]


def _identical_terms():
    # Two polynomials with identical terms (so one label), then a function
    # whose factors differ on the same rules.
    terms = {(2, 1): 1.0, (0, 3): 0.3, (1, 0): -0.5}
    funcs = [poly_function(2, terms), poly_function(2, dict(terms)), poly_function(2, {(3, 2): 1.0, (0, 1): 2.0})]
    weights = (Weight.FLAT, Weight.CUM)
    return funcs, [(i, (0, 0), weights, (0.5, 0.5), 4) for i in (0, 1, 2, 0)]


@st.composite
def _point_set_problems(draw):
    """One integrand of k = 1, 2 or 3 and a set of points in the cube with
    repeats, coordinates at the faces among them, and an order to permute
    it by."""
    k = draw(st.integers(1, 3))
    g = draw(_test_functions(k))
    alpha = DerivIndex(tuple(draw(st.integers(0, 1)) for _ in range(k)))
    weights = tuple(draw(st.sampled_from(_KINDS)) for _ in range(k))
    coord = st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0)
    pts = draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=8))
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    order = draw(st.permutations(range(len(pts))))
    return g, alpha, weights, tuple(pts), order, Quadrature(draw(st.sampled_from([1, 4, 16])))


def _local_point_set():
    # LOCAL and split coordinates, faces and a repeat.
    g = analytic_suite(3)[0]
    pts = ((0.3, 0.0, 1.0), (1.0, 0.3, 0.0), (0.3, 0.0, 1.0), (0.5, 0.5, 0.5))
    return g, D("110"), (Weight.RECON, Weight.CUM, Weight.LOCAL), pts, (3, 1, 0, 2), QUAD


@st.composite
def _bad_point_sets(draw):
    """Good points, then a point outside the cube, not finite or of another
    width, then more points of either kind; and that first bad point."""
    k = draw(st.integers(1, 3))
    g = draw(_test_functions(k))
    alpha = DerivIndex(tuple(draw(st.integers(0, 1)) for _ in range(k)))
    weights = tuple(draw(st.sampled_from(_KINDS)) for _ in range(k))
    good = st.tuples(*[st.floats(0.0, 1.0)] * k)
    outside = st.sampled_from([-0.5, 1.5, 1 + 2**-52, float("nan"), float("inf"), -float("inf")])
    if draw(st.booleans()):
        bad = list(draw(good))
        bad[draw(st.integers(0, k - 1))] = draw(outside)
        bad = tuple(bad)
    else:
        bad = tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).filter(lambda x: len(x) != k)))
    rest = draw(st.lists(good | st.tuples(*[outside] * k), max_size=3))
    pts = draw(st.lists(good, max_size=3)) + [bad] + rest
    return g, alpha, weights, tuple(pts), bad


class TestSeparableIntegral:
    """separable_integral takes weighted_integral's tensor rule of a test
    function's partial as a sum of products of line sums."""

    @pytest.mark.parametrize("nodes", [4, 16, 32])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_tensor_rule(self, k, nodes):
        quad = Quadrature(nodes)
        # An interior point and every corner: the faces x_i = 0 and 1 empty
        # a CUM panel and leave RECON one panel.
        points = [np.array([0.3, 0.7, 0.45][:k])] + [np.array(c, dtype=float) for c in itertools.product((0, 1), repeat=k)]
        for g in polynomial_suite(k) + analytic_suite(k):
            for x in points:
                for shift in range(len(_KINDS)):
                    weights = [_KINDS[(i + shift) % len(_KINDS)] for i in range(k)]
                    for alpha in subindices(DerivIndex.ones(k)):
                        _assert_separable_matches_tensor_rule(g, alpha, weights, x, quad)

    @settings(max_examples=200, deadline=None)
    @given(_separable_problems())
    def test_matches_the_tensor_rule_on_random_functions(self, problem):
        _assert_separable_matches_tensor_rule(*problem)

    def test_rejects_a_point_of_another_width_or_not_finite(self):
        g = polynomial_suite(2)[0]
        with pytest.raises(ValidationError, match="x has 1 coordinates, weights describe 2"):
            separable_integral(g, D("11"), term_weights(D("11")), [0.5], QUAD)
        with pytest.raises(ValidationError, match="must be finite"):
            separable_integral(g, D("11"), term_weights(D("11")), [0.5, np.nan], QUAD)

    @pytest.mark.parametrize("v", _OUTSIDE)
    @pytest.mark.parametrize("weights", [(Weight.RECON, Weight.RECON), (Weight.RECON, Weight.LOCAL)], ids=["recon", "local"])
    def test_both_integrals_reject_a_point_outside_the_cube(self, weights, v):
        # x1*x2's "11" term at (1.5, 1.5) gave 0.25, its value at (1, 1).
        g = polynomial_suite(2)[0]
        for x in ([v, 0.5], [0.5, v]):
            with pytest.raises(ValidationError, match=r"^evaluation point \[.*\] lies outside the unit cube$"):
                separable_integral(g, D("11"), weights, x, QUAD)
            with pytest.raises(ValidationError, match=r"^evaluation point \[.*\] lies outside the unit cube$"):
                weighted_integral(g.partial(D("11")), weights, x, QUAD)

    @pytest.mark.parametrize("weights", [(Weight.RECON, Weight.RECON), (Weight.RECON, Weight.LOCAL)], ids=["recon", "local"])
    def test_faces_of_the_cube_are_accepted(self, weights):
        g = polynomial_suite(2)[0]
        for x in itertools.product((0.0, 1.0), repeat=2):
            want = weighted_integral(g.partial(D("11")), weights, x, QUAD)
            assert separable_integral(g, D("11"), weights, x, QUAD) == pytest.approx(want, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(_shared_cache_problems())
    @example(_equal_labels())
    @example(_identical_terms())
    def test_a_shared_cache_gives_the_bits_of_a_fresh_one(self, problem):
        funcs, queries = problem
        shared = {}
        for i, bits, weights, x, nodes in queries:
            args = (funcs[i], DerivIndex(bits), weights, np.array(x), Quadrature(nodes))
            got = separable_integral(*args, shared)
            assert got.hex() == separable_integral(*args).hex(), (funcs[i], bits, weights, x, nodes)

    @settings(max_examples=200, deadline=None)
    @given(_point_set_problems())
    @example(_local_point_set())
    def test_a_point_set_gives_the_bits_of_single_points(self, problem):
        g, alpha, weights, pts, order, quad = problem
        got = functionals._IntegralTable().integrals(g, alpha, weights, pts, quad)
        want = [separable_integral(g, alpha, weights, x, quad) for x in pts]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        permuted = tuple(pts[i] for i in order)
        again = functionals._IntegralTable().integrals(g, alpha, weights, permuted, quad)
        assert [v.hex() for v in again] == [got[i].hex() for i in order]

    @settings(max_examples=100, deadline=None)
    @given(_bad_point_sets())
    def test_a_point_set_is_rejected_as_its_first_bad_point(self, problem):
        g, alpha, weights, pts, bad = problem
        with pytest.raises(ValidationError) as single:
            separable_integral(g, alpha, weights, bad, QUAD)
        with pytest.raises(ValidationError) as batched:
            functionals._IntegralTable().integrals(g, alpha, weights, pts, QUAD)
        assert str(batched.value) == str(single.value)

    def test_identity_suite_memory_stays_small(self):
        # The weights alone of one (2 * 32)^3-node tensor grid take 2 MB.
        tracemalloc.start()
        try:
            identity_checks(quad_nodes=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestReconstructionIntegral:
    def test_constant_integrand(self):
        # integral of (u - 1 + 1{u<=x}) du = x - 1/2
        for x in (0.5, 0.3, 0.9):
            val = weighted_integral(_const(1.0), term_weights(D("1")), [x], QUAD)
            assert val == pytest.approx(x - 0.5, abs=1e-13)

    def test_univariate_square(self):
        # the two terms of the exact rewrite of x^2 at x = 0.5: 1/3 and -1/12
        g = poly_function(1, {(2,): 1.0})
        t0 = weighted_integral(g.partial(D("0")), term_weights(D("0")), [0.5], QUAD)
        t1 = weighted_integral(g.partial(D("1")), term_weights(D("1")), [0.5], QUAD)
        assert t0 == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert t1 == pytest.approx(2.0 / 3.0 - 1.0 + 0.25, abs=1e-13)
        assert t0 + t1 == pytest.approx(0.25, abs=1e-12)

    def test_matches_double_resolution_tensor_oracle(self):
        g = poly_function(2, {(3, 0): 1.0, (1, 2): 2.0, (0, 1): -1.0})
        dense = Quadrature(nodes=64)
        for x in ([0.3, 0.8], [0.5, 0.5], [0.9, 0.1]):
            a = weighted_integral(g.partial(D("11")), term_weights(D("11")), x, QUAD)
            b = weighted_integral(g.partial(D("11")), term_weights(D("11")), x, dense)
            assert a == pytest.approx(b, abs=1e-12)


def _pointwise(fn):
    """An integrand of broadcastable coordinate columns that calls ``fn`` on
    each point of their grid."""

    def integrand(cols):
        grid = np.broadcast_arrays(*cols)
        vals = [fn(pt) for pt in zip(*(c.ravel() for c in grid))]
        return np.reshape(vals, grid[0].shape)

    return integrand


class TestIntegrateOperators:
    def test_zero_index_is_identity(self):
        g = analytic_suite(2)[0]
        x = np.array([0.4, 0.7])
        assert weighted_integral(g.partial(D("00")), _avg(D("00")), x, QUAD) == pytest.approx(
            float(g(x[None, :])[0]), abs=1e-14
        )

    def test_full_average_of_constant(self):
        assert weighted_integral(_const(3.5), _avg(D("11")), [0.2, 0.9], QUAD) == pytest.approx(3.5, abs=1e-13)

    def test_partial_average_analytic(self):
        g = poly_function(2, {(1, 1): 1.0})
        val = weighted_integral(g.partial(D("00")), _avg(D("10")), [0.0, 0.4], QUAD)
        assert val == pytest.approx(0.2, abs=1e-13)

    def test_composition_equals_union(self):
        g = analytic_suite(2)[0]
        x = np.array([0.35, 0.65])
        inner = _pointwise(lambda xi: weighted_integral(g.partial(D("00")), _avg(D("01")), xi, QUAD))
        composed = weighted_integral(inner, _avg(D("10")), x, QUAD)
        direct = weighted_integral(g.partial(D("00")), _avg(D("11")), x, QUAD)
        assert composed == pytest.approx(direct, abs=1e-10)

    def test_cumulative_constant(self):
        assert weighted_integral(_const(1.0), _cum(D("1")), [0.7], QUAD) == pytest.approx(0.7, abs=1e-14)

    def test_cumulative_inclusion_exclusion(self):
        g = poly_function(2, {(2, 1): 1.0})  # u1^2 u2 with top partial 2 u1
        top = D("11")
        for x in ([0.3, 0.8], [1.0, 1.0], [0.6, 0.2]):
            val = weighted_integral(g.partial(top), _cum(top), x, QUAD)
            assert val == pytest.approx(x[0] ** 2 * x[1], abs=1e-12)
            assert val == pytest.approx(corner_sum(g.partial(D("00")), x), abs=1e-12)

    def test_cumulative_zero_coordinate(self):
        g = analytic_suite(2)[0]
        assert weighted_integral(g.partial(D("00")), _cum(D("11")), [0.0, 0.5], QUAD) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("weights", [(Weight.CUM,), (Weight.FLAT,), (Weight.RECON,)], ids=["cum", "flat", "recon"])
    def test_non_finite_point_rejected(self, weights, bad):
        # A NaN would drop every panel and give 0.0, an infinity would be clamped to a face.
        with pytest.raises(ValidationError, match="must be finite"):
            weighted_integral(_const(1.0), weights, [bad], QUAD)


class TestDecompositions:
    def test_bilinear(self):
        g = poly_function(2, {(1, 1): 1.0})
        assert _residual(g, _decomposition(2, 2), [0.3, 0.8]) <= 1e-10

    def test_constant_function(self):
        g = poly_function(2, {(0, 0): 4.2})
        assert _residual(g, _decomposition(2, 2), [0.5, 0.5]) <= 1e-12
        # only the order-zero term survives
        assert weighted_integral(g.partial(D("00")), term_weights(D("00")), [0.5, 0.5], QUAD) == pytest.approx(
            4.2, abs=1e-12
        )

    def test_exponential_k3(self):
        g = product_function([(np.exp, np.exp)] * 3)
        assert _residual(g, _decomposition(3, 3), [0.2, 0.5, 0.9]) <= 1e-8

    def test_partial_simple(self):
        g = poly_function(2, {(2, 0): 1.0, (0, 1): 1.0})
        assert _residual(g, _decomposition(2, 1), [0.4, 0.9]) <= 1e-10

    def test_partial_trig_k3(self):
        g = analytic_suite(3)[1]
        assert _residual(g, _decomposition(3, 2), [0.3, 0.6, 0.8]) <= 1e-8


class TestTermPlans:
    def test_full_observation_reduces_to_pure_recon_terms(self):
        for k in (1, 2, 3):
            plan = build_term_plan(k, range(k), 0)
            assert len(plan.terms) == 2**k
            assert all(t.coef == 1 for t in plan.terms)
            assert all(t.free_dims == 0 for t in plan.terms)
            derivs = {t.deriv for t in plan.terms}
            assert derivs == set(subindices(DerivIndex.ones(k)))

    def test_top_only_plan_matches_separable_remainder(self):
        # k = p = 2, ell = 2: one derivative term plus three plain averages
        plan = build_term_plan(2, (0, 1), 2)
        by_label = {t.label: t for t in plan.terms}
        assert by_label["recon[11]"].coef == 1
        assert by_label["avg[10]"].coef == 1
        assert by_label["avg[01]"].coef == 1
        assert by_label["avg[11]"].coef == -1
        # every residual average depends on at most one free coordinate
        assert all(t.free_dims <= 1 for t in plan.terms)

    def test_k3_ell2_coefficients(self):
        plan = build_term_plan(3, (0, 1, 2), 2)
        by_label = {t.label: t.coef for t in plan.terms}
        assert by_label["avg[111]"] == -2
        assert by_label["avg[110]"] == by_label["avg[101]"] == by_label["avg[011]"] == 1
        assert {lab for lab in by_label if lab.startswith("recon")} == {
            "recon[111]",
            "recon[110]",
            "recon[101]",
            "recon[011]",
        }
        assert all(t.free_dims <= 1 for t in plan.terms if t.label.startswith("avg"))

    def test_cardinality_constraints(self):
        for k in (2, 3):
            for p in range(1, k + 1):
                for ell in range(0, p + 1):
                    plan = build_term_plan(k, range(p), ell)
                    for t in plan.terms:
                        if any(w is Weight.RECON for w in t.weights):
                            assert t.deriv.order >= ell

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError, match="precondition"):
            build_term_plan(2, (0,), 2)  # ell > p
        with pytest.raises(ValidationError):
            build_term_plan(2, (), 0)
        with pytest.raises(ValidationError):
            build_term_plan(2, (5,), 0)

    def test_plan_evaluation_sweep(self):
        for k in (1, 2, 3):
            g = polynomial_suite(k)[-1]
            for p in range(1, k + 1):
                for ell in range(0, p + 1):
                    plan = build_term_plan(k, range(p), ell)
                    x = np.full(k, 0.37)
                    assert _residual(g, plan.terms, x) <= 1e-8, (k, p, ell)

    def test_nonprefix_coordinate_subset(self):
        # derivative data on the second coordinate only
        plan = build_term_plan(2, (1,), 0)
        g = poly_function(2, {(2, 1): 1.0, (1, 0): 0.5})
        assert _residual(g, plan.terms, [0.4, 0.8]) <= 1e-10


class TestOperatorIdentity:
    def test_signed_average_identity_alpha_11(self):
        # sum_beta (-1)^|beta| Avg_beta Cum_alpha b^alpha == same sum on b
        g = product_function([(np.sin, np.cos), (lambda t: t**2, lambda t: 2 * t)])
        alpha = D("11")
        x = np.array([0.45, 0.85])
        lhs = rhs = 0.0
        for beta in subindices(alpha):
            sign = (-1.0) ** beta.order
            inner = _pointwise(lambda xi: weighted_integral(g.partial(alpha), _cum(alpha), xi, QUAD))
            lhs += sign * weighted_integral(inner, _avg(beta), x, QUAD)
            rhs += sign * weighted_integral(g.partial(D("00")), _avg(beta), x, QUAD)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestNonparametricDimension:
    def test_full_hierarchy_is_root_n(self):
        k = 4
        observed = set(subindices(DerivIndex.ones(k)))
        assert nonparametric_dimension(k, observed) == 0

    def test_below_diagonal(self):
        k = 4
        observed = set(subindices(DerivIndex.from_support(4, [0, 1, 2])))
        observed.add(D("0001"))
        assert nonparametric_dimension(k, observed) == 1

    def test_northwest_wedge(self):
        k = 4
        observed = {a for a in subindices(DerivIndex.ones(4)) if a.order >= 3}
        observed.add(DerivIndex.zeros(4))
        assert nonparametric_dimension(k, observed) == 2

    def test_bottom_row_plus_one_pair(self):
        k = 4
        observed = {DerivIndex.zeros(4)}
        observed |= {DerivIndex.from_support(4, [i]) for i in range(4)}
        assert nonparametric_dimension(k, observed) == 3
        observed.add(D("1100"))
        assert nonparametric_dimension(k, observed) <= 2

    def test_no_derivatives(self):
        assert nonparametric_dimension(3, {DerivIndex.zeros(3)}) == 3

    def test_requires_function_data(self):
        with pytest.raises(ValidationError):
            nonparametric_dimension(2, {D("10")})

    def test_dimension_limit(self):
        with pytest.raises(ValidationError):
            nonparametric_dimension(13, {DerivIndex.zeros(13)})


class TestIdentitySuite:
    def test_all_checks_pass(self):
        checks = identity_checks()
        failed = [c.name for c in checks if not c.passed]
        assert not failed, failed

    def test_each_integral_is_computed_once_per_run(self, monkeypatch):
        computed = []
        values = functionals._separable_values

        def counted(g, alpha, weights, pts, quad, cache):
            computed.extend((g, alpha, tuple(weights), x, quad.nodes) for x in pts)
            return values(g, alpha, weights, pts, quad, cache)

        monkeypatch.setattr(functionals, "_separable_values", counted)
        identity_checks(quad_nodes=8)
        first = list(computed)
        assert first and len(set(first)) == len(first)
        # The table lives for one run: the next run computes every integral again.
        computed.clear()
        identity_checks(quad_nodes=8)
        assert len(computed) == len(first)

    def test_each_integrand_is_asked_for_once_per_point_set(self, monkeypatch):
        # The default run asks the table for 2 472 (integrand, point) values
        # in 311 calls; a section that asked point by point would make one
        # call per point.
        sizes = []
        integrals = functionals._IntegralTable.integrals

        def counted(table, g, alpha, weights, pts, quad):
            sizes.append(len(pts))
            return integrals(table, g, alpha, weights, pts, quad)

        monkeypatch.setattr(functionals._IntegralTable, "integrals", counted)
        identity_checks()
        assert (len(sizes), sum(sizes)) == (311, 2472)

    def test_each_line_sum_and_value_is_computed_once_per_run(self, monkeypatch):
        # A line sum is told apart by its factor object and its rule's bits,
        # so two rule keys with one rule would show as a repeat; a term list
        # by the function object and alpha, and a value by the function
        # object and the point.  A polynomial's factors are new objects on
        # each call of terms, so the integrals' term lists are counted too
        # (g(x) takes its own, through TestFunction.partial).
        sums, lists, values, inside = [], [], [], []
        separable_values = functionals._separable_values
        line_sum = functionals._line_sum
        terms = functionals.TestFunction.terms
        call = functionals.TestFunction.__call__

        def counted_values(*args):
            inside.append(True)
            try:
                return separable_values(*args)
            finally:
                inside.pop()

        def counted_sum(phi, rule):
            sums.append((phi, rule[0].tobytes(), rule[1].tobytes()))
            return line_sum(phi, rule)

        def counted_terms(g, alpha):
            if inside:
                lists.append((g, alpha))
            return terms(g, alpha)

        def counted_call(g, pts):
            values.extend((g, row.tobytes()) for row in np.atleast_2d(np.asarray(pts, dtype=float)))
            return call(g, pts)

        monkeypatch.setattr(functionals, "_separable_values", counted_values)
        monkeypatch.setattr(functionals, "_line_sum", counted_sum)
        monkeypatch.setattr(functionals.TestFunction, "terms", counted_terms)
        monkeypatch.setattr(functionals.TestFunction, "__call__", counted_call)
        identity_checks(quad_nodes=8)
        first = [len(seen) for seen in (sums, lists, values)]
        for seen in (sums, lists, values):
            assert seen and len(set(seen)) == len(seen)
            seen.clear()
        # Nothing outlives the run: the next one computes them all again.
        identity_checks(quad_nodes=8)
        assert [len(seen) for seen in (sums, lists, values)] == first

    def test_table_keys_on_the_function_not_its_label(self):
        table = functionals._IntegralTable()
        plan = build_term_plan(2, [0, 1], 1)
        x = (0.3, 0.7)
        f = poly_function(2, {(1, 1): 1.0}, "g")
        g = poly_function(2, {(1, 1): 2.0}, "g")
        got = [sum(t.coef * table.integrals(h, t.deriv, t.weights, (x,), QUAD)[0] for t in plan.terms) for h in (f, g, f)]
        want = [
            sum(t.coef * functionals.separable_integral(h, t.deriv, t.weights, x, QUAD) for t in plan.terms)
            for h in (f, g, f)
        ]
        assert got == want
        assert got[0] == pytest.approx(0.21, abs=1e-12) and got[1] == pytest.approx(0.42, abs=1e-12)
        assert [table.values(h, (x,)) for h in (f, g, f)] == [[0.21], [0.42], [0.21]]

    def test_mutated_plan_is_caught_and_named(self, monkeypatch):
        def flip_first(k, coords, ell) -> TermPlan:
            plan = build_term_plan(k, coords, ell)
            first = plan.terms[0]
            bad = Term(-first.coef, first.deriv, first.weights)
            return TermPlan(plan.k, plan.coords, plan.ell, (bad,) + plan.terms[1:])

        monkeypatch.setattr(functionals, "build_term_plan", flip_first)
        checks = identity_checks(quad_nodes=8)
        failing = [c.name for c in checks if not c.passed]
        assert failing and all(name.startswith("plan/") for name in failing)
