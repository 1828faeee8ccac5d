"""Exact integral calculus for reconstructing a function from derivative data.

The reconstruction rests on the one-dimensional identity

    g(x) = int_0^1 g(u) du + int_0^1 (u - 1 + 1{u <= x}) g'(u) du,

whose k-variate tensorization writes g as a signed sum of integrals of its
mixed first partials against bounded weights.  Every weight arising here is a
product over coordinates of one of four univariate shapes:

    FLAT   integrate with weight 1 over [0, 1]
    CUM    integrate with weight 1 over [0, x_i]
    RAMP   integrate with weight (1 - u) over [0, 1]
    RECON  integrate with weight u - 1 + 1{u <= x_i}   (= CUM - RAMP)

plus LOCAL for coordinates that are not integrated at all (they stay fixed at
the evaluation point and, at estimation time, are handled by local kernel
smoothing).  :func:`build_term_plan` runs the iterative expansion that, for a
coordinate subset P of size p and a derivative-availability threshold ell,
rewrites g as

    sum of RECON-type integrals of g^alpha with |alpha| >= ell
  + sum of FLAT-type integrals of g itself over index sets beta with
    |beta| >= p - ell + 1,

which is exactly the structure the dimension-reduced estimators consume.

Every integral applies one panel-split tensor Gauss-Legendre rule, with the
weights of :func:`term_weights` or an explicit tuple of :class:`Weight`.
:func:`weighted_integral` applies it to any integrand of coordinate columns.
A :class:`TestFunction` lists each partial as separable terms, so
:func:`separable_integral` takes the same rule term by term, as products of
one-dimensional sums, and forms no grid.  :func:`identity_checks`
(``derivreg verify``) checks the decompositions and the term plans by
summing such integrals against g itself.  It asks its run's integral table
for each integrand at a whole point set at once; the table's batched
evaluator gives every point the floats of :func:`separable_integral`, which
is its one-point case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb, isfinite
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import DerivIndex, TestFunction, ValidationError, poly_function, product_function
from .kernels import MAX_EDGE_ORDER, MAX_INTERIOR_ORDER, KernelSpec, check_cap, make_edge_kernel, make_interior_kernel

# Largest accepted deviation of a kernel moment j < order from delta_{j0}.
MOMENT_TOL = 1e-10
# The kernel orders that ``derivreg verify`` checks and ``derivreg kernels``
# reports by default, by family.
REPORT_ORDERS = {"interior": (2, 4, 6), "edge": (1, 2, 3, 4, 5)}

__all__ = [
    "Weight",
    "weight_shape",
    "recon_weight",
    "gl_panels",
    "named_kernels",
    "kernel_moment",
    "kernel_moments",
    "moment_check",
    "open_rule",
    "tensor_rule",
    "Quadrature",
    "weighted_integral",
    "separable_integral",
    "term_weights",
    "corner_sum",
    "Term",
    "TermPlan",
    "build_term_plan",
    "nonparametric_dimension",
    "subindices",
    "CheckResult",
    "identity_checks",
    "polynomial_suite",
    "analytic_suite",
]


class Weight(Enum):
    """Per-coordinate weight shapes for the integral terms (see module doc)."""

    LOCAL = "local"
    FLAT = "flat"
    CUM = "cum"
    RAMP = "ramp"
    RECON = "recon"

    # Members are singletons, so equality is identity and so may the hash
    # be: it runs in C, and the integral table hashes weights thousands of
    # times per run.
    __hash__ = object.__hash__


def weight_shape(kind: Weight, u, x):
    """Value at ``u`` of an integrated shape for evaluation coordinate ``x``:
    FLAT 1, CUM 1{u <= x}, RAMP 1 - u, RECON u - 1 + 1{u <= x} (u at u = x).

    LOCAL coordinates are not integrated and have no shape.
    """
    u = np.asarray(u, dtype=float)
    if kind is Weight.FLAT:
        return np.ones_like(u)
    if kind is Weight.CUM:
        return u <= x
    if kind is Weight.RAMP:
        return 1.0 - u
    if kind is Weight.RECON:
        return np.where(u <= x, u, u - 1.0)
    raise ValidationError(f"coordinate weight {kind} is not integrable")


def recon_weight(alpha: DerivIndex, u, x) -> np.ndarray:
    """The product weight  prod_j w_{alpha_j}(u_j, x_j)  with w_0 = 1 and
    w_1(u, x) = u - 1 + 1{u <= x}  (value at equality u = x is u).

    Bounded by 1 in absolute value on the unit cube.  ``u`` and ``x`` may be
    single points or (m, k) arrays of points.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if u.shape[-1] != alpha.k or x.shape[-1] != alpha.k:
        raise ValidationError(
            f"dimension mismatch: alpha k={alpha.k}, u has {u.shape[-1]}, x has {x.shape[-1]}"
        )
    u, x = np.broadcast_arrays(u, x)
    out = np.ones(u.shape[:-1])
    for j in alpha.support:
        out = out * weight_shape(Weight.RECON, u[..., j], x[..., j])
    return out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_panels(nodes: int, breaks) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, ``nodes`` per panel, on every
    nonempty panel between consecutive breakpoints (sorted ascending)."""
    spans = [(lo, hi) for lo, hi in zip(breaks[:-1], breaks[1:]) if hi > lo]
    if not spans:
        return np.empty(0), np.empty(0)
    x, w = _leggauss(nodes)
    ts = [0.5 * (lo + hi) + 0.5 * (hi - lo) * x for lo, hi in spans]
    ws = [0.5 * (hi - lo) * w for lo, hi in spans]
    return np.concatenate(ts), np.concatenate(ws)


def named_kernels(interior=REPORT_ORDERS["interior"], edge=REPORT_ORDERS["edge"]) -> list[tuple[str, KernelSpec]]:
    """Interior kernels, then left and right edge kernels, of the given orders,
    under the names that ``derivreg verify`` and ``derivreg kernels`` report.
    Every order is checked against its family's cap before any is built."""
    for d in interior:
        check_cap("interior kernel order", d, MAX_INTERIOR_ORDER)
    for d in edge:
        check_cap("edge kernel order", d, MAX_EDGE_ORDER)
    specs = [(f"interior-d{d}", make_interior_kernel(d)) for d in interior]
    return specs + [(f"{side}-d{d}", make_edge_kernel(d, side)) for d in edge for side in ("left", "right")]


def kernel_moment(spec: KernelSpec, j: int) -> float:
    """Gauss-Legendre moment  integral t^j kappa(t) dt, exact for polynomials."""
    if j < 0:
        raise ValidationError("moment index must be >= 0")
    # Degree of t^j q(t) w(t): q's degree is the index of its highest
    # nonzero coefficient, so the exact zeros that end q (odd powers of an
    # interior kernel) do not count.
    deg = j + spec._top + 2
    t, w = gl_panels(deg // 2 + 2, spec.support)
    return float(np.sum(w * t**j * spec.eval(t)))


def kernel_moments(spec: KernelSpec) -> list[tuple[int, float, float]]:
    """Rows (j, moment, deviation), j = 0..order: the deviation from delta_{j0}
    below the order, and the moment itself at j = order, which is left free."""
    moments = [kernel_moment(spec, j) for j in range(spec.order + 1)]
    return [(j, m, m - (1.0 if j == 0 else 0.0) if j < spec.order else m) for j, m in enumerate(moments)]


def open_rule(x, axes) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The tensor product of the 1-D rules in ``axes``, a list of
    ``(coordinate, nodes, weights)``, as an open grid: one column per
    coordinate, and the weights on the full grid.

    The column of the a-th axis has shape (1, ..., n_a, ..., 1), with one
    dimension per axis; every other coordinate stays pinned at ``x`` as a
    0-d array.  So the columns broadcast against each other to the grid,
    whose C order (the last axis varies fastest) is the row order of
    :func:`tensor_rule`.  Each weight is the product of its axis weights
    taken in axis order.  No axes give the single point ``x`` with weight 1;
    an empty axis gives an empty grid.
    """
    x = np.asarray(x, dtype=float)
    wprod = np.ones(())
    for _, _, w in axes:
        wprod = np.multiply.outer(wprod, w)
    cols = [np.asarray(v) for v in x]
    for a, (i, t, _) in enumerate(axes):
        cols[i] = np.reshape(t, (1,) * a + (-1,) + (1,) * (len(axes) - a - 1))
    return tuple(cols), wprod


def tensor_rule(x, axes) -> tuple[np.ndarray, np.ndarray]:
    """The rule of :func:`open_rule` with every point materialized: (m, k)
    points and (m,) weights, rows in C order over the axes.

    ``pts`` is the transpose of a (k, m) array, so that filling it and
    reading a coordinate's column both run over contiguous memory.
    """
    cols, wprod = open_rule(x, axes)
    pts = np.empty((len(cols),) + wprod.shape)
    for j, col in enumerate(cols):
        pts[j] = col
    return pts.reshape(len(cols), -1).T, wprod.ravel()


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Legendre rule with per-coordinate panel splitting.

    Panels are split at the evaluation point for CUM/RECON coordinates, so
    the integrand is smooth on every panel and the rule is exact for
    polynomials up to degree 2*nodes - 1 per panel.
    """

    nodes: int = 32

    def __post_init__(self):
        if isinstance(self.nodes, bool) or not isinstance(self.nodes, (int, np.integer)) or self.nodes < 1:
            raise ValidationError(f"quadrature nodes must be an integer >= 1, got {self.nodes!r}")

    def line_rule(self, weight: Weight, x_i: float) -> tuple[np.ndarray, np.ndarray]:
        """Return (nodes, weights) realizing the univariate weighted integral
        for evaluation coordinate ``x_i``, which must lie in [0, 1]."""
        if not 0.0 <= x_i <= 1.0:
            raise ValidationError(f"evaluation coordinate {x_i} lies outside [0, 1]")
        breaks = {Weight.CUM: (0.0, x_i), Weight.RECON: (0.0, x_i, 1.0)}.get(weight, (0.0, 1.0))
        t, w = gl_panels(self.nodes, breaks)
        return t, w * weight_shape(weight, t, x_i)


# The shapes whose line rule splits its panels at the evaluation coordinate.
_SPLIT = (Weight.CUM, Weight.RECON)


def _check_points(pts, weights: Sequence[Weight]) -> None:
    """Raise unless every point of ``pts``, each a sequence of floats, has
    one coordinate in [0, 1] per weight."""
    for x in pts:
        if len(x) != len(weights):
            raise ValidationError(f"x has {len(x)} coordinates, weights describe {len(weights)}")
        if not all(0.0 <= v <= 1.0 for v in x):
            if not all(map(isfinite, x)):
                raise ValidationError(f"evaluation point {list(x)} must be finite")
            raise ValidationError(f"evaluation point {list(x)} lies outside the unit cube")


def _check_point(x, weights: Sequence[Weight]) -> np.ndarray:
    """``x`` as a 1-D float array with one coordinate in [0, 1] per weight."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_points((x.tolist(),), weights)
    return x


def weighted_integral(
    f: Callable[[tuple[np.ndarray, ...]], np.ndarray],
    weights: Sequence[Weight],
    x,
    quad: Quadrature,
) -> float:
    """Tensor-product integral of f against per-coordinate weights.

    LOCAL coordinates are pinned at ``x``; all others are integrated with
    their weight shape.  ``f`` takes the k coordinate columns of
    :func:`open_rule`, arrays that broadcast against each other (a LOCAL
    coordinate is a 0-d array), and returns values that broadcast to their
    grid; :meth:`TestFunction.partial` is such an integrand.  Memory is the
    grid's weights and products: no (m, k) point array is formed.  A
    :class:`TestFunction`'s partial needs no grid: see
    :func:`separable_integral`.
    """
    x = _check_point(x, weights)
    axes = [
        (i, *quad.line_rule(wkind, float(x[i])))
        for i, wkind in enumerate(weights)
        if wkind is not Weight.LOCAL
    ]
    cols, wprod = open_rule(x, axes)
    vals = np.asarray(f(cols), dtype=float)
    # Summing the flat C-order products keeps the rows and the pairwise
    # summation of the materialized tensor rule.
    return float(np.sum((vals * wprod).ravel()))


def _line_sum(phi: Callable | None, rule: tuple[np.ndarray, np.ndarray]) -> float:
    """sum(w * phi(t)) over the line rule ``(t, w)``; ``phi`` ``None`` is the
    factor 1."""
    t, w = rule
    return float(np.sum(w if phi is None else w * phi(t)))


def _factor(phi: Callable | None, site, cache: dict) -> float:
    """A term's factor on one coordinate: the line sum of ``phi`` over the
    rule that ``site`` keys, or phi(x_i) where ``site`` is the LOCAL
    coordinate x_i.  Kept in ``cache`` under the factor object and the
    site."""
    key = (phi, site)
    if key not in cache:
        if type(site) is tuple:
            cache[key] = _line_sum(phi, cache[site])
        else:
            cache[key] = 1.0 if phi is None else float(phi(np.float64(site)))
    return cache[key]


def _separable_values(g: TestFunction, alpha: DerivIndex, weights: Sequence[Weight], pts, quad: Quadrature, cache: dict) -> list[float]:
    """:func:`separable_integral` at each point of ``pts``, tuples of floats
    that :func:`_check_points` has passed, with ``cache`` as its ``rules``.

    Each coordinate's site at a point is the key of its line rule, or x_i
    where the coordinate is LOCAL.  A coordinate's points share few sites
    (FLAT and RAMP rules one), so each term takes its factor once per
    distinct site and multiplies it into every point that has that site.
    """
    terms = cache.get((g, alpha.bits))
    if terms is None:
        terms = cache[g, alpha.bits] = g.terms(alpha)
    # Per coordinate: its distinct sites, and each point's index among them.
    columns = []
    for i, wkind in enumerate(weights):
        if wkind is Weight.LOCAL or wkind in _SPLIT:
            seen: dict = {}
            index = [seen.setdefault(x[i], len(seen)) for x in pts]
            coords = list(seen)
        else:
            # A FLAT or RAMP rule does not depend on x_i: one site serves all.
            coords, index = [pts[0][i]], [0] * len(pts)
        if wkind is Weight.LOCAL:
            columns.append((coords, index))
            continue
        sites = []
        for x_i in coords:
            site = (wkind, x_i if wkind in _SPLIT else None, quad.nodes)
            if site not in cache:
                cache[site] = quad.line_rule(wkind, x_i)
            sites.append(site)
        columns.append((sites, index))
    # Per point: coef times its factors in coordinate order, and the terms
    # summed in order from 0.0, so a point's floats do not depend on the
    # set it comes in.
    totals = [0.0] * len(pts)
    for coef, factors in terms:
        values = [coef] * len(pts)
        for (sites, index), phi in zip(columns, factors):
            at = [_factor(phi, site, cache) for site in sites]
            values = [v * at[j] for v, j in zip(values, index)]
        totals = [total + v for total, v in zip(totals, values)]
    return totals


def separable_integral(
    g: TestFunction,
    alpha: DerivIndex,
    weights: Sequence[Weight],
    x,
    quad: Quadrature,
    rules: dict | None = None,
) -> float:
    """The :func:`weighted_integral` of g's ``alpha`` partial, taken term by
    term with one-dimensional sums.

    The tensor rule of a product of univariate factors is the product of
    their line sums.  So each term of :meth:`TestFunction.terms` contributes
    its coefficient times, in coordinate order, sum(w * phi(t)) over the
    line rule of each integrated coordinate and phi(x_i) for each LOCAL one
    (a factor of ``None`` is 1); the terms are summed in order.  The value
    equals the tensor rule's up to rounding, and no grid is formed.  This is
    the one-point case of the batched evaluator that
    :meth:`_IntegralTable.integrals` uses, so both give the same floats.

    ``rules`` is the cache of a run: calls that share one dict compute each
    term list ``g.terms(alpha)``, line rule, line sum and LOCAL factor value
    once, and return the floats a fresh dict gives.  The keys are the
    function object (never its label) with alpha; a rule's shape, node
    count and x_i, which FLAT and RAMP rules do not depend on; the factor
    object with its rule's key, or with x_i where it is LOCAL.
    """
    x = _check_point(x, weights)
    cache = {} if rules is None else rules
    return _separable_values(g, alpha, weights, (tuple(x.tolist()),), quad, cache)[0]


# ---------------------------------------------------------------------------
# Term weights and the integral table
# ---------------------------------------------------------------------------


class _IntegralTable:
    """The integrals and function values of one :func:`identity_checks` run.

    ``integrals(g, alpha, weights, pts, quad)`` is the weighted integral of
    g's alpha partial at each point of ``pts``, a sequence of float tuples,
    and ``values(g, pts)`` is g at each point.  Each asks for its integrand,
    or g, once per point set: the points not seen before are checked and
    evaluated in one call (of :func:`_separable_values`, or of g), and every
    value is kept while the table lives, as are the term lists, line rules,
    line sums and LOCAL factor values of :func:`separable_integral`'s cache.
    Keys hold the function object, not its label.  An integral's key is g,
    alpha, the weights and the node count, then the point: the points of one
    integrand share the first four, and so store them once.
    """

    def __init__(self):
        self._integrals: dict[tuple, dict[tuple[float, ...], float]] = {}
        self._values: dict[TestFunction, dict[tuple[float, ...], float]] = {}
        self._cache: dict = {}

    def integrals(self, g: TestFunction, alpha: DerivIndex, weights: Sequence[Weight], pts, quad: Quadrature) -> list[float]:
        weights = tuple(weights)
        at = self._integrals.setdefault((g, alpha.bits, weights, quad.nodes), {})
        new = [x for x in dict.fromkeys(pts) if x not in at]
        if new:
            _check_points(new, weights)
            at.update(zip(new, _separable_values(g, alpha, weights, new, quad, self._cache)))
        return [at[x] for x in pts]

    def values(self, g: TestFunction, pts) -> list[float]:
        at = self._values.setdefault(g, {})
        new = [x for x in dict.fromkeys(pts) if x not in at]
        if new:
            at.update(zip(new, g(np.array(new, dtype=float)).tolist()))
        return [at[x] for x in pts]


def term_weights(alpha: DerivIndex, coords: Iterable[int] | None = None) -> tuple[Weight, ...]:
    """The weights of a term that integrates ``alpha``'s partial over
    ``coords`` (default: all k): RECON on the support of ``alpha``, FLAT on
    the rest of ``coords``, LOCAL elsewhere.  A plain average over a set S
    is the term of the zero index over S.  Raises on a coordinate outside
    0..k-1."""
    active = set(range(alpha.k)) if coords is None else set(coords)
    outside = active.difference(range(alpha.k))
    if outside:
        raise ValidationError(f"coordinate {min(outside)} is outside 0..{alpha.k - 1}")
    if not alpha.support <= active:
        raise ValidationError(f"alpha {alpha} differentiates outside the active coordinates")
    return tuple(
        (Weight.RECON if alpha.bits[i] else Weight.FLAT) if i in active else Weight.LOCAL
        for i in range(alpha.k)
    )


def corner_sum(f: Callable[[tuple[np.ndarray, ...]], np.ndarray], x) -> float:
    """Signed corner sum  sum_gamma (-1)^{|gamma|} f(x with gamma-coords zeroed).

    Equals the full cumulative integral of f's top mixed partial, the
    :func:`weighted_integral` with CUM on every coordinate; ``derivreg
    verify`` checks the two against each other.  ``f`` is an integrand of k
    coordinate columns, here each a 0-d array, as in :func:`weighted_integral`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k = x.shape[0]
    total = 0.0
    for gamma in itertools.product((0, 1), repeat=k):
        pt = np.where(np.asarray(gamma, dtype=bool), 0.0, x)
        total += (-1) ** sum(gamma) * float(f(tuple(np.asarray(v) for v in pt)))
    return total


def subindices(alpha: DerivIndex) -> list[DerivIndex]:
    """All derivative indices whose support is contained in alpha's."""
    sup = sorted(alpha.support)
    out = []
    for r in range(len(sup) + 1):
        for combo in itertools.combinations(sup, r):
            out.append(DerivIndex.from_support(alpha.k, combo))
    return out


# ---------------------------------------------------------------------------
# Term plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One signed integral term: coef times the weighted integral of g^deriv.

    ``weights[i]`` is LOCAL exactly for the coordinates that remain free (to
    be kernel-smoothed at estimation time or pinned at x in quadrature).
    """

    coef: int
    deriv: DerivIndex
    weights: tuple[Weight, ...]

    @property
    def free_dims(self) -> int:
        return sum(1 for w in self.weights if w is Weight.LOCAL)

    @property
    def label(self) -> str:
        if any(w is Weight.RECON for w in self.weights):
            return f"recon[{self.deriv}]"
        flat = "".join("1" if w is Weight.FLAT else "0" for w in self.weights)
        return f"avg[{flat}]"


@dataclass(frozen=True)
class TermPlan:
    """A complete rewrite of g as a signed sum of integral terms."""

    k: int
    coords: tuple[int, ...]
    ell: int
    terms: tuple[Term, ...]

    @property
    def required_indices(self) -> tuple[DerivIndex, ...]:
        seen = sorted({t.deriv for t in self.terms}, key=lambda d: d.bits)
        return tuple(seen)


def build_term_plan(k: int, coords: Iterable[int], ell: int) -> TermPlan:
    """Expand g into estimable terms for derivative data on a coordinate subset.

    ``coords`` is the 0-based subset P of coordinates with derivative data;
    ``ell`` is the smallest derivative order observed (order-0 data on g
    itself is always assumed available).  The expansion starts from the
    inclusion-exclusion identity on P and iteratively rewrites every plain
    average over too few coordinates, until each remaining term is either

      * a RECON-type integral of g^alpha with |alpha| >= ell (alpha inside P), or
      * a FLAT-type average of g over >= p - ell + 1 coordinates of P.

    Terms with identical shape are merged by summing integer coefficients.
    """
    coords = tuple(sorted(set(int(c) for c in coords)))
    p = len(coords)
    if k < 1:
        raise ValidationError(f"need k >= 1, got k={k}")
    if p < 1 or any(c < 0 or c >= k for c in coords):
        raise ValidationError(f"coords {coords} must be a nonempty subset of 0..{k - 1}")
    if not 0 <= ell <= p:
        raise ValidationError(f"need 0 <= ell <= p, got ell={ell}, p={p} (precondition)")

    cs = frozenset(coords)
    psi: dict[tuple[DerivIndex, tuple[Weight, ...]], int] = {}
    resid: dict[frozenset[int], int] = {frozenset(): 1}

    def add_psi(recon_set: frozenset[int], flat_set: frozenset[int], coef: int) -> None:
        deriv = DerivIndex.from_support(k, recon_set)
        key = (deriv, term_weights(deriv, recon_set | flat_set))
        psi[key] = psi.get(key, 0) + coef

    # Expand averages in order of support size; expansion only creates larger ones.
    for size in range(0, p - ell + 1):
        for beta in [b for b in list(resid) if len(b) == size]:
            coef = resid.pop(beta)
            comp = cs - beta
            if not comp:
                # Full average over P: already an order-0 RECON-type term.
                add_psi(frozenset(), beta, coef)
                continue
            add_psi(comp, beta, coef)
            rest = sorted(comp)
            for r in range(1, len(rest) + 1):
                for combo in itertools.combinations(rest, r):
                    key = beta | frozenset(combo)
                    resid[key] = resid.get(key, 0) + coef * (-1) ** (r + 1)

    terms = []
    for (deriv, weights), coef in psi.items():
        if coef:
            terms.append(Term(coef, deriv, weights))
    for beta, coef in resid.items():
        if coef:
            terms.append(Term(coef, DerivIndex.zeros(k), term_weights(DerivIndex.zeros(k), beta)))
    terms.sort(key=lambda t: (t.deriv.bits, tuple(w.value for w in t.weights)))

    plan = TermPlan(k=k, coords=coords, ell=ell, terms=tuple(terms))
    _check_plan(plan, p)
    return plan


def _check_plan(plan: TermPlan, p: int) -> None:
    cs = set(plan.coords)
    for t in plan.terms:
        integrated = {i for i, w in enumerate(t.weights) if w is not Weight.LOCAL}
        if not t.deriv.support <= integrated:
            raise AssertionError(f"term {t} differentiates a free coordinate")
        if any(w is Weight.RECON for w in t.weights):
            assert integrated == cs, "derivative terms must integrate all of P"
            assert t.deriv.order >= plan.ell, "derivative term below the observed order"
        elif t.deriv.order > 0:
            raise AssertionError("non-RECON term with a derivative index")
        elif integrated != cs:
            assert len(integrated) >= p - plan.ell + 1, "residual average over too few coordinates"


def _residuals(g: TestFunction, terms: Iterable[Term], pts, quad: Quadrature, table: _IntegralTable) -> list[float]:
    """|g(x) - sum of t.coef * integral(g, t.deriv, t.weights, x, quad)| at
    each point x of ``pts``, the sum taken in term order, from ``table``:
    zero up to quadrature error when ``terms`` rewrite g exactly, as a
    plan's terms or the 2^p decomposition terms do."""
    totals = [0.0] * len(pts)
    for t in terms:
        totals = [total + t.coef * v for total, v in zip(totals, table.integrals(g, t.deriv, t.weights, pts, quad))]
    return [abs(gx - total) for gx, total in zip(table.values(g, pts), totals)]


# ---------------------------------------------------------------------------
# Nonparametric dimension bound
# ---------------------------------------------------------------------------


def nonparametric_dimension(k: int, observed: Iterable[DerivIndex]) -> int:
    """Upper bound on the number of coordinates still requiring local averaging.

    Enumerates every coordinate subset P and every order threshold supported
    by the observed derivative indices; each admissible pair (P, ell) bounds
    the dimension by k - p + ell - 1, and the minimum over pairs is returned.
    With no usable derivative data the bound is k.
    """
    if k > 12:
        raise ValidationError(f"dimension search supports k <= 12, got k={k}")
    obs = set(observed)
    if DerivIndex.zeros(k) not in obs:
        raise ValidationError("observed set must contain the all-zero index (data on g)")
    supports = {o.support for o in obs if o.order > 0}

    best = k
    for r in range(1, k + 1):
        for combo in itertools.combinations(range(k), r):
            pset = frozenset(combo)
            present_sizes = [
                sum(1 for s in supports if len(s) == size and s <= pset)
                for size in range(r + 1)
            ]
            # smallest ell such that every order >= ell inside P is fully observed
            ell = None
            for size in range(r, 0, -1):
                if present_sizes[size] == comb(r, size):
                    ell = size
                else:
                    break
            if ell is not None:
                best = min(best, k - r + ell - 1)
    return best


# ---------------------------------------------------------------------------
# Built-in test functions and the identity suite
# ---------------------------------------------------------------------------


def polynomial_suite(k: int) -> list[TestFunction]:
    if k == 1:
        return [
            poly_function(1, {(2,): 1.0}, "x^2"),
            poly_function(1, {(3,): 2.0, (1,): -1.0, (0,): 0.5}, "2x^3-x+1/2"),
        ]
    if k == 2:
        return [
            poly_function(2, {(1, 1): 1.0}, "x1*x2"),
            poly_function(2, {(2, 0): 1.0, (0, 1): 1.0}, "x1^2+x2"),
            poly_function(2, {(2, 1): 1.0, (0, 3): 0.3, (1, 0): -0.5}, "x1^2*x2+.3x2^3-.5x1"),
        ]
    if k == 3:
        return [
            poly_function(3, {(1, 1, 1): 1.0}, "x1*x2*x3"),
            poly_function(3, {(2, 1, 0): 1.0, (0, 1, 1): 1.0, (0, 0, 2): -0.7}, "mixed cubic"),
        ]
    raise ValidationError(f"no built-in polynomial suite for k={k}")


def analytic_suite(k: int) -> list[TestFunction]:
    exp_factor = (np.exp, np.exp)
    sin_factor = (lambda t: np.sin(t + 0.3), lambda t: np.cos(t + 0.3))
    cos_factor = (lambda t: np.cos(0.7 * t), lambda t: -0.7 * np.sin(0.7 * t))
    factors = [exp_factor, sin_factor, cos_factor]
    names = ["exp", "sin", "cos"]
    out = [product_function(factors[:k], label="*".join(names[:k]))]
    if k >= 2:
        out.append(
            product_function([sin_factor] + [cos_factor] * (k - 1), label="sin*cos^(k-1)")
        )
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _grid_points(k: int) -> tuple[tuple[float, ...], ...]:
    """The centre of the cube, then the 2^k points with coordinates 0.3 and
    0.7, as float tuples."""
    return ((0.5,) * k,) + tuple(itertools.product((0.3, 0.7), repeat=k))


def identity_checks(quad_nodes: int = Quadrature.nodes) -> list[CheckResult]:
    """Run the exact-identity suite; each entry is the max residual over a grid.

    The checks share one set of test functions and one
    :class:`_IntegralTable`, and ask it for each integrand and each g at a
    whole point set at once.  So each distinct integral, term list, line
    rule, line sum and value g(x) is computed once per call, and each call
    computes them all afresh.
    """
    quad = Quadrature(nodes=quad_nodes)
    table = _IntegralTable()
    integrals = table.integrals
    polys = {k: polynomial_suite(k) for k in (1, 2, 3)}
    analytic = {k: analytic_suite(k) for k in (1, 2, 3)}
    results: list[CheckResult] = []

    for k in (1, 2, 3):
        pts = _grid_points(k)
        suite = [("poly", g, 1e-10) for g in polys[k]]
        suite += [("analytic", g, 1e-8) for g in analytic[k]]
        # The 2^p terms of the decomposition over coordinates 1..p; the
        # trailing k - p coordinates of each partial stay pinned at x.
        decompositions = [
            [Term(1, beta, term_weights(beta, range(p))) for beta in subindices(DerivIndex.from_support(k, range(p)))]
            for p in range(1, k + 1)
        ]
        worst = [[max(_residuals(g, terms, pts, quad, table)) for _, g, _ in suite] for terms in decompositions]
        # The full reconstruction is the partial one at p = k.
        for (kind, g, tol), r in zip(suite, worst[-1]):
            results.append(CheckResult(f"reconstruction/k={k}/{kind}:{g.label}", r, tol))
        for p, rs in enumerate(worst, 1):
            for (kind, g, tol), r in zip(suite, rs):
                results.append(CheckResult(f"partial-reconstruction/k={k}/p={p}/{kind}:{g.label}", r, tol))

    # Term plans across every admissible (k, coords-prefix, ell).
    for k in (1, 2, 3):
        pts = _grid_points(k)
        funcs = [polys[k][-1], analytic[k][0]]
        for p in range(1, k + 1):
            for ell in range(0, p + 1):
                plan = build_term_plan(k, range(p), ell)
                for g in funcs:
                    r = max(_residuals(g, plan.terms, pts, quad, table))
                    results.append(CheckResult(f"plan/k={k}/p={p}/ell={ell}/{g.label}", r, 1e-8))

    # Operator inclusion-exclusion identity over every index at k <= 3:
    # sum_beta (-1)^|beta| Avg_beta Cum_alpha b^alpha == sum_beta (-1)^|beta| Avg_beta b.
    for k in (1, 2, 3):
        g = analytic[k][0]
        zero = DerivIndex.zeros(k)
        pts = _grid_points(k)
        for alpha in subindices(DerivIndex.ones(k)):
            if alpha.order == 0:
                continue
            lhs = rhs = [0.0] * len(pts)
            for beta in subindices(alpha):
                sign = (-1) ** beta.order
                weights = tuple(
                    Weight.RAMP if beta.bits[i] else Weight.CUM if alpha.bits[i] else Weight.LOCAL for i in range(k)
                )
                lhs = [s + sign * v for s, v in zip(lhs, integrals(g, alpha, weights, pts, quad))]
                rhs = [s + sign * v for s, v in zip(rhs, integrals(g, zero, term_weights(zero, beta.support), pts, quad))]
            worst = max([0.0] + [abs(left - right) for left, right in zip(lhs, rhs)])
            results.append(CheckResult(f"iex-operator/k={k}/alpha={alpha}", worst, 1e-10))

    # Corner-sum identity: full cumulative integral of the top partial.
    for k in (1, 2, 3):
        g = polys[k][-1]
        pts = _grid_points(k)
        cum = integrals(g, DerivIndex.ones(k), (Weight.CUM,) * k, pts, quad)
        f = g.partial(DerivIndex.zeros(k))
        r = max(abs(c - corner_sum(f, x)) for c, x in zip(cum, pts))
        results.append(CheckResult(f"corner-sum/k={k}", r, 1e-10))

    # Reconstruction weight bound |w| <= 1 on a random sample.
    rng = np.random.default_rng(20240213)
    worst = 0.0
    for k in (1, 2, 3):
        u = rng.uniform(size=(10_000, k))
        x = rng.uniform(size=(10_000, k))
        for alpha in subindices(DerivIndex.ones(k)):
            worst = max(worst, float(np.abs(recon_weight(alpha, u, x)).max()) - 1.0)
    results.append(CheckResult("recon-weight-bound", max(worst, 0.0), 1e-12))

    # Composition of plain averages: Avg_a Avg_b == Avg_{a|b}.
    g2 = analytic[2][0]
    zero2 = DerivIndex.zeros(2)
    a, b = DerivIndex.from_string("10"), DerivIndex.from_string("01")
    pts2 = _grid_points(2)

    def avg_b(c):
        # The outer integrand gets coordinate 1's nodes and x_2 (0-d); Avg_b
        # runs at every node in one call.
        x2 = float(c[1])
        return np.array(integrals(g2, zero2, term_weights(zero2, b.support), tuple((u, x2) for u in c[0].tolist()), quad))

    full = integrals(g2, zero2, term_weights(zero2, (a | b).support), pts2, quad)
    comp = max(
        abs(weighted_integral(avg_b, term_weights(zero2, a.support), x, quad) - v) for x, v in zip(pts2, full)
    )
    results.append(CheckResult("avg-compose", comp, 1e-10))

    # Panel-split integral vs dense double-resolution tensor rule.
    alpha = DerivIndex.from_string("11")
    coarse = integrals(g2, alpha, term_weights(alpha), pts2, quad)
    fine = integrals(g2, alpha, term_weights(alpha), pts2, Quadrature(nodes=2 * quad.nodes))
    dense = max(abs(c - f) for c, f in zip(coarse, fine))
    results.append(CheckResult("panel-quadrature-refinement", dense, 1e-10))

    return results


def moment_check(name: str, moments: list[tuple[int, float, float]]) -> CheckResult:
    """The largest |deviation| below the order among :func:`kernel_moments`
    rows, checked against MOMENT_TOL."""
    return CheckResult(name, max(abs(dev) for _, _, dev in moments[:-1]), MOMENT_TOL)


def kernel_checks() -> list[CheckResult]:
    """Moment and endpoint checks for the default :func:`named_kernels`."""
    results = []
    for label, spec in named_kernels():
        results.append(moment_check(f"moment/{label}", kernel_moments(spec)))
        endpoint = max(abs(spec.eval(spec.support[0])), abs(spec.eval(spec.support[1])))
        results.append(CheckResult(f"endpoint/{label}", float(endpoint), 1e-12))
    return results
