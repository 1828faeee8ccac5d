"""Regression estimators built from derivative data.

Every term produced by :func:`derivreg.functionals.build_term_plan` is
estimated by the same sample analogue: responses are multiplied by the term's
nonlocal weights at their own design points, locally smoothed over the term's
free coordinates with an edge-switching product kernel, and divided by a
floored leave-one-out density estimate on non-uniform designs.

Every term is evaluated at all points at once by orthant sums
(:func:`_term_column`), one group of points per value of its free
coordinates: O(groups (n 2^p + cells 2^p)) time and O(2^p n + cells) memory
per term, with p the term's CUM/RECON coordinates and cells the grid between
the points' distinct coordinates.  The floored
leave-one-out densities (:func:`derivreg.density.loo_at_rows`) and the
baseline smoother (:func:`nadaraya_watson_grid`) are sorted-band sweeps
(:func:`derivreg.kernels.band_sweep`).  Summation runs in each
dataset's canonical row order (:attr:`derivreg.core.DataSet.order`), so
results are bit-identical under row permutations and any degree of
parallelism.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .core import DataSet, DerivIndex, ValidationError, as_float_array, distinct_rows
from .density import DENSITY_FLOOR, DensityEstimator, loo_at_rows
from .functionals import Quadrature, Term, TermPlan, Weight, build_term_plan, gl_panels, tensor_rule, term_weights, weight_shape
from .kernels import BandwidthPlan, band_sweep, check_bandwidth, check_cap, check_orders, default_orders, product_kernel

__all__ = [
    "EstimationPlan",
    "FitResult",
    "nonlocal_estimate",
    "smoothed_nonlocal_estimate",
    "fit",
    "nadaraya_watson_grid",
    "limit_covariance",
    "make_grid",
]


def _check_points(pts, k: int) -> np.ndarray:
    """Evaluation points as an (m, k) array of finite points in [0, 1]^k."""
    pts = np.atleast_2d(as_float_array(pts, "evaluation points"))
    if pts.shape[1] != k:
        raise ValidationError(f"evaluation points have {pts.shape[1]} columns, data has k={k}")
    bad = np.flatnonzero(~np.all(np.isfinite(pts) & (pts >= 0.0) & (pts <= 1.0), axis=1))
    if bad.size:
        raise ValidationError(f"evaluation point {pts[bad[0]]} is not a finite point of the unit cube")
    return pts


def _point_chunks(P: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive runs ``lo:hi`` of the distinct sorted rows of ``P`` whose
    cell grids, the product over columns of (distinct values + 1), stay
    within ``budget``; every run holds at least one row."""
    runs, lo = [], 0
    while lo < P.shape[0]:
        # A run's distinct rows never outnumber its cells, so no longer run fits.
        window = P[lo : lo + budget]
        cells = np.ones(window.shape[0])
        for col in window.T:
            first = np.zeros(window.shape[0])
            first[np.unique(col, return_index=True)[1]] = 1.0
            cells *= np.cumsum(first) + 1.0
        hi = lo + max(1, int(np.searchsorted(cells, budget, side="right")))
        runs.append((lo, hi))
        lo = hi
    return runs


def _term_column(
    term: Term, ds: DataSet, density: np.ndarray, pts: np.ndarray, h: float | None = None, d: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Sample analogue of a term at every point, and per point whether any
    design row carries kernel weight there.

    n^-1 sum_i v_i K_h(X_iL - x_L) prod_j shape_j(X_ij, x_j) with
    v = Y / density, L the LOCAL coordinates and K the order-d product kernel
    (one when L is empty).  RAMP factors fold into v, and K, which depends on
    x_L alone, into one kernel row per group of points with equal x_L.  Every
    split shape (CUM, RECON) is a(u) - 1{u > x}, with a = 1 or u, so the
    product over the p split coordinates is a signed sum over subsets T of
    them of orthant sums: rows with u_j > x_j on T, weighted by
    v K prod_{j not in T} a_j.  The distinct points in the split
    coordinates, and the groups, are :func:`derivreg.core.distinct_rows`'s;
    the points run in canonical order, in runs whose cell grid stays
    within 2^p max(n, m) cells, so a tensor grid is one run.  Rows and points
    take cells among the run's distinct point coordinates, counted from the
    top (u > x iff the row's cell is at most the point's); per T and group,
    cumulative sums of the binned rows give every point's orthant sum.  Time
    is O(groups (n 2^p + cells 2^p)) on a tensor grid, memory O(2^p n + cells);
    permuting the rows or the points leaves every value bit for bit.
    """
    X = ds.X[ds.order]
    v = ds.Y[ds.order] / density[ds.order]
    split, base, local = [], [], []
    for j, kind in enumerate(term.weights):
        if kind is Weight.RAMP:
            v = v * weight_shape(kind, X[:, j], 0.0)
        elif kind in (Weight.CUM, Weight.RECON):
            split.append(j)
            base.append(weight_shape(kind, X[:, j], np.inf))  # a(u): no u exceeds x = inf
        elif kind is Weight.LOCAL:
            local.append(j)
    p = len(split)
    subsets = [tuple(a for a in range(p) if t[a]) for t in itertools.product((False, True), repeat=p)]
    vb = [math.prod((base[a] for a in range(p) if a not in T), start=v) for T in subsets]  # v a(u) off T
    first, key_of = distinct_rows(pts[:, split])
    keys = pts[first][:, split]
    runs = _point_chunks(keys, 2**p * max(ds.n, keys.shape[0]))
    # With no LOCAL coordinate all points form one group, with kernel row 1.
    first, group = distinct_rows(pts[:, local])
    centres = pts[first][:, local]
    run_of = np.searchsorted([lo for lo, _ in runs], key_of, side="right") - 1
    order = np.lexsort((group, run_of))  # one stable sort: by run, then by group
    col = np.empty(pts.shape[0])
    mass = np.empty(pts.shape[0], dtype=bool)
    for (lo, hi), block in zip(runs, np.split(order, np.searchsorted(run_of[order], range(1, len(runs))))):
        sizes, plocs, rlocs, flats = [], [], [], []
        for c, j in zip(keys[lo:hi].T, split):
            # With return_inverse, np.unique does not import numpy.ma (about
            # 15 ms of set-up per process).
            grid, loc = np.unique(c, return_inverse=True)
            sizes.append(grid.size + 1)
            plocs.append(grid.size - 1 - loc)
            rlocs.append(grid.size - np.searchsorted(grid, X[:, j], side="left"))
        for T in subsets:
            flat = np.zeros(ds.n, dtype=np.intp)
            for a in T:
                flat = flat * sizes[a] + rlocs[a]
            flats.append(flat)
        for idx in np.split(block, np.flatnonzero(np.diff(group[block])) + 1):
            kern = product_kernel(d).weights(centres[group[idx[0]], None], X[:, local], h)[0]
            mass[idx] = (kern != 0.0).any()
            acc = np.zeros(idx.size)
            for T, w, flat in zip(subsets, vb, flats):
                shape = [sizes[a] for a in T]
                sums = np.bincount(flat, weights=w * kern, minlength=math.prod(shape)).reshape(shape)
                for axis in range(len(T)):
                    sums = np.cumsum(sums, axis=axis)
                orthant = sums[tuple(plocs[a][key_of[idx] - lo] for a in T)]
                acc = acc - orthant if len(T) % 2 else acc + orthant
            col[idx] = acc / ds.n
    return col, mass


def _check_one_point(ds: DataSet, x, density) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as a (1, k) point of the unit cube and ``density`` (ones when
    None) as n finite positive values."""
    pts = _check_points(x, ds.k)
    if pts.shape[0] != 1:
        raise ValidationError(f"x must be one point, got {pts.shape[0]}")
    density = np.ones(ds.n) if density is None else as_float_array(density, "density")
    if density.shape != (ds.n,) or not np.all(np.isfinite(density) & (density > 0.0)):
        raise ValidationError(f"density must hold n={ds.n} finite positive values, one per design row")
    return pts, density


def nonlocal_estimate(
    ds: DataSet,
    alpha: DerivIndex,
    x,
    density: np.ndarray | None = None,
) -> float:
    """Root-n estimate of the reconstruction integral from derivative data.

    n^-1 sum_i Y_i w_alpha(X_i, x), where w_alpha is the reconstruction
    weight.  With ``density`` (floored leave-one-out values at the design
    rows), each summand is divided by its entry; absent, the design is
    treated as uniform.  The one-point call of the evaluator that :func:`fit`
    uses for every term: O(n 2^|alpha|) time.
    """
    if ds.deriv != alpha:
        raise ValidationError(f"dataset holds {ds.deriv}, requested {alpha}")
    pts, density = _check_one_point(ds, x, density)
    return float(_term_column(Term(1, alpha, term_weights(alpha)), ds, density, pts)[0][0])


def smoothed_nonlocal_estimate(
    ds: DataSet,
    beta: DerivIndex,
    x,
    p: int,
    h: float,
    d: int = 2,
    density: np.ndarray | None = None,
) -> float:
    """Partially smoothed estimate: nonlocal over the first p coordinates,
    kernel-smoothed (order d, bandwidth h) over the remaining k - p.

    (n h^(k-p))^-1 sum_i Y_i w_beta(X_i, x) K((X_i^last - x^last)/h) / f_i,
    with K the edge-switching product kernel and f_i the floored
    leave-one-out density (ones when ``density`` is omitted); 0.0 when every
    row's product-kernel weight is exactly zero (on the support's edge, or
    underflowing).
    """
    if not 1 <= p < ds.k:
        raise ValidationError(f"need 1 <= p < k for smoothing, got p={p}, k={ds.k}")
    if ds.deriv != beta:
        raise ValidationError(f"dataset holds {ds.deriv}, requested {beta}")
    term = Term(1, beta, term_weights(beta, range(p)))
    pts, density = _check_one_point(ds, x, density)
    check_bandwidth(h, d, ds.k - p)
    return float(_term_column(term, ds, density, pts, h, d)[0][0])


# ---------------------------------------------------------------------------
# Full estimation plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimationPlan:
    """Everything needed to fit: term plan, datasets, kernels, bandwidths.

    ``density`` selects uniform-design weighting ("uniform", weights one) or
    floored leave-one-out weighting ("loo").  k, the derivative coordinates
    and ell are those of ``plan``.  A plan is checked when it is made: None
    for ``d``, ``d1`` or ``bandwidths`` means the default, the orders must
    pass :func:`derivreg.kernels.check_orders`, d when some term smooths and
    d1 when ``density`` is "loo" must pass :func:`derivreg.kernels.check_cap`,
    ``floor`` must be finite and positive whatever the density mode,
    ``datasets`` (copied) must hold a k-variate dataset under each index the
    term plan requires, and every smoothing term's :meth:`bandwidth` must
    lie below 1/2, so a rejected plan computes nothing.
    """

    plan: TermPlan
    datasets: Mapping[DerivIndex, DataSet]
    d: int | None = None
    d1: int | None = None
    bandwidths: BandwidthPlan | None = None
    density: str = "uniform"
    floor: float = DENSITY_FLOOR

    def __post_init__(self):
        k, p = self.plan.k, self.p
        d, d1 = default_orders(k, p)
        for name, default in (("d", d), ("d1", d1), ("bandwidths", BandwidthPlan())):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        object.__setattr__(self, "datasets", dict(self.datasets))
        check_orders(self.d, self.d1, k, p)
        if self.density not in ("uniform", "loo"):
            raise ValidationError(f"density mode must be 'uniform' or 'loo', got {self.density!r}")
        # An order no term or density uses is not capped.
        if any(t.free_dims for t in self.plan.terms):
            check_cap("kernel order d", self.d)
        if self.density == "loo":
            check_cap("density kernel order d1", self.d1)
        # Checked in every mode, as fit_metadata.json records it in every mode.
        if not 0.0 < self.floor < np.inf:
            raise ValidationError(f"density floor must be finite and positive, got {self.floor}")
        for idx in self.plan.required_indices:
            if idx not in self.datasets:
                raise ValidationError(f"plan needs a dataset for derivative index {idx}")
            ds = self.datasets[idx]
            if ds.k != k:
                raise ValidationError(f"dataset for {idx} has k={ds.k}, plan has k={k}")
            if ds.deriv != idx:
                raise ValidationError(f"dataset registered under {idx} holds {ds.deriv}")
        for term in self.plan.terms:
            self.bandwidth(term)

    @classmethod
    def build(
        cls, k: int, coords: Iterable[int], ell: int, datasets: Mapping[DerivIndex, DataSet], **settings
    ) -> "EstimationPlan":
        """The plan of :func:`derivreg.functionals.build_term_plan` (k,
        coords, ell) over ``datasets``; ``settings`` are the other fields."""
        return cls(build_term_plan(k, coords, ell), datasets, **settings)

    @property
    def p(self) -> int:
        return len(self.plan.coords)

    def bandwidth(self, term: Term) -> float | None:
        """The smoothing bandwidth h of ``term``, None when it smooths no
        coordinate; a :class:`ValidationError` unless h < 1/2."""
        if not term.free_dims:
            return None
        h = self.bandwidths.h(self.datasets[term.deriv].n, self.d, term.free_dims)
        # Term sums are not self-normalized, so h stays below 1/2: above it, points within
        # h of both faces take the interior kernel, whose mass leaves the cube.
        if not h < 0.5:
            raise ValidationError(f"term {term.label}: bandwidth h = {h:.6g} must be below 0.5")
        return h


@dataclass(frozen=True)
class FitResult:
    """Fitted values on a point grid plus per-term contributions."""

    points: np.ndarray
    values: np.ndarray
    contributions: dict[str, np.ndarray]
    metadata: dict


def fit(plan: EstimationPlan, eval_points) -> FitResult:
    """Evaluate the full estimator (sum of per-term sample analogues).

    The fitted value at each point is exactly the sum of the per-term
    contribution columns.  Each term is one call of :func:`_term_column`:
    O(groups (n 2^p + cells 2^p)) time and O(2^p n + cells) memory, and a
    :class:`ValidationError` at the first point where every row's
    product-kernel weight is exactly zero (rows on the support's edge and
    products that underflow weigh zero).  Deterministic for fixed inputs
    and bitwise invariant under permutations of the data rows and points.
    """
    k = plan.plan.k
    pts = _check_points(eval_points, k)

    density: dict[DerivIndex, np.ndarray] = {}
    for idx in plan.plan.required_indices:
        ds = plan.datasets[idx]
        if plan.density == "loo":
            est = DensityEstimator(
                data=ds,
                d1=plan.d1,
                H=plan.bandwidths.H(ds.n, plan.d1, plan.d, k - plan.p),
                floor=plan.floor,
            )
            density[idx] = loo_at_rows(est, floored=True)
        else:
            density[idx] = np.ones(ds.n)

    contribs: dict[str, np.ndarray] = {}
    meta_terms = []
    for term in plan.plan.terms:
        ds = plan.datasets[term.deriv]
        h = plan.bandwidth(term)
        col, mass = _term_column(term, ds, density[term.deriv], pts, h, plan.d)
        if not mass.all():
            bad = pts[np.argmin(mass)]
            raise ValidationError(f"term {term.label}: no design points within h={h} of {bad}; increase h")
        contribs[term.label] = term.coef * col
        meta_terms.append(
            {"term": term.label, "coef": term.coef, "n": ds.n, "bandwidth": h, "free_dims": term.free_dims}
        )

    values = np.zeros(pts.shape[0])
    for label in sorted(contribs):
        values = values + contribs[label]

    metadata = {
        "k": k,
        "coords": list(plan.plan.coords),
        "ell": plan.plan.ell,
        "d": plan.d,
        "d1": plan.d1,
        "density": plan.density,
        "floor": plan.floor,
        "terms": meta_terms,
        "n_per_equation": {str(idx): plan.datasets[idx].n for idx in plan.plan.required_indices},
    }
    return FitResult(points=pts, values=values, contributions=contribs, metadata=metadata)


# ---------------------------------------------------------------------------
# Baseline full-dimensional smoother
# ---------------------------------------------------------------------------


def nadaraya_watson_grid(
    X: np.ndarray,
    Y: np.ndarray,
    pts: np.ndarray,
    h: float,
    d: int = 2,
    den_floor: float = DENSITY_FLOOR,
    widen_on_empty: bool = False,
) -> np.ndarray:
    """Locally weighted average over all k coordinates (the no-derivative
    baseline), at many evaluation points in the unit cube.

    ``X`` must be 2-D.  ``X`` and ``Y`` become a
    :class:`derivreg.core.DataSet`, so they pass its row checks and the
    caller's arrays stay writable.  ``h`` must pass
    :func:`derivreg.kernels.check_bandwidth`.
    ``den_floor`` (finite and positive) bounds the normalizing density
    estimate away from zero; higher-order edge kernels can otherwise give
    near-zero or negative total weight.  With ``widen_on_empty`` the points
    at which every row's product-kernel weight is exactly zero are re-run
    at doubled h (at most six times) instead of raising; Monte Carlo
    harnesses use this so one starved window cannot abort a replication.
    Errors name the first such point in the caller's order.

    Data rows are sorted once, in the dataset's canonical order
    (:attr:`derivreg.core.DataSet.order`), and every pass is a sorted-band
    sweep over them (:func:`derivreg.kernels.band_sweep`, which gives its
    tiling, time and memory) at the distinct points
    (:func:`derivreg.core.distinct_rows`), so each point is evaluated once,
    widening included, in canonical order.  Each pass evaluates its tiles
    through one :class:`derivreg.kernels.KernelSweep`, which chooses each
    point's kernels once and keeps one workspace.  The result is bitwise invariant
    under row permutations of (X, Y) and under permutations and repeats of
    the evaluation points.
    """
    X = as_float_array(X, "X")
    if X.ndim != 2:
        raise ValidationError(f"X must be a 2-D (n, k) array, got shape {X.shape}")
    k = X.shape[1]
    ds = DataSet(k, DerivIndex.zeros(k), X, Y)
    pts = _check_points(pts, k)
    check_bandwidth(h, d, k)
    if not 0.0 < den_floor < np.inf:
        raise ValidationError(f"den_floor must be finite and positive, got {den_floor}")
    family = product_kernel(d)
    X, Y = np.take(ds.X.T, ds.order, axis=1).T, ds.Y[ds.order]  # X in Fortran order, as in loo_at_rows
    first, copy_of = distinct_rows(pts)
    out, left, hj = np.empty(first.size), np.arange(first.size), h
    for _ in range(7):  # h, then at most six doublings
        at = pts[first[left]]
        num, den, mass = np.empty(left.size), np.empty(left.size), np.empty(left.size, dtype=bool)
        sweep = family.sweep(at, X, hj)
        for idx, rows in band_sweep(X, hj, at):
            w = sweep.tile(idx, rows)
            den[idx] = w.sum(axis=1)
            mass[idx] = (w != 0.0).any(axis=1)
            w *= Y[None, rows]
            num[idx] = w.sum(axis=1)
        # den / n estimates the design density at the point; floor it there.
        out[left[mass]] = (num / np.maximum(den, den_floor * ds.n))[mass]
        left, hj = left[~mass], 2.0 * hj
        if not left.size:
            return out[copy_of]
        if not widen_on_empty:
            break
    starved = np.isin(copy_of, left)  # the caller's points still without data
    if not widen_on_empty:
        raise ValidationError(f"no design points within h={h} of {pts[np.argmax(starved)]} ({np.count_nonzero(starved)} points); increase h")
    raise ValidationError(f"no design points near {pts[np.argmax(starved)]} even after widening")


# ---------------------------------------------------------------------------
# Limit covariance of the root-n estimator
# ---------------------------------------------------------------------------


def limit_covariance(
    beta: DerivIndex,
    x1,
    x2,
    sigma2: float,
    f: Callable[[np.ndarray], np.ndarray] | None = None,
    quad: Quadrature | None = None,
) -> float:
    """Covariance kernel of the limiting Gaussian fluctuation of the
    root-n estimator:  sigma^2 * int w_beta(u, x1) w_beta(u, x2) / f(u) du.

    ``f`` is the design density (uniform when omitted), and its values at
    the nodes must be finite and positive.  x1 and x2 are finite points of
    the unit cube and sigma^2 is finite and nonnegative.  Quadrature panels
    split at both x1 and x2 in every differentiated coordinate, making the
    rule exact for the piecewise-polynomial integrand.
    """
    quad = quad or Quadrature()
    x1 = np.atleast_1d(as_float_array(x1, "x1"))
    x2 = np.atleast_1d(as_float_array(x2, "x2"))
    k = beta.k
    if x1.shape != (k,) or x2.shape != (k,):
        raise ValidationError("x1/x2 dimension mismatch with beta")
    _check_points([x1, x2], k)
    if not 0.0 <= sigma2 < np.inf:
        raise ValidationError(f"sigma2 must be finite and nonnegative, got {sigma2}")

    axes = []
    for i in range(k):
        if beta.bits[i]:
            t, w = gl_panels(quad.nodes, sorted((0.0, float(x1[i]), float(x2[i]), 1.0)))
            chi1 = weight_shape(Weight.RECON, t, x1[i])
            chi2 = weight_shape(Weight.RECON, t, x2[i])
            axes.append((i, t, w * (chi1 * chi2)))
        else:
            axes.append((i, *gl_panels(quad.nodes, (0.0, 1.0))))

    pts, wprod = tensor_rule(x1, axes)
    dens = np.ones(pts.shape[0]) if f is None else as_float_array(f(pts), "f values")
    if not np.all(np.isfinite(dens) & (dens > 0.0)):
        raise ValidationError("design density f must return finite positive values")
    return float(sigma2 * np.sum(wprod / dens))


def make_grid(k: int, per_dim: int, offset: float = 0.0) -> np.ndarray:
    """Tensor grid of evaluation points, inset by ``offset`` from each face."""
    if k < 1 or per_dim < 1:
        raise ValidationError(f"a grid needs k >= 1 and per_dim >= 1, got k={k}, per_dim={per_dim}")
    if not 0.0 <= offset < 0.5:
        raise ValidationError(f"offset must lie in [0, 0.5), got {offset}")
    axis = np.linspace(offset, 1.0 - offset, per_dim)
    return tensor_rule(np.zeros(k), [(i, axis, np.ones(per_dim)) for i in range(k)])[0]
