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

from .core import DataSet, DerivIndex, ValidationError
from .density import DensityEstimator, loo_at_rows
from .functionals import Quadrature, Term, TermPlan, Weight, build_term_plan, gl_panels, tensor_rule, weight_shape
from .kernels import BandwidthPlan, Workspace, band_sweep, check_bandwidth, check_orders, default_orders, product_kernel

__all__ = [
    "EstimationPlan",
    "FitResult",
    "nonlocal_estimate",
    "smoothed_nonlocal_estimate",
    "fit",
    "nadaraya_watson",
    "nadaraya_watson_grid",
    "limit_covariance",
    "make_grid",
]


def _check_points(pts, k: int) -> np.ndarray:
    """Evaluation points as an (m, k) array of finite points in [0, 1]^k."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
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
    v K prod_{j not in T} a_j.  The distinct points (in the split
    coordinates) are taken in canonical order, in runs whose cell grid stays
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
    keys, key_of = np.unique(pts[:, split], axis=0, return_inverse=True)
    runs = _point_chunks(keys, 2**p * max(ds.n, keys.shape[0]))
    # With no LOCAL coordinate all points form one group, with kernel row 1.
    centres, group = np.unique(pts[:, local], axis=0, return_inverse=True)
    key_of, group = key_of.reshape(-1), group.reshape(-1)
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
    density = np.ones(ds.n) if density is None else np.asarray(density, dtype=float)
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
    term = Term(1, alpha, tuple(Weight.RECON if b else Weight.FLAT for b in alpha.bits))
    return float(_term_column(term, ds, density, pts)[0][0])


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
    leave-one-out density (ones when ``density`` is omitted); 0.0 when no
    design row lies in the kernel window.
    """
    if not 1 <= p < ds.k:
        raise ValidationError(f"need 1 <= p < k for smoothing, got p={p}, k={ds.k}")
    if ds.deriv != beta:
        raise ValidationError(f"dataset holds {ds.deriv}, requested {beta}")
    if not beta.support <= set(range(p)):
        raise ValidationError(f"beta {beta} flags coordinates outside the first p={p}")
    pts, density = _check_one_point(ds, x, density)
    check_bandwidth(h, d, ds.k - p)
    weights = tuple(Weight.RECON if b else Weight.FLAT for b in beta.bits[:p]) + (Weight.LOCAL,) * (ds.k - p)
    term = Term(1, beta, weights)
    return float(_term_column(term, ds, density, pts, h, d)[0][0])


# ---------------------------------------------------------------------------
# Full estimation plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimationPlan:
    """Everything needed to fit: term plan, datasets, kernels, bandwidths.

    ``density`` selects uniform-design weighting ("uniform", weights one) or
    floored leave-one-out weighting ("loo").  k, the derivative coordinates
    and ell are those of ``plan``.
    """

    d: int
    d1: int
    plan: TermPlan
    datasets: Mapping[DerivIndex, DataSet]
    bandwidths: BandwidthPlan = BandwidthPlan()
    density: str = "uniform"
    floor: float = 0.05

    @classmethod
    def build(
        cls,
        k: int,
        coords: Iterable[int],
        ell: int,
        datasets: Mapping[DerivIndex, DataSet],
        d: int | None = None,
        d1: int | None = None,
        bandwidths: BandwidthPlan | None = None,
        density: str = "uniform",
        floor: float = 0.05,
    ) -> "EstimationPlan":
        plan = build_term_plan(k, coords, ell)
        p = len(plan.coords)
        d_def, d1_def = default_orders(k, p)
        d = d_def if d is None else d
        d1 = d1_def if d1 is None else d1
        check_orders(d, d1, k, p)
        if density not in ("uniform", "loo"):
            raise ValidationError(f"density mode must be 'uniform' or 'loo', got {density!r}")
        for idx in plan.required_indices:
            if idx not in datasets:
                raise ValidationError(f"plan needs a dataset for derivative index {idx}")
            ds = datasets[idx]
            if ds.k != k:
                raise ValidationError(f"dataset for {idx} has k={ds.k}, plan has k={k}")
            if ds.deriv != idx:
                raise ValidationError(f"dataset registered under {idx} holds {ds.deriv}")
        return cls(
            d=d,
            d1=d1,
            plan=plan,
            datasets=dict(datasets),
            bandwidths=bandwidths if bandwidths is not None else BandwidthPlan(),
            density=density,
            floor=floor,
        )

    @property
    def p(self) -> int:
        return len(self.plan.coords)


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
    :class:`ValidationError` at the first point whose kernel window holds no
    design row.  Deterministic for fixed inputs and bitwise invariant under
    permutations of the data rows and of the points.
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
        m_free = term.free_dims
        h = plan.bandwidths.h(ds.n, plan.d, m_free) if m_free else None
        col, mass = _term_column(term, ds, density[term.deriv], pts, h, plan.d)
        if not mass.all():
            bad = pts[np.argmin(mass)]
            raise ValidationError(f"term {term.label}: no design points within h={h} of {bad}; increase h")
        contribs[term.label] = term.coef * col
        meta_terms.append(
            {"term": term.label, "coef": term.coef, "n": ds.n, "bandwidth": h, "free_dims": m_free}
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


def nadaraya_watson(
    ds: DataSet,
    x,
    h: float,
    d: int = 2,
    den_floor: float = 0.05,
) -> float:
    """Locally weighted average over all k coordinates (the no-derivative
    baseline) at one point: :func:`nadaraya_watson_grid` without widening.

    Raises when no design point carries kernel mass at x (bandwidth too
    small).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(nadaraya_watson_grid(ds.X, ds.Y, x[None, :], h, d=d, den_floor=den_floor)[0])


def _nw_pass(Xs, Ys, pts, h, family, den_floor):
    """One windowed NW pass over rows ``Xs``, ``Ys`` in canonical order:
    (values, mass) at ``pts``, where ``mass`` flags the points at which some
    design row carries kernel weight."""
    num, den = np.empty(pts.shape[0]), np.empty(pts.shape[0])
    mass = np.empty(pts.shape[0], dtype=bool)
    work = Workspace()
    for idx, rows in band_sweep(Xs, h, pts):
        w = family.weights(pts[idx], Xs[rows], h, work)
        den[idx] = w.sum(axis=1)
        mass[idx] = (w != 0.0).any(axis=1)
        w *= Ys[None, rows]
        num[idx] = w.sum(axis=1)
    # den / n estimates the design density at the point; floor it there.
    return num / np.maximum(den, den_floor * Xs.shape[0]), mass


def nadaraya_watson_grid(
    X: np.ndarray,
    Y: np.ndarray,
    pts: np.ndarray,
    h: float,
    d: int = 2,
    den_floor: float = 0.05,
    widen_on_empty: bool = False,
) -> np.ndarray:
    """Baseline smoother over many evaluation points in the unit cube.

    ``X`` must be 2-D.  ``X`` and ``Y`` become a
    :class:`derivreg.core.DataSet`, so they pass its row checks and the
    caller's arrays stay writable.  ``h`` must pass
    :func:`derivreg.kernels.check_bandwidth`.
    ``den_floor`` (finite and positive) bounds the normalizing density
    estimate away from zero; higher-order edge kernels can otherwise give
    near-zero or negative total weight.  With ``widen_on_empty`` the points
    with no in-window data are re-run at doubled h (at most six times)
    instead of raising; Monte Carlo harnesses use this so one starved window
    cannot abort a replication.

    Data rows are sorted once, in the dataset's canonical order
    (:attr:`derivreg.core.DataSet.order`), and every pass is a sorted-band
    sweep over them (:func:`derivreg.kernels.band_sweep`, which gives its
    tiling, time and memory) with one :class:`derivreg.kernels.Workspace`
    for all its tiles.  Sums run in canonical row order, so the result is
    bitwise invariant under row permutations of (X, Y).
    """
    if np.ndim(X) != 2:
        raise ValidationError(f"X must be a 2-D (n, k) array, got shape {np.shape(X)}")
    k = np.shape(X)[1]
    ds = DataSet(k, DerivIndex.zeros(k), X, Y)
    pts = _check_points(pts, k)
    check_bandwidth(h, d, k)
    if not 0.0 < den_floor < np.inf:
        raise ValidationError(f"den_floor must be finite and positive, got {den_floor}")
    family = product_kernel(d)
    X, Y = ds.X[ds.order], ds.Y[ds.order]
    out, mass = _nw_pass(X, Y, pts, h, family, den_floor)
    left = np.flatnonzero(~mass)
    if left.size and not widen_on_empty:
        raise ValidationError(f"no design points within h={h} of {pts[left[0]]} ({left.size} points); increase h")
    hj = h
    for _ in range(6):
        if not left.size:
            break
        hj *= 2.0
        vals, mass = _nw_pass(X, Y, pts[left], hj, family, den_floor)
        out[left[mass]] = vals[mass]
        left = left[~mass]
    if left.size:
        raise ValidationError(f"no design points near {pts[left[0]]} even after widening")
    return out


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

    ``f`` is the design density (uniform when omitted).  Quadrature panels
    split at both x1 and x2 in every differentiated coordinate, making the
    rule exact for the piecewise-polynomial integrand.
    """
    quad = quad or Quadrature()
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    k = beta.k
    if x1.shape[0] != k or x2.shape[0] != k:
        raise ValidationError("x1/x2 dimension mismatch with beta")

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
    dens = np.ones(pts.shape[0]) if f is None else np.asarray(f(pts), dtype=float)
    return float(sigma2 * np.sum(wprod / dens))


def make_grid(k: int, per_dim: int, offset: float = 0.0) -> np.ndarray:
    """Tensor grid of evaluation points, inset by ``offset`` from each face."""
    if not 0.0 <= offset < 0.5:
        raise ValidationError(f"offset must lie in [0, 0.5), got {offset}")
    axis = np.linspace(offset, 1.0 - offset, per_dim)
    return tensor_rule(np.zeros(k), [(i, axis, np.ones(per_dim)) for i in range(k)])[0]
