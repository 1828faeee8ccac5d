"""Regression estimators built from derivative data.

Every term produced by :func:`derivreg.functionals.build_term_plan` is
estimated by the same sample analogue: responses are multiplied by the term's
nonlocal weights at their own design points, locally smoothed over the term's
free coordinates with an edge-switching product kernel, and divided by a
floored leave-one-out density estimate on non-uniform designs.  Summation
order is canonicalized so results are bit-identical under row permutations
and any degree of parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .core import DataSet, DerivIndex, ValidationError
from .density import DensityEstimator, loo_at_rows
from .functionals import Quadrature, Term, TermPlan, Weight, build_term_plan, gl_panels, weight_shape
from .kernels import BandwidthPlan, ProductKernel, band_sweep, check_orders, default_orders, product_kernel

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


def _canonical_keys(X: np.ndarray, Y: np.ndarray) -> list[np.ndarray]:
    """Sort keys of the canonical row order, most significant first."""
    return [X[:, j] for j in range(X.shape[1])] + [Y]


def _canonical_order(ds: DataSet) -> np.ndarray:
    """Row order used for all summations: lexicographic in (X columns, Y)."""
    return np.lexsort(_canonical_keys(ds.X, ds.Y)[::-1])


def _check_points(pts, k: int) -> np.ndarray:
    """Evaluation points as an (m, k) array of finite points in [0, 1]^k."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != k:
        raise ValidationError(f"evaluation points have {pts.shape[1]} columns, data has k={k}")
    bad = np.flatnonzero(~np.all(np.isfinite(pts) & (pts >= 0.0) & (pts <= 1.0), axis=1))
    if bad.size:
        raise ValidationError(f"evaluation point {pts[bad[0]]} is not a finite point of the unit cube")
    return pts


def _term_value(
    term: Term,
    ds: DataSet,
    x: np.ndarray,
    h: float | None,
    family: ProductKernel,
    density: np.ndarray,
    order: np.ndarray,
) -> float:
    """Sample analogue of one integral term at a single evaluation point."""
    w = ds.Y / density
    for i, kind in enumerate(term.weights):
        if kind is Weight.LOCAL:
            w = w * family.weights(x[None, i : i + 1], ds.X[:, i : i + 1], h)[0]
        elif kind is not Weight.FLAT:
            w = w * weight_shape(kind, ds.X[:, i], x[i])
    return float(w[order].sum() / ds.n)


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
    treated as uniform.
    """
    if ds.deriv != alpha:
        raise ValidationError(f"dataset holds {ds.deriv}, requested {alpha}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    term = Term(1, alpha, tuple(Weight.RECON if b else Weight.FLAT for b in alpha.bits))
    density = np.ones(ds.n) if density is None else np.asarray(density, dtype=float)
    return _term_value(term, ds, x, None, product_kernel(2), density, _canonical_order(ds))


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
    leave-one-out density (ones when ``density`` is omitted).
    """
    if not 1 <= p < ds.k:
        raise ValidationError(f"need 1 <= p < k for smoothing, got p={p}, k={ds.k}")
    if ds.deriv != beta:
        raise ValidationError(f"dataset holds {ds.deriv}, requested {beta}")
    if not beta.support <= set(range(p)):
        raise ValidationError(f"beta {beta} flags coordinates outside the first p={p}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    weights = tuple(
        (Weight.RECON if beta.bits[i] else Weight.FLAT) if i < p else Weight.LOCAL
        for i in range(ds.k)
    )
    term = Term(1, beta, weights)
    density = np.ones(ds.n) if density is None else np.asarray(density, dtype=float)
    return _term_value(term, ds, x, h, product_kernel(d), density, _canonical_order(ds))


# ---------------------------------------------------------------------------
# Full estimation plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimationPlan:
    """Everything needed to fit: term plan, datasets, kernels, bandwidths.

    ``density`` selects uniform-design weighting ("uniform", weights one) or
    floored leave-one-out weighting ("loo").
    """

    k: int
    coords: tuple[int, ...]
    ell: int
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
            k=k,
            coords=plan.coords,
            ell=ell,
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
        return len(self.coords)


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
    contribution columns.  Deterministic for fixed inputs: row order is
    canonicalized and points are processed independently.
    """
    pts = _check_points(eval_points, plan.k)
    family = product_kernel(plan.d)

    orders: dict[DerivIndex, np.ndarray] = {}
    density: dict[DerivIndex, np.ndarray] = {}
    for idx in plan.plan.required_indices:
        ds = plan.datasets[idx]
        orders[idx] = _canonical_order(ds)
        if plan.density == "loo":
            est = DensityEstimator(
                data=ds,
                d1=plan.d1,
                H=plan.bandwidths.H(ds.n, plan.d1, plan.d, plan.k - plan.p),
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
        h = plan.bandwidths.h(ds.n, plan.d, m_free) if m_free > 0 else None
        col = np.empty(pts.shape[0])
        for j in range(pts.shape[0]):
            col[j] = term.coef * _term_value(
                term, ds, pts[j], h, family, density[term.deriv], orders[term.deriv]
            )
        contribs[term.label] = col
        meta_terms.append(
            {"term": term.label, "coef": term.coef, "n": ds.n, "bandwidth": h, "free_dims": m_free}
        )

    values = np.zeros(pts.shape[0])
    for label in sorted(contribs):
        values = values + contribs[label]

    metadata = {
        "k": plan.k,
        "coords": list(plan.coords),
        "ell": plan.ell,
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
    den_floor: float | None = None,
) -> float:
    """Locally weighted average over all k coordinates (the no-derivative
    baseline) at one point: :func:`nadaraya_watson_grid` without widening.

    Raises when no design point carries kernel mass at x (bandwidth too
    small) or, without ``den_floor``, when the kernel mass cancels exactly.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(nadaraya_watson_grid(ds.X, ds.Y, x[None, :], h, d=d, den_floor=den_floor)[0])


def _nw_pass(X, Y, pts, h, family, den_floor):
    """One windowed NW pass: (values, mass, ok) at ``pts``.

    ``mass`` flags points where some design row carries kernel weight; values
    are NaN unless ``ok`` (mass and a nonzero normalizer).
    """
    n = X.shape[0]
    order, blocks = band_sweep(_canonical_keys(X, Y), h, pts[:, 0])
    Xs, Ys = X[order], Y[order]
    num, den = np.empty(pts.shape[0]), np.empty(pts.shape[0])
    mass = np.empty(pts.shape[0], dtype=bool)
    for idx, lo, hi in blocks:
        w = family.weights(pts[idx], Xs[lo:hi], h)
        num[idx] = (w * Ys[None, lo:hi]).sum(axis=1)
        den[idx] = w.sum(axis=1)
        mass[idx] = (w != 0.0).any(axis=1)
        del w  # free this slab before the next block builds its own
    if den_floor is not None:
        # den / n estimates the design density at the point; floor it there.
        den = np.maximum(den, den_floor * n)
    ok = mass & (den != 0.0)
    return np.where(ok, num / np.where(ok, den, 1.0), np.nan), mass, ok


def nadaraya_watson_grid(
    X: np.ndarray,
    Y: np.ndarray,
    pts: np.ndarray,
    h: float,
    d: int = 2,
    den_floor: float | None = 0.05,
    widen_on_empty: bool = False,
) -> np.ndarray:
    """Baseline smoother over many evaluation points in the unit cube.

    A sorted-band sweep (:func:`derivreg.kernels.band_sweep`): data rows are
    sorted in canonical order, evaluation points are taken in blocks of 64 by
    coordinate 1, and each block weights only the rows within h of it in that
    coordinate.  Time is m x (rows within h in coordinate 1) kernel values and
    memory 64 x n.  Sums run in canonical row order, so the result is bitwise
    invariant under row permutations of (X, Y).

    ``den_floor`` bounds the normalizing density estimate away from zero;
    higher-order edge kernels can otherwise give near-zero or negative total
    weight.  With ``widen_on_empty`` the points with no in-window data are
    re-run at doubled h (at most six times) instead of raising; Monte Carlo
    harnesses use this so one starved window cannot abort a replication.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    pts = _check_points(pts, X.shape[1])
    family = product_kernel(d)
    out, mass, ok = _nw_pass(X, Y, pts, h, family, den_floor)
    if np.any(mass & ~ok):
        bad = pts[np.flatnonzero(mass & ~ok)[0]]
        raise ValidationError(f"kernel mass cancels exactly at {bad}; increase h")
    left = np.flatnonzero(~mass)
    if left.size and not widen_on_empty:
        raise ValidationError(f"no design points within h={h} of {pts[left[0]]} ({left.size} points); increase h")
    hj = h
    for _ in range(6):
        if not left.size:
            break
        hj *= 2.0
        vals, _, ok = _nw_pass(X, Y, pts[left], hj, family, den_floor)
        out[left[ok]] = vals[ok]
        left = left[~ok]
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
            axes.append((t, w * (chi1 * chi2)))
        else:
            axes.append(gl_panels(quad.nodes, (0.0, 1.0)))

    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wprod = np.ones(pts.shape[0])
    for wg in wgrids:
        wprod *= wg.ravel()
    dens = np.ones(pts.shape[0]) if f is None else np.asarray(f(pts), dtype=float)
    return float(sigma2 * np.sum(wprod / dens))


def make_grid(k: int, per_dim: int, offset: float = 0.0) -> np.ndarray:
    """Tensor grid of evaluation points, inset by ``offset`` from each face."""
    if not 0.0 <= offset < 0.5:
        raise ValidationError(f"offset must lie in [0, 0.5), got {offset}")
    axis = np.linspace(offset, 1.0 - offset, per_dim)
    grids = np.meshgrid(*[axis] * k, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)
