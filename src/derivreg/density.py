"""Leave-one-out, edge-corrected kernel density estimation.

Used to weight the regression estimators on non-uniform designs: each summand
is divided by a floored leave-one-out density estimate at its own design
point.  Higher-order kernels can dip negative, so a positive floor keeps the
weights bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DataSet, ValidationError
from .kernels import ProductKernel, Workspace, band_sweep, check_bandwidth, product_kernel

__all__ = ["DensityEstimator", "loo_density", "floored_density", "loo_at_rows"]

@dataclass(frozen=True)
class DensityEstimator:
    """Leave-one-out product-kernel density estimator of the design density.

    The kernel order ``d1`` must exceed the dimension k; edge kernels take
    over in any coordinate within H of a face of the cube, which removes
    boundary bias for the estimator as a whole.  Without ``edge_corrected``
    the ``family`` uses the interior kernel in every region.
    """

    data: DataSet
    d1: int
    H: float
    floor: float = 0.05
    edge_corrected: bool = True
    family: ProductKernel = field(init=False)

    def __post_init__(self):
        if self.data.n < 2:
            raise ValidationError("leave-one-out density needs n >= 2")
        if not 0.0 < self.H < 1.0:
            raise ValidationError(f"bandwidth H must lie in (0, 1), got {self.H}")
        if not 0.0 < self.floor < np.inf:
            raise ValidationError(f"density floor must be finite and positive, got {self.floor}")
        if not self.d1 > self.data.k:
            raise ValidationError(
                f"density kernel order d1={self.d1} must exceed k={self.data.k}"
            )
        check_bandwidth(self.H, self.d1, self.data.k, "H")
        family = product_kernel(self.d1)
        if not self.edge_corrected:
            family = ProductKernel(family.order, family.interior, family.interior, family.interior)
        object.__setattr__(self, "family", family)


def loo_density(est: DensityEstimator, i: int, x) -> float:
    """Leave-one-out density estimate at x, dropping design row i.

    (n-1)^-1 sum_{j != i} H^-k L((X_j - x)/H) with per-coordinate edge
    switching at x.  Depends on design points only, never on responses.
    """
    n = est.data.n
    if not 0 <= i < n:
        raise ValidationError(f"row index {i} out of range for n={n}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (est.data.k,):
        raise ValidationError(f"x has shape {x.shape}, data has k={est.data.k}")
    w = est.family.weights(x[None, :], est.data.X, est.H)[0]
    w[i] = 0.0
    return float(w.sum() / (n - 1))


def floored_density(est: DensityEstimator, i: int, x) -> float:
    """max(loo_density, floor): keeps estimator weights bounded."""
    return max(loo_density(est, i, x), est.floor)


def loo_at_rows(est: DensityEstimator, floored: bool = True) -> np.ndarray:
    """Vector of leave-one-out densities at the design rows themselves.

    Precomputed once per dataset by the regression estimators; equal to
    calling :func:`loo_density` (or its floored form) at every (i, X_i), up to
    the order of summation.

    An exact sorted-band sweep (:func:`derivreg.kernels.band_sweep`, which
    gives its tiling, time and memory) over the rows in the dataset's
    canonical order (:attr:`derivreg.core.DataSet.order`, which the
    estimators reuse), with one :class:`derivreg.kernels.Workspace` for all
    its tiles.  Only rows within H of a tile can carry kernel mass, so each
    tile evaluates the edge-switching kernels on a tile x window slab.
    Each row is summed over its window in canonical row order, so a
    permutation of the rows permutes the result bit for bit.
    """
    order = est.data.order
    Xs = est.data.X[order]
    n = Xs.shape[0]
    sums = np.empty(n)
    work = Workspace()
    for idx, rows in band_sweep(Xs, est.H):
        w = est.family.weights(Xs[idx], Xs[rows], est.H, work)
        w[np.arange(idx.size), np.searchsorted(rows, idx)] = 0.0
        sums[idx] = w.sum(axis=1)
    # Identical rows are adjacent in canonical order but may fall in tiles
    # with different windows; all copies take the sum of the first one.
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = np.any(Xs[1:] != Xs[:-1], axis=1)
    sums = sums[np.maximum.accumulate(np.where(new_run, np.arange(n), 0))]
    vals = np.empty(n)
    vals[order] = sums / (n - 1)
    if floored:
        vals = np.maximum(vals, est.floor)
    return vals
