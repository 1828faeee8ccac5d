"""Leave-one-out, edge-corrected kernel density estimation.

Used to weight the regression estimators on non-uniform designs: each summand
is divided by a floored leave-one-out density estimate at its own design
point.  Higher-order kernels can dip negative, so a positive floor keeps the
weights bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataSet, ValidationError, as_float_array, distinct_rows
from .kernels import band_sweep, check_bandwidth, check_cap, check_orders, product_kernel

__all__ = ["DENSITY_FLOOR", "DensityEstimator", "loo_density", "loo_at_rows"]

# The default floor of every density normalizer: LOO weights, plans and NW.
DENSITY_FLOOR = 0.05


@dataclass(frozen=True)
class DensityEstimator:
    """Leave-one-out product-kernel density estimator of the design density.

    The kernel order ``d1`` must pass the order rule and its cap
    (:func:`derivreg.kernels.check_orders`, :func:`derivreg.kernels.check_cap`):
    even, above the dimension k and at most 6.  Edge kernels take
    over in any coordinate within H of a face of the cube, which removes
    boundary bias for the estimator as a whole.
    """

    data: DataSet
    d1: int
    H: float
    floor: float = DENSITY_FLOOR

    def __post_init__(self):
        if self.data.n < 2:
            raise ValidationError("leave-one-out density needs n >= 2")
        if not 0.0 < self.H < 1.0:
            raise ValidationError(f"bandwidth H must lie in (0, 1), got {self.H}")
        if not 0.0 < self.floor < np.inf:
            raise ValidationError(f"density floor must be finite and positive, got {self.floor}")
        check_orders(None, self.d1, self.data.k, 0)
        check_cap("density kernel order d1", self.d1)
        check_bandwidth(self.H, self.d1, self.data.k, "H")


def loo_density(est: DensityEstimator, i: int, x) -> float:
    """Leave-one-out density estimate at x, dropping design row i.

    (n-1)^-1 sum_{j != i} H^-k L((X_j - x)/H) with per-coordinate edge
    switching at x, which must be a finite point of the unit cube.  Depends
    on design points only, never on responses.
    """
    n = est.data.n
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise ValidationError(f"row index must be an integer, got {i!r}")
    if not 0 <= i < n:
        raise ValidationError(f"row index {i} out of range for n={n}")
    x = np.atleast_1d(as_float_array(x, "x"))
    if x.shape != (est.data.k,):
        raise ValidationError(f"x has shape {x.shape}, data has k={est.data.k}")
    if not np.all(np.isfinite(x) & (x >= 0.0) & (x <= 1.0)):
        raise ValidationError(f"x = {x} is not a finite point of the unit cube")
    w = product_kernel(est.d1).weights(x[None, :], est.data.X, est.H)[0]
    w[i] = 0.0
    return float(w.sum() / (n - 1))


def loo_at_rows(est: DensityEstimator, floored: bool = True) -> np.ndarray:
    """Vector of leave-one-out densities at the design rows themselves.

    Precomputed once per dataset by the regression estimators; equal to
    calling :func:`loo_density` at every (i, X_i), up to the order of
    summation, and floored at ``est.floor`` unless ``floored`` is false.
    Copies of a row are one query (:func:`derivreg.core.distinct_rows`)
    that leaves out their first copy in canonical order.

    An exact sorted-band sweep (:func:`derivreg.kernels.band_sweep`, which
    gives its tiling, time and memory) over the rows in the dataset's
    canonical order (:attr:`derivreg.core.DataSet.order`, which the
    estimators reuse), with one :class:`derivreg.kernels.KernelSweep` for
    all its tiles, which chooses each row's kernels once.  Only rows within
    H of a tile can carry kernel mass, so each tile evaluates the
    edge-switching kernels on a tile x window slab.
    Each row is summed over its window in canonical row order, so a
    permutation of the rows permutes the result bit for bit.
    """
    order, n = est.data.order, est.data.n
    Xs = np.take(est.data.X.T, order, axis=1).T  # sorted rows in Fortran order: both sweeps read its columns
    first, copy_of = distinct_rows(Xs)
    sums = np.empty(first.size)
    pts = Xs[first]
    sweep = product_kernel(est.d1).sweep(pts, Xs, est.H)
    for idx, rows in band_sweep(Xs, est.H, pts):
        w = sweep.tile(idx, rows)
        w[np.arange(idx.size), np.searchsorted(rows, first[idx])] = 0.0
        sums[idx] = w.sum(axis=1)
    vals = np.empty(n)
    vals[order] = sums[copy_of] / (n - 1)
    if floored:
        vals = np.maximum(vals, est.floor)
    return vals
