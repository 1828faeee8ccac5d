"""Higher-order interior and boundary kernels with exact moment conditions.

Kernels are polynomials times a weight that vanishes at the support endpoints
(interior weight 1 - t^2 on [-1, 1], edge weight t(1 - t) on [0, 1]), so every
kernel is bounded, compactly supported and Hoelder continuous on the real
line.  Coefficients are obtained from the moment linear system

    integral t^j kappa(t) dt = delta_{j0},   0 <= j <= order - 1.

Multivariate smoothing uses a product of univariate kernels, with the kernel
for coordinate i switched to a one-sided edge kernel whenever the evaluation
point is within one bandwidth of exactly one face of the unit cube; within
one bandwidth of both faces (possible only for bandwidths above 1/2) the
interior kernel reaches the data on both sides.  Kernel arguments follow the
convention u = (data - evaluation point) / bandwidth.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ValidationError

# Evaluation points per tile of a sorted-band sweep (:func:`band_sweep`), by
# its number of window columns.  Tiles of 16 keep the LOO density's slabs
# small enough to stay in cache; on a 2-core x86 host the fit_loo benchmark
# ran 2.3 ops/s with them against 1.9 with tiles of 32.
_TILE = {1: 64, 2: 16}
# Widening of each tile's window in each column, relative to the data's
# scale.  It is far above the rounding error of the kernel arguments, so no row
# a window predicate could accept is missed; a row inside the pad but outside
# the support adds an exact zero.
_PAD = 1e-9
# Largest natural log of a power of 1/h that a bandwidth may put into kernel
# values: half of the float exponent range, which leaves the other half for
# kernel coefficients, row counts, responses and their sums.
_LOG_LIMIT = 0.5 * math.log(sys.float_info.max)

__all__ = [
    "Workspace",
    "KernelSpec",
    "make_interior_kernel",
    "make_edge_kernel",
    "ProductKernel",
    "product_kernel",
    "band_sweep",
    "check_bandwidth",
    "check_orders",
    "default_orders",
    "BandwidthPlan",
]


class Workspace:
    """Scratch buffers for one sweep of kernel slabs.

    Each named buffer grows to the largest slab asked of it and is reused by
    later tiles, so a sweep allocates its slabs (and the OS faults them in)
    once rather than once per tile.  A workspace belongs to the call that made
    it: arrays taken from it are overwritten by the next take of the same name,
    and it must not be shared across threads.
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            buf = self._bufs[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


@dataclass(frozen=True)
class KernelSpec:
    """A univariate kernel: polynomial times a boundary-vanishing weight.

    Evaluation keeps the factored form q(t) * w(t) so the kernel is exactly
    zero at the endpoints of its support.
    """

    kind: str  # "interior" | "left" | "right"
    order: int
    support: tuple[float, float]
    q_coeffs: tuple[float, ...]  # ascending powers of t

    def eval(self, u) -> np.ndarray:
        """Kernel values at ``u`` (a scalar or an array), leaving ``u`` as is."""
        return self.eval_inplace(np.array(u, dtype=float), Workspace())

    def eval_inplace(self, u: np.ndarray, work: Workspace) -> np.ndarray:
        """Kernel values at the float array ``u``, in a buffer of ``work``.

        ``u`` is overwritten.  The operations and their order are those of
        ``np.where(inside, P.polyval(u, q) * weight(u), 0.0)``: Horner's rule
        from q's leading coefficient, then the weight (1 - u)(1 + u), u(1 - u)
        or (-u)(1 + u), then zero outside the closed support, NaN included.
        """
        lo, hi = self.support
        outside = np.greater_equal(u, lo, out=work.take("outside", u.shape, bool))
        outside &= np.less_equal(u, hi, out=work.take("below", u.shape, bool))
        np.logical_not(outside, out=outside)
        q = np.multiply(u, 0.0, out=work.take("kappa", u.shape))
        q += self.q_coeffs[-1]
        for c in self.q_coeffs[-2::-1]:
            q *= u
            q += c
        wt = work.take("weight", u.shape)
        if self.kind == "right":
            np.negative(u, out=wt)
        else:
            np.subtract(1.0, u, out=wt)
        if self.kind != "left":
            u += 1.0  # u now holds 1 + u
        wt *= u
        q *= wt
        np.putmask(q, outside, 0.0)
        return q

    def __repr__(self):
        return f"KernelSpec({self.kind}, order={self.order}, support={self.support})"


def _solve_moment_system(powers_weight, d: int) -> tuple[float, ...]:
    """Solve for q in q(t) * w(t) with moments delta_{j0}, j < d.

    ``powers_weight(m)`` must return integral over the interval of t^m * w(t).
    The Gram-type matrix of a positive weight is nonsingular; a singular solve
    here indicates an internal error, hence the assert.
    """
    A = np.empty((d, d))
    for j in range(d):
        for m in range(d):
            A[j, m] = powers_weight(j + m)
    rhs = np.zeros(d)
    rhs[0] = 1.0
    q = np.linalg.solve(A, rhs)
    assert np.all(np.isfinite(q)), "moment system produced non-finite coefficients"
    return tuple(float(c) for c in q)


def make_interior_kernel(d: int) -> KernelSpec:
    """Construct the order-d interior kernel q(t)(1 - t^2) on [-1, 1].

    Interior kernels are symmetric, so their orders are even and an odd d is
    rejected.  d = 2 gives the Epanechnikov kernel 0.75 (1 - t^2).  Kernels
    are built once per order and shared; :class:`KernelSpec` is immutable.
    """
    if d < 2:
        raise ValidationError(f"interior kernel order must be >= 2, got {d}")
    if d % 2:
        raise ValidationError(f"interior kernel order must be even, got {d}")
    return _interior_kernel(d)


@lru_cache(maxsize=64)
def _interior_kernel(d: int) -> KernelSpec:
    def moment(m: int) -> float:
        # integral_{-1}^{1} t^m (1 - t^2) dt
        if m % 2:
            return 0.0
        return 2.0 / (m + 1) - 2.0 / (m + 3)

    return KernelSpec("interior", d, (-1.0, 1.0), _solve_moment_system(moment, d))


def make_edge_kernel(d: int, side: str) -> KernelSpec:
    """Construct the order-d boundary kernel for the given side.

    The left kernel is q(t) t(1 - t) on [0, 1]; the right kernel is its mirror
    on [-1, 0].  Both vanish at the endpoints of their support.  Built once
    per (order, side) and shared.
    """
    if d < 1:
        raise ValidationError(f"edge kernel order must be >= 1, got {d}")
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    return _edge_kernel(d, side)


@lru_cache(maxsize=64)
def _edge_kernel(d: int, side: str) -> KernelSpec:
    def moment(m: int) -> float:
        # integral_0^1 t^m (t - t^2) dt
        return 1.0 / (m + 2) - 1.0 / (m + 3)

    q = _solve_moment_system(moment, d)
    if side == "left":
        return KernelSpec("left", d, (0.0, 1.0), q)
    return KernelSpec("right", d, (-1.0, 0.0), tuple(c * (-1.0) ** i for i, c in enumerate(q)))


@dataclass(frozen=True)
class ProductKernel:
    """Product kernel with per-coordinate interior/edge switching.

    Coordinate i uses the left (right) edge kernel when the evaluation point
    lies within the bandwidth of the lower (upper) face only, and the interior
    kernel otherwise: away from both faces, or near both when the bandwidth
    exceeds 1/2.  :meth:`regions` holds this rule and :meth:`weights` applies
    it.
    """

    order: int
    interior: KernelSpec
    left: KernelSpec
    right: KernelSpec

    def regions(self, x, bandwidth: float) -> list[tuple[KernelSpec, np.ndarray]]:
        """Split evaluation coordinates ``x`` by kernel.

        Returns ``(spec, rows)`` for each non-empty set of rows using the left
        edge, right edge or interior kernel: x < bandwidth selects the left
        kernel, x > 1 - bandwidth the right one, and both or neither the
        interior one.
        """
        x = np.asarray(x, dtype=float)
        near_lo = x < bandwidth
        near_hi = x > 1.0 - bandwidth
        left = near_lo & ~near_hi
        right = near_hi & ~near_lo
        interior = ~(left | right)
        pairs = ((self.left, left), (self.right, right), (self.interior, interior))
        return [(spec, np.flatnonzero(mask)) for spec, mask in pairs if mask.any()]

    def weights(
        self, x: np.ndarray, X: np.ndarray, bandwidth: float, work: Workspace | None = None
    ) -> np.ndarray:
        """Product-kernel weights prod_i kappa_i((X_j,i - x_i)/h) / h.

        Returns an (m, n) array for evaluation points ``x`` (m, k) and data rows
        ``X`` (n, k), with kernels selected per point and coordinate by
        :meth:`regions`.  The array and every temporary live in ``work`` (a
        fresh :class:`Workspace` when omitted); a sweep passes one workspace
        to all its tiles, and each tile's result is valid until the next call.
        """
        work = Workspace() if work is None else work
        m, n = x.shape[0], X.shape[0]
        w = work.take("product", (m, n))
        w.fill(1.0)
        for i in range(x.shape[1]):
            col, xi = X[:, i], x[:, i]
            for spec, rows in self.regions(xi, bandwidth):
                u = np.subtract(col[None, :], xi[rows, None], out=work.take("u", (rows.size, n)))
                u /= bandwidth
                factor = spec.eval_inplace(u, work)
                factor /= bandwidth
                if rows.size == m:
                    w *= factor
                else:
                    w[rows] *= factor
        return w


@lru_cache(maxsize=64)
def product_kernel(d: int) -> ProductKernel:
    """Build (and cache) the order-d product kernel family."""
    interior = make_interior_kernel(d)
    return ProductKernel(
        order=interior.order,
        interior=interior,
        left=make_edge_kernel(interior.order, "left"),
        right=make_edge_kernel(interior.order, "right"),
    )


def band_sweep(keys, radius: float, queries=None):
    """Tiles of an exact sweep for weights that vanish unless a data row lies
    within ``radius`` of the evaluation point in each window column.

    ``keys`` holds the data rows, an (n,) or (n, k) array already in
    canonical order (:func:`derivreg.core.canonical_order`), so coordinate 1
    is ascending; the sweep sorts no rows.  Its window columns are the first
    c = min(k, 2).  ``queries`` holds the evaluation points with the same
    columns, or ``None`` for the rows themselves.  Yields tiles ``(idx,
    rows)`` that pair query indices (row positions when ``queries`` is
    ``None``) with an ascending index array of rows that includes every row
    within ``radius`` of one of them in every window column; every query is
    in one tile.

    The m queries are cut by one rule.  With tiles of t = ``_TILE[c]`` (64
    for one window column, 16 for two) and s = ceil((m / t)^(1/c)), for
    j = 1, ..., c in turn the queries are sorted stably by coordinate j
    within each slab of t * s^(c + 1 - j) consecutive queries of the
    previous order (at j = 1 one slab holds them all).  Consecutive runs of
    t are the tiles, so a tile is compact in every window column.  A tile's
    rows are its coordinate-1 window (a binary search), less the rows
    outside its range in each later window column, each range widened by
    ``radius`` and a pad of 1e-9 times the data's scale.  A caller evaluates
    (queries) x (rows in its tile's window) kernel values, so time is
    m x (rows in a tile's window); tiles are made one at a time, so the
    sweep holds only the current tile's rows.  With a :class:`Workspace`
    kept for all tiles, memory is a few buffers of the largest tile's slab,
    t x window.
    """
    keys = np.asarray(keys, dtype=float)
    k = 1 if keys.ndim == 1 else keys.shape[1]
    c = min(k, 2)
    keys = keys.reshape(-1, k)[:, :c]
    qs = keys if queries is None else np.asarray(queries, dtype=float).reshape(-1, k)[:, :c]
    cols = [np.ascontiguousarray(keys[:, j]) for j in range(c)]  # searchsorted and take copy strided input
    pad = _PAD * max(1.0, float(np.abs(keys).max(initial=0.0)))
    m, tile = qs.shape[0], _TILE[c]
    s = max(1, math.ceil((m / tile) ** (1 / c)))
    order = np.arange(m)
    for j in range(c):
        slab = tile * s ** (c - j)
        for a in range(0, m, slab):
            run = order[a : a + slab]
            order[a : a + slab] = run[np.argsort(qs[run, j], kind="stable")]
    for a in range(0, m, tile):
        idx = order[a : a + tile]
        q = qs[idx]
        lo, hi = q.min(axis=0) - radius - pad, q.max(axis=0) + radius + pad
        rows = np.arange(np.searchsorted(cols[0], lo[0], "left"), np.searchsorted(cols[0], hi[0], "right"))
        for j in range(1, c):
            col = cols[j][rows]
            rows = rows[(col >= lo[j]) & (col <= hi[j])]
        yield idx, rows


def check_bandwidth(h: float, d: int, k: int, name: str = "h") -> None:
    """Reject a bandwidth of order-d product kernels in k coordinates that is
    not finite and positive, or so small that kernel values overflow.

    On the unit cube |u| <= 1/h.  The polynomial q(u) w(u), of degree d + 1,
    is evaluated before it is zeroed outside the support, and k factors
    kappa/h multiply inside it, so (1 + 1/h)^max(d + 1, k) must stay below
    exp(_LOG_LIMIT).
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValidationError(f"bandwidth {name} must be finite and positive, got {h}")
    if max(d + 1, k) * (math.log1p(h) - math.log(h)) > _LOG_LIMIT:
        raise ValidationError(f"bandwidth {name}={h:.6g} is too small for order-{d} kernels in floating point")


def check_orders(d: int, d1: int, k: int, p: int) -> None:
    """Gate on kernel orders: require even d > (k + p)/2 and even d1 > k."""
    if d % 2 or d1 % 2:
        raise ValidationError(f"kernel orders must be even, got d={d}, d1={d1}")
    if not d > 0.5 * (k + p):
        raise ValidationError(
            f"kernel order d={d} violates d > (k + p)/2 = {(k + p) / 2} for k={k}, p={p}"
        )
    if not d1 > k:
        raise ValidationError(f"density kernel order d1={d1} violates d1 > k = {k}")


def default_orders(k: int, p: int) -> tuple[int, int]:
    """Smallest even orders passing :func:`check_orders`."""
    d = 2
    while not d > 0.5 * (k + p):
        d += 2
    d1 = 2
    while not d1 > k:
        d1 += 2
    return d, d1


@dataclass(frozen=True)
class BandwidthPlan:
    """Rate-correct bandwidth rules for smoothing (h) and density (H).

    ``h(n) = h_const * n^(-1/(2 d + m))`` where m is the number of locally
    smoothed coordinates.  ``H(n)`` sits strictly inside the admissible
    window: it must shrink faster than both n^(-1/(2 d1)) and h(n) while
    staying above n^(-1/(2k)), which the extra n^(-0.01) factor ensures for
    the supported orders.  ``h`` checks its result (:func:`check_bandwidth`).
    """

    h_const: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.h_const < np.inf:
            raise ValidationError("bandwidth constants must be finite and positive")

    def h(self, n: int, d: int, free_dims: int) -> float:
        if free_dims <= 0:
            raise ValidationError("h() is only defined when coordinates are smoothed")
        h = self.h_const * float(n) ** (-1.0 / (2 * d + free_dims))
        check_bandwidth(h, d, free_dims)
        return h

    def H(self, n: int, d1: int, d: int, free_dims: int) -> float:
        # H must shrink faster than both n^(-1/(2 d1)) and the smoothing
        # bandwidth, i.e. at the larger of the two exponents.
        expo = 1.0 / (2 * d1)
        if free_dims > 0:
            expo = max(expo, 1.0 / (2 * d + free_dims))
        return float(n) ** (-expo) * float(n) ** (-0.01)
