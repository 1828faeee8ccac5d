"""Higher-order interior and boundary kernels with exact moment conditions.

Kernels are polynomials times a weight that vanishes at the support endpoints
(interior weight 1 - t^2 on [-1, 1], edge weight t(1 - t) on [0, 1]), so every
kernel is bounded, compactly supported and Hoelder continuous on the real
line.  Coefficients are obtained from the moment linear system

    integral t^j kappa(t) dt = delta_{j0},   0 <= j <= order - 1.

The order rule lives here.  The estimators smooth with even product-kernel
orders d > (k + p)/2 and estimate the design density with even orders
d1 > k (:func:`check_orders`, whose smallest passing orders are
:func:`default_orders`).  The monomial moment system grows ill-conditioned
with the order, so an order in use is capped at the largest whose kernels
pass the moment check of ``derivreg verify`` (:func:`check_cap`):
``MAX_INTERIOR_ORDER`` and ``MAX_EDGE_ORDER``, and 6 for product kernels.
The kernel builders themselves take any order.

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
from functools import cached_property, lru_cache

import numpy as np

from .core import ValidationError

# Coordinate-1 window entries per tile of a sorted-band sweep
# (:func:`band_sweep`, the one tiling of LOO, NW and the AC curve): a tile
# holds this many over the mean coordinate-1 window of one query, within 16
# to 64 queries.  Scanned over 2^14, 2^15 and 2^16 on a 2-core x86 host
# (perfbench, seed 321, 15 s of CPU each): mc_table ran 111, 116 and 113
# ops/s (86 with fixed tiles of 16 queries), and fit_loo's peak RSS was
# 43.2, 44.5 and 45.7 MB (43.2 with tiles of 16), as its LOO tiles grew
# from 16 to 25 and 50 queries.  2^14 is the largest that keeps fit_loo's
# memory level; at mc_table's n = 4000 it gives the NW baseline tiles of 54
# queries and the AC curve tiles of 32 to 62.
_TILE_ENTRIES = 16384
# Widening of each tile's window in each column, relative to the data's
# scale.  It is far above the rounding error of the kernel arguments, so no row
# a window predicate could accept is missed; a row inside the pad but outside
# the support adds an exact zero.
_PAD = 1e-9
# Largest natural log of a power of 1/h that a bandwidth may put into kernel
# values: half of the float exponent range, which leaves the other half for
# kernel coefficients, row counts, responses and their sums.
_LOG_LIMIT = 0.5 * math.log(sys.float_info.max)
# The largest order of each kernel family whose moments below the order all
# lie within 1e-10 of delta_{j0}, the tolerance of ``derivreg verify``.  The
# worst deviation is 2.1e-11 at interior order 20 and 1.6e-10 at 22, and
# 3.1e-11 at edge order 7 and 2.0e-10 at 8.
MAX_INTERIOR_ORDER = 20
MAX_EDGE_ORDER = 7
# A product kernel of even order d uses the interior and edge kernels of order d.
_PRODUCT_CAP = min(MAX_INTERIOR_ORDER, MAX_EDGE_ORDER) // 2 * 2

__all__ = [
    "Workspace",
    "KernelSpec",
    "make_interior_kernel",
    "make_edge_kernel",
    "ProductKernel",
    "KernelSweep",
    "product_kernel",
    "band_sweep",
    "check_bandwidth",
    "check_cap",
    "check_orders",
    "default_orders",
    "BandwidthPlan",
]


class Workspace:
    """Scratch buffers for one sweep of kernel slabs.

    Each named buffer grows to the largest slab asked of it and is reused by
    later tiles, so a sweep allocates its slabs (and the OS faults them in)
    once rather than once per tile: fresh arrays made
    :func:`derivreg.density.loo_at_rows` 1.25-1.6x slower.  Each
    :class:`KernelSweep` (the LOO density, each pass of the NW baseline)
    holds one for all its tiles.  A workspace belongs to the call that made
    it: arrays taken from it are overwritten by the next take of the same
    name, and it must not be shared across threads.
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

        ``u`` is overwritten.  The values are bit for bit those of
        ``np.where(inside, P.polyval(u, q) * weight(u), 0.0)``: Horner's rule
        from q's highest nonzero coefficient, then the weight (1 - u)(1 + u),
        u(1 - u) or (-u)(1 + u), then +0.0 outside the closed support, NaN
        included.  The support mask is ``~(weight >= 0)``: each weight is a
        product of two factors that are both >= 0 exactly on the closed
        support, and outside it one factor is negative and the other at
        least 1 in magnitude, so the product is negative (-inf at +-inf)
        and NaN at NaN.
        """
        # Horner from the highest nonzero coefficient: polyval's start,
        # c + u * 0.0, is c for every u in the support, and adding an inner
        # zero changes no value that a later nonzero term is added to.
        coeffs, top = self.q_coeffs, self._top
        q = work.take("kappa", u.shape)
        if top:
            np.multiply(u, coeffs[top], out=q)
            for i in range(top - 1, 0, -1):
                if coeffs[i]:
                    q += coeffs[i]
                q *= u
            q += coeffs[0]
        wt = work.take("weight", u.shape)
        if self.kind == "right":
            np.negative(u, out=wt)
        else:
            np.subtract(1.0, u, out=wt)
        if self.kind != "left":
            u += 1.0  # u now holds 1 + u
        wt *= u
        if top:
            q *= wt
        else:
            np.multiply(wt, coeffs[0], out=q)
        outside = np.greater_equal(wt, 0.0, out=work.take("outside", u.shape, bool))
        np.logical_not(outside, out=outside)
        np.putmask(q, outside, 0.0)
        return q

    @cached_property
    def _top(self) -> int:
        """Index of q's highest nonzero coefficient (0 when q is zero)."""
        return max((i for i, c in enumerate(self.q_coeffs) if c), default=0)

    def __repr__(self):
        return f"KernelSpec({self.kind}, order={self.order}, support={self.support})"


def _solve_moment_system(powers_weight, d: int) -> tuple[float, ...]:
    """Solve for q in q(t) * w(t) with moments delta_{j0}, j < d.

    ``powers_weight(m)`` must return integral over the interval of t^m * w(t),
    and is called once per moment of the Hankel matrix A[j, m] = mu(j + m).
    The Gram-type matrix of a positive weight is nonsingular; a singular solve
    here indicates an internal error, hence the assert.
    """
    mu = np.array([powers_weight(m) for m in range(2 * d - 1)])
    A = mu[np.add.outer(np.arange(d), np.arange(d))]
    rhs = np.zeros(d)
    rhs[0] = 1.0
    q = np.linalg.solve(A, rhs)
    assert np.all(np.isfinite(q)), "moment system produced non-finite coefficients"
    return tuple(float(c) for c in q)


@lru_cache(maxsize=64)
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

    def moment(m: int) -> float:
        # integral_{-1}^{1} t^m (1 - t^2) dt
        if m % 2:
            return 0.0
        return 2.0 / (m + 1) - 2.0 / (m + 3)

    return KernelSpec("interior", d, (-1.0, 1.0), _solve_moment_system(moment, d))


@lru_cache(maxsize=64)
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
    exceeds 1/2.  :func:`_kernel_choice` holds this rule, :meth:`sweep`
    applies it once per sweep, and :meth:`weights` is a sweep of one tile.
    """

    interior: KernelSpec
    left: KernelSpec
    right: KernelSpec

    def sweep(self, x: np.ndarray, X: np.ndarray, bandwidth: float) -> "KernelSweep":
        """The slabs of one sweep of evaluation points ``x`` (m, k) over data
        rows ``X`` (n, k) at one bandwidth (:class:`KernelSweep`)."""
        return KernelSweep(self, x, X, bandwidth)

    def weights(self, x: np.ndarray, X: np.ndarray, bandwidth: float) -> np.ndarray:
        """Product-kernel weights prod_i kappa_i((X_j,i - x_i)/h) / h.

        Returns a fresh (m, n) array for evaluation points ``x`` (m, k) and
        data rows ``X`` (n, k): the one tile of a :meth:`sweep` that holds
        every point and row, so its float operations are every tile's.
        """
        return self.sweep(x, X, bandwidth).tile(np.arange(x.shape[0]), np.arange(X.shape[0]))


def _kernel_choice(x: np.ndarray, bandwidth: float) -> np.ndarray:
    """The kernel rule of :class:`ProductKernel` at the coordinates ``x``:
    per value an index into (interior, left, right) as int8.  x < bandwidth
    is near the lower face and x > 1 - bandwidth near the upper one; near
    one face alone takes that face's edge kernel, near both or neither the
    interior one."""
    near_lo, near_hi = x < bandwidth, x > 1.0 - bandwidth
    choice = (near_lo > near_hi).astype(np.int8)
    choice[near_hi > near_lo] = 2
    return choice


class KernelSweep:
    """Product-kernel slabs of one sweep: evaluation points x (m, k), data
    rows X (n, k) and a bandwidth h, tile after tile.

    The per-sweep work is done once, when the sweep is made: every
    coordinate of the rows is kept as a contiguous column (a view when X is
    in Fortran order), and each point's kernel in every coordinate is chosen
    by :func:`_kernel_choice`, k calls in all.  :meth:`tile` then gathers
    its columns and evaluates its slab through :meth:`KernelSpec.eval_inplace`
    in the one :class:`Workspace` of the sweep.
    """

    def __init__(self, family: ProductKernel, x: np.ndarray, X: np.ndarray, bandwidth: float):
        self.specs = (family.interior, family.left, family.right)
        self.h = bandwidth
        self.work = Workspace()
        self.cols = [np.ascontiguousarray(col) for col in X.T]
        self.points = list(x.T)
        self.choice = [_kernel_choice(col, bandwidth) for col in self.points]

    def tile(self, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Weights prod_i kappa_i((X_j,i - x_i)/h) / h of points ``idx``
        (t,) at rows ``rows`` (r,), as a (t, r) array of the workspace that
        the next tile overwrites.

        Per coordinate, the tile's points are grouped by kernel (one group
        when they share it); each group's factors (X_j,i - x_i) / h, then
        kappa, then / h, are written into the product at coordinate 1 and
        multiplied into it after, so every entry is the same product in the
        same order whatever the grouping.  With no coordinates the product
        is empty, all ones.
        """
        work, h = self.work, self.h
        t, r = idx.size, rows.size
        w = work.take("product", (t, r))
        if not self.cols:
            w.fill(1.0)
        for i, (col, pts, choice) in enumerate(zip(self.cols, self.points, self.choice)):
            col, xi, codes = col[rows], pts[idx], choice[idx]
            present = sorted(set(codes.tolist()))
            for c in present:
                sel = None if len(present) == 1 else np.flatnonzero(codes == c)
                x = xi if sel is None else xi[sel]
                u = np.subtract(col[None, :], x[:, None], out=work.take("u", (x.size, r)))
                u /= h
                factor = self.specs[c].eval_inplace(u, work)
                if i == 0 and sel is None:
                    np.divide(factor, h, out=w)
                    continue
                factor /= h
                if i == 0:  # the groups split the points, so each row is set once
                    w[sel] = factor
                elif sel is None:
                    w *= factor
                else:
                    w[sel] *= factor
        return w


@lru_cache(maxsize=64)
def product_kernel(d: int) -> ProductKernel:
    """Build (and cache) the order-d product kernel family."""
    interior = make_interior_kernel(d)
    return ProductKernel(
        interior=interior,
        left=make_edge_kernel(interior.order, "left"),
        right=make_edge_kernel(interior.order, "right"),
    )


def band_sweep(keys, radius: float, queries):
    """Tiles of an exact sweep for weights that vanish unless a data row lies
    within ``radius`` of the evaluation point in each window column: the one
    tiling of every smoother over data rows (LOO density, NW and the AC
    curve).

    ``keys`` holds the data rows, an (n,) or (n, k) array already in
    canonical order (:func:`derivreg.core.canonical_order`), so coordinate 1
    is ascending; the sweep sorts no rows.  Its window columns are the first
    c = min(k, 2).  ``queries`` holds the m evaluation points with the same
    columns.  Yields tiles ``(idx, rows)`` that pair query indices with an
    ascending index array of rows that includes every row within ``radius``
    of one of them in every window column; every query is in one tile.  A
    caller that finds its own windows (the AC curve's exact ranges) takes
    ``idx`` alone.

    A tile holds t queries, t = clamp(``_TILE_ENTRIES`` / w, 16, 64), where
    w is the mean number of rows within ``radius`` of a query in coordinate
    1.  With s = ceil((m / t)^(1/c)), for j = 1, ..., c in turn the queries
    are sorted stably by coordinate j within each slab of t * s^(c + 1 - j)
    consecutive queries of the previous order (at j = 1 one slab holds them
    all).  Consecutive runs of t are the tiles, so a tile is compact in every
    window column.  Each tile's range in every window column is its queries'
    least and greatest value there, widened by ``radius`` and a pad of 1e-9
    times the data's scale; the ranges of all tiles are found at once, by
    one min and one max ``reduceat`` per column over the tile order, and
    their coordinate-1 row ranges by two binary searches.  A tile's rows are
    its coordinate-1 row range less the rows outside its range in each later
    window column.  A caller evaluates (queries) x (rows in its tile's
    window) kernel values, so time is m x (rows in a tile's window); tiles
    are made one at a time, so the sweep holds only the current tile's rows,
    and memory is a few buffers of a tile's slab, t x window.
    """
    keys = np.asarray(keys, dtype=float)
    k = 1 if keys.ndim == 1 else keys.shape[1]
    keys = keys.reshape(-1, k)[:, : min(k, 2)]
    qs = np.asarray(queries, dtype=float).reshape(-1, k)[:, : keys.shape[1]]
    cols = [np.ascontiguousarray(col) for col in keys.T]  # searchsorted and take copy strided input
    m, c = qs.shape
    if not m:
        return
    w = np.mean(np.searchsorted(cols[0], qs[:, 0] + radius, "right") - np.searchsorted(cols[0], qs[:, 0] - radius, "left"))
    tile = min(64, max(16, int(_TILE_ENTRIES / max(w, 1.0))))
    s = max(1, math.ceil((m / tile) ** (1 / c)))
    order = np.arange(m)
    for j in range(c):
        slab = tile * s ** (c - j)
        for a in range(0, m, slab):
            run = order[a : a + slab]
            order[a : a + slab] = run[np.argsort(qs[run, j], kind="stable")]
    pad = _PAD * max(1.0, *(float(np.abs(col).max(initial=0.0)) for col in cols))
    starts = np.arange(0, m, tile)
    tiled = qs[order]
    lo = np.minimum.reduceat(tiled, starts) - radius - pad
    hi = np.maximum.reduceat(tiled, starts) + radius + pad
    first = np.searchsorted(cols[0], lo[:, 0], "left")
    last = np.searchsorted(cols[0], hi[:, 0], "right")
    for t, a in enumerate(starts):
        b, e = first[t], last[t]
        keep = None
        for j in range(1, c):
            col = cols[j][b:e]
            inside = (col >= lo[t, j]) & (col <= hi[t, j])
            keep = inside if keep is None else keep & inside
        yield order[a : a + tile], np.arange(b, e) if keep is None else b + np.flatnonzero(keep)


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


def check_orders(d: int | None, d1: int, k: int, p: int) -> None:
    """The order rule: even d > (k + p)/2 and even d1 > k.  With d None it
    checks d1 alone, for a density estimator, which has no d."""
    if (d or 0) % 2 or d1 % 2:
        got = ", ".join(f"{name}={v}" for name, v in (("d", d), ("d1", d1)) if v is not None)
        raise ValidationError(f"kernel orders must be even, got {got}")
    if d is not None and not d > 0.5 * (k + p):
        raise ValidationError(
            f"kernel order d={d} violates d > (k + p)/2 = {(k + p) / 2} for k={k}, p={p}"
        )
    if not d1 > k:
        raise ValidationError(f"density kernel order d1={d1} violates d1 > k = {k}")


def check_cap(name: str, order: int, cap: int = _PRODUCT_CAP) -> None:
    """Reject an order in use above ``cap``: by default the product-kernel
    cap, else ``MAX_INTERIOR_ORDER`` or ``MAX_EDGE_ORDER``.  ``name`` names
    the order in the message."""
    if order > cap:
        raise ValidationError(
            f"{name} = {order} is above {cap}, the largest order whose kernels pass the 1e-10 moment check"
        )


def default_orders(k: int, p: int) -> tuple[int, int]:
    """Smallest even orders passing :func:`check_orders`, the even numbers
    just above (k + p)/2 and k."""
    return 2 * ((k + p) // 4) + 2, 2 * (k // 2) + 2


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
