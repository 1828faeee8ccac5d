"""Naive reference implementations: direct loops, no vectorization or reuse
of the production summation paths.  Production estimators must agree with
these to 1e-12 on small instances."""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from derivreg.kernels import KernelSpec, make_edge_kernel, make_interior_kernel


def chi(bits, u, x) -> float:
    out = 1.0
    for j, b in enumerate(bits):
        if b:
            out *= u[j] - 1.0 + (1.0 if u[j] <= x[j] else 0.0)
    return out


def _kernel_value(spec: KernelSpec, t: float) -> float:
    lo, hi = spec.support
    if t < lo or t > hi:
        return 0.0
    q = 0.0
    for c in reversed(spec.q_coeffs):
        q = q * t + c
    if spec.kind == "interior":
        w = (1.0 - t) * (1.0 + t)
    elif spec.kind == "left":
        w = t * (1.0 - t)
    else:
        w = -t * (1.0 + t)
    return q * w


def kernel_eval(spec: KernelSpec, u) -> np.ndarray:
    """Frozen vectorized kernel formula, the bitwise target of
    :meth:`KernelSpec.eval`: numpy's polyval times the weight, then zero
    outside the closed support."""
    u = np.asarray(u, dtype=float)
    lo, hi = spec.support
    inside = (u >= lo) & (u <= hi)
    if spec.kind == "interior":
        w = (1.0 - u) * (1.0 + u)
    elif spec.kind == "left":
        w = u * (1.0 - u)
    else:
        w = -u * (1.0 + u)
    return np.where(inside, P.polyval(u, np.asarray(spec.q_coeffs)) * w, 0.0)


def product_weights(x, X, h: float, d: int) -> np.ndarray:
    """Frozen product-kernel weights, the bitwise target of
    :meth:`ProductKernel.weights`: one evaluation point at a time, the
    kernel picked by :func:`_select` and applied coordinate by coordinate."""
    w = np.ones((x.shape[0], X.shape[0]))
    for a in range(x.shape[0]):
        for c in range(x.shape[1]):
            w[a] *= kernel_eval(_select(x[a, c], h, d), (X[:, c] - x[a, c]) / h) / h
    return w


def _select(x_j: float, h: float, d: int) -> KernelSpec:
    """Edge kernel within h of exactly one face, interior kernel otherwise."""
    near_lo, near_hi = x_j < h, x_j > 1.0 - h
    if near_lo and not near_hi:
        return make_edge_kernel(d, "left")
    if near_hi and not near_lo:
        return make_edge_kernel(d, "right")
    return make_interior_kernel(d)


def nonlocal_avg(X, Y, bits, x, inv_density=None) -> float:
    """Reference for the root-n nonlocal estimator."""
    n = len(Y)
    total = 0.0
    for i in range(n):
        w = chi(bits, X[i], x)
        f = 1.0 if inv_density is None else inv_density[i]
        total += Y[i] * w / f
    return total / n


def integrated_term(X, Y, kinds, x, density=None, h=None, d=2) -> float:
    """Reference for a term: ``kinds[j]`` is the shape of coordinate j, one
    of "flat", "cum", "ramp" or "recon", or "local" for a coordinate smoothed
    by the order-d edge-switching kernel at bandwidth h."""
    n = len(Y)
    total = 0.0
    for i in range(n):
        w = 1.0
        for j, kind in enumerate(kinds):
            u = X[i][j]
            if kind == "local":
                w *= _kernel_value(_select(x[j], h, d), (u - x[j]) / h) / h
            elif kind == "cum":
                w *= 1.0 if u <= x[j] else 0.0
            elif kind == "ramp":
                w *= 1.0 - u
            elif kind == "recon":
                w *= u if u <= x[j] else u - 1.0
        f = 1.0 if density is None else density[i]
        total += Y[i] * w / f
    return total / n


def loo_density(X, i, x, H, d1, edge=True) -> float:
    """Reference leave-one-out product-kernel density estimate."""
    n = len(X)
    k = len(x)
    total = 0.0
    for j in range(n):
        if j == i:
            continue
        prod = 1.0
        for c in range(k):
            spec = _select(x[c], H, d1) if edge else make_interior_kernel(d1)
            prod *= _kernel_value(spec, (X[j][c] - x[c]) / H) / H
        total += prod
    return total / (n - 1)


def smoothed_nonlocal(X, Y, bits, p, x, h, d, H, d1, floor) -> float:
    """Reference for the partially smoothed estimator with LOO weighting."""
    n = len(Y)
    k = len(x)
    total = 0.0
    for i in range(n):
        w = chi(bits, X[i], x)
        kern = 1.0
        for c in range(p, k):
            spec = _select(x[c], h, d)
            kern *= _kernel_value(spec, (X[i][c] - x[c]) / h) / h
        f = max(loo_density(X, i, X[i], H, d1), floor)
        total += Y[i] * w * kern / f
    return total / n


def nadaraya_watson(X, Y, x, h, d, den_floor=None) -> float:
    n = len(Y)
    k = len(x)
    num = 0.0
    den = 0.0
    for i in range(n):
        prod = 1.0
        for c in range(k):
            prod *= _kernel_value(_select(x[c], h, d), (X[i][c] - x[c]) / h) / h
        num += Y[i] * prod
        den += prod
    if den_floor is not None:
        den = max(den, den_floor * n)
    return num / den


def derivative_ac(q, v, r, y_ac, y_al, eq, ev, er, h) -> float:
    """Reference for the windowed cumulative AC estimator (count normalized)."""
    n = len(q)

    def part_a(q0, v0, r0):
        total, count = 0.0, 0
        for j in range(n):
            if abs(q[j] - q0) <= 0.5 * h:
                count += 1
                if v[j] <= v0:
                    total += y_al[j]
        if count == 0:
            raise ZeroDivisionError("empty window")
        return r0 * total / count

    ga = part_a(eq, ev, er)
    total, count = 0.0, 0
    for j in range(n):
        if abs(q[j] - eq) <= 0.5 * h:
            count += 1
            total += (y_ac[j] - part_a(q[j], v[j], r[j])) / r[j]
    gb = er * total / count
    return ga + gb
