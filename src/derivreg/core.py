"""Shared domain types: derivative indices, datasets, test functions, RNG streams, CSV I/O.

All estimation routines operate on the unit cube [0, 1]^k.  Raw data in other
units is mapped in with :func:`rescale_to_unit` and mapped back with the
returned affine maps.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DerivRegError",
    "ValidationError",
    "ParseError",
    "ToleranceError",
    "DerivIndex",
    "AffineMap",
    "rescale_to_unit",
    "DataSet",
    "as_float_array",
    "canonical_order",
    "read_csv",
    "write_csv",
    "split_stream",
    "TestFunction",
    "poly_function",
    "product_function",
]


class DerivRegError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DerivRegError, ValueError):
    """Inputs violate a documented precondition (shape, domain, parameters)."""


class ParseError(ValidationError):
    """A file could not be parsed; carries its path and 1-based line number."""

    def __init__(self, message: str, path, line: int):
        super().__init__(f"{path}: line {line}: {message}")
        self.path = path
        self.line = line


class ToleranceError(DerivRegError):
    """A numerical check exceeded its stated tolerance."""


# ---------------------------------------------------------------------------
# Derivative indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivIndex:
    """A 0/1 vector marking which coordinates are differentiated once.

    ``bits[i] == 1`` means the regression function is differentiated with
    respect to coordinate ``i``.  The all-zero index denotes the function
    itself.  Instances are immutable and hashable, so they can key dataset
    maps.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValidationError("DerivIndex needs k >= 1 coordinates")
        if any(b not in (0, 1) for b in self.bits):
            raise ValidationError(f"DerivIndex bits must be 0 or 1, got {self.bits}")

    @classmethod
    def zeros(cls, k: int) -> "DerivIndex":
        return cls((0,) * k)

    @classmethod
    def ones(cls, k: int) -> "DerivIndex":
        return cls((1,) * k)

    @classmethod
    def from_string(cls, s: str) -> "DerivIndex":
        if not s or any(c not in "01" for c in s):
            raise ValidationError(f"derivative index string must be nonempty 0/1, got {s!r}")
        return cls(tuple(int(c) for c in s))

    @classmethod
    def from_support(cls, k: int, support: Iterable[int]) -> "DerivIndex":
        sup = set(support)
        if any(i < 0 or i >= k for i in sup):
            raise ValidationError(f"support {sorted(sup)} out of range for k={k}")
        return cls(tuple(1 if i in sup else 0 for i in range(k)))

    @property
    def k(self) -> int:
        return len(self.bits)

    @property
    def order(self) -> int:
        """Number of differentiated coordinates (popcount)."""
        return sum(self.bits)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, b in enumerate(self.bits) if b)

    def __or__(self, other: "DerivIndex") -> "DerivIndex":
        self._check_same_k(other)
        return DerivIndex(tuple(a | b for a, b in zip(self.bits, other.bits)))

    def _check_same_k(self, other: "DerivIndex") -> None:
        if self.k != other.k:
            raise ValidationError(f"dimension mismatch: k={self.k} vs k={other.k}")

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


# ---------------------------------------------------------------------------
# Rescaling raw designs to the unit cube
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """Invertible map x -> (x - offset) / scale used for unit-cube rescaling."""

    offset: float
    scale: float

    def apply(self, x):
        return (np.asarray(x, dtype=float) - self.offset) / self.scale

    def invert(self, z):
        return self.offset + self.scale * np.asarray(z, dtype=float)


def rescale_to_unit(raw) -> tuple[np.ndarray, list[AffineMap]]:
    """Affinely map each column of ``raw`` onto [0, 1].

    Returns the scaled matrix and one :class:`AffineMap` per column; applying
    ``map.invert`` to a scaled column reproduces the input.  A constant column
    cannot be rescaled and raises :class:`ValidationError` naming the
    coordinate (1-based).
    """
    raw = as_float_array(raw, "raw")
    if raw.ndim == 1:
        raw = raw[:, None]
    scaled = np.empty_like(raw)
    maps = []
    for j in range(raw.shape[1]):
        lo = float(raw[:, j].min())
        hi = float(raw[:, j].max())
        if hi <= lo:
            raise ValidationError(f"coordinate {j + 1} is constant ({lo}); cannot rescale")
        m = AffineMap(lo, hi - lo)
        scaled[:, j] = m.apply(raw[:, j])
        maps.append(m)
    return scaled, maps


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataSet:
    """Design points in [0, 1]^k with responses for one derivative index.

    ``Y[i]`` is a noisy observation of the ``deriv`` mixed partial of the
    regression function at ``X[i]``.  The rows must pass one check, or a
    one-line :class:`ValidationError` names the first that fails: ``X`` is
    (n, k) and ``Y`` is (n,) with n >= 1, every value is finite and every
    coordinate lies in [0, 1].  The dataset keeps its own read-only float
    copies of ``X`` and ``Y``: the caller's arrays stay writable, later
    writes to them do not reach the dataset, and datasets can be shared
    freely across threads.
    """

    k: int
    deriv: DerivIndex
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.array(as_float_array(self.X, "X"))
        Y = np.array(as_float_array(self.Y, "Y"))
        if X.ndim != 2 or X.shape[1] != self.k:
            raise ValidationError(f"X must be (n, {self.k}), got shape {X.shape}")
        if Y.ndim != 1 or Y.shape[0] != X.shape[0]:
            raise ValidationError("X rows and Y must have equal count")
        if X.shape[0] < 1:
            raise ValidationError("n >= 1 required")
        for name, arr in (("X", X), ("Y", Y)):
            bad = np.argwhere(~np.isfinite(arr))
            if bad.size:
                row = bad[0][0]
                raise ValidationError(f"{name} has a non-finite value in row {row + 1}: {arr[row]}")
        if X.size and (X.min() < 0.0 or X.max() > 1.0):
            row, col = np.argwhere((X < 0.0) | (X > 1.0))[0]
            raise ValidationError(f"design coordinate x{col + 1}={X[row, col]} in row {row + 1} outside [0, 1]")
        if self.deriv.k != self.k:
            raise ValidationError(f"deriv has k={self.deriv.k}, dataset has k={self.k}")
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @cached_property
    def order(self) -> np.ndarray:
        """Canonical row order of every summation over this dataset:
        :func:`canonical_order` of (x1, ..., xk, y), computed once."""
        order = canonical_order((*self.X.T, self.Y))
        order.setflags(write=False)
        return order


def as_float_array(a, name: str) -> np.ndarray:
    """``a`` as a float array, or a one-line :class:`ValidationError` naming
    it when it is not one (ragged nesting, cells that are not numbers)."""
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} is not a rectangular array of numbers") from None


def canonical_order(keys) -> np.ndarray:
    """The one row order in which the package sums data: lexicographic in
    ``keys`` (per-row arrays, most significant first).

    A stable sort on the first key alone gives the same permutation when that
    key has no ties; the full lexsort runs only when it has.
    """
    order = np.argsort(keys[0], kind="stable")
    first = keys[0][order]
    if np.any(first[1:] == first[:-1]):
        order = np.lexsort(keys[::-1])
    return order


def _header(fh, path, k: int) -> None:
    """Consume and check the header row of a k-coordinate CSV."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise ParseError("missing header row", path, 1) from None
    if len(header) != k + 1:
        raise ParseError(f"expected {k + 1} columns, found {len(header)}", path, 1)


def read_csv(path, k: int) -> np.ndarray:
    """Parse a CSV with a header row, k coordinate columns and one response
    into the (n, k + 1) values; blank lines are skipped.

    The bulk is parsed by ``np.loadtxt``, which converts cells as ``float``
    does, straight from the file.  Any file it rejects (quoted cells, a wrong
    cell count, a bad cell, no data) is parsed again row by row by
    :func:`_parse_rows`, which raises :class:`ParseError` with the path and
    the offending line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        _header(fh, path, k)
        # loadtxt warns on input without data, so find the first data line.
        first = next((line for line in fh if line.strip("\r\n")), None)
        if first is not None:
            try:
                arr = np.loadtxt(itertools.chain([first], fh), delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
            else:
                if arr.shape[1] == k + 1:
                    return arr
    return _parse_rows(path, k)


def _parse_rows(path, k: int) -> np.ndarray:
    """The row-by-row parser behind :func:`read_csv`."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        _header(fh, path, k)
        for lineno, row in enumerate(csv.reader(fh), start=2):
            if not row:
                continue
            if len(row) != k + 1:
                raise ParseError(f"expected {k + 1} cells, found {len(row)}", path, lineno)
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ParseError(str(exc), path, lineno) from None
    if not rows:
        raise ValidationError(f"n >= 1 required: {path} has no data rows")
    return np.asarray(rows, dtype=float)


def write_csv(path, header: list[str], rows) -> None:
    """Write CSV, creating missing directories; floats as ``repr``, the
    shortest decimal that reads back to the same bits, other cells as ``str``."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row]
            )


# ---------------------------------------------------------------------------
# Reproducible RNG streams
# ---------------------------------------------------------------------------


def split_stream(seed: int, ids: Sequence[int]) -> np.random.Generator:
    """The generator addressed by ``ids`` (e.g. (replication, equation)).

    Identical ``(seed, ids)`` pairs produce identical draws regardless of
    process or thread scheduling, because the generator state is derived
    statelessly from the pair.  Generators with distinct ids are
    statistically independent.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in ids))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# Test functions with exact mixed first partials
# ---------------------------------------------------------------------------


class TestFunction:
    """A k-variate function together with all its mixed first-order partials.

    ``deriv(alpha, pts)`` returns the partial in which each coordinate flagged
    by ``alpha`` is differentiated exactly once, at every row of an (m, k)
    point array; the all-zero index returns the function itself, as does
    calling it.  ``partial(alpha)`` is the same partial as an integrand over
    coordinate columns: it takes k arrays that broadcast against each other
    and returns the values in their broadcast shape.  ``deriv_fn(alpha,
    cols)`` computes both.
    """

    def __init__(self, k: int, deriv_fn: Callable, label: str = ""):
        self.k = k
        self._deriv = deriv_fn
        self.label = label

    def __call__(self, pts) -> np.ndarray:
        return self.deriv(DerivIndex.zeros(self.k), pts)

    def deriv(self, alpha: DerivIndex, pts) -> np.ndarray:
        pts = np.atleast_2d(as_float_array(pts, "pts"))
        if pts.ndim != 2 or pts.shape[1] != self.k:
            raise ValidationError(f"pts must be (m, {self.k}), got shape {pts.shape}")
        return np.asarray(self.partial(alpha)(tuple(pts.T)), dtype=float)

    def partial(self, alpha: DerivIndex) -> Callable:
        """The ``alpha`` partial as a function of k broadcastable coordinate
        columns."""
        if alpha.k != self.k:
            raise ValidationError(f"alpha has k={alpha.k}, function has k={self.k}")
        return lambda cols: self._deriv(alpha, cols)

    def __repr__(self):
        return f"TestFunction(k={self.k}, {self.label!r})"


def poly_function(k: int, terms: dict[tuple[int, ...], float], label: str = "") -> TestFunction:
    """Polynomial test function from {exponent tuple: coefficient} terms."""
    for exps in terms:
        if len(exps) != k:
            raise ValidationError(f"exponent tuple {exps} does not have length {k}")

    def _eval_terms(tms, cols):
        out = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in cols)))
        for exps, coef in tms.items():
            mono = np.float64(coef)
            for col, e in zip(cols, exps):
                if e:
                    mono = mono * col**e
            out += mono
        return out

    def _diff(tms, alpha):
        out: dict[tuple[int, ...], float] = {}
        for exps, coef in tms.items():
            e = list(exps)
            c = coef
            dead = False
            for j in alpha.support:
                if e[j] == 0:
                    dead = True
                    break
                c *= e[j]
                e[j] -= 1
            if not dead:
                key = tuple(e)
                out[key] = out.get(key, 0.0) + c
        return out

    return TestFunction(
        k, lambda alpha, cols: _eval_terms(_diff(terms, alpha), cols), label=label or f"poly{terms}"
    )


def product_function(factors: Sequence[tuple[Callable, Callable]], label: str = "") -> TestFunction:
    """Separable product  g(x) = f_1(x_1) ... f_k(x_k)  from (f, f') pairs.

    Each factor runs on its own coordinate column only, and the product is
    taken in coordinate order, ((1 * f_1) * f_2) * f_3.
    """

    def _deriv(alpha, cols):
        out = np.ones(())
        for bit, col, (f, df) in zip(alpha.bits, cols, factors):
            out = out * (df(col) if bit else f(col))
        return out

    return TestFunction(len(factors), _deriv, label=label or "product")
