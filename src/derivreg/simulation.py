"""Cost-function Monte Carlo benchmark and convergence-rate experiments.

The data generator follows a Cobb-Douglas technology: average cost is
degree-one homogeneous in factor prices, AC = r * g(Q, w/r), and average
labor is its price derivative AL = dAC/dw.  Output Q and the price ratio
w/r are drawn uniformly on [0.5, 1.5]; the two equations' Gaussian errors
may be correlated.  The derivative-based estimator reconstructs AC from
the labor data with a windowed cumulative sum plus a windowed average of
the remainder; the reference estimator smooths AC data alone in both
dimensions.  The benchmark reports the ratio of their mean squared errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import ClassVar

import numpy as np

from .core import DataSet, DerivIndex, TestFunction, ValidationError, as_float_array, canonical_order, split_stream, product_function
from .density import DENSITY_FLOOR
from .estimators import EstimationPlan, fit, make_grid, nadaraya_watson_grid
from .functionals import build_term_plan
from .kernels import BandwidthPlan, Workspace, band_sweep

__all__ = [
    "CobbDouglasConfig",
    "SimSample",
    "generate",
    "derivative_ac_curve",
    "BenchmarkRules",
    "McResult",
    "relative_mse_table",
    "RateResult",
    "convergence_rate_experiment",
    "equation_r2",
]

_LO, _HI = 0.5, 1.5  # support of Q and w/r


@dataclass(frozen=True)
class CobbDouglasConfig:
    """The cost/labor technology of the data generator: its constants, the
    sampling settings, and the noise-free functions ``g``, ``ac`` and ``al``."""

    c1: float = 0.8
    c2: float = 0.7
    c: float = 1.0
    sigma: float = 0.35
    rho: float = 0.0
    n: int = 100
    seed: int = 0

    def __post_init__(self):
        if not all(0.0 < x < np.inf for x in (self.c1, self.c2, self.c)):
            raise ValidationError(f"c1, c2, c must be finite and positive, got {self.c1}, {self.c2}, {self.c}")
        if not abs(self.rho) <= 1:
            raise ValidationError(f"|rho| <= 1 required, got {self.rho}")
        if not 0.0 <= self.sigma < np.inf:
            raise ValidationError(f"sigma must be finite and nonnegative, got {self.sigma}")
        for name in ("n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValidationError("n >= 1 required")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    @property
    def c_tilde(self) -> float:
        s = self.c1 + self.c2
        ratio = self.c1 / self.c2
        return (ratio ** (self.c2 / s) + ratio ** (-self.c1 / s)) * self.c ** (-1.0 / s)

    @property
    def q_exponent(self) -> float:
        return (1.0 - self.c1 - self.c2) / (self.c1 + self.c2)

    @property
    def v_exponent(self) -> float:
        return self.c2 / (self.c1 + self.c2)

    def g(self, q, v):
        """Average cost per unit of capital price: AC = r * g(Q, w/r)."""
        return self.c_tilde * np.asarray(q, dtype=float) ** self.q_exponent * np.asarray(
            v, dtype=float
        ) ** self.v_exponent

    def ac(self, q, v, r=1.0):
        return np.asarray(r, dtype=float) * self.g(q, v)

    def al(self, q, v):
        return (
            self.v_exponent
            * self.c_tilde
            * np.asarray(q, dtype=float) ** self.q_exponent
            * np.asarray(v, dtype=float) ** (self.v_exponent - 1.0)
        )


@dataclass(frozen=True)
class SimSample:
    """One generated sample: raw covariates, responses, and oracle truth.

    The capital price ``r`` is one in every row.  ``ds_ac`` holds the cost
    data with covariates shifted onto the unit square (the raw support
    [0.5, 1.5]^2 has unit width, so the map is a pure shift).
    """

    q: np.ndarray
    v: np.ndarray
    r: np.ndarray
    y_ac: np.ndarray
    y_al: np.ndarray
    ac_true: np.ndarray
    al_true: np.ndarray

    @property
    def ds_ac(self) -> DataSet:
        X = np.column_stack([self.q - _LO, self.v - _LO])
        return DataSet(k=2, deriv=DerivIndex.from_string("00"), X=X, Y=self.y_ac)


def generate(cfg: CobbDouglasConfig, path_prefix: tuple[int, ...] = ()) -> SimSample:
    """Draw one sample; streams are addressed (*path_prefix, j) with
    j = 0 output, 1 price ratio, 2 error pair.

    With a fixed prefix, changing rho changes only the error mixing, not the
    covariate draws, which couples Monte Carlo cells across correlations.
    """
    q = split_stream(cfg.seed, (*path_prefix, 0)).uniform(_LO, _HI, cfg.n)
    v = split_stream(cfg.seed, (*path_prefix, 1)).uniform(_LO, _HI, cfg.n)
    z = split_stream(cfg.seed, (*path_prefix, 2)).standard_normal((cfg.n, 2))
    r = np.ones(cfg.n)
    eps_ac = cfg.sigma * z[:, 0]
    eps_al = cfg.sigma * (cfg.rho * z[:, 0] + math.sqrt(1.0 - cfg.rho**2) * z[:, 1])
    ac_true = cfg.ac(q, v, r)
    al_true = cfg.al(q, v)
    return SimSample(
        q=q, v=v, r=r, y_ac=ac_true + eps_ac, y_al=al_true + eps_al, ac_true=ac_true, al_true=al_true
    )


# ---------------------------------------------------------------------------
# Derivative-based average-cost estimator
# ---------------------------------------------------------------------------


def derivative_ac_curve(
    sample: SimSample,
    eval_q: np.ndarray,
    eval_v: np.ndarray,
    eval_r: np.ndarray | float,
    h: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized derivative-based AC estimate at many (Q, w/r, r) points.

    Part a cumulates labor responses over the price ratio inside a Q-window
    of width h; part b averages the window remainder of the cost responses.
    Both windowed sums are normalized by the realized window count, which is
    the boxcar-average form: the price ratio is uniform on a unit-width
    interval, so the estimand is unchanged while the normalizer stops
    injecting window-count noise proportional to the level of the target.
    Returns (part_a, part_b, part_a + part_b).  Raises on evaluation inputs
    of unequal length or not finite, and if any Q-window is empty.

    The rows are sorted once, in the canonical order of (q, v, r, y_al,
    y_ac) (:func:`derivreg.core.canonical_order`).  Both passes (part a at
    the data points, then both parts at the evaluation points) are
    sorted-band sweeps over them in Q (:func:`derivreg.kernels.band_sweep`,
    which gives their tiles, time and memory), each tile reading only the
    rows within h/2 of it.  Each pass keeps one
    :class:`derivreg.kernels.Workspace` for all its tiles, so its slabs are
    allocated once, not once per tile.  Sums run in canonical row order, so
    the result is bitwise invariant under row permutations of the sample.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValidationError(f"window width h must be finite and positive, got {h}")
    eval_q = np.atleast_1d(as_float_array(eval_q, "eval_q"))
    eval_v = np.atleast_1d(as_float_array(eval_v, "eval_v"))
    eval_r = as_float_array(eval_r, "eval_r")
    if eval_v.shape != eval_q.shape or (eval_r.ndim and eval_r.shape != eval_q.shape):
        raise ValidationError("eval_q, eval_v and an array eval_r must have one length")
    eval_r = np.broadcast_to(eval_r, eval_q.shape)
    if not all(np.isfinite(a).all() for a in (eval_q, eval_v, eval_r)):
        raise ValidationError("evaluation values must be finite")
    keys = (sample.q, sample.v, sample.r, sample.y_al, sample.y_ac)
    order = canonical_order(keys)
    q, v, r, y_al, y_ac = (key[order] for key in keys)

    def windowed_sums(tiles, pts_q, pts_v, *vals_win):
        """Per point: window count, cum-masked y_al sum, and the window sum of
        each array in ``vals_win``."""
        m = pts_q.shape[0]
        counts = np.empty(m, dtype=np.int64)
        cum_sums = np.empty(m)
        win_sums = [np.empty(m) for _ in vals_win]
        work = Workspace()
        for idx, rows in tiles:
            shape = (idx.size, rows.size)
            slab = np.subtract(q[None, rows], pts_q[idx, None], out=work.take("slab", shape))
            win = np.less_equal(np.abs(slab, out=slab), 0.5 * h, out=work.take("win", shape, bool))
            counts[idx] = win.sum(axis=1)
            cum = np.less_equal(v[None, rows], pts_v[idx, None], out=work.take("cum", shape, bool))
            np.bitwise_and(win, cum, out=cum)
            cum_sums[idx] = np.multiply(cum, y_al[None, rows], out=slab).sum(axis=1)
            for out, vals in zip(win_sums, vals_win):
                out[idx] = np.multiply(win, vals[None, rows], out=slab).sum(axis=1)
        return counts, cum_sums, *win_sums

    # part a at the data points themselves (needed for the part-b remainder)
    counts_d, cum_d = windowed_sums(band_sweep(q, 0.5 * h), q, v)
    resid = (y_ac - r * cum_d / counts_d) / r
    counts, cum_sums, win_sums = windowed_sums(band_sweep(q, 0.5 * h, eval_q), eval_q, eval_v, resid)
    if not np.all(counts > 0):
        raise ValidationError(f"empty Q-window at width h={h}; increase h")
    ga = eval_r * cum_sums / counts
    gb = eval_r * win_sums / counts
    return ga, gb, ga + gb


# ---------------------------------------------------------------------------
# Relative-MSE benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkRules:
    """Bandwidth and evaluation rules for the relative-MSE benchmark.

    Both estimators use rate-correct bandwidths with free constants; the
    defaults were fixed by a calibration run recorded in the repository
    metadata.  MSE is measured at the in-sample design points with both
    covariates inside the trim interval, which keeps window starvation at
    the support edges out of the comparison.
    """

    h_deriv_const: float = 0.35
    h_base_const: float = 0.30
    h_deriv_expo: ClassVar[float] = 1.0 / 5.0
    h_base_expo: ClassVar[float] = 1.0 / 4.0
    trim: ClassVar[tuple[float, float]] = (0.6, 1.4)
    base_order: ClassVar[int] = 2
    base_floor: ClassVar[float] = DENSITY_FLOOR

    def __post_init__(self):
        if not (0.0 < self.h_deriv_const < np.inf and 0.0 < self.h_base_const < np.inf):
            raise ValidationError("bandwidth constants must be finite and positive")

    def h_deriv(self, n: int) -> float:
        return self.h_deriv_const * float(n) ** (-self.h_deriv_expo)

    def h_base(self, n: int) -> float:
        return self.h_base_const * float(n) ** (-self.h_base_expo)


@dataclass(frozen=True)
class McResult:
    """One benchmark cell: MSEs, their ratio, and the ratio's MC error."""

    n: int
    rho: float
    mse_deriv: float
    mse_base: float
    ratio: float
    reps: int
    se_ratio: float


def _replication_mses(
    cfg: CobbDouglasConfig, rhos: tuple[float, ...], rep: int, rules: BenchmarkRules
) -> list[tuple[float, float]]:
    """(derivative-based MSE, baseline MSE) over trimmed in-sample points,
    one pair per rho, for replication ``rep`` of ``cfg``'s n.

    The baseline smooths the cost data alone.  :func:`generate` draws the
    same Q, w/r and cost errors for every rho, so the baseline is fitted once,
    on the first rho's sample, and its MSE is shared by every rho.  Each later
    rho's sample is drawn only when its AC curve needs it, after the first
    sample and the baseline's arrays are freed, so one sample is alive at a
    time, as when each rho was a replication of its own.  The capital price
    r is one in every row, so the curve is evaluated at r = 1 and the baseline
    smooths the cost data as drawn.
    """
    sample = generate(replace(cfg, rho=rhos[0]), path_prefix=(rep,))
    lo, hi = rules.trim
    keep = (sample.q >= lo) & (sample.q <= hi) & (sample.v >= lo) & (sample.v <= hi)
    if not np.any(keep):
        return [(math.nan, math.nan)] * len(rhos)

    def mse_deriv(sample: SimSample) -> float:
        _, _, ac_hat = derivative_ac_curve(sample, sample.q[keep], sample.v[keep], 1.0, rules.h_deriv(cfg.n))
        return float(np.mean((ac_hat - sample.ac_true[keep]) ** 2))

    mse_d = [mse_deriv(sample)]
    X = np.column_stack([sample.q - _LO, sample.v - _LO])
    g_hat = nadaraya_watson_grid(
        X,
        sample.y_ac,
        X[keep],
        rules.h_base(cfg.n),
        d=rules.base_order,
        den_floor=rules.base_floor,
        widen_on_empty=True,
    )
    mse_b = float(np.mean((g_hat - sample.ac_true[keep]) ** 2))
    del sample, X, g_hat
    mse_d += [mse_deriv(generate(replace(cfg, rho=rho), path_prefix=(rep,))) for rho in rhos[1:]]
    return [(d, mse_b) for d in mse_d]


def relative_mse_table(
    ns=(100, 200, 500, 1000),
    rhos=(0.0, 0.4, 0.9),
    reps: int = 1000,
    seed: int = 42,
    sigma: float = CobbDouglasConfig.sigma,
    rules: BenchmarkRules | None = None,
    workers: int = 1,
) -> tuple[list[McResult], dict]:
    """Monte Carlo table of derivative-based vs baseline MSE ratios.

    Returns the per-cell summaries, in (n, rho) order, and a details dict
    with the per-replication MSE arrays.  Output is bit-identical for fixed
    (ns, rhos, reps, seed) regardless of ``workers``: replication r of every
    cell uses streams derived from (seed, r, equation), and results merge in
    replication order.  The data come from ``CobbDouglasConfig(sigma=sigma,
    seed=seed)`` with each cell's n and rho.

    Every input is checked before any work: ``reps`` and ``workers`` must be
    at least 1, every n at least 2, every rho in [-1, 1] (the config's rule),
    and ``ns`` and ``rhos`` must each list one or more distinct values (0.0
    and -0.0 are one rho), since each (n, rho) is one cell.

    One task is an (n, replication) pair covering all rhos; the task list
    runs n-major, so the i-th n owns tasks [i * reps, (i + 1) * reps).  The
    baseline never sees the labor equation, and the cost data of replication
    r are the same at every rho, so the baseline is fitted once per task and
    every rho cell of that n shares its MSE.  One task costs one NW fit plus
    one AC curve per rho.  With ``workers > 1`` one process pool serves the
    whole list in chunks of ceil(reps / workers) consecutive tasks.
    """
    if reps < 1:
        raise ValidationError("--reps must be >= 1")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    ns = [int(n) for n in ns]
    if not ns or min(ns) < 2:
        raise ValidationError("sample sizes must be >= 2")
    rules = rules or BenchmarkRules()
    base = CobbDouglasConfig(sigma=sigma, seed=seed)
    rhos = tuple(replace(base, rho=float(rho)).rho for rho in rhos)
    if not rhos or len(set(ns)) < len(ns) or len(set(rhos)) < len(rhos):
        raise ValidationError(f"ns and rhos must each list one or more distinct values, got {ns} and {list(rhos)}")
    cfgs = [replace(base, n=n) for n in ns for _ in range(reps)]
    tasks = (cfgs, repeat(rhos), list(range(reps)) * len(ns), repeat(rules))
    if workers > 1:
        # Imported here: only worker pools need them, and every other
        # run would pay their import time.  Spawned workers, because forking
        # a process that holds BLAS threads is unsafe.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            per_task = list(pool.map(_replication_mses, *tasks, chunksize=math.ceil(reps / workers)))
    else:
        per_task = list(map(_replication_mses, *tasks))
    results: list[McResult] = []
    details: dict[tuple[int, float], dict[str, np.ndarray]] = {}
    for i, n in enumerate(ns):
        per_rep = per_task[i * reps : (i + 1) * reps]
        for j, rho in enumerate(rhos):
            a = np.array([pairs[j][0] for pairs in per_rep])
            b = np.array([pairs[j][1] for pairs in per_rep])
            results.append(_summarize_cell(n, rho, a, b))
            details[(n, rho)] = {"mse_deriv": a, "mse_base": b}
    meta = {
        "seed": seed,
        "reps": reps,
        "stream_layout": "(replication, equation): 0=Q, 1=w/r, 2=errors",
        "rules": {
            "h_deriv": f"{rules.h_deriv_const}*n^(-{rules.h_deriv_expo})",
            "h_base": f"{rules.h_base_const}*n^(-{rules.h_base_expo})",
            "trim": list(rules.trim),
            "base_order": rules.base_order,
            "base_floor": rules.base_floor,
        },
        "config": {
            "c1": base.c1,
            "c2": base.c2,
            "c": base.c,
            "sigma": base.sigma,
        },
    }
    return results, {"cells": details, "metadata": meta}


def _summarize_cell(n: int, rho: float, a: np.ndarray, b: np.ndarray) -> McResult:
    m = a.shape[0]
    abar, bbar = float(a.mean()), float(b.mean())
    # A tiny noiseless sample can be fitted exactly: a zero mean MSE gives NaN.
    ratio = abar / bbar if bbar else math.nan
    if m > 1 and abar and bbar:
        va = float(a.var(ddof=1)) / m
        vb = float(b.var(ddof=1)) / m
        cab = float(np.cov(a, b, ddof=1)[0, 1]) / m
        se = abs(ratio) * math.sqrt(
            max(va / abar**2 + vb / bbar**2 - 2.0 * cab / (abar * bbar), 0.0)
        )
    else:
        se = math.nan
    return McResult(n=n, rho=rho, mse_deriv=abar, mse_base=bbar, ratio=ratio, reps=m, se_ratio=se)


# ---------------------------------------------------------------------------
# Convergence-rate experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateResult:
    slope: float
    se: float
    ns: tuple[int, ...]
    mse: tuple[float, ...]


def _rate_test_function(k: int) -> TestFunction:
    factor = (lambda t: t * t + t + 0.3, lambda t: 2.0 * t + 1.0)
    return product_function([factor] * k, label="prod(t^2+t+0.3)")


def _rate_rep_mse(
    k: int, p: int, d: int, n: int, rep: int, seed: int, g: TestFunction, pts: np.ndarray, sigma: float
) -> float:
    if p == 0:
        X = split_stream(seed, (rep, 0)).uniform(size=(n, k))
        eps = split_stream(seed, (rep, 1)).standard_normal(n)
        Y = g(X) + sigma * eps
        h = BandwidthPlan(h_const=0.7).h(n, d, k)
        vals = nadaraya_watson_grid(X, Y, pts, h, d=d, widen_on_empty=True)
        return float(np.mean((vals - g(pts)) ** 2))

    term_plan = build_term_plan(k, range(p), 0)
    datasets = {}
    for j, idx in enumerate(term_plan.required_indices):
        X = split_stream(seed, (rep, 2 * j)).uniform(size=(n, k))
        eps = split_stream(seed, (rep, 2 * j + 1)).standard_normal(n)
        datasets[idx] = DataSet(k=k, deriv=idx, X=X, Y=g.deriv(idx, X) + sigma * eps)
    plan = EstimationPlan(term_plan, datasets, d=d if p < k else None, bandwidths=BandwidthPlan(h_const=0.8))
    res = fit(plan, pts)
    return float(np.mean((res.values - g(pts)) ** 2))


def convergence_rate_experiment(
    k: int,
    p: int,
    d: int,
    ns=(250, 500, 1000, 2000, 4000, 8000),
    reps: int = 200,
    seed: int = 7,
    sigma: float = 1.0,
) -> RateResult:
    """Least-squares slope of log MSE against log n.

    p = k exercises the pure nonlocal (root-n) estimator, 0 < p < k the
    partially smoothed one, and p = 0 the full-dimensional baseline.
    """
    if len(ns) < 4 or max(ns) < 10 * min(ns):
        raise ValidationError("n-grid needs >= 4 points spanning at least one decade")
    g = _rate_test_function(k)
    pts = make_grid(k, 3, offset=0.3)
    mses = []
    for n in ns:
        acc = 0.0
        for rep in range(reps):
            acc += _rate_rep_mse(k, p, d, int(n), rep, seed, g, pts, sigma)
        mses.append(acc / reps)
    logn = np.log(np.asarray(ns, dtype=float))
    logm = np.log(np.asarray(mses))
    A = np.column_stack([np.ones_like(logn), logn])
    coef, *_ = np.linalg.lstsq(A, logm, rcond=None)
    dof = len(ns) - 2
    resid = logm - A @ coef
    s2 = float(resid @ resid) / dof if dof > 0 else math.nan
    cov = s2 * np.linalg.inv(A.T @ A)
    return RateResult(
        slope=float(coef[1]), se=float(math.sqrt(cov[1, 1])), ns=tuple(int(n) for n in ns), mse=tuple(mses)
    )


def equation_r2(cfg: CobbDouglasConfig, n: int) -> tuple[float, float]:
    """Empirical signal fraction 1 - var(eps)/var(y) for the two equations."""
    if n < 100:
        raise ValidationError("n >= 100 required for a stable variance estimate")
    sample = generate(replace(cfg, n=int(n)))
    r2_ac = 1.0 - float(np.var(sample.y_ac - sample.ac_true) / np.var(sample.y_ac))
    r2_al = 1.0 - float(np.var(sample.y_al - sample.al_true) / np.var(sample.y_al))
    return r2_ac, r2_al
