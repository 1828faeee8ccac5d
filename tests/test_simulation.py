import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference

from derivreg import (
    CobbDouglasConfig,
    ValidationError,
    convergence_rate_experiment,
    derivative_ac_curve,
    equation_r2,
    generate,
    relative_mse_table,
)
from derivreg import nadaraya_watson_grid, simulation
from derivreg.simulation import BenchmarkRules, _replication_mses, _windows


class TestConfigAndOracle:
    def test_c_tilde_value(self):
        # direct arithmetic: (8/7)^(7/15) + (8/7)^(-8/15) with c1 = 0.8, c2 = 0.7, c = 1
        cfg = CobbDouglasConfig()
        assert (cfg.c1, cfg.c2, cfg.c) == (0.8, 0.7, 1.0)
        expected = (8.0 / 7.0) ** (7.0 / 15.0) + (8.0 / 7.0) ** (-8.0 / 15.0)
        assert cfg.c_tilde == pytest.approx(expected, abs=1e-12)
        assert cfg.c_tilde == pytest.approx(1.9956, abs=5e-4)

    def test_labor_is_price_derivative_of_cost(self):
        cfg = CobbDouglasConfig()
        q, v, r, dw = 1.1, 0.9, 1.3, 1e-6
        # AC as a function of (w, r) with v = w/r; AL = dAC/dw
        ac = lambda w: cfg.ac(q, w / r, r)
        fd = (ac(v * r + dw) - ac(v * r - dw)) / (2 * dw)
        assert fd == pytest.approx(float(cfg.al(q, v)), rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CobbDouglasConfig(rho=1.5)
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValidationError, match="sigma"):
                CobbDouglasConfig(sigma=bad)
        with pytest.raises(ValidationError, match="rho"):
            CobbDouglasConfig(rho=np.nan)

    @pytest.mark.parametrize("bad", [True, 100.0, 2.5, "100"])
    def test_non_integer_n_rejected(self, bad):
        with pytest.raises(ValidationError, match="^n must be an integer"):
            CobbDouglasConfig(n=bad)

    @pytest.mark.parametrize("bad", [False, 1.0, "3"])
    def test_non_integer_seed_rejected(self, bad):
        with pytest.raises(ValidationError, match="^seed must be an integer"):
            CobbDouglasConfig(seed=bad)

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence raised its own ValueError inside generate.
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
            CobbDouglasConfig(seed=-1)

    def test_numpy_integers_accepted(self):
        cfg = CobbDouglasConfig(n=np.int64(30), seed=np.int32(4))
        assert generate(cfg).q.shape == (30,)


class TestGenerate:
    def test_independent_errors_when_rho_zero(self):
        sample = generate(CobbDouglasConfig(n=100_000, rho=0.0, seed=1))
        corr = np.corrcoef(sample.y_ac - sample.ac_true, sample.y_al - sample.al_true)[0, 1]
        assert abs(corr) <= 0.01

    def test_correlated_errors(self):
        sample = generate(CobbDouglasConfig(n=100_000, rho=0.9, seed=1))
        corr = np.corrcoef(sample.y_ac - sample.ac_true, sample.y_al - sample.al_true)[0, 1]
        assert corr == pytest.approx(0.9, abs=0.01)

    def test_noiseless_observations_equal_oracle(self):
        sample = generate(CobbDouglasConfig(n=50, sigma=0.0, seed=2))
        assert np.array_equal(sample.y_ac, sample.ac_true)
        assert np.array_equal(sample.y_al, sample.al_true)

    def test_rho_changes_only_error_draws(self):
        a = generate(CobbDouglasConfig(n=500, rho=0.0, seed=3), path_prefix=(4,))
        b = generate(CobbDouglasConfig(n=500, rho=0.9, seed=3), path_prefix=(4,))
        assert np.array_equal(a.q, b.q) and np.array_equal(a.v, b.v)
        assert np.array_equal(a.y_ac - a.ac_true, b.y_ac - b.ac_true)  # AC errors coupled
        # The MC table fits the baseline once for all rhos on these two arrays.
        assert a.y_ac.tobytes() == b.y_ac.tobytes()
        assert a.ac_true.tobytes() == b.ac_true.tobytes()
        assert not np.array_equal(a.y_al - a.al_true, b.y_al - b.al_true)

    def test_truth_is_the_config_functions(self):
        cfg = CobbDouglasConfig(n=200, rho=0.4, seed=6)
        sample = generate(cfg, path_prefix=(3,))
        assert sample.ac_true.tobytes() == cfg.ac(sample.q, sample.v).tobytes()
        assert sample.al_true.tobytes() == cfg.al(sample.q, sample.v).tobytes()

    def test_datasets_are_unit_cube(self):
        sample = generate(CobbDouglasConfig(n=20, seed=5))
        assert sample.ds_ac.X.min() >= 0.0 and sample.ds_ac.X.max() <= 1.0


class TestDerivativeAcEstimator:
    def test_zero_labor_gives_windowed_cost_mean(self):
        cfg = CobbDouglasConfig(n=60, seed=7)
        sample = replace(generate(cfg), y_al=np.zeros(cfg.n))
        q0, v0, h = 1.0, 1.1, 0.4
        ga, gb, ac = derivative_ac_curve(sample, [q0], [v0], 1.0, h)
        assert ga[0] == 0.0
        win = np.abs(sample.q - q0) <= 0.5 * h
        assert ac[0] == pytest.approx(sample.y_ac[win].sum() / win.sum(), rel=1e-14)

    def test_doubling_responses_doubles_estimate(self):
        cfg = CobbDouglasConfig(n=80, seed=8)
        s1 = generate(cfg)
        s2 = replace(s1, y_ac=2.0 * s1.y_ac, y_al=2.0 * s1.y_al)
        a = derivative_ac_curve(s1, [1.0], [1.0], 1.0, 0.3)[2][0]
        b = derivative_ac_curve(s2, [1.0], [1.0], 1.0, 0.3)[2][0]
        assert b == 2.0 * a

    def test_empty_window_errors(self):
        cfg = CobbDouglasConfig(n=30, seed=9)
        sample = generate(cfg)
        with pytest.raises(ValidationError, match="increase h"):
            derivative_ac_curve(sample, [5.0], [1.0], 1.0, 0.01)

    def test_consistent_in_the_large(self):
        cfg = CobbDouglasConfig(n=40_000, sigma=0.05, seed=10)
        sample = generate(cfg)
        est = derivative_ac_curve(sample, [1.0], [1.0], 1.0, h=0.05)[2][0]
        truth = float(cfg.ac(1.0, 1.0))
        assert est == pytest.approx(truth, abs=0.02)


def _sample(q, v, r, y_ac, y_al):
    """A SimSample carrying the given rows (truth fields are unused here)."""
    base = generate(CobbDouglasConfig(n=len(q), seed=0))
    arrays = dict(q=q, v=v, r=r, y_ac=y_ac, y_al=y_al)
    return replace(base, **{name: np.asarray(a, dtype=float) for name, a in arrays.items()})


def _naive_ac(s, eq, ev, er, h):
    rows = [a.tolist() for a in (s.q, s.v, s.r, s.y_ac, s.y_al)]
    return np.array([reference.derivative_ac(*rows, q0, v0, r0, h) for q0, v0, r0 in zip(eq, ev, er)])


# Dyadic values put data exactly on window edges q0 +- h/2; free floats fill in.
_dyadic = st.sampled_from([0.5 + j / 8 for j in range(9)])
_q = st.one_of(_dyadic, st.floats(0.5, 1.5))
_y = st.one_of(st.sampled_from([-1.0, 0.5, 2.0]), st.floats(-3.0, 3.0))


@st.composite
def _ac_problems(draw, max_n, max_m):
    """(sample, eval_q, eval_v, eval_r, h); some rows share a prefix of
    (q, v, r, y_al, y_ac) with another row, up to an exact repeat."""
    n = draw(st.one_of(st.integers(1, 20), st.integers(65, max_n)))  # one block or several
    r = st.one_of(st.sampled_from([0.75, 1.0]), st.floats(0.5, 1.5))
    cols = [draw(st.lists(c, min_size=n, max_size=n)) for c in (_q, _q, r, _y, _y)]
    rows = [list(t) for t in zip(*cols)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5))
    for src, dst, width in draw(st.lists(pairs, max_size=n // 2)):
        rows[dst][:width] = rows[src][:width]
    q, v, r, y_al, y_ac = (np.array(c) for c in zip(*rows))
    m = draw(st.one_of(st.integers(1, 20), st.integers(65, max_m)))
    at_data = st.sampled_from(sorted(set(q.tolist())))
    evals = [np.array(draw(st.lists(st.one_of(_q, at_data), min_size=m, max_size=m)))]
    evals += [np.array(draw(st.lists(_q, min_size=m, max_size=m))) for _ in range(2)]
    h = draw(st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0]), st.floats(0.01, 1.2)))
    return _sample(q, v, r, y_ac, y_al), *evals, h


class TestWindowedSweep:
    """derivative_ac_curve's sorted-band sweep against the naive oracle."""

    @settings(max_examples=40, deadline=None)
    @given(_ac_problems(max_n=90, max_m=80))
    def test_matches_naive_oracle(self, problem):
        s, eq, ev, er, h = problem
        if np.any(np.all(np.abs(s.q[None, :] - eq[:, None]) > 0.5 * h, axis=1)):
            with pytest.raises(ValidationError, match="empty Q-window"):
                derivative_ac_curve(s, eq, ev, er, h)
            return
        _, _, got = derivative_ac_curve(s, eq, ev, er, h)
        want = _naive_ac(s, eq, ev, er, h)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_rows_exactly_on_window_edges(self):
        # h = 0.25 at q0 = 1.0: rows at 0.875 and 1.125 are in, their neighbours out.
        q = [0.875, 1.0, 1.125, np.nextafter(1.125, 2.0), np.nextafter(0.875, 0.0), 1.3]
        s = _sample(q, [0.9, 1.2, 0.7, 0.8, 0.6, 1.0], [1.0, 1.2, 0.8, 1.0, 1.1, 0.9],
                    [2.0, 1.5, 1.0, -4.0, 8.0, 3.0], [0.5, 0.25, 1.0, 16.0, 32.0, 2.0])
        ga, gb, ac = derivative_ac_curve(s, [1.0], [1.0], 1.0, 0.25)
        assert ga[0] == (0.5 + 1.0) / 3  # v <= 1.0 among the three in-window rows
        assert ac[0] == pytest.approx(_naive_ac(s, [1.0], [1.0], [1.0], 0.25)[0], abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(_ac_problems(max_n=200, max_m=80), st.randoms(use_true_random=False))
    def test_row_permutation_invariance_bitwise(self, problem, rnd):
        s, eq, ev, er, h = problem
        perm = np.array(rnd.sample(range(len(s.q)), len(s.q)))
        shuffled = _sample(s.q[perm], s.v[perm], s.r[perm], s.y_ac[perm], s.y_al[perm])
        try:
            a = derivative_ac_curve(s, eq, ev, er, h)
        except ValidationError:
            with pytest.raises(ValidationError):
                derivative_ac_curve(shuffled, eq, ev, er, h)
            return
        b = derivative_ac_curve(shuffled, eq, ev, er, h)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_memory_stays_bounded_at_large_n(self):
        # The dense m x n window blocks took 20 MB of masks plus 160 MB of products.
        sample = generate(CobbDouglasConfig(n=20_000, seed=3))
        tracemalloc.start()
        try:
            derivative_ac_curve(sample, sample.q[:2000], sample.v[:2000], 1.0, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


@st.composite
def _multi_column_problems(draw, max_n, max_m):
    """An _ac_problems problem whose y_al has R = 2 or 3 columns.  Some rows
    tie with another in (q, v, r) and in the first column; the later columns
    are drawn apart, so they order such rows differently."""
    s, eq, ev, er, h = draw(_ac_problems(max_n, max_m))
    n = len(s.q)
    keys = [s.q.copy(), s.v.copy(), s.r.copy(), s.y_al.copy()]
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2)):
        for key in keys:
            key[dst] = key[src]
    later = [draw(st.lists(_y, min_size=n, max_size=n)) for _ in range(draw(st.integers(1, 2)))]
    return _sample(*keys[:3], s.y_ac, np.column_stack([keys[3], *later])), eq, ev, er, h


class TestSharedSweep:
    """One call with R labor columns: every column's curve in one sweep."""

    @settings(max_examples=40, deadline=None)
    @given(_multi_column_problems(max_n=120, max_m=80))
    def test_r_columns_equal_r_one_column_calls_bitwise(self, problem):
        s, eq, ev, er, h = problem
        try:
            joint = derivative_ac_curve(s, eq, ev, er, h)
        except ValidationError:
            with pytest.raises(ValidationError, match="empty Q-window"):
                derivative_ac_curve(replace(s, y_al=s.y_al[:, 0]), eq, ev, er, h)
            return
        assert all(part.shape == (s.y_al.shape[1], len(eq)) for part in joint)
        for j in range(s.y_al.shape[1]):
            alone = derivative_ac_curve(replace(s, y_al=s.y_al[:, j]), eq, ev, er, h)
            assert all(a[j].tobytes() == b.tobytes() for a, b in zip(joint, alone))

    @settings(max_examples=40, deadline=None)
    @given(_multi_column_problems(max_n=120, max_m=80), st.randoms(use_true_random=False))
    def test_row_permutation_invariance_with_ties_broken_by_later_columns(self, problem, rnd):
        s, eq, ev, er, h = problem
        perm = np.array(rnd.sample(range(len(s.q)), len(s.q)))
        shuffled = _sample(s.q[perm], s.v[perm], s.r[perm], s.y_ac[perm], s.y_al[perm])
        try:
            a = derivative_ac_curve(s, eq, ev, er, h)
        except ValidationError:
            with pytest.raises(ValidationError):
                derivative_ac_curve(shuffled, eq, ev, er, h)
            return
        b = derivative_ac_curve(shuffled, eq, ev, er, h)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_q, min_size=1, max_size=5),
        st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0]), st.floats(1e-6, 1.2)),
        st.lists(st.tuples(st.integers(0, 4), st.booleans(), st.integers(-3, 3)), min_size=1, max_size=30),
        st.lists(st.floats(0.0, 2.0), max_size=10),
    )
    def test_window_bounds_equal_the_predicate_on_float_edges(self, q0, h, near, free):
        # Rows on q0 +- h/2 and up to three floats either side of each edge,
        # some of them repeated, among free rows.
        q0 = np.array(q0)
        q = list(free)
        for point, upper, steps in near:
            x = q0[point % q0.size] + (0.5 * h if upper else -0.5 * h)
            for _ in range(abs(steps)):
                x = np.nextafter(x, np.sign(steps) * np.inf)
            q += [x, x][: 1 + (steps % 2)]
        q = np.sort(np.array(q))
        lo, hi = _windows(q, q0, h)
        for x, a, b in zip(q0, lo, hi):
            assert np.array_equal(np.flatnonzero(np.abs(q - x) <= 0.5 * h), np.arange(a, b))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_q, min_size=1, max_size=6),
        st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0]), st.floats(1e-6, 1.2)),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4), st.integers(1, 4)), min_size=1, max_size=30),
    )
    def test_integer_window_mask_equals_the_float_predicate(self, q0, h, picks):
        # The curve's part a builds each tile's window mask from the bounds
        # [lo, hi) of _windows over the union of the tile's windows.  Rows
        # repeat up to four times at q0, q0 +- h/2 exactly and the floats
        # beside q0 + h/2; points repeat too.
        q0 = np.array(q0)
        c = 0.5 * h
        q = []
        for point, where, copies in picks:
            x = q0[point % q0.size]
            x = [x, x - c, x + c, np.nextafter(x + c, -np.inf), np.nextafter(x + c, np.inf)][where]
            q += [x] * copies
        q = np.sort(np.array(q))
        lo, hi = _windows(q, q0, h)
        a, b = lo.min(), hi.max()
        rows = np.arange(a, b)
        mask = (rows >= lo[:, None]) & (rows < hi[:, None])
        want = np.abs(q[None, :] - q0[:, None]) <= c
        assert np.array_equal(mask, want[:, a:b])
        assert not want[:, :a].any() and not want[:, b:].any()



@st.composite
def _eval_point_problems(draw):
    """(sample, base, picks, perm, h): evaluation points (q, v, r) =
    ``base[picks]`` and a permutation of them.  ``base`` is a grid in
    (q, v), points tied in q or v, or free points; ``picks`` takes every
    base point once and up to 150 of them again."""
    s, _, _, _, h = draw(_ac_problems(max_n=200, max_m=65))
    r = st.one_of(st.sampled_from([0.75, 1.0]), st.floats(0.5, 1.5))
    kind = draw(st.sampled_from(["grid", "tied", "free"]))
    if kind == "grid":
        qv = list(itertools.product(*(draw(st.lists(_q, min_size=1, max_size=10)) for _ in range(2))))
    else:
        qv = draw(st.lists(st.tuples(_q, _q), min_size=1, max_size=100))
    base = np.column_stack([np.array(qv), draw(st.lists(r, min_size=len(qv), max_size=len(qv)))])
    if kind == "tied":
        base[:, draw(st.integers(0, 1))] = draw(_q)
    extra = draw(st.lists(st.integers(0, len(base) - 1), max_size=150))
    picks = np.concatenate([np.arange(len(base)), np.array(extra, dtype=int)])
    return s, base, picks, np.array(draw(st.permutations(range(picks.size)))), h


def _repeated_rows_example():
    """300 of the sample's own points, each seven times, in a shuffled order."""
    s = generate(CobbDouglasConfig(n=4000, seed=2))
    base = np.column_stack([s.q[:300], s.v[:300], np.ones(300)])
    return s, base, np.repeat(np.arange(300), 7), np.random.default_rng(35).permutation(2100), 0.1


class TestEvaluationPoints:
    """derivative_ac_curve evaluates each distinct point once, so its values
    depend on the set of points alone."""

    @settings(max_examples=40, deadline=None)
    @given(_eval_point_problems())
    @example(_repeated_rows_example())
    def test_copies_agree_and_permutations_permute_bitwise(self, problem):
        s, base, picks, perm, h = problem
        pts = base[picks]
        try:
            got = derivative_ac_curve(s, *pts.T, h)
        except ValidationError:
            with pytest.raises(ValidationError, match="empty Q-window"):
                derivative_ac_curve(s, *pts[perm].T, h)
            return
        first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)[1:]
        copy_of = first[inverse.reshape(-1)]
        shuffled = derivative_ac_curve(s, *pts[perm].T, h)
        for part, moved in zip(got, shuffled):
            assert part.tobytes() == part[copy_of].tobytes()
            assert moved.tobytes() == part[perm].tobytes()


def _same_details(a, b):
    """The two details dicts hold the same cells with bitwise-equal arrays."""
    return list(a["cells"]) == list(b["cells"]) and all(
        a["cells"][cell][name].tobytes() == b["cells"][cell][name].tobytes()
        for cell in a["cells"]
        for name in ("mse_deriv", "mse_base")
    )


class TestBenchmark:
    def test_deterministic_across_runs_and_workers(self):
        args = dict(ns=(60, 80), rhos=(0.0, 0.9), reps=12, seed=11)
        a, da = relative_mse_table(**args, workers=1)
        b, db = relative_mse_table(**args, workers=1)
        c, dc = relative_mse_table(**args, workers=3)
        assert a == b == c
        assert _same_details(da, db) and _same_details(da, dc)

    def test_rho_cells_share_the_baseline(self):
        _, details = relative_mse_table(ns=(60, 80), rhos=(0.0, 0.4, 0.9), reps=4, seed=15)
        for n in (60, 80):
            base = details["cells"][(n, 0.0)]["mse_base"].tobytes()
            assert all(details["cells"][(n, rho)]["mse_base"].tobytes() == base for rho in (0.4, 0.9))

    def test_one_baseline_fit_per_n_and_replication(self, monkeypatch):
        calls = {"nw": 0, "ac": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(simulation, "nadaraya_watson_grid", counted("nw", simulation.nadaraya_watson_grid))
        monkeypatch.setattr(simulation, "derivative_ac_curve", counted("ac", simulation.derivative_ac_curve))
        relative_mse_table(ns=(60, 80), rhos=(0.0, 0.4, 0.9), reps=3, seed=16)
        # One AC curve call per (n, replication) sweeps all three rhos.
        assert calls == {"nw": 6, "ac": 6}

    def test_multi_rho_table_equals_one_rho_tables(self):
        rhos = (0.0, 0.4, 0.9)
        joint, joint_details = relative_mse_table(ns=(60, 80), rhos=rhos, reps=3, seed=17)
        single = [relative_mse_table(ns=(60, 80), rhos=(rho,), reps=3, seed=17) for rho in rhos]
        # The joint table lists cells n-major: (60, rho...), (80, rho...).
        assert joint == [single[j][0][i] for i in range(2) for j in range(3)]
        cells = {(n, rho): single[j][1]["cells"][(n, rho)] for n in (60, 80) for j, rho in enumerate(rhos)}
        assert _same_details(joint_details, {"cells": cells})

    def test_one_draw_serves_every_rho(self, monkeypatch):
        # Q, w/r and the error pair are drawn once per replication, and each
        # labor column is bit for bit that rho's own generate call.
        cfg, rhos, rep = CobbDouglasConfig(n=300, seed=21), (0.0, 0.4, 0.9), 2
        draws, samples = [], []
        split_stream, curve = simulation.split_stream, simulation.derivative_ac_curve
        monkeypatch.setattr(simulation, "split_stream", lambda *a: draws.append(a) or split_stream(*a))
        monkeypatch.setattr(simulation, "derivative_ac_curve", lambda s, *a: samples.append(s) or curve(s, *a))
        _replication_mses(cfg, rhos, rep, BenchmarkRules())
        monkeypatch.undo()
        assert len(draws) == 3 and len(samples) == 1
        for j, rho in enumerate(rhos):
            own = generate(replace(cfg, rho=rho), path_prefix=(rep,))
            assert samples[0].y_al[:, j].tobytes() == own.y_al.tobytes()
            assert samples[0].y_ac.tobytes() == own.y_ac.tobytes()

    def test_replication_with_no_trimmed_point_gives_nan(self):
        # Neither row of this n = 2 sample lies in the trimmed square, so no rho has an MSE.
        got = _replication_mses(CobbDouglasConfig(n=2, seed=19), (0.0, 0.9), 0, BenchmarkRules())
        assert len(got) == 2 and all(np.isnan(a) and np.isnan(b) for a, b in got)

    def test_replication_mses_equal_the_r_weighted_expressions(self):
        # r is one in every row: the driver's r-free expressions give the bits
        # of evaluating the curve at r[keep], smoothing y_ac / r and scoring
        # r[keep] * g_hat.
        cfg, rhos, rep, rules = CobbDouglasConfig(n=300, seed=21), (0.0, 0.9), 2, BenchmarkRules()
        lo, hi = rules.trim
        want_d, want_b = [], None
        for rho in rhos:
            s = generate(replace(cfg, rho=rho), path_prefix=(rep,))
            keep = (s.q >= lo) & (s.q <= hi) & (s.v >= lo) & (s.v <= hi)
            _, _, ac_hat = derivative_ac_curve(s, s.q[keep], s.v[keep], s.r[keep], rules.h_deriv(cfg.n))
            want_d.append(float(np.mean((ac_hat - s.ac_true[keep]) ** 2)))
            if want_b is None:
                X = np.column_stack([s.q - 0.5, s.v - 0.5])
                g_hat = nadaraya_watson_grid(
                    X, s.y_ac / s.r, X[keep], rules.h_base(cfg.n),
                    d=rules.base_order, den_floor=rules.base_floor, widen_on_empty=True,
                )
                want_b = float(np.mean((s.r[keep] * g_hat - s.ac_true[keep]) ** 2))
        got = _replication_mses(cfg, rhos, rep, rules)
        assert np.array(got).tobytes() == np.array([(d, want_b) for d in want_d]).tobytes()

    def test_sigma_sets_the_generators_noise(self):
        # The table draws from CobbDouglasConfig(sigma=sigma, seed=seed) at
        # each cell's n and rho.
        rules = BenchmarkRules()
        _, details = relative_mse_table(ns=(60,), rhos=(0.0, 0.9), reps=2, seed=9, sigma=0.1)
        cfg = CobbDouglasConfig(n=60, sigma=0.1, seed=9)
        want = np.array([_replication_mses(cfg, (0.0, 0.9), rep, rules) for rep in range(2)])
        for j, rho in enumerate((0.0, 0.9)):
            cell = details["cells"][(60, rho)]
            assert cell["mse_deriv"].tobytes() == want[:, j, 0].tobytes()
            assert cell["mse_base"].tobytes() == want[:, j, 1].tobytes()
        assert details["metadata"]["config"] == {"c1": 0.8, "c2": 0.7, "c": 1.0, "sigma": 0.1}

    def test_ratio_improves_with_sample_size(self):
        res, _ = relative_mse_table(ns=(100, 1000), rhos=(0.0,), reps=60, seed=12)
        assert res[1].ratio < res[0].ratio

    def test_ratio_nearly_invariant_to_error_correlation(self):
        res, _ = relative_mse_table(ns=(200,), rhos=(0.0, 0.4, 0.9), reps=200, seed=14)
        ratios = [r.ratio for r in res]
        assert max(ratios) - min(ratios) < 0.05

    def test_noiseless_mse_far_below_noisy(self):
        # Baseline: removing response noise collapses its MSE by >= 10x.
        # The windowed-cumulative estimator keeps design-sampling noise that
        # carries the labor-response levels even at sigma = 0, so only a
        # directional drop is asserted for it.
        rules = BenchmarkRules()
        noisy = np.zeros(2)
        noiseless = np.zeros(2)
        for rep in range(10):
            noisy += _replication_mses(CobbDouglasConfig(n=500, seed=13), (0.0,), rep, rules)[0]
            noiseless += _replication_mses(CobbDouglasConfig(n=500, sigma=0.0, seed=13), (0.0,), rep, rules)[0]
        assert noisy[1] / noiseless[1] >= 10.0
        assert noiseless[0] < 0.6 * noisy[0]

    def test_zero_mse_cell_reports_nan(self):
        # Without noise an n = 2 or 3 sample can be fitted exactly; the ratio
        # and its delta-method error then divided by zero.
        deriv_zero, _ = relative_mse_table(ns=(2,), rhos=(1.0,), reps=2, seed=42, sigma=0.0)
        assert deriv_zero[0].mse_deriv == 0.0 and deriv_zero[0].ratio == 0.0
        assert np.isnan(deriv_zero[0].se_ratio)
        base_zero, _ = relative_mse_table(ns=(3,), rhos=(1.0,), reps=1, seed=5, sigma=0.0)
        assert base_zero[0].mse_base == 0.0 and np.isnan(base_zero[0].ratio)

    def test_reps_validated(self):
        with pytest.raises(ValidationError):
            relative_mse_table(ns=(60,), rhos=(0.0,), reps=0, seed=3)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"ns": (60, 60)}, "ns and rhos must each list one or more distinct values"),
            ({"ns": (1,)}, "sample sizes must be >= 2"),
            ({"ns": ()}, "sample sizes must be >= 2"),
            ({"rhos": (0.0, -0.0)}, "ns and rhos must each list one or more distinct values"),
            ({"rhos": ()}, "ns and rhos must each list one or more distinct values"),
            ({"rhos": (1.5,)}, "|rho| <= 1 required"),
            ({"rhos": (float("nan"),)}, "|rho| <= 1 required"),
            ({"reps": 0}, "--reps must be >= 1"),
            ({"workers": 0}, "workers must be >= 1, got 0"),
            ({"workers": -1}, "workers must be >= 1, got -1"),
        ],
    )
    def test_inputs_rejected_before_any_replication(self, monkeypatch, bad, message):
        calls = []
        monkeypatch.setattr(simulation, "_replication_mses", lambda *args: calls.append(args))
        args = {"ns": (60,), "rhos": (0.0,), "reps": 2, "seed": 3, **bad}
        with pytest.raises(ValidationError, match=re.escape(message)):
            relative_mse_table(**args)
        assert calls == []


class TestRates:
    def test_grid_validated(self):
        with pytest.raises(ValidationError):
            convergence_rate_experiment(2, 2, 2, ns=(100, 200), reps=2)

    def test_root_n_smoke(self):
        rr = convergence_rate_experiment(2, 2, 2, ns=(250, 500, 1000, 2500), reps=30)
        assert abs(rr.slope + 1.0) <= 0.3
        assert rr.se < 0.2


class TestR2:
    def test_noiseless_r2_is_one(self):
        r2_ac, r2_al = equation_r2(CobbDouglasConfig(sigma=0.0), 10_000)
        assert r2_ac == pytest.approx(1.0) and r2_al == pytest.approx(1.0)

    def test_huge_noise_r2_near_zero(self):
        r2_ac, r2_al = equation_r2(CobbDouglasConfig(sigma=50.0), 50_000)
        assert r2_ac < 0.01 and r2_al < 0.01

    def test_sample_size_validated(self):
        with pytest.raises(ValidationError):
            equation_r2(CobbDouglasConfig(), 50)


class TestAcCurveInputs:
    @pytest.mark.parametrize(
        "eval_q, eval_v, eval_r, h",
        [
            ([1.0, 1.1], [1.0], 1.0, 0.3),  # longer eval_q
            ([1.0], [1.0, 1.1], 1.0, 0.3),  # longer eval_v
            ([1.0, 1.1], [1.0, 1.1], [1.0], 0.3),  # short array eval_r
            ([1.0], [1.0], [1.0, 1.0], 0.3),  # long array eval_r
            ([np.nan], [1.0], 1.0, 0.3),
            ([1.0], [np.inf], 1.0, 0.3),
            ([1.0], [1.0], np.nan, 0.3),
            ([1.0], [1.0], 1.0, np.nan),
            ([1.0], [1.0], 1.0, np.inf),
            ([1.0], [1.0], 1.0, 0.0),
        ],
    )
    def test_bad_evaluation_inputs_rejected(self, eval_q, eval_v, eval_r, h):
        sample = generate(CobbDouglasConfig(n=50, seed=11))
        with pytest.raises(ValidationError) as err:
            derivative_ac_curve(sample, eval_q, eval_v, eval_r, h)
        assert "empty Q-window" not in str(err.value)

    @pytest.mark.parametrize("eval_r", [0.0, -1.0, [1.0, -0.0]])
    def test_nonpositive_capital_price_rejected_before_any_work(self, monkeypatch, eval_r):
        # r = 0 gave inf with a RuntimeWarning, and r = -1 a negative cost.
        sample = generate(CobbDouglasConfig(n=50, seed=11))
        monkeypatch.setattr(simulation, "canonical_order", lambda keys: pytest.fail("work started"))
        with pytest.raises(ValidationError, match=r"^eval_r must be positive: it is a capital price$"):
            derivative_ac_curve(sample, [1.0, 1.1], [1.0, 1.1], eval_r, 0.3)

    _FINITE = "sample values must be finite"
    _PRICE = "sample.r must be positive: it is a capital price"
    _ROWS = "sample.q, v, r and y_ac must be 1-D arrays of one length n >= 1"
    _LABOR = "sample.y_al must be (n,) or (n, R) with R >= 1"

    @pytest.mark.parametrize(
        "change, message",
        [
            # Outside every window this NaN gave a finite curve.
            (lambda s: replace(s, y_ac=np.where(s.q > 1.45, np.nan, s.y_ac)), _FINITE),
            (lambda s: replace(s, q=np.where(s.q == s.q.max(), np.inf, s.q)), _FINITE),
            (lambda s: replace(s, r=np.full(s.r.shape, -np.inf)), _FINITE),
            (lambda s: replace(s, r=np.where(s.q == s.q.max(), 0.0, s.r)), _PRICE),
            (lambda s: replace(s, r=-s.r), _PRICE),
            (lambda s: replace(s, y_al=np.column_stack([s.y_al, np.full(s.y_al.shape, np.nan)])), _FINITE),
            (lambda s: replace(s, v=s.v[:-1]), _ROWS),
            (lambda s: replace(s, y_ac=s.y_ac[:, None]), _ROWS),
            (lambda s: replace(s, q=s.q[:0], v=s.v[:0], r=s.r[:0], y_ac=s.y_ac[:0], y_al=s.y_al[:0]), _ROWS),
            (lambda s: replace(s, y_al=s.y_al[:-1]), _LABOR),
            (lambda s: replace(s, y_al=s.y_al[:, None][:, :0]), _LABOR),
            (lambda s: replace(s, y_al=np.stack([s.y_al, s.y_al])), _LABOR),
            (lambda s: replace(s, y_al=s.y_al[:, None, None]), _LABOR),
            (lambda s: replace(s, y_al=[[1.0], [1.0, 2.0]] * 25), "sample.y_al is not a rectangular array of numbers"),
        ],
    )
    def test_bad_samples_rejected_before_any_work(self, monkeypatch, change, message):
        # A short v raised an IndexError, a 2 x n y_al numpy's broadcast
        # error, and q = inf a NaN curve with RuntimeWarnings.
        sample = change(generate(CobbDouglasConfig(n=50, seed=11)))
        monkeypatch.setattr(simulation, "canonical_order", lambda keys: pytest.fail("work started"))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}") as err:
            derivative_ac_curve(sample, [1.0], [1.0], 1.0, 0.3)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("name", ["eval_q", "eval_v", "eval_r"])
    def test_ragged_input_rejected(self, name):
        # numpy raised its own "inhomogeneous shape" ValueError.
        sample = generate(CobbDouglasConfig(n=50, seed=11))
        args = {"eval_q": [1.0, 1.1], "eval_v": [1.0, 1.1], "eval_r": [1.0, 1.0]}
        args[name] = [[1.0], [1.0, 1.1]]
        with pytest.raises(ValidationError, match=rf"^{name} is not a rectangular array of numbers$"):
            derivative_ac_curve(sample, h=0.3, **args)
