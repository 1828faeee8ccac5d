"""The four benchmark workloads: seeded inputs, CLI arguments and output checks.

Each workload drives one ``derivreg`` subcommand through ``derivreg.cli.main``.
Inputs are made from the benchmark seed by this module alone; the program
sees only the generated CSV and INI files (``simulate`` draws its own data
from ``--seed``, which is its only input).

Every operation's output is checked three ways, outside the timed region:

* structure and internal consistency of the written payload;
* spot checks of a few points or rows against the naive oracles in
  ``tests/reference.py``, for any seed;
* at the recorded seed and default sizes, agreement with the payload values
  recorded in ``reference_values.json``.

Numbers agree when ``|a - b| <= 1e-12 * max(1, |a|, |b|)``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-12
RECORDED_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference_values.json")


class CheckFailure(Exception):
    """An operation's output disagrees with what the benchmark expects."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def close(a: float, b: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= 1, f"{path.name} is empty")
    return rows[0], rows[1:]


def as_floats(rows: list[list[str]]) -> list[list[float]]:
    return [[float(c) for c in row] for row in rows]


def write_dataset(path: Path, X: np.ndarray, Y: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(X.shape[1])] + ["y"])
        for x, y in zip(X.tolist(), Y.tolist()):
            writer.writerow([repr(v) for v in x] + [repr(y)])


@functools.lru_cache(maxsize=None)
def reference_module(repo_root: Path):
    """Import ``tests/reference.py`` with memoized kernel builders.

    The oracles rebuild a kernel for every kernel value they take; the
    builders are pure, so caching them changes no result, only the time the
    spot checks take.
    """
    spec = importlib.util.spec_from_file_location(
        "derivreg_bench_reference", repo_root / "tests" / "reference.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.make_edge_kernel = functools.lru_cache(maxsize=None)(mod.make_edge_kernel)
    mod.make_interior_kernel = functools.lru_cache(maxsize=None)(mod.make_interior_kernel)
    return mod


def recorded_reference(name: str) -> dict | None:
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(name)


# ---------------------------------------------------------------------------
# Regression function used to make the estimate workloads' data
# ---------------------------------------------------------------------------

_RATES = (0.8, -0.5, 0.3)
_SIGMA = 0.25


def g_partial(bits: tuple[int, ...], X: np.ndarray) -> np.ndarray:
    """Mixed first partial ``bits`` of g(x) = prod_j exp(c_j x_j)."""
    out = np.ones(X.shape[0])
    for j, b in enumerate(bits):
        c = _RATES[j]
        out = out * (c if b else 1.0) * np.exp(c * X[:, j])
    return out


def all_bits(k: int) -> list[tuple[int, ...]]:
    return [tuple((m >> (k - 1 - j)) & 1 for j in range(k)) for m in range(2**k)]


def bits_str(bits: tuple[int, ...]) -> str:
    return "".join(str(b) for b in bits)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One CLI subcommand with its inputs, its warm-up call and its checks."""

    name = ""
    ops_per_call = 1

    def params(self) -> dict:
        """Size parameters; recorded values apply only at the defaults."""
        return {}

    def tiny(self) -> "Workload":
        """The same workload at a size that runs in well under a second."""
        raise NotImplementedError

    def write_inputs(self, root: Path, seed: int) -> None:
        """Write the inputs the CLI reads into ``root``."""

    def argv(self, root: Path, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def warmup_argv(self, root: Path, seed: int, out: Path) -> list[str]:
        """A small call of the same subcommand that fills the program's caches."""
        return self.tiny().argv(root, seed, out)

    def payload(self, out: Path) -> dict[str, list[list[float]]]:
        """The numeric tables of one call's output, for recorded comparison."""
        raise NotImplementedError

    def capturing(self, captured: dict):
        """Context in which a call records what the oracle needs into ``captured``."""
        return contextlib.nullcontext()

    def check_structure(self, out: Path) -> None:
        raise NotImplementedError

    def oracle(self, chk: "Checker", out: Path):
        """Expected values from the naive oracles, computed once per run."""
        return None

    def check_oracle(self, out: Path, oracle) -> None:
        pass


class Checker:
    """Checks every call's output; oracle values are computed once per run."""

    def __init__(self, workload: Workload, root: Path, seed: int, repo_root: Path):
        self.wl = workload
        self.root = root
        self.seed = seed
        self.repo_root = repo_root
        self.captured: dict = {}
        self._oracle = None
        rec = recorded_reference(workload.name)
        self.recorded = (
            rec if rec and rec["seed"] == seed and rec["params"] == workload.params() else None
        )

    def capturing(self):
        return self.wl.capturing(self.captured)

    def check(self, out: Path) -> None:
        self.wl.check_structure(out)
        if self._oracle is None:
            self._oracle = self.wl.oracle(self, out)
        self.wl.check_oracle(out, self._oracle)
        if self.recorded is not None:
            self.check_recorded(out)

    def check_recorded(self, out: Path) -> None:
        tables = self.wl.payload(out)
        for tname, rec in self.recorded["tables"].items():
            rows = tables[tname]
            require(len(rows) == rec["n_rows"], f"{tname}: {len(rows)} rows, recorded {rec['n_rows']}")
            for i, (got, want) in enumerate(zip(rows[:: rec["step"]], rec["rows"])):
                require(
                    len(got) == len(want) and all(close(a, b) for a, b in zip(got, want)),
                    f"{tname} row {i * rec['step']} differs from the recorded value",
                )


class McTable(Workload):
    """``derivreg simulate``: the paper's relative-MSE Monte Carlo table."""

    name = "mc_table"

    def __init__(self, ns=(1000, 4000), rhos=(0.0, 0.9), reps=1):
        self.ns, self.rhos, self.reps = tuple(ns), tuple(rhos), reps
        self.ops_per_call = len(self.ns) * len(self.rhos) * reps

    def params(self):
        return {"ns": list(self.ns), "rhos": list(self.rhos), "reps": self.reps}

    def tiny(self):
        return McTable(ns=(200,), rhos=(0.0,), reps=1)

    def argv(self, root, seed, out):
        return (
            ["simulate", "--ns", *map(str, self.ns), "--rhos", *map(str, self.rhos)]
            + ["--reps", str(self.reps), "--dump-reps", "--seed", str(seed)]
            + ["--workers", "1", "--out-dir", str(out)]
        )

    def payload(self, out):
        return {
            "benchmark": as_floats(read_table(out / "benchmark.csv")[1]),
            "replications": as_floats(read_table(out / "benchmark_replications.csv")[1]),
        }

    def check_structure(self, out):
        tables = self.payload(out)
        cells = [(n, r) for n in self.ns for r in self.rhos]
        rows = tables["benchmark"]
        require([(int(r[0]), r[1]) for r in rows] == cells, "benchmark.csv cells differ")
        for n, rho, mse_d, mse_b, ratio, _se, reps in rows:
            require(int(reps) == self.reps, "replication count differs")
            require(0.0 < mse_d < math.inf and 0.0 < mse_b < math.inf, "MSE not finite positive")
            require(close(ratio, mse_d / mse_b), f"ratio at n={n} rho={rho} is not mse_d/mse_b")
        reps = tables["replications"]
        require(len(reps) == len(cells) * self.reps, "replication rows missing")
        for (n, rho), (_, _, mse_d, mse_b, _, _, _) in zip(cells, rows):
            mine = [r for r in reps if int(r[0]) == n and r[1] == rho]
            require(len(mine) == self.reps, f"replications of n={n} rho={rho} missing")
            require(close(float(np.mean([r[3] for r in mine])), mse_d), "cell mse_deriv mismatch")
            require(close(float(np.mean([r[4] for r in mine])), mse_b), "cell mse_base mismatch")

    def oracle(self, chk, out):
        """Redo replication 0 of the first cell through the library's public
        functions, and check two of its points against the naive oracles."""
        from derivreg.simulation import (
            BenchmarkRules,
            CobbDouglasConfig,
            derivative_ac_curve,
            generate,
            nadaraya_watson_grid,
        )

        ref = reference_module(chk.repo_root)
        n, rho = self.ns[0], self.rhos[0]
        rules = BenchmarkRules()
        sample = generate(CobbDouglasConfig(n=n, rho=rho, seed=chk.seed), path_prefix=(0,))
        lo, hi = rules.trim
        keep = (sample.q >= lo) & (sample.q <= hi) & (sample.v >= lo) & (sample.v <= hi)
        h_d, h_b = rules.h_deriv(n), rules.h_base(n)
        _, _, ac_hat = derivative_ac_curve(sample, sample.q[keep], sample.v[keep], sample.r[keep], h_d)
        truth = sample.ac_true[keep]
        X = np.column_stack([sample.q - 0.5, sample.v - 0.5])
        Yb = sample.y_ac / sample.r
        g_hat = nadaraya_watson_grid(
            X, Yb, X[keep], h_b, d=rules.base_order, den_floor=rules.base_floor, widen_on_empty=True
        )
        rng = np.random.default_rng([chk.seed, 11])
        kept = np.flatnonzero(keep)
        args = (sample.q.tolist(), sample.v.tolist(), sample.r.tolist(), sample.y_ac.tolist(), sample.y_al.tolist())
        for j in rng.choice(kept.size, size=2, replace=False):
            i = kept[j]
            want = ref.derivative_ac(*args, sample.q[i], sample.v[i], sample.r[i], h_d)
            require(close(ac_hat[j], want), f"windowed AC differs from the oracle at row {i}")
            # Rows with no design point in their window take the widening
            # path, which the oracle does not model.
            if np.any(np.all(np.abs(X - X[i]) <= h_b, axis=1)):
                want = ref.nadaraya_watson(X.tolist(), Yb.tolist(), X[i].tolist(), h_b, rules.base_order, rules.base_floor)
                require(close(g_hat[j], want), f"NW baseline differs from the oracle at row {i}")
        return {
            "mse_deriv": float(np.mean((ac_hat - truth) ** 2)),
            "mse_base": float(np.mean((sample.r[keep] * g_hat - truth) ** 2)),
        }

    def check_oracle(self, out, oracle):
        first = self.payload(out)["replications"][0]
        require(int(first[2]) == 0, "first replication row is not replication 0")
        require(close(first[3], oracle["mse_deriv"]), "mse_deriv differs from the library recompute")
        require(close(first[4], oracle["mse_base"]), "mse_base differs from the library recompute")


class _Estimate(Workload):
    """``derivreg estimate`` on generated CSV datasets and an INI config."""

    k = 0
    coords: tuple[int, ...] = ()
    density = "uniform"

    def __init__(self, n: int, points: int):
        self.n, self.points = n, points

    def params(self):
        return {"n": self.n, "points": self.points}

    def indices(self) -> list[tuple[int, ...]]:
        raise NotImplementedError

    def design(self, rng, n: int) -> np.ndarray:
        return rng.uniform(size=(n, self.k))

    def write_inputs(self, root, seed):
        root.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, self.k, len(self.coords)])
        lines = [
            "[plan]",
            f"k = {self.k}",
            "coords = " + " ".join(str(c) for c in self.coords),
            "ell = 0",
            f"density = {self.density}",
            "",
            "[grid]",
            f"points = {self.points}",
            "",
        ]
        for bits in self.indices():
            X = self.design(rng, self.n)
            Y = g_partial(bits, X) + _SIGMA * rng.standard_normal(self.n)
            path = root / f"data_{bits_str(bits)}.csv"
            write_dataset(path, X, Y)
            lines += [f"[data {bits_str(bits)}]", f"path = {path.resolve()}", ""]
        (root / "plan.ini").write_text("\n".join(lines))

    def argv(self, root, seed, out):
        return ["estimate", "--config", str(root / "plan.ini"), "--seed", str(seed)] + [
            "--workers", "1", "--out-dir", str(out)
        ]

    def payload(self, out):
        return {"fit": as_floats(read_table(out / "fit.csv")[1])}

    def metadata(self, out) -> dict:
        return json.loads((out / "fit_metadata.json").read_text())

    def check_structure(self, out):
        header, rows = read_table(out / "fit.csv")
        k = self.k
        require(header[: k + 1] == [f"x{j + 1}" for j in range(k)] + ["ghat"], "fit.csv header")
        require(sorted(header[k + 1 :]) == sorted(f"term_{t}" for t in self.terms()), "term columns")
        meta = self.metadata(out)
        require(meta["density"] == self.density, "density mode differs")
        require(
            meta["n_per_equation"] == {bits_str(b): self.n for b in self.indices()},
            "dataset sizes differ",
        )
        off = meta["grid_offset"]
        axis = np.linspace(off, 1.0 - off, self.points)
        grid = np.stack([g.ravel() for g in np.meshgrid(*[axis] * k, indexing="ij")], axis=1)
        vals = as_floats(rows)
        require(len(vals) == grid.shape[0], f"fit.csv has {len(vals)} rows, expected {grid.shape[0]}")
        for row, x in zip(vals, grid):
            require(all(close(a, b) for a, b in zip(row[:k], x)), "grid point differs")
            require(all(math.isfinite(v) for v in row), "non-finite fitted value")
            require(close(row[k], math.fsum(row[k + 1 :])), "ghat is not the sum of its terms")

    def terms(self) -> dict[str, tuple[int, ...]]:
        """Term label -> derivative index of its dataset; every coefficient is +1."""
        raise NotImplementedError

    def spot_rows(self, seed: int) -> list[int]:
        rng = np.random.default_rng([seed, 13])
        return sorted(rng.choice(self.points**self.k, size=2, replace=False).tolist())

    def check_oracle(self, out, oracle):
        header, rows = read_table(out / "fit.csv")
        vals = as_floats(rows)
        for i, want in oracle.items():
            for label, value in want.items():
                got = vals[i][header.index(f"term_{label}")]
                require(close(got, value), f"term {label} at grid row {i} differs from the oracle")


class FitLoo(_Estimate):
    """k = 2, derivative data on coordinate 1, leave-one-out density weighting."""

    name = "fit_loo"
    k, coords, density = 2, (1,), "loo"

    def __init__(self, n: int = 4000, points: int = 9):
        super().__init__(n, points)

    def tiny(self):
        return FitLoo(n=60, points=3)

    def indices(self):
        return [(0, 0), (1, 0)]

    def design(self, rng, n):
        # Non-uniform design (density 2/3 x^(-1/3) per coordinate), so the
        # density weights differ from one.
        return rng.uniform(size=(n, self.k)) ** 1.5

    def terms(self):
        # g(x) = int g(u, x2) du + int (u - 1 + 1{u <= x1}) d1 g(u, x2) du
        return {"avg[10]": (0, 0), "recon[10]": (1, 0)}

    @contextlib.contextmanager
    def capturing(self, captured):
        """Record each (estimator, floored LOO densities) that ``fit`` computes."""
        import derivreg.estimators as est_mod

        original = est_mod.loo_at_rows

        def capture(est, floored=True):
            vals = original(est, floored=floored)
            captured[est.data.deriv.bits] = (est, vals)
            return vals

        est_mod.loo_at_rows = capture
        try:
            yield
        finally:
            est_mod.loo_at_rows = original

    def oracle(self, chk, out):
        """Check three rows of each captured density against the oracle
        density, then evaluate the oracle estimator at two grid points with
        the captured densities."""
        ref = reference_module(chk.repo_root)
        require(sorted(chk.captured) == sorted(self.indices()), "no densities captured for every dataset")
        rng = np.random.default_rng([chk.seed, 17])
        data = {}
        for bits, (est, vals) in chk.captured.items():
            X = est.data.X.tolist()
            for i in rng.choice(len(X), size=3, replace=False):
                want = max(ref.loo_density(X, int(i), X[int(i)], est.H, est.d1), est.floor)
                require(close(vals[i], want), f"LOO density of dataset {bits_str(bits)} row {i} differs")
            data[bits] = (X, est.data.Y.tolist(), vals.tolist(), est)

        meta = self.metadata(out)
        h = {t["term"]: t["bandwidth"] for t in meta["terms"]}
        grid = as_floats(read_table(out / "fit.csv")[1])
        expected = {}
        real_density = ref.loo_density
        try:
            for i in self.spot_rows(chk.seed):
                x = grid[i][: self.k]
                expected[i] = {}
                for label, bits in self.terms().items():
                    X, Y, dens, est = data[bits]
                    ref.loo_density = lambda _X, row, _x, _H, _d1, dens=dens: dens[row]
                    expected[i][label] = ref.smoothed_nonlocal(
                        X, Y, bits, 1, x, h[label], meta["d"], est.H, est.d1, est.floor
                    )
        finally:
            ref.loo_density = real_density
        return expected


class FitRootN(_Estimate):
    """k = 3 with the full derivative hierarchy: every term is root-n."""

    name = "fit_rootn"
    k, coords, density = 3, (1, 2, 3), "uniform"

    def __init__(self, n: int = 5000, points: int = 9):
        super().__init__(n, points)

    def tiny(self):
        return FitRootN(n=60, points=3)

    def indices(self):
        return all_bits(3)

    def terms(self):
        # The reconstruction identity: g(x) = sum_alpha int w_alpha(u, x) g^alpha(u) du.
        out = {}
        for bits in self.indices():
            label = f"recon[{bits_str(bits)}]" if any(bits) else "avg[111]"
            out[label] = bits
        return out

    def oracle(self, chk, out):
        ref = reference_module(chk.repo_root)
        data = {}
        for bits in self.indices():
            _, rows = read_table(chk.root / f"data_{bits_str(bits)}.csv")
            vals = as_floats(rows)
            data[bits] = ([r[: self.k] for r in vals], [r[self.k] for r in vals])
        grid = as_floats(read_table(out / "fit.csv")[1])
        expected = {}
        for i in self.spot_rows(chk.seed):
            x = grid[i][: self.k]
            expected[i] = {
                label: ref.nonlocal_avg(*data[bits], bits, x) for label, bits in self.terms().items()
            }
        return expected


class Verify(Workload):
    """``derivreg verify``: the exact-identity and kernel-moment suite."""

    name = "verify"

    def tiny(self):
        return self

    def argv(self, root, seed, out):
        return ["verify", "--seed", str(seed), "--workers", "1", "--out-dir", str(out)]

    def warmup_argv(self, root, seed, out):
        # verify has no size knob; the kernels subcommand builds every kernel
        # order the suite uses.
        return ["kernels", "--samples", "3", "--out-dir", str(out)]

    def payload(self, out):
        return {}

    def check_structure(self, out):
        header, rows = read_table(out / "verify_report.csv")
        require(header == ["name", "residual", "tol", "passed"], "verify_report.csv header")
        for name, residual, tol, passed in rows:
            require(passed == "1" and float(residual) <= float(tol), f"check {name} failed")
        rec = recorded_reference(self.name)
        if rec is not None:
            require([r[0] for r in rows] == rec["names"], "the set of checks differs from the recorded one")


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (McTable(), FitLoo(), FitRootN(), Verify())
}
