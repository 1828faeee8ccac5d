"""Command-line interface: verify / simulate / estimate / kernels.

All outputs are CSV files plus a JSON metadata sidecar; payload bytes are
identical across reruns with the same flags and across worker counts.
Exit codes: 0 success, 1 validation failure, 2 numerical-tolerance failure,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    AffineMap,
    DataSet,
    DerivIndex,
    ToleranceError,
    ValidationError,
    read_csv,
    rescale_to_unit,
    write_csv,
)
from .estimators import EstimationPlan, fit, make_grid
from .functionals import (
    build_term_plan,
    identity_checks,
    kernel_checks,
    kernel_moments,
    moment_check,
    named_kernels,
    nonparametric_dimension,
)
from .kernels import BandwidthPlan
from .simulation import CobbDouglasConfig, BenchmarkRules, relative_mse_table

__all__ = ["main"]


def _write_metadata(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(payload)
    payload["version"] = __version__
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_verify(args) -> int:
    # The k = 3 tensor grids hold up to (2 nodes)^3 points.
    if not 2 <= args.quad_nodes <= 64:
        raise ValidationError(f"--quad-nodes must lie in 2..64, got {args.quad_nodes}")
    checks = identity_checks(quad_nodes=args.quad_nodes) + kernel_checks()
    write_csv(
        args.out_dir / "verify_report.csv",
        ["name", "residual", "tol", "passed"],
        [(c.name, c.residual, c.tol, int(c.passed)) for c in checks],
    )
    _write_metadata(
        args.out_dir / "verify_metadata.json",
        {"quad_nodes": args.quad_nodes, "checks": len(checks)},
    )
    failed = [c for c in checks if not c.passed]
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "ok" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  residual={c.residual:10.3e}  tol={c.tol:.1e}  {status}")
    print(f"{len(checks) - len(failed)}/{len(checks)} identity checks passed")
    if failed:
        for c in failed:
            print(f"FAILED: {c.name} residual {c.residual:.3e} exceeds {c.tol:.1e}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def run_simulate(args) -> int:
    rules = BenchmarkRules(
        h_deriv_const=args.h_deriv_const,
        h_base_const=args.h_base_const,
    )
    results, extra = relative_mse_table(
        ns=args.ns,
        rhos=args.rhos,
        reps=args.reps,
        seed=args.seed,
        sigma=args.sigma,
        rules=rules,
        workers=args.workers,
    )
    write_csv(
        args.out_dir / "benchmark.csv",
        ["n", "rho", "mse_deriv", "mse_base", "ratio", "se_ratio", "reps"],
        [(r.n, r.rho, r.mse_deriv, r.mse_base, r.ratio, r.se_ratio, r.reps) for r in results],
    )
    if args.dump_reps:
        rows = []
        for (n, rho), arrs in extra["cells"].items():
            for rep, (a, b) in enumerate(zip(arrs["mse_deriv"], arrs["mse_base"])):
                rows.append((n, rho, rep, a, b))
        write_csv(
            args.out_dir / "benchmark_replications.csv",
            ["n", "rho", "rep", "mse_deriv", "mse_base"],
            rows,
        )
    _write_metadata(args.out_dir / "benchmark_metadata.json", extra["metadata"])
    for r in results:
        print(
            f"n={r.n:5d} rho={r.rho:.1f}  ratio={r.ratio:.3f} (se {r.se_ratio:.3f})  "
            f"mse_deriv={r.mse_deriv:.5f} mse_base={r.mse_base:.5f}"
        )
    # Warned after the run, so that a run that fails reports one line.
    if args.reps < 30:
        print(f"warning: reps={args.reps} gives a noisy MC standard error", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _option(parser: configparser.ConfigParser, section: str, key: str, kind=str, fallback=None):
    """One config value converted by ``kind``; a bad value is a ValidationError."""
    try:
        raw = parser.get(section, key, fallback=None)
        return fallback if raw is None else kind(raw)
    except (ValueError, configparser.Error) as exc:
        raise ValidationError(f"[{section}] {key}: {' '.join(str(exc).split())}") from None


def _load_estimate_config(path: Path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ValidationError(" ".join(str(exc).split())) from None
    if not read:
        raise OSError(f"cannot read config file {path}")
    if "plan" not in parser:
        raise ValidationError("config needs a [plan] section")
    k = _option(parser, "plan", "k", int)
    if k is None or k < 1:
        raise ValidationError("[plan] k must be a positive integer")
    coords_raw = _option(parser, "plan", "coords", str, "")
    try:
        coords = [int(c) - 1 for c in coords_raw.replace(",", " ").split()]
    except ValueError:
        coords = []
    if not coords or not all(0 <= c < k for c in coords):
        raise ValidationError(
            f"[plan] coords must list 1-based derivative coordinates in 1..{k}, got {coords_raw!r}"
        )
    plan_cfg = {
        "k": k,
        "coords": coords,
        "ell": _option(parser, "plan", "ell", int, 0),
        "d": _option(parser, "plan", "d", int),
        "d1": _option(parser, "plan", "d1", int),
        "density": _option(parser, "plan", "density", str),
        "floor": _option(parser, "plan", "floor", float),
        "h_const": _option(parser, "plan", "h_const", float),
    }
    data_paths: dict[DerivIndex, Path] = {}
    for section in parser.sections():
        if section.startswith("data "):
            bits = section[len("data "):].strip()
            idx = DerivIndex.from_string(bits)
            if idx.k != k:
                raise ValidationError(f"[{section}] index has k={idx.k}, plan has k={k}")
            data_path = _option(parser, section, "path")
            if data_path is None:
                raise ValidationError(f"[{section}] needs a path")
            data_paths[idx] = Path(data_path)
    offset = _option(parser, "grid", "offset", str, "auto")
    grid = {
        "points": _option(parser, "grid", "points", int, 9),
        "offset": offset if offset == "auto" else _option(parser, "grid", "offset", float),
    }
    if grid["points"] < 1:
        raise ValidationError(f"[grid] points must be a positive integer, got {grid['points']}")
    # The grid holds points^k points; any k >= 20 exceeds 10^6 once points >= 2.
    if grid["points"] ** min(k, 20) > 10**6:
        raise ValidationError(f"[grid] points = {grid['points']} with k = {k} gives more than 10^6 grid points")
    rescale = _option(parser, "output", "rescale", str, "auto")
    if rescale not in ("auto", "always", "never"):
        raise ValidationError(f"[output] rescale must be auto, always or never, got {rescale!r}")
    return plan_cfg, data_paths, grid, rescale


def run_estimate(args) -> int:
    plan_cfg, data_paths, grid, rescale = _load_estimate_config(Path(args.config))
    k = plan_cfg["k"]

    term_plan = build_term_plan(k, plan_cfg["coords"], plan_cfg["ell"])
    needed = term_plan.required_indices
    missing = [idx for idx in needed if idx not in data_paths]
    if missing:
        raise ValidationError(
            "missing dataset for derivative index " + ", ".join(str(m) for m in missing)
        )

    if args.plan_report:
        bound = nonparametric_dimension(k, set(data_paths) | {DerivIndex.zeros(k)})
        print(f"plan: k={k} coords={[c + 1 for c in term_plan.coords]} ell={plan_cfg['ell']}")
        for t in term_plan.terms:
            print(f"  {t.coef:+d} * {t.label} (free dims {t.free_dims})")
        print(f"nonparametric dimension bound: {bound}")
        return 0

    raw = {}
    for idx in needed:
        raw[idx] = read_csv(data_paths[idx], k)
        # Checked before rescaling, which would spread one bad cell over its column.
        bad = np.flatnonzero(~np.isfinite(raw[idx]).all(axis=1))
        if bad.size:
            raise ValidationError(f"{data_paths[idx]}: data row {bad[0] + 1} has a non-finite value")

    # Joint per-coordinate affine maps onto the unit cube.
    X_all = np.concatenate([r[:, :k] for r in raw.values()])
    if rescale == "never" or (rescale == "auto" and ((X_all >= 0.0) & (X_all <= 1.0)).all()):
        maps = [AffineMap(0.0, 1.0)] * k
    else:
        X_all, maps = rescale_to_unit(X_all)

    datasets = {}
    parts = np.split(X_all, np.cumsum([r.shape[0] for r in raw.values()])[:-1])
    for (idx, arr), X in zip(raw.items(), parts):
        # Chain rule: responses for differentiated coordinates scale with the map.
        scale = 1.0
        for j in idx.support:
            scale *= maps[j].scale
        datasets[idx] = DataSet(k=k, deriv=idx, X=X, Y=arr[:, k] * scale)

    # A key the config leaves out takes EstimationPlan's default.
    settings = {key: plan_cfg[key] for key in ("d", "d1", "density", "floor") if plan_cfg[key] is not None}
    if plan_cfg["h_const"] is not None:
        settings["bandwidths"] = BandwidthPlan(h_const=plan_cfg["h_const"])
    plan = EstimationPlan(term_plan, datasets, **settings)

    if grid["offset"] == "auto":
        hs = [h for h in map(plan.bandwidth, plan.plan.terms) if h is not None]
        offset = max(hs) if hs else 0.0
        if not offset < 0.5:
            raise ValidationError(
                f"[grid] offset = auto is the largest bandwidth h, which must be below 0.5, got h = {offset:.6g}"
            )
    else:
        offset = grid["offset"]
    pts = make_grid(k, grid["points"], offset=offset)

    result = fit(plan, pts)

    labels = sorted(result.contributions)
    columns = [maps[j].invert(pts[:, j]) for j in range(k)] + [result.values]
    columns += [result.contributions[lab] for lab in labels]
    header = [f"x{j + 1}" for j in range(k)] + ["ghat"] + [f"term_{lab}" for lab in labels]
    write_csv(args.out_dir / "fit.csv", header, zip(*columns))

    meta = dict(result.metadata)
    meta.update(
        {
            "grid_points_per_dim": grid["points"],
            "grid_offset": offset,
            "rescale_maps": [{"offset": m.offset, "scale": m.scale} for m in maps],
            "seed": args.seed,
        }
    )
    _write_metadata(args.out_dir / "fit_metadata.json", meta)
    print(f"wrote {pts.shape[0]} fitted values to {args.out_dir / 'fit.csv'}")
    return 0


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def run_kernels(args) -> int:
    if args.samples < 1:
        raise ValidationError(f"--samples must be >= 1, got {args.samples}")
    specs = named_kernels(args.interior, args.edge)

    sample_rows = []
    for name, spec in specs:
        ts = np.linspace(spec.support[0], spec.support[1], args.samples)
        for t, v in zip(ts, spec.eval(ts)):
            sample_rows.append((name, t, v))
    write_csv(args.out_dir / "kernel_samples.csv", ["kernel", "t", "value"], sample_rows)

    moment_rows, failed = [], []
    for name, spec in specs:
        moments = kernel_moments(spec)
        moment_rows += [(name, *row) for row in moments]
        j = max(moments[:-1], key=lambda row: abs(row[2]))[0]
        check = moment_check(f"{name} moment j={j}", moments)
        if not check.passed:
            failed.append(check)
    write_csv(
        args.out_dir / "kernel_moments.csv",
        ["kernel", "j", "moment", "deviation"],
        moment_rows,
    )
    _write_metadata(
        args.out_dir / "kernels_metadata.json",
        {"interior": list(args.interior), "edge": list(args.edge), "samples": args.samples},
    )
    print(f"wrote {len(specs)} kernels to {args.out_dir}")
    if failed:
        # The monomial moment system grows ill-conditioned with the order.
        worst = max(failed, key=lambda c: c.residual)
        raise ToleranceError(f"{worst.name} deviates by {worst.residual:.1e}, above {worst.tol:.0e}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one line with exit code 1 (exit 2 means a
    tolerance failure); subcommand parsers inherit this class."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {' '.join(message.split())}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="derivreg",
        description="Nonparametric regression with derivative data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out_dir(p):
        p.add_argument("--out-dir", type=Path, default=Path("derivreg-out"))

    def add_common(p):
        p.add_argument("--seed", type=int, default=42)
        add_out_dir(p)
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="processes for simulate's replications; verify and estimate accept and ignore it",
        )

    p = sub.add_parser("verify", help="run the exact-identity and kernel-moment suite")
    add_common(p)
    p.add_argument("--quad-nodes", type=int, default=32, help="Gauss-Legendre nodes per panel, 2..64")
    p.set_defaults(func=run_verify)

    p = sub.add_parser("simulate", help="run the relative-MSE benchmark")
    add_common(p)
    p.add_argument("--ns", type=int, nargs="+", default=[100, 200, 500, 1000])
    p.add_argument("--rhos", type=float, nargs="+", default=[0.0, 0.4, 0.9])
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--sigma", type=float, default=CobbDouglasConfig.sigma)
    p.add_argument("--h-deriv-const", type=float, default=BenchmarkRules.h_deriv_const)
    p.add_argument("--h-base-const", type=float, default=BenchmarkRules.h_base_const)
    p.add_argument("--dump-reps", action="store_true")
    p.set_defaults(func=run_simulate)

    p = sub.add_parser("estimate", help="fit an estimation plan to CSV datasets")
    add_common(p)
    p.add_argument("--config", required=True, help="INI config naming datasets and plan")
    p.add_argument("--plan-report", action="store_true", help="print the plan and exit")
    p.set_defaults(func=run_estimate)

    # kernels draws nothing at random and runs in one process.
    p = sub.add_parser("kernels", help="emit kernel samples and a moment report")
    add_out_dir(p)
    p.add_argument("--interior", type=int, nargs="+", default=[2, 4, 6])
    p.add_argument("--edge", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p.add_argument("--samples", type=int, default=201)
    p.set_defaults(func=run_kernels)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ValidationError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
