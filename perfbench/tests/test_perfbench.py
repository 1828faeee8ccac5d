"""Tests of the benchmark itself.

Run from the root of a derivreg checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from derivreg.cli import main  # noqa: E402

SEED = 5
TINY = {name: wl.tiny() for name, wl in workloads.WORKLOADS.items()}


def call_once(wl, tmp_path, seed=SEED):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    wl.write_inputs(inputs, seed)
    checker = workloads.Checker(wl, inputs, seed, REPO)
    with checker.capturing():
        assert run.quiet_call(main, wl.argv(inputs, seed, out)) == 0
    return checker, out


def perturb_last_cell(path: Path) -> None:
    """Move the last cell of the first data row by about 1e-9."""
    header, *rows = path.read_text().splitlines()
    cells = rows[0].split(",")
    cells[-1] = repr(float(cells[-1]) * (1.0 + 1e-9) + 1e-9)
    path.write_text("\n".join([header, ",".join(cells), *rows[1:]]) + "\n")


PAYLOAD = {
    "mc_table": "benchmark_replications.csv",
    "fit_loo": "fit.csv",
    "fit_rootn": "fit.csv",
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    checker, out = call_once(TINY[name], tmp_path)
    checker.check(out)


@pytest.mark.parametrize("name", sorted(PAYLOAD))
def test_perturbed_output_fails_the_check(name, tmp_path):
    checker, out = call_once(TINY[name], tmp_path)
    checker.check(out)
    perturb_last_cell(out / PAYLOAD[name])
    with pytest.raises(workloads.CheckFailure):
        checker.check(out)


def test_failed_verify_flag_fails_the_check(tmp_path):
    checker, out = call_once(TINY["verify"], tmp_path)
    report = out / "verify_report.csv"
    lines = report.read_text().splitlines()
    lines[1] = lines[1][: -len("1")] + "0"
    report.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailure):
        checker.check(out)


def test_measure_counts_perturbed_calls_as_failed(tmp_path):
    wl = TINY["fit_rootn"]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    wl.write_inputs(inputs, SEED)

    def perturbing_main(argv):
        rc = main(argv)
        perturb_last_cell(out / "fit.csv")
        return rc

    checker = workloads.Checker(wl, inputs, SEED, REPO)
    res = run.measure(wl, perturbing_main, wl.argv(inputs, SEED, out), checker, out, seconds=0.0)
    assert res["attempted"] == 2 and res["failed"] == 2


def test_recorded_values_catch_a_change(tmp_path):
    wl = workloads.WORKLOADS["fit_rootn"]
    checker, out = call_once(wl, tmp_path, seed=workloads.RECORDED_SEED)
    assert checker.recorded is not None
    checker.check(out)
    fit = out / "fit.csv"
    lines = fit.read_text().splitlines()
    step = checker.recorded["tables"]["fit"]["step"]
    cells = lines[1 + step].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    lines[1 + step] = ",".join(cells)
    fit.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailure, match="recorded"):
        checker.check_recorded(out)


def traced_layers(wl, tmp_path) -> dict:
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    wl.write_inputs(inputs, SEED)
    tracer = spans.Tracer()
    assert tracer.call(run.quiet_call, main, wl.argv(inputs, SEED, out), memory=True) == 0
    assert tracer.call(run.quiet_call, main, wl.argv(inputs, SEED, out)) == 0
    return tracer.layer_metrics(wl.ops_per_call, 0.0)


@pytest.mark.parametrize("name", ["mc_table", "fit_loo", "fit_rootn"])
def test_trace_reports_predicted_bypass(name, tmp_path):
    layers = traced_layers(TINY[name], tmp_path)
    assert set(layers) == {m for m, _ in spans.LAYER_METRICS}
    assert layers["functionals.weighted_integral.calls"] == 0
    if name == "fit_rootn":
        assert layers["density.loo_at_rows.calls"] == 0
        assert layers["kernels.eval.calls"] == 0
        assert layers["estimators.fit.calls"] == 1
    if name == "fit_loo":
        assert layers["density.loo_at_rows.calls"] == 2
        assert layers["density.loo_at_rows.peak_mb"] > 0
    if name == "mc_table":
        assert layers["simulation.derivative_ac_curve.peak_mb"] > 0
        assert layers["estimators.fit.calls"] == 0


def test_restores_the_program_after_tracing(tmp_path):
    import derivreg.estimators
    import derivreg.kernels

    before = (derivreg.estimators.loo_at_rows, derivreg.kernels.KernelSpec.eval)
    traced_layers(TINY["fit_loo"], tmp_path)
    assert (derivreg.estimators.loo_at_rows, derivreg.kernels.KernelSpec.eval) == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_loo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _ in spans.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "ops_per_s", "peak_rss_mb", "success_rate"}
