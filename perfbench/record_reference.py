"""Record the payload values the benchmark compares against at its recorded seed.

Run from the root of a derivreg checkout, with ``src`` importable:

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes ``perfbench/reference_values.json``: for each workload at the default
sizes and ``workloads.RECORDED_SEED``, every ``step``-th row of each payload
table (at most ``REFERENCE_ROWS`` rows), and for ``verify`` the names of its
checks.  Record again only when a change is meant to alter results, and say
so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

from derivreg.cli import main

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE_ROWS = 100


def record() -> dict:
    seed = workloads.RECORDED_SEED
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        work = HERE / "out" / f"record-{name}"
        shutil.rmtree(work, ignore_errors=True)
        wl.write_inputs(work / "inputs", seed)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(wl.argv(work / "inputs", seed, work / "out"))
        if rc != 0:
            raise SystemExit(f"{name}: exit code {rc}")
        tables = {}
        for tname, rows in wl.payload(work / "out").items():
            step = max(1, math.ceil(len(rows) / REFERENCE_ROWS))
            tables[tname] = {"n_rows": len(rows), "step": step, "rows": rows[::step]}
        entry = {"seed": seed, "params": wl.params(), "tables": tables}
        if name == "verify":
            _, rows = workloads.read_table(work / "out" / "verify_report.csv")
            entry["names"] = [r[0] for r in rows]
        out[name] = entry
        shutil.rmtree(work)
    return out


if __name__ == "__main__":
    workloads.REFERENCE_FILE.write_text(json.dumps(record(), indent=1) + "\n")
