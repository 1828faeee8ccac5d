"""The README's examples run as written: its ``python`` block, and its ``ini``
block as an ``estimate`` config over small generated datasets."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

from derivreg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang: str) -> str:
    (body,) = re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    return body


def test_python_example_runs():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(_block("python"), str(README), "exec"), {})
    assert out.getvalue()


def test_ini_example_fits(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    for name, response in (("cost.csv", lambda X: X[:, 0] * X[:, 1]), ("cost_dq.csv", lambda X: X[:, 1])):
        X = rng.uniform(size=(200, 2))
        Y = response(X) + 0.1 * rng.standard_normal(200)
        np.savetxt(tmp_path / name, np.column_stack([X, Y]), delimiter=",", header="x1,x2,y", comments="")
    (tmp_path / "plan.ini").write_text(_block("ini"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["estimate", "--config", "plan.ini", "--out-dir", "out"]) == 0
    assert (tmp_path / "out" / "fit.csv").exists()
