"""derivreg benchmark: four CLI workloads, end-to-end metrics, traced layers.

Usage, from the root of a derivreg checkout:

    python3 perfbench/run.py --workload fit_loo --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``ops_per_s``,
``peak_rss_mb``, ``success_rate``); with ``--trace 1`` they are the
per-layer ones listed in ``spans.LAYER_METRICS``.  A fuller record,
including the environment, goes to ``perfbench/out/``.

Each workload runs in its own worker process, so ``peak_rss_mb`` belongs to
that workload; set-up is timed in separate fresh processes.  Only this file's
standard-library imports happen before set-up timing starts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# Every run must end within 180 s; stop starting work well before that.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
HOST_LIMITS = [
    "shared host: other tenants' load is not controlled",
    "no page-cache dropping",
    "no CPU pinning",
    "no whole-machine tracing",
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "probe", "worker"), default="main", help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env(repo: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def quiet_call(main, argv) -> int:
    """Run one CLI call with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# ---------------------------------------------------------------------------
# probe: time import + warm-up in a fresh interpreter
# ---------------------------------------------------------------------------


def run_probe(args, repo: Path, work: Path) -> None:
    t0, c0 = time.perf_counter(), cpu_seconds()
    from derivreg.cli import main

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    rc = quiet_call(main, wl.warmup_argv(work / "warmup", args.seed, work / "warmup-out"))
    elapsed, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    print(json.dumps({"setup_wall_s": elapsed, "setup_s": cpu, "rc": rc}))


# ---------------------------------------------------------------------------
# worker: timed loop of CLI calls, each output checked outside the timing
# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def measure(wl, main, argv, checker, out: Path, seconds: float, tracer=None, budget: float = math.inf) -> dict:
    """Call the CLI until the timed calls' CPU seconds add up to ``seconds``.

    The first call is a full-size warm-up; it is not timed, and the checker
    may capture intermediate values from it for its oracles.  Without a
    tracer the calls after it are timed untraced.  With one, an untraced
    call (the baseline for ``trace.overhead_s``) and a memory call come
    next, then traced calls are timed.  Every call is checked after its
    timing ends; an exception, a nonzero exit code or a failed check
    counts all of the call's operations as failed.
    """
    import workloads

    times = {"plain": [], "timed": []}  # (wall, cpu) seconds per call
    attempted = failed = 0
    reasons = []

    def one_call(mode: str) -> None:
        nonlocal attempted, failed
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            if tracer is None or mode in ("warm", "plain"):
                rc = quiet_call(main, argv)
            else:
                rc = tracer.call(quiet_call, main, argv, memory=mode == "memory")
        except Exception:
            rc = None
            reasons.append(traceback.format_exc())
        if mode in times:
            times[mode].append((time.perf_counter() - t0, cpu_seconds() - c0))
        attempted += wl.ops_per_call
        try:
            if rc != 0:
                raise workloads.CheckFailure(f"exit code {rc}")
            checker.check(out)
        except Exception as exc:  # any failure of the call or its check counts
            failed += wl.ops_per_call
            reasons.append(f"{type(exc).__name__}: {exc}")

    with checker.capturing():
        one_call("warm")
    mode = "plain"
    if tracer is not None:
        one_call("plain")
        one_call("memory")
        mode = "timed"
    timed = times[mode]
    while not timed or (sum(c for _, c in timed) < seconds and time.perf_counter() < budget):
        one_call(mode)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": reasons[:5],
        "call_seconds": [w for w, _ in times["plain"]],
        "call_cpu_seconds": [c for _, c in times["plain"]],
        "traced_call_seconds": [w for w, _ in times["timed"]],
        "traced_call_cpu_seconds": [c for _, c in times["timed"]],
    }


def run_worker(args, repo: Path, work: Path) -> None:
    started = time.perf_counter()
    from derivreg.cli import main

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if quiet_call(main, wl.warmup_argv(work / "warmup", args.seed, work / "warmup-out")) != 0:
        raise SystemExit("warm-up call failed")

    import numpy as np

    import spans

    inputs, out = work / "inputs", work / "out"
    checker = workloads.Checker(wl, inputs, args.seed, repo)
    tracer = spans.Tracer() if args.trace else None
    result = measure(
        wl, main, wl.argv(inputs, args.seed, out), checker, out, args.seconds, tracer,
        budget=started + RUN_BUDGET_S - 40.0,
    )
    result.update(
        ops_per_call=wl.ops_per_call,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
        checked_against_recorded=checker.recorded is not None,
    )
    if tracer is not None:
        traced, untraced = result["traced_call_cpu_seconds"], result["call_cpu_seconds"]
        overhead = (statistics.median(traced) - untraced[0]) / wl.ops_per_call
        result["layers"] = tracer.layer_metrics(len(traced) * wl.ops_per_call, overhead)
        result["per_replication"] = tracer.per_replication()
        spans_file = work.parent / f"{work.name}-spans.json"
        spans_file.write_text(json.dumps(tracer.dump()))
        result["spans_file"] = str(spans_file.relative_to(repo))
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# main: inputs, set-up probes, one worker, the result line
# ---------------------------------------------------------------------------


def child(args, role: str, repo: Path, work: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", str(work),
    ]
    proc = subprocess.run(
        cmd, cwd=repo, env=child_env(repo), stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(repo: Path, numpy_version: str) -> dict:
    head = repo / ".git" / "HEAD"
    sha = "unknown: the checkout is not a git repository"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (repo / ".git" / ref[5:]).is_file():
            sha = (repo / ".git" / ref[5:]).read_text().strip()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "thread_limits": {var: "1" for var in THREAD_VARS},
        "workers_flag": 1,
        "host_limits": HOST_LIMITS,
    }


def run_main(args, repo: Path) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (repo / "src" / "derivreg" / "cli.py").is_file() or not (repo / "tests" / "reference.py").is_file():
        print("error: run from the root of a derivreg checkout (src/derivreg and tests/reference.py)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl.write_inputs(work / "inputs", args.seed)
    wl.tiny().write_inputs(work / "warmup", args.seed)

    setup, setup_wall = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            probe = child(args, "probe", repo, work, deadline)
            if probe["rc"] != 0:
                raise RuntimeError("warm-up call failed in the set-up probe")
            setup.append(probe["setup_s"])
            setup_wall.append(probe["setup_wall_s"])
    res = child(args, "worker", repo, work, deadline)

    if args.trace:
        import spans

        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit in spans.LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": res["ops_per_call"] / statistics.median(res["call_cpu_seconds"]), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "success_rate": {"value": 1.0 - res["failed"] / res["attempted"], "unit": "ratio"},
        }
    line = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  setup_samples=setup, setup_wall_samples=setup_wall, worker=res, environment=environment(repo, res["numpy"]))
    (work.parent / f"{work.name}.json").write_text(json.dumps(record, indent=1))
    for reason in res["failures"]:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path.cwd()
    if args.role == "main":
        return run_main(args, repo)
    work = Path(args.work_dir)
    (run_probe if args.role == "probe" else run_worker)(args, repo, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
