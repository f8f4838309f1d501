"""drqa benchmark: time full pipeline runs and check their outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload study --seed 1 --seconds 15 --trace 0

The workloads are described in ``workloads.py``.  Each timed pipeline
call happens in a fresh process (``child.py``) with ``DRQA_THREADS=2`` and
``OPENBLAS_NUM_THREADS=1``, one call at a time (a closed loop with one
caller); calls repeat until ``--seconds`` have passed, and at least as
often as the workload asks, and the medians are reported.  On ``rescore_cached`` an untimed process first fills the output
tree and its rank cache, and the timed calls are warm reruns into it.
Every output tree is checked (``checks.py``) before any metric counts.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` it holds the per-layer metrics: the same
untraced calls, then one call with spans around every layer
(``tracing.py``), and one call with ``DRQA_THREADS=1`` as the
single-threaded baseline.

``--smoke`` runs at a tiny item count; it only shows that every metric is
reported and that the checks run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads as W

THREADS = 2
#: Set-up-only processes per run, besides the timed ones, so set-up time
#: is a median.  The cache-filling run of ``rescore_cached`` is too long to
#: repeat, so that workload sets up once per run.
SETUP_PROBES = 2
#: Every run ends within this many seconds of its start.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s", "psi_mean": "psi"}


class Run:
    """One benchmark run: its inputs, its calls and its findings."""

    def __init__(self, root: Path, workload: W.Workload, seed: int,
                 seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = (root / "perfbench" / ".work"
                     / f"{workload.name}-{seed}-{os.getpid()}")
        self.out_dir = self.work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digests: set = set()
        self.psi_means: list = []
        self.reference = checks.load_reference()

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        config = W.build_inputs(self.workload, self.seed, self.work)
        self.names = [s["name"] for s in config["stages"]
                      if s["kind"] == "ingest" and s["name"] != "survey"]
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(config, indent=1))

    def env(self, threads: int) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p)
        env["DRQA_THREADS"] = str(threads)
        env["OPENBLAS_NUM_THREADS"] = "1"
        return env

    def child(self, *extra: str, threads: int = THREADS) -> dict | None:
        """Start one fresh process and return its report, or None."""
        cmd = [sys.executable, str(self.root / "perfbench" / "child.py"),
               "--config", str(self.config_path),
               "--workload", self.workload.name, *extra]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env(threads), text=True,
                stdout=subprocess.PIPE, timeout=self.deadline - spawned)
        except subprocess.TimeoutExpired:
            self.problems.append("a pipeline process ran out of time")
            return None
        if proc.returncode != 0:
            self.problems.append(f"a pipeline process exited with "
                                 f"{proc.returncode}")
            return None
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["call_start"] - spawned
        return report

    def setup_probe(self) -> float | None:
        report = self.child("--setup-only")
        return None if report is None else report["setup_s"]

    def new_tree(self) -> float | None:
        """Start a fresh output tree.

        On a cached workload an untimed process fills the tree and its rank
        cache, for the warm reruns to follow; returns that set-up time.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if not self.workload.cache:
            return None
        self.attempted += 1
        report = self.child("--fill")
        if report is None:
            self.failed += 1
            return None
        self.digests.add(report["digest"])
        return report["setup_s"]

    def call(self, *extra: str, threads: int = THREADS) -> dict | None:
        """One timed pipeline process, with its output tree checked."""
        if not self.workload.cache:
            self.new_tree()
        self.attempted += 1
        report = self.child(*extra, threads=threads)
        if report is not None:
            problems = self.check()
            if problems:
                self.problems += problems
                report = None
        if report is None:
            self.failed += 1
        return report

    def check(self) -> list:
        try:
            problems, psi_mean = checks.check_tree(
                self.workload.name, self.workload.n, self.seed, self.out_dir,
                self.work, self.names, self.reference)
        except (OSError, ValueError, KeyError, IndexError) as err:
            return [f"output check failed: {err!r}"]
        self.digests.add(checks.tree_digest(self.out_dir))
        if len(self.digests) > 1:
            problems.append("output trees of one commit differ")
        self.psi_means.append(psi_mean)
        return problems

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def measure(run: Run, calls: int | None = None) -> dict:
    """End-to-end metrics: medians over the run's set-ups and calls.

    Calls repeat until ``run.seconds`` have passed and at least ``calls``
    (by default the workload's ``calls``) were made.
    """
    calls = calls or run.workload.calls
    if run.workload.cache:
        setups = [run.new_tree()]
        if setups[0] is None:
            return {}
    else:
        setups = [run.setup_probe() for _ in range(SETUP_PROBES)]
    started = time.monotonic()
    reports = []
    while True:
        report = run.call()
        if report is None:
            return {}
        reports.append(report)
        if (time.monotonic() - started >= run.seconds
                and len(reports) >= calls):
            break
    if not run.workload.cache:
        setups += [r["setup_s"] for r in reports]
    return {
        "run_s": statistics.median(r["run_s"] for r in reports),
        "cpu_s": statistics.median(r["cpu_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "setup_s": statistics.median(s for s in setups if s is not None),
        "psi_mean": statistics.median(run.psi_means),
    }


def traced_pass(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics and their units: the run's untraced calls, one
    traced call, and one call with a single reduce thread."""
    base = measure(run, calls=1)
    spans = run.work / "spans.jsonl"
    traced = run.call("--trace", str(spans)) if base else None
    serial = run.call(threads=1) if traced else None
    if serial is None:
        return {}, {}
    metrics = tracing.layer_metrics(tracing.read_spans(spans))
    metrics["pipeline.serial_s"] = (serial["run_s"], "s")
    metrics["pipeline.thread_speedup"] = (
        serial["run_s"] / base["run_s"], "ratio")
    metrics["trace.overhead_s"] = (traced["run_s"] - base["run_s"], "s")
    return ({name: value for name, (value, _) in metrics.items()},
            {name: unit for name, (_, unit) in metrics.items()})


def environment(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"][
            "blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "DRQA_THREADS": THREADS,
        "OPENBLAS_NUM_THREADS": 1,
        "seed": seed,
        "n": sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; checks names, never timings")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "drqa" / "pipeline.py").is_file():
        print("error: run from the root of a drqa checkout "
              "(src/drqa/pipeline.py not found)", file=sys.stderr)
        return 2
    sizes = W.SMOKE_N if args.smoke else {
        name: w.n for name, w in W.WORKLOADS.items()}
    workload = dataclasses.replace(W.WORKLOADS[args.workload],
                                   n=sizes[args.workload])

    run = Run(root, workload, args.seed, args.seconds)
    try:
        run.prepare()
        if args.trace:
            values, units = traced_pass(run)
        else:
            values = measure(run)
            units = END_TO_END_UNITS
    finally:
        run.cleanup()

    correct = not run.problems and run.failed == 0 and bool(values)
    print(json.dumps({"workload": workload.name,
                      "environment": environment(args.seed, sizes)}))
    print(json.dumps({
        "error_rate": run.failed / run.attempted,
        "problems": run.problems,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
