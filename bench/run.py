"""Outside-in benchmark of psdcomplete.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The package is imported from the
checkout's ``src/``; nothing is installed. One process drives one workload
(chordal, feasible, infeasible, pd, cli): it sets up the inputs from the
seed, repeats whole rounds of the workload's operations until ``--seconds``
of operation time have passed, checks every output outside the timed
region, and prints one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` last on stdout. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds, reports the per-layer
metrics and writes the spans to ``.bench_spans/``. See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SPANS = ROOT / ".bench_spans"
WORKLOADS = ("chordal", "feasible", "infeasible", "pd", "cli")

# One BLAS thread: the matrices are small, and a second thread on a shared
# 2-core machine adds contention, not speed. Children inherit the setting.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
SUBPROCESS_TIMEOUT = 60


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PSDCOMPLETE_TOL"}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_python(args: list, cwd: Path) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    return proc.returncode, proc.stdout


def timed_python(args: list, cwd: Path) -> float:
    t0 = time.perf_counter()
    code, _ = run_python(args, cwd)
    if code != 0:
        raise RuntimeError(f"python {' '.join(args)} exited {code}")
    return time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all five, each in a fresh process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "psdcomplete" / "__init__.py").is_file():
        print(f"no psdcomplete source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    os.environ.update(BLAS_ENV)
    os.environ.pop("PSDCOMPLETE_TOL", None)
    sys.path.insert(0, str(SRC))
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = Bench(args.workload, args.seed, workdir).run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one summary line each, then one JSON line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shown = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}; {shown}")
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        import numpy as np

        import psdcomplete
        if Path(psdcomplete.__file__).resolve().parent != SRC / "psdcomplete":
            raise RuntimeError(f"imported psdcomplete from {psdcomplete.__file__}")
        from checks import CheckFailure
        import workloads

        self.np = np
        self.workloads = workloads
        self.CheckFailure = CheckFailure
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.errors = []

    def build(self):
        rng = self.np.random.default_rng(self.seed)
        return self.workloads.build(self.workload, rng, str(self.workdir))

    def setup(self):
        """Import, input generation and warm-up, repeated; returns (ops, median seconds).

        The import is timed in a fresh interpreter, the one cost a process
        pays before it can call the package; generation and warm-up run here.
        """
        times = []
        ops = None
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            timed_python(["-c", "import psdcomplete"], self.workdir)
            ops = self.build()
            ops[0].call()
            times.append(time.perf_counter() - t0)
        return ops, statistics.median(times)

    def round(self, ops, run_op):
        """One round: every op once, checked after it ran; returns (durations, failed)."""
        durations = []
        failed = 0
        for op in ops:
            out, dt = run_op(op.call)
            durations.append(dt)
            try:
                failed += bool(op.check(out))
            except self.CheckFailure as exc:
                self.errors.append(f"{op.label}: {exc}")
        return durations, failed

    @staticmethod
    def untraced(call):
        t0 = time.perf_counter()
        out = call()
        return out, time.perf_counter() - t0

    def run(self, seconds: float, trace: bool) -> dict:
        if trace:
            return self.run_traced(seconds)
        ops, setup_s = self.setup()
        durations = []
        failed = 0
        while sum(durations) < seconds:
            d, f = self.round(ops, self.untraced)
            durations += d
            failed += f
        metrics = {
            "ops_per_s": (len(durations) / sum(durations), "op/s"),
            # The shared machine switches between a fast and a slow speed
            # for seconds at a time. A median jumps between the two as the
            # slow share of a run crosses a half; a geometric mean moves with
            # that share smoothly, and weighs every operation alike.
            "op_geomean_ms": (1e3 * statistics.geometric_mean(durations), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return self.result(len(durations), failed, metrics)

    def run_traced(self, seconds: float) -> dict:
        import tracing

        ops, _ = self.setup()
        # Untraced and traced rounds alternate, so a machine that speeds up or
        # slows down during the run shifts both halves alike.
        tracer = tracing.Tracer()
        plain, traced = [], []
        failed = 0
        while sum(plain) + sum(traced) < seconds:
            d, f = self.round(ops, self.untraced)
            plain += d
            failed += f
            uninstall = tracing.install(tracer)
            try:
                d, f = self.round(ops, tracer.run_op)
            finally:
                uninstall()
            traced += d
            failed += f
        SPANS.mkdir(exist_ok=True)
        tracer.write(SPANS / f"{self.workload}-seed{self.seed}.jsonl")
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.overhead_ms_per_op"] = (
            1e3 * (statistics.fmean(traced) - statistics.fmean(plain)), "ms")
        metrics["cli.import_ms"] = (self.cli_import_ms() if self.workload == "cli" else 0.0, "ms")
        return self.result(len(plain) + len(traced), failed, metrics)

    def cli_import_ms(self) -> float:
        """Fresh-interpreter import of psdcomplete.cli minus a bare interpreter start."""
        bare = [timed_python(["-c", "pass"], self.workdir) for _ in range(IMPORT_REPEATS)]
        full = [timed_python(["-c", "import psdcomplete.cli"], self.workdir)
                for _ in range(IMPORT_REPEATS)]
        return 1e3 * (statistics.median(full) - statistics.median(bare))

    def result(self, attempted: int, failed: int, metrics: dict) -> dict:
        for msg in self.errors[:5]:
            print(f"check failed: {msg}", file=sys.stderr)
        return {
            "correct": not self.errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }


if __name__ == "__main__":
    sys.exit(main())
