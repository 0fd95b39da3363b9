#!/usr/bin/env python3
"""twinwalk benchmark: time the `run`, `figures` and `verify` commands.

Run from the repository root:

    python3 perfbench/run.py --workload run-long --seed 1 --seconds 30 --trace 0

Closed loop, one client, one job in flight.  Each job is a fresh child
process (job.py) that imports twinwalk from ``src`` and then calls the CLI
in-process, so set-up and work are timed apart.  Jobs repeat until
``--seconds`` is used up (at least MIN_JOBS), and every job's output is
checked (checks.py); a job that raises, exits non-zero or fails its check
counts as failed.

``--trace 0`` reports the end-to-end metrics, each the median over the run's
jobs.  ``--trace 1`` alternates untraced and traced jobs on the same inputs
and reports the per-layer metrics of spans.py, plus the tracing overhead.
Lines before the last name each metric with its unit; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: name, unit: each the median over one run's jobs
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
MIN_JOBS = 3
#: a run must end within 180 s; no job may start a wait past this
RUN_DEADLINE_S = 170.0

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RUN_LONG_STEPS = 2000
FIGURES_STEPS = 1000
VERIFY_DEPTH = 40
VERIFY_RANDOM_STATES = 5


def draw_coin(rng: random.Random) -> tuple[float, float, float, float]:
    """A normalized coin state as flat (re0, im0, re1, im1)."""
    parts = [rng.gauss(0.0, 1.0) for _ in range(4)]
    scale = math.sqrt(sum(p * p for p in parts))
    return tuple(p / scale for p in parts)


def run_long(rng: random.Random, out_dir: Path):
    coin = draw_coin(rng)
    out = out_dir / "timeline.csv"
    argv = ["run", "--coin", *(repr(c) for c in coin),
            "--steps", str(RUN_LONG_STEPS), "--out", str(out)]
    return argv, lambda stdout: checks.check_run_long(out, stdout, coin, RUN_LONG_STEPS)


def figures(rng: random.Random, out_dir: Path):
    # The presets are fixed, so the seed does not change this workload.
    out = out_dir / "figures"
    argv = ["figures", "--steps", str(FIGURES_STEPS), "--out-dir", str(out)]
    return argv, lambda stdout: checks.check_figures(out)


def verify(rng: random.Random, out_dir: Path):
    argv = ["verify", "--depth", str(VERIFY_DEPTH),
            "--random-states", str(VERIFY_RANDOM_STATES),
            "--seed", str(rng.randrange(2**31))]
    return argv, checks.check_verify


WORKLOADS = {"run-long": run_long, "figures": figures, "verify": verify}


@dataclass
class Job:
    timing: dict | None
    problems: list[str]
    spans: dict | None = None
    seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Runner:
    workload: str
    seed: int
    work_dir: Path
    started: float = field(default_factory=time.perf_counter)
    jobs: list[Job] = field(default_factory=list)

    def inputs(self, index: int, out_dir: Path):
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        return WORKLOADS[self.workload](rng, out_dir)

    def run_job(self, index: int, traced: bool) -> Job:
        began = time.perf_counter()
        out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        argv, check = self.inputs(index, out_dir)
        result_path = out_dir / "result.json"
        spans_path = out_dir / "spans.json"
        command = [sys.executable, str(HERE / "job.py"), str(result_path)]
        if traced:
            command.append(str(spans_path))
        env = job_environment()
        remaining = RUN_DEADLINE_S - (began - self.started)
        try:
            proc = subprocess.run(command + ["--"] + argv, env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            job = Job(None, [f"job timed out after {remaining:.0f} s"])
        else:
            job = self._collect(proc, check, result_path, spans_path if traced else None)
        shutil.rmtree(out_dir, ignore_errors=True)
        job.seconds = time.perf_counter() - began
        for problem in job.problems[:5]:
            print(f"job {index}: {problem}", file=sys.stderr)
        self.jobs.append(job)
        return job

    @staticmethod
    def _collect(proc, check, result_path: Path, spans_path: Path | None) -> Job:
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        try:
            problems.extend(check(proc.stdout))
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            problems.append(f"output check raised {exc!r}")
        try:
            timing = json.loads(result_path.read_text(encoding="utf-8"))
            traced = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path else None
        except (OSError, json.JSONDecodeError) as exc:
            return Job(None, problems + [f"no job result: {exc}"])
        return Job(timing, problems, traced)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def fits(self, budget: float, lap: float) -> bool:
        """Whether one more lap of ``lap`` seconds ends within the budget."""
        return self.elapsed() + lap <= min(budget, RUN_DEADLINE_S)


def job_environment() -> dict:
    """The parent's environment, with twinwalk importable from ``src``.

    BLAS runs single-threaded: one job in flight uses one core, and on a
    small shared machine a second BLAS thread mostly adds spin-waiting and
    run-to-run noise.  Threads the program starts itself still show in cpu_s.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in BLAS_THREAD_VARIABLES:
        env[name] = "1"
    return env


def environment(blas_threads) -> dict:
    import numpy

    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in open("/proc/cpuinfo", encoding="utf-8")
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    return {
        "machine": f"{platform.machine()} {cpu}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads,
        "commit": _commit(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def measure(runner: Runner, seconds: float) -> dict:
    lap = 0.0
    while runner.fits(seconds if len(runner.jobs) >= MIN_JOBS else RUN_DEADLINE_S, lap):
        lap = runner.run_job(len(runner.jobs), traced=False).seconds
    timed = [job.timing for job in runner.jobs if job.timing and not job.failed]
    timed = timed or [job.timing for job in runner.jobs if job.timing]
    if not timed:
        return {}
    return {
        name: {"value": statistics.median(t[name] for t in timed), "unit": unit}
        for name, unit in END_TO_END
    }


def measure_traced(runner: Runner, seconds: float) -> dict:
    plain, traced = [], []
    lap = 0.0
    while runner.fits(seconds if traced else RUN_DEADLINE_S, lap):
        began = time.perf_counter()
        plain.append(runner.run_job(0, traced=False))
        traced.append(runner.run_job(0, traced=True))
        lap = time.perf_counter() - began
    per_job = [spans.layer_metrics(job.spans["spans"]) for job in traced if job.spans]
    if not per_job:
        return {}
    counts = [spans.exact_counts(m) for m in per_job]
    if any(c != counts[0] for c in counts):
        print("warning: traced jobs of the same inputs gave different counts",
              file=sys.stderr)
    for name in sorted({a for job in traced if job.spans for a in job.spans["absent"]}):
        print(f"absent layer: {name}")
    for name in sorted({e for job in traced if job.spans for e in job.spans["counter_errors"]}):
        print(f"counts unavailable for span: {name}")
    values = spans.median_metrics(per_job)
    # Adjacent jobs of a pair see nearly the same machine speed.
    differences = [t.timing["wall_s"] - p.timing["wall_s"]
                   for p, t in zip(plain, traced) if p.timing and t.timing]
    values["trace.overhead_s"] = statistics.median(differences) if differences else 0.0
    units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
    units["trace.overhead_s"] = "s"
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "twinwalk" / "cli.py").is_file():
        print(f"no twinwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    runner = Runner(args.workload, args.seed, work_dir)
    try:
        # Compile the sources once so no timed job pays for it.
        subprocess.run([sys.executable, "-c", "import twinwalk.cli"],
                       env=job_environment(), cwd=ROOT, capture_output=True, timeout=60)
        if args.trace:
            metrics = measure_traced(runner, args.seconds)
        else:
            metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if not metrics:
        print("no job produced a timing", file=sys.stderr)
        return 1

    attempted = len(runner.jobs)
    failed = sum(job.failed for job in runner.jobs)
    blas = next((job.timing.get("blas_threads") for job in runner.jobs if job.timing), None)
    print("environment: " + json.dumps(environment(blas), sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  jobs {attempted}  "
          f"({'traced' if args.trace else 'untraced'})")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<36} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if not args.trace:
        timed = [job.timing for job in runner.jobs if job.timing]
        print("per job: " + json.dumps({name: [t[name] for t in timed] for name, _ in END_TO_END}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
