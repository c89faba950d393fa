#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the relend command line.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload tables --seed 1 --seconds 27 --trace 1

Run from the root of a checkout; relend is imported from ``src/``.  One
client runs the seeded job list of the workload in a closed loop, in this
process and thread, calling ``relend.cli.main(argv)`` for each job and
checking every verdict against ``jobs.check``.

``--trace 0`` reports the end-to-end metrics: set-up time (median of several
set-ups), the peak traced memory of one untimed pass over the distinct jobs,
then the median and tail job time over the job list and jobs per second.
Times are scaled to a fixed reference speed with ``reference.py``, timed
beside every set-up and job, because the machine's own speed drifts.  ``--trace 1`` times
one untraced pass, then one pass under ``tracer.Tracer`` and reports the
per-layer metrics and the tracing overhead.  The metric names and units come
from ``BENCHMARK.json``; see ``perfbench/README.md`` for what each means.

The last line of standard output is the result object; the line before it
is the run record.  Spans of a traced run go to ``.bench_work/spans-*``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import jobs as joblib
import reference
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ".bench_work"
SETUP_REPS = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


class Runner:
    """Runs jobs one after another and counts the ones that fail."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        # time the reference computation just before each job
        self.calibrate = False
        self.attempted = 0
        self.failures: list[dict] = []
        self._digests: dict[tuple, str] = {}

    def fail(self, what: str, problems: list[str]) -> None:
        self.failures.append({"job": what, "problems": problems})

    def run(self, job: joblib.Job) -> joblib.Outcome:
        paths = {n: os.path.join(self.workdir, n) for n in joblib.OUTPUT_NAMES}
        for path in paths.values():
            if os.path.exists(path):
                os.remove(path)
        # each job starts from a collected heap, as a fresh process would
        gc.collect()
        cli = sys.modules["relend.cli"]
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        tracing = tracemalloc.is_tracing()
        if tracing:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        ref = reference.measure() if self.calibrate else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed job, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] - base if tracing else None
        files = {}
        for name, path in paths.items():
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        outcome = joblib.Outcome(code, out.getvalue(), err.getvalue(), error,
                                 files, seconds, peak, ref)
        self.attempted += 1
        problems = joblib.check(job, outcome)
        problems += self.determinism(job.key, outcome)
        if problems:
            self.fail(job.entry + " :: " + " ".join(job.argv), problems)
        return outcome

    def determinism(self, key: tuple, outcome: joblib.Outcome) -> list[str]:
        """A repeat of the same (config, seed, parameters) must be byte-identical."""
        h = hashlib.sha256()
        h.update(repr((outcome.code, outcome.stdout, outcome.stderr)).encode())
        for name in sorted(outcome.files):
            h.update(name.encode() + b"\0" + outcome.files[name] + b"\0")
        digest = h.hexdigest()
        if self._digests.setdefault(key, digest) != digest:
            return ["artifact differs from an earlier run of the same job"]
        return []


# ---------------------------------------------------------------------------
# Phases


def purge_relend() -> None:
    for name in [n for n in sys.modules if n == "relend" or n.startswith("relend.")]:
        del sys.modules[name]


class Setups:
    """Set-up reps, each from a fresh import; every rep must write the same bytes."""

    def __init__(self, runner: Runner, workload: str, seed: int):
        self.runner, self.workload, self.seed = runner, workload, seed
        self.times: list[float] = []  # at the reference speed
        self.wall: list[float] = []
        self.files: dict | None = None

    def rep(self) -> None:
        purge_relend()
        gc.collect()
        before = reference.measure()
        start = time.perf_counter()
        written = joblib.setup(self.workload, self.seed, self.runner.workdir)
        seconds = time.perf_counter() - start
        self.wall.append(seconds)
        self.times.append(reference.scale(seconds, [before, reference.measure()]))
        self.check(written, f"setup rep {len(self.times) - 1}")

    def check(self, written: dict, what: str) -> None:
        self.runner.attempted += 1
        if self.files is None:
            self.files = written
        elif written != self.files:
            self.runner.fail(what, ["set-up files differ from rep 0"])


def warm_up(runner: Runner, job_list: list) -> None:
    """One untimed, checked run of the first job of each menu entry.

    It specializes the interpreter's code for every kind of job and fills
    whatever relend sets up lazily, so the first timed pass pays neither.
    """
    seen = set()
    for job in job_list:
        if job.entry not in seen:
            seen.add(job.entry)
            runner.run(job)


def timed_phase(runner: Runner, job_list: list, seconds: float) -> list[list[tuple]]:
    """Cycle the job list until ``seconds`` have passed and every job ran once.

    Returns, per job, the (wall seconds, reference times) of each repeat:
    the reference timed just before the repeat and the one timed just before
    the next job, or after the last.
    """
    per_job: list[list[tuple]] = [[] for _ in job_list]
    runner.calibrate = True
    start = time.perf_counter()
    n = 0
    pending = None  # (job index, wall seconds, reference time before it)
    while n < len(job_list) or time.perf_counter() - start < seconds:
        i = n % len(job_list)
        outcome = runner.run(job_list[i])
        ref = outcome.ref_before
        if pending:
            per_job[pending[0]].append((pending[1], (pending[2], ref)))
        pending = (i, outcome.seconds, ref)
        n += 1
    per_job[pending[0]].append((pending[1], (pending[2], reference.measure())))
    runner.calibrate = False
    return per_job


def memory_phase(runner: Runner, job_list: list) -> float:
    """Peak traced MB of any job, one untimed run per distinct job spec.

    Jobs that differ only in ``--seed`` allocate alike, so one of each stands
    for all of them.  Each runs cold, as in a fresh ``relend`` process; the
    pass leaves the code of every kind of job specialized and relend's lazy
    state filled, so it is also the warm-up of the timed phase.
    """
    distinct = {}
    for job in job_list:
        distinct.setdefault(job.spec_key, job)
    tracemalloc.start()
    try:
        peak = max(runner.run(job).peak_bytes for job in distinct.values())
    finally:
        tracemalloc.stop()
    return peak / 1e6


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return 50.0


def job_time_stats(job_list: list, per_job: list[list[tuple]]) -> dict:
    """Median, tail and throughput of the job list at the reference speed.

    Each repeat's wall time is scaled by the reference times taken just
    before and after it; a job's time is the median of its scaled repeats.
    The tail then ranks jobs by their inputs, not by the moment they ran.
    """
    scaled = [[reference.scale(s, refs) for s, refs in runs] for runs in per_job]
    job_times = sorted(statistics.median(s) for s in scaled)
    wall_times = sorted(statistics.median(s for s, _ in runs) for runs in per_job)
    by_entry: dict[str, list[float]] = {}
    for job, s in zip(job_list, scaled):
        by_entry.setdefault(job.entry, []).append(statistics.median(s))
    n = len(job_times)
    pct = tail_percentile(n)
    rank = max(math.ceil(pct * n / 100), 1)
    refs = [r for runs in per_job for _, rs in runs for r in rs]
    return {
        "job_s_p50": statistics.median(job_times),
        "job_s_tail": job_times[rank - 1],
        # one pass of the job list, each job at its scaled median
        "jobs_per_s": n / sum(job_times),
        "tail_percentile": pct,
        "tail_samples": n,
        "tail_beyond": n - rank,
        "timed_runs": sum(len(runs) for runs in per_job),
        "timed_busy_s": sum(s for runs in per_job for s, _ in runs),
        "entry_median_s": {e: statistics.median(t) for e, t in by_entry.items()},
        "wall": {
            "job_s_p50": statistics.median(wall_times),
            "job_s_tail": wall_times[rank - 1],
            "jobs_per_s": n / sum(wall_times),
        },
        "reference": {
            "nominal_s": reference.NOMINAL_S,
            "median_s": statistics.median(refs),
            "quartiles_s": statistics.quantiles(refs, n=4),
        },
        "repeats": [[[s, *refs] for s, refs in runs] for runs in per_job],
    }


def layer_metrics(tracer: Tracer, names: list[str]) -> dict[str, float]:
    """Resolve each per-layer metric name against the tracer's data."""
    calls = tracer.call_counts()
    self_s = tracer.self_times()
    special = {
        "coset_graph.vertices_built": tracer.vertices_built(),
        "coset_graph.build_useful_ratio": tracer.build_useful_ratio(),
        "cocycles.table_hit_ratio": tracer.table_hit_ratio(),
        "obstruction.search.decisions": tracer.search_decisions,
    }
    out = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif stat == "calls" and layer in calls:
            out[name] = calls[layer]
        elif stat == "self_s" and layer in self_s:
            out[name] = self_s[layer]
        elif name != "trace_overhead":
            raise KeyError(f"per-layer metric {name!r} names no traced function")
    return out


# ---------------------------------------------------------------------------
# Run record


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def base_record(args, job_list, menu_desc) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "commit": git_commit(),
        "loop": "closed, one client, one process, one thread",
        "jobs": len(job_list),
        "menu": menu_desc,
        "job_argv": [j.argv for j in job_list],
    }


def load_metric_names() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def benchmark(args, workdir: str) -> tuple[dict, dict]:
    e2e_units, layer_units = load_metric_names()
    runner = Runner(workdir)
    phase_start = time.perf_counter()
    setups = Setups(runner, args.workload, args.seed)
    setups.rep()
    relend = sys.modules["relend"]
    if not Path(relend.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"relend was imported from {relend.__file__}, not {SRC}")
    job_list, menu_desc = joblib.job_list(args.workload, args.seed, workdir)
    record = base_record(args, job_list, menu_desc)
    values: dict[str, float] = {}
    phases = record["phase_s"] = {"setup": time.perf_counter() - phase_start}
    if args.trace == 0:
        # the other set-ups come before any job: each re-imports relend, and a
        # fresh import in the timed phase would make the next jobs run cold
        while len(setups.times) < SETUP_REPS:
            setups.rep()
        phases["setup"] = time.perf_counter() - phase_start
        # the memory pass runs every kind of job once, so it is also the warm-up
        phase_start = time.perf_counter()
        values["peak_mem_mb"] = memory_phase(runner, job_list)
        phases["memory"] = time.perf_counter() - phase_start
        phase_start = time.perf_counter()
        per_job = timed_phase(runner, job_list, args.seconds)
        phases["timed"] = time.perf_counter() - phase_start
        stats = job_time_stats(job_list, per_job)
        record.update(stats)
        values.update(stats)
        values["setup_s"] = statistics.median(setups.times)
        record["wall"]["setup_s"] = statistics.median(setups.wall)
        units = e2e_units
    else:
        warm_up(runner, job_list)
        untraced = sum(runner.run(job).seconds for job in job_list)
        tracer = Tracer()
        with tracer:
            tracer.job = -1
            setups.check(joblib.setup(args.workload, args.seed, workdir), "traced setup")
            traced = 0.0
            for i, job in enumerate(job_list):
                tracer.job = i
                traced += runner.run(job).seconds
        values.update(layer_metrics(tracer, list(layer_units)))
        values["trace_overhead"] = untraced / traced
        stem = os.path.join(WORK, f"spans-{args.workload}")
        record.update({"untraced_pass_s": untraced, "traced_pass_s": traced,
                       "spans": tracer.span_count(), "span_file": stem + ".bin"})
        units = layer_units
    record["setup_s_reps"] = setups.times
    record["setup_wall_s_reps"] = setups.wall
    record["attempted"] = runner.attempted
    record["failed"] = len(runner.failures)
    record["fail_frac"] = len(runner.failures) / runner.attempted
    record["failures"] = runner.failures[:20]
    if args.trace == 1:
        tracer.write(stem, record)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relend" / "__init__.py").is_file():
        print(f"perfbench: no relend sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, record = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
