"""Workload menus, seeded job lists, set-up and the verdict oracle.

Every job is one ``relend`` command line, run in-process through
``relend.cli.main(argv)``.  The workload seed draws each job's pair,
parameters and ``--seed`` from a fixed menu; the program sees only the
config files written in set-up and the argv.

The oracle in ``check`` knows the expected verdict of every job from facts
that do not come from the code under test: sphere sizes of lattices and
regular trees, counted here by direct enumeration or closed forms, and the
verdict each command must reach on a planted (hence trivial) cocycle.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

WORKLOADS = ("geometry", "obstruct", "tables")

PAIRS = {
    "zd1": {"family": "zd", "d": 1, "k_coords": []},
    "zd2": {"family": "zd", "d": 2, "k_coords": []},
    "zd3": {"family": "zd", "d": 3, "k_coords": []},
    "zd2k0": {"family": "zd", "d": 2, "k_coords": [0]},
    "zd3k0": {"family": "zd", "d": 3, "k_coords": [0]},
    "free2": {"family": "free", "rank": 2, "k": "trivial"},
    "bs12": {"family": "bs", "m": 1, "n": 2},
    "bs13": {"family": "bs", "m": 1, "n": 3},
}
TABLE_PAIRS = ("zd2", "zd3", "zd3k0", "free2", "bs12")
TABLE_PLANT_WINDOW = 0  # b0-window 0 plants window-1 tables

# Names of the files a job may write inside the run directory.
OUTPUT_NAMES = ("out.csv", "out.dot", "transfer.json", "report.txt")


# ---------------------------------------------------------------------------
# Independent geometry: lattices Z^q (L1 metric) and k-regular trees


def shape(pair: str) -> tuple[str, int]:
    """("lattice", q) for Z^d / Z^|K| = Z^q, ("tree", k) for a k-regular tree.

    The coset graph of free(n) with trivial K is the 2n-regular tree, and
    that of BS(1, n) relative to <x> is the Bass-Serre tree, (1+n)-regular.
    """
    cfg = PAIRS[pair]
    if cfg["family"] == "zd":
        return "lattice", cfg["d"] - len(set(cfg["k_coords"]))
    if cfg["family"] == "free":
        return "tree", 2 * cfg["rank"]
    if cfg["family"] == "bs" and cfg["m"] == 1:
        return "tree", 1 + cfg["n"]
    raise ValueError(f"no independent geometry for {pair}")


@lru_cache(maxsize=None)
def _lattice_ball(q: int, radius: int) -> frozenset[tuple[int, ...]]:
    span = range(-radius, radius + 1)
    return frozenset(
        p for p in itertools.product(span, repeat=q) if sum(map(abs, p)) <= radius
    )


def sphere_size(pair: str, r: int) -> int:
    kind, k = shape(pair)
    if kind == "tree":
        return 1 if r == 0 else k * (k - 1) ** (r - 1)
    return sum(1 for p in _lattice_ball(k, r) if sum(map(abs, p)) == r)


def ball_size(pair: str, radius: int) -> int:
    return sum(sphere_size(pair, r) for r in range(radius + 1))


def ball_directed_edges(pair: str, radius: int) -> int:
    """Edges of the ball's induced subgraph, counted once from each end."""
    kind, k = shape(pair)
    if kind == "tree":
        return 2 * (ball_size(pair, radius) - 1)
    ball = _lattice_ball(k, radius)
    steps = [
        tuple(sign if i == axis else 0 for i in range(k))
        for axis in range(k)
        for sign in (1, -1)
    ]
    return sum(
        1
        for p in ball
        for s in steps
        if tuple(a + b for a, b in zip(p, s)) in ball
    )


def degree(pair: str) -> int:
    kind, k = shape(pair)
    return k if kind == "tree" else 2 * k


# ---------------------------------------------------------------------------
# Jobs and menus


@dataclass
class Job:
    """One command line plus what the oracle expects of it."""

    entry: str
    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, ...]:
        """Identity of (config, seed, parameters); repeats must be byte-identical."""
        return tuple(self.argv)

    @property
    def spec_key(self) -> tuple[str, ...]:
        """The key without ``--seed``: jobs that allocate alike."""
        argv = list(self.argv)
        i = argv.index("--seed")
        del argv[i : i + 2]
        return tuple(argv)


@dataclass(frozen=True)
class Entry:
    label: str
    count: int
    make: Callable[[random.Random, int], Job]  # (rng, copy index) -> Job


def config_path(workdir: str, pair: str) -> str:
    return os.path.join(workdir, f"pair-{pair}.json")


def cocycle_path(workdir: str, pair: str) -> str:
    return os.path.join(workdir, f"cocycle-{pair}.json")


class Menu:
    """Builds the argv of each menu entry inside one run directory."""

    def __init__(self, workdir: str, rng: random.Random):
        self.wd = workdir
        # a small pool, so that (config, seed) pairs repeat within a run
        self.seeds = [rng.randrange(10**6) for _ in range(4)]

    def path(self, name: str) -> str:
        return os.path.join(self.wd, name)

    def config(self, pair: str) -> str:
        return config_path(self.wd, pair)

    def cocycle(self, pair: str) -> str:
        return cocycle_path(self.wd, pair)

    def seed(self, rng: random.Random) -> str:
        return str(rng.choice(self.seeds))

    def ends(self, pair: str, rmax: int, margin: int) -> Callable:
        def make(rng, _i):
            return Job(
                f"ends {pair} {rmax}/{margin}",
                ["ends", "--config", self.config(pair), "--seed", self.seed(rng),
                 "--rmax", str(rmax), "--margin", str(margin),
                 "--csv", self.path("out.csv")],
                "ends",
                {"pair": pair, "rmax": rmax, "margin": margin},
            )

        return make

    def graph(self, pair: str, radius: int) -> Callable:
        def make(rng, _i):
            return Job(
                f"graph {pair} r{radius}",
                ["graph", "--config", self.config(pair), "--seed", self.seed(rng),
                 "--radius", str(radius), "--out", self.path("out.dot"),
                 "--csv", self.path("out.csv")],
                "graph",
                {"pair": pair, "radius": radius},
            )

        return make

    def obstruct(self, pair: str, set_name: str, radii, samples: int,
                 copies: int = 1) -> Callable:
        """``radii`` is a sequence taken by copy index, or a range cut into
        ``copies`` equal strata, copy i drawing its radius from stratum i, so
        that every seed draws about the same mix of radii."""

        def make(rng, i):
            if isinstance(radii, range):
                radius = radii[int((i + rng.random()) * len(radii) / copies)]
            else:
                radius = radii[i % len(radii)]
            seed = self.seed(rng)
            return Job(
                f"obstruct {pair} {set_name} r{radius}",
                ["obstruct", "--config", self.config(pair), "--seed", seed,
                 "--set", set_name, "--radius", str(radius),
                 "--cap", str(ball_size(pair, radius)),
                 "--samples", str(samples),
                 "--report", self.path("report.txt")],
                "obstruct",
                {"pair": pair, "set": set_name, "radius": radius,
                 "samples": samples, "seed": seed},
            )

        return make

    def verify(self, pair: str) -> Callable:
        def make(rng, _i):
            return Job(
                f"verify {pair}",
                ["verify", "--config", self.config(pair), "--seed", self.seed(rng),
                 "--cocycle", self.cocycle(pair),
                 "--report", self.path("report.txt")],
                "verify",
                {"pair": pair},
            )

        return make

    def table_trivialize(self, pair: str) -> Callable:
        def make(rng, _i):
            seed = self.seed(rng)
            return Job(
                f"trivialize --cocycle {pair}",
                ["trivialize", "--config", self.config(pair), "--seed", seed,
                 "--cocycle", self.cocycle(pair),
                 "--out", self.path("transfer.json"),
                 "--report", self.path("report.txt")],
                "table_trivialize",
                {"pair": pair, "seed": seed},
            )

        return make


# Each menu has 40 jobs.  The counts put the median and the tail percentile
# (the 11th slowest job) inside one entry's block of similar job times, so
# that the same kind of job sits there for every seed.
def menu(workload: str, m: Menu) -> list[Entry]:
    if workload == "geometry":
        return [
            Entry("ends zd2 5/5", 5, m.ends("zd2", 5, 5)),
            Entry("ends zd3 5/5", 4, m.ends("zd3", 5, 5)),
            Entry("ends zd3k0 8/6", 6, m.ends("zd3k0", 8, 6)),
            Entry("ends zd1 5/5", 5, m.ends("zd1", 5, 5)),
            Entry("ends free2 3/4", 1, m.ends("free2", 3, 4)),
            Entry("ends free2 3/5", 1, m.ends("free2", 3, 5)),
            Entry("ends bs12 5/5", 5, m.ends("bs12", 5, 5)),
            Entry("ends bs13 4/4", 2, m.ends("bs13", 4, 4)),
            Entry("graph free2 r6", 3, m.graph("free2", 6)),
            Entry("graph zd3 r8", 8, m.graph("zd3", 8)),
        ]
    if workload == "obstruct":
        return [
            Entry("obstruct zd1 halfline r12-40", 10,
                  m.obstruct("zd1", "halfline", range(12, 41), 100, copies=10)),
            Entry("obstruct zd2k0 halfline r12", 6,
                  m.obstruct("zd2k0", "halfline", (12,), 100)),
            # radius 4 twice as often as 5: 16 and 8 jobs
            Entry("obstruct free2 aprefix r4-5", 24,
                  m.obstruct("free2", "aprefix", (4, 4, 5), 200)),
        ]
    if workload == "tables":
        return [
            Entry("trivialize --cocycle zd3", 1, m.table_trivialize("zd3")),
            Entry("trivialize --cocycle zd3k0", 5, m.table_trivialize("zd3k0")),
            Entry("trivialize --cocycle zd2", 9, m.table_trivialize("zd2")),
            Entry("trivialize --cocycle bs12", 2, m.table_trivialize("bs12")),
            Entry("verify zd3", 12, m.verify("zd3")),
            Entry("verify zd3k0", 4, m.verify("zd3k0")),
            Entry("verify zd2", 2, m.verify("zd2")),
            Entry("verify free2", 2, m.verify("free2")),
            Entry("verify bs12", 3, m.verify("bs12")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pairs_used(workload: str) -> tuple[str, ...]:
    return {
        "geometry": ("zd1", "zd2", "zd3", "zd3k0", "free2", "bs12", "bs13"),
        "obstruct": ("zd1", "zd2k0", "free2"),
        "tables": TABLE_PAIRS,
    }[workload]


def job_list(workload: str, seed: int, workdir: str) -> tuple[list[Job], list[dict]]:
    """The seeded multiset of jobs in run order, and the menu it came from.

    Copies of one entry are spread evenly over the list, so any prefix of a
    pass has close to the full mix.
    """
    rng = random.Random(f"relend-bench:{workload}:{seed}")
    entries = menu(workload, Menu(workdir, rng))
    slots = []
    for e in entries:
        offset = rng.random()
        for i in range(e.count):
            slots.append(((i + offset) / e.count, rng.random(), e.make(rng, i)))
    slots.sort(key=lambda s: (s[0], s[1]))
    described = [{"entry": e.label, "count": e.count} for e in entries]
    return [job for _, _, job in slots], described


# ---------------------------------------------------------------------------
# Set-up: config files and, for ``tables``, planted cocycle files


def setup(workload: str, seed: int, workdir: str) -> dict[str, bytes]:
    """Import relend, write the inputs, return every written file's bytes."""
    importlib.import_module("relend.cli")
    paths = []
    for pair in pairs_used(workload):
        paths.append(config_path(workdir, pair))
        with open(paths[-1], "w") as fh:
            json.dump(PAIRS[pair], fh)
            fh.write("\n")
    if workload == "tables":
        paths += plant_tables(seed, workdir)
    written = {}
    for path in paths:
        with open(path, "rb") as fh:
            written[path] = fh.read()
    return written


def plant_tables(seed: int, workdir: str) -> list[str]:
    """Plant a window-1 cocycle on each table pair and emit it as JSON."""
    serialize = importlib.import_module("relend.serialize")
    cocycles = importlib.import_module("relend.cocycles")
    coset_graph = importlib.import_module("relend.coset_graph")
    patterns = importlib.import_module("relend.patterns")
    groups = importlib.import_module("relend.groups")
    rng = random.Random(f"relend-bench:tables-plant:{seed}")
    alphabet = patterns.trivial_alphabet(("0", "1"), "0")
    paths = []
    for pair in TABLE_PAIRS:
        group = serialize.group_from_config(PAIRS[pair])
        graph = coset_graph.BallCache(group).at_least(TABLE_PLANT_WINDOW + 1)
        spec = cocycles.plant_cocycle(
            group, alphabet, groups.ZmodGroup((2,)), TABLE_PLANT_WINDOW,
            rng.randrange(10**6), graph,
        )
        paths.append(cocycle_path(workdir, pair))
        serialize.dump_json(paths[-1], serialize.cocycle_to_json(spec, graph))
    return paths


# ---------------------------------------------------------------------------
# The verdict oracle


@dataclass
class Outcome:
    """What one job produced: exit code, captured text and written files."""

    code: int | None
    stdout: str
    stderr: str
    error: str | None
    files: dict[str, bytes]
    seconds: float
    peak_bytes: int | None = None  # traced peak, when tracemalloc is on
    ref_before: float | None = None  # reference time just before the job

    def text(self, name: str) -> str:
        data = self.files.get(name)
        return data.decode() if data is not None else ""


def check(job: Job, out: Outcome) -> list[str]:
    """Problems with a job's verdict; an empty list means it is correct."""
    if out.error is not None:
        return [f"raised {out.error}"]
    return _CHECKS[job.kind](job.expect, out)


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _check_ends(e: dict, out: Outcome) -> list[str]:
    pair, rmax, margin = e["pair"], e["rmax"], e["margin"]
    kind, k = shape(pair)
    rows = []
    for r in range(1, rmax + 1):
        if kind == "tree":
            touching, n_r = sphere_size(pair, r), ""
        elif k == 1:
            touching, n_r = 2, ""
        else:
            touching, n_r = 1, str(r)
        rows.append(f"{r},{r + margin},{touching},{touching},{n_r}")
    if kind == "tree":
        verdict = f">= {sphere_size(pair, rmax)} (growing with radius)"
    else:
        verdict = "exact 2" if k == 1 else "exact 1"
    p: list[str] = []
    _expect(p, out.code == 0, f"exit {out.code}")
    _expect(p, out.stdout == f"ends estimate: {verdict}\n", f"stdout {out.stdout!r}")
    csv = out.text("out.csv").splitlines()
    _expect(p, csv == ["r,R,components,sphere_touching,N_r"] + rows, "ends CSV rows")
    return p


def _check_graph(e: dict, out: Outcome) -> list[str]:
    pair, radius = e["pair"], e["radius"]
    p: list[str] = []
    _expect(p, out.code == 0, f"exit {out.code}")
    csv = out.text("out.csv").splitlines()
    _expect(p, csv[:1] == ["vertex,norm,degree"], "CSV header")
    rows = [line.rsplit(",", 2) for line in csv[1:]]
    _expect(p, len(rows) == ball_size(pair, radius),
            f"{len(rows)} CSV rows, expected {ball_size(pair, radius)}")
    norms = [int(r[1]) for r in rows if len(r) == 3]
    _expect(p, all(norms.count(r) == sphere_size(pair, r) for r in range(radius + 1)),
            "norm histogram differs from the sphere sizes")
    _expect(p, all(len(r) == 3 and int(r[2]) == degree(pair) for r in rows),
            "a vertex degree differs from the regular degree")
    _expect(p, len({r[0] for r in rows}) == len(rows), "duplicate vertex labels")
    dot = out.text("out.dot").splitlines()
    _expect(p, dot[:1] == ["digraph coset_ball {"] and dot[-1:] == ["}"], "DOT frame")
    edges = sum(1 for line in dot if " -> " in line)
    _expect(p, edges == ball_directed_edges(pair, radius),
            f"{edges} DOT edges, expected {ball_directed_edges(pair, radius)}")
    return p


def _check_obstruct(e: dict, out: Outcome) -> list[str]:
    p: list[str] = []
    report = out.text("report.txt").splitlines()
    radius = e["radius"]
    _expect(p, out.code == 0, f"exit {out.code}")
    _expect(p, report[:3] == [f"set: {e['set']}", f"radius: {radius}",
                              f"seed: {e['seed']}"], "report header")
    _expect(p, f"identity check: {e['samples']} trials, 0 violations" in report,
            "identity violations")
    _expect(p, report[-1:] == [f"search verdict: non-coboundary up to radius {radius}"],
            "search verdict")
    return p


def _check_verify(e: dict, out: Outcome) -> list[str]:
    p: list[str] = []
    report = out.text("report.txt").splitlines()
    _expect(p, out.code == 0, f"exit {out.code}")
    _expect(p, len(report) == 3 and report[1].startswith("PASS relations")
            and report[2] == "PASS window_soundness", "verify report")
    return p


def _check_table_trivialize(e: dict, out: Outcome) -> list[str]:
    p: list[str] = []
    report = out.text("report.txt").splitlines()
    _expect(p, report[:1] == [f"seed: {e['seed']}"], "report seed line")
    if shape(e["pair"])[0] == "tree":
        # many-ended: the pipeline must refuse before any transfer work
        _expect(p, out.code == 1, f"exit {out.code}")
        _expect(p, len(report) == 2 and report[1].startswith("FAIL one_ended"),
                "no FAIL one_ended line")
        _expect(p, "transfer.json" not in out.files, "transfer written")
    else:
        _expect(p, out.code == 0, f"exit {out.code}")
        _expect(p, report[-1:] == ["RESULT: ok"], "report result line")
        _expect(p, not any(line.startswith("FAIL") for line in report), "a FAIL line")
        try:
            transfer = json.loads(out.text("transfer.json"))
        except ValueError:
            transfer = {}
        _expect(p, isinstance(transfer, dict) and set(transfer) == {"window", "phi", "b"}
                and transfer["window"] == TABLE_PLANT_WINDOW + 1, "transfer JSON")
    return p


_CHECKS = {
    "ends": _check_ends,
    "graph": _check_graph,
    "obstruct": _check_obstruct,
    "verify": _check_verify,
    "table_trivialize": _check_table_trivialize,
}
