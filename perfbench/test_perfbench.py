"""Tests of the benchmark itself: oracle, failure counting and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import relend.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture()
def workdir(tmp_path):
    jobs.setup("geometry", 0, str(tmp_path))
    return str(tmp_path)


def _menu(workdir: str) -> jobs.Menu:
    return jobs.Menu(workdir, random.Random(0))


def test_independent_geometry():
    assert jobs.ball_size("free2", 6) == 1457
    assert jobs.ball_size("zd3", 8) == 833
    assert [jobs.sphere_size("bs12", r) for r in range(1, 5)] == [3, 6, 12, 24]
    assert [jobs.sphere_size("zd2", r) for r in range(4)] == [1, 4, 8, 12]
    assert jobs.ball_size("zd3k0", 2) == 13  # Z^3 / Z = Z^2
    assert jobs.ball_directed_edges("zd1", 3) == 12
    assert jobs.ball_directed_edges("free2", 2) == 2 * 16


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_list_is_seeded_and_follows_the_menu(workload, tmp_path):
    first, menu = jobs.job_list(workload, 5, str(tmp_path))
    again, _ = jobs.job_list(workload, 5, str(tmp_path))
    other, _ = jobs.job_list(workload, 6, str(tmp_path))
    assert [j.argv for j in first] == [j.argv for j in again]
    assert [j.argv for j in first] != [j.argv for j in other]
    assert len(first) == sum(e["count"] for e in menu) == 40
    assert run.tail_percentile(len(first)) == 75.0


def test_reference_kernel_uses_no_relend_code():
    before = set(sys.modules)
    assert reference.measure() > 0
    assert not {m for m in set(sys.modules) - before if m.startswith("relend")}


def test_job_stats_cancel_a_uniform_slowdown():
    job_list = [jobs.Job(f"e{i % 3}", ["x", str(i)], "ends") for i in range(40)]
    fast = [[(0.01 * (i + 1), (0.004, 0.004)), (0.012 * (i + 1), (0.0048, 0.0048))]
            for i in range(40)]
    # the same jobs on a machine running at half speed, repeats swapped
    slow = [[(2 * s, (2 * a, 2 * b)) for s, (a, b) in reversed(runs)] for runs in fast]
    a, b = run.job_time_stats(job_list, fast), run.job_time_stats(job_list, slow)
    for name in ("job_s_p50", "job_s_tail", "jobs_per_s"):
        assert a[name] == pytest.approx(b[name])
        assert a["wall"][name] != pytest.approx(b["wall"][name])
    # a job that takes n reference times reads n * NOMINAL_S
    assert a["job_s_p50"] == pytest.approx(20.5 * 0.01 * reference.NOMINAL_S / 0.004)


def test_correct_verdicts_pass(workdir):
    m = _menu(workdir)
    runner = run.Runner(workdir)
    rng = random.Random(1)
    for make in (m.ends("zd2", 3, 3), m.ends("zd1", 3, 3), m.ends("bs12", 3, 3),
                 m.graph("free2", 3), m.graph("zd3", 3)):
        runner.run(make(rng, 0))
    assert runner.attempted == 5
    assert runner.failures == []


def test_wrong_expected_answer_counts_as_failure(workdir):
    runner = run.Runner(workdir)
    job = _menu(workdir).ends("zd2", 3, 3)(random.Random(1), 0)
    job.expect["pair"] = "zd1"  # Z^1 has two ends: a wrong expectation for Z^2
    runner.run(job)
    assert runner.attempted == 1
    assert len(runner.failures) == 1
    graph = _menu(workdir).graph("zd3", 2)(random.Random(1), 0)
    graph.expect["radius"] = 3
    runner.run(graph)
    assert len(runner.failures) == 2


def test_changed_artifact_counts_as_failure(workdir, monkeypatch):
    runner = run.Runner(workdir)
    job = _menu(workdir).graph("zd2", 3)(random.Random(1), 0)
    first = runner.run(job)
    assert runner.failures == []
    real_main = relend.cli.main
    dot = os.path.join(workdir, "out.dot")

    def drifting_main(argv):
        code = real_main(argv)
        with open(dot) as fh:
            text = fh.read()
        with open(dot, "w") as fh:  # relabel one vertex: same shape, new bytes
            fh.write(text.replace('label="1"', 'label="e"', 1))
        return code

    monkeypatch.setattr(relend.cli, "main", drifting_main)
    second = runner.run(job)
    assert jobs.check(job, second) == []  # the oracle alone does not notice
    assert second.files["out.dot"] != first.files["out.dot"]
    assert runner.attempted == 2
    assert [f["problems"] for f in runner.failures] == [
        ["artifact differs from an earlier run of the same job"]
    ]


def test_exception_and_exit_code_count_as_failure(workdir, monkeypatch):
    runner = run.Runner(workdir)
    job = _menu(workdir).ends("zd2", 3, 3)(random.Random(1), 0)

    def broken_main(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(relend.cli, "main", broken_main)
    runner.run(job)
    monkeypatch.setattr(relend.cli, "main", lambda argv: 1)
    runner.run(job)
    assert runner.attempted == 2 and len(runner.failures) == 2
    assert runner.failures[0]["problems"] == ["raised RuntimeError: boom"]


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "relend" or name.startswith("relend."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for m, fn in vars(value).items():
                        out[(name, attr, m)] = fn
    return out


def test_tracer_patches_every_binding_and_restores(workdir):
    before = _bindings()
    job = _menu(workdir).ends("zd2", 3, 3)(random.Random(1), 0)
    runner = run.Runner(workdir)
    mods = sys.modules
    with Tracer() as tracer:
        for binding in (("relend.cli", "estimate_ends"),
                        ("relend.trivialize", "capacity"),
                        ("relend.serialize", "pattern_key"),
                        ("relend", "estimate_ends")):
            assert getattr(mods[binding[0]], binding[1]) is not before[binding]
        for module, cls, method in (("relend.groups", "Group", "multiply"),
                                    ("relend.coset_graph", "CosetGraph", "__init__"),
                                    ("relend.cocycles", "CocycleSpec", "factor"),
                                    ("relend.trivialize", "Trivializer", "transfer")):
            owner = getattr(mods[module], cls)
            assert vars(owner)[method] is not before[(module, cls, method)]
        tracer.job = 0
        runner.run(job)
    assert runner.failures == []
    assert _bindings() == before
    calls = tracer.call_counts()
    assert calls["cli.main"] == 1
    assert calls["ends.estimate_ends"] == 1
    assert calls["coset_graph.build"] >= 1
    assert calls["groups.multiply"] > 0
    assert calls["cocycles.factor"] == 0 and calls["patterns.act"] == 0
    assert tracer.vertices_built() > 0
    assert 0 < tracer.build_useful_ratio() <= 1
    self_s = tracer.self_times()
    assert all(v >= -1e-9 for v in self_s.values())
    assert self_s["ends.components_outside_ball"] > 0
    # group arithmetic is counted, never spanned
    assert self_s["groups.multiply"] == 0


def test_self_time_subtracts_direct_children():
    t = Tracer()
    parent, child = t._name_id("a.parent"), t._name_id("a.child")
    # spans are stored in end order: the child ends first
    t.span_ints.extend((1, child, 0, 0))
    t.span_times.extend((2.0, 5.0))
    t.span_ints.extend((0, parent, -1, 0))
    t.span_times.extend((0.0, 10.0))
    assert t.self_times() == {"a.parent": 7.0, "a.child": 3.0}


def test_table_hit_ratio_is_one_on_loaded_tables(tmp_path):
    wd = str(tmp_path)
    jobs.setup("tables", 3, wd)
    m = _menu(wd)
    runner = run.Runner(wd)
    with Tracer() as tracer:
        tracer.job = -1
        jobs.setup("tables", 3, wd)  # planting fills rule-backed tables: misses
        tracer.job = 0
        runner.run(m.verify("zd2")(random.Random(1), 0))
    assert runner.failures == []
    assert tracer.factor_hits > 0
    assert tracer.table_hit_ratio() == 1.0


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geometry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "job_s_p50", "job_s_tail", "jobs_per_s", "peak_mem_mb"}
