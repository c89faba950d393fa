"""The benchmark's per-layer metric names still name traced functions.

``perfbench/run.py --trace 1`` resolves every per-layer name of
``BENCHMARK.json`` against its tracer and raises ``KeyError`` for a name that
nothing traces, so deleting or renaming a traced function breaks the
benchmark.  This test resolves the names the same way, without running jobs.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_per_layer_metric_names_a_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import relend.cli  # noqa: F401  (the tracer patches what is imported)
    import run
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["per_layer"]]
    tracer = Tracer()
    tracer.install()
    try:
        values = run.layer_metrics(tracer, names)
    finally:
        tracer.uninstall()
    # the tracing overhead is a ratio of two timed passes, not a traced name
    assert sorted(values) == sorted(set(names) - {"trace_overhead"})
