"""The benchmark's per-layer metric names still name traced functions.

``perfbench/run.py --trace 1`` resolves every per-layer name of
``BENCHMARK.json`` against its tracer and raises ``KeyError`` for a name that
nothing traces, so deleting or renaming a traced function breaks the
benchmark.  This test resolves the names the same way, without running jobs.
A second test keeps every method the tracer spans inside a public layer.
"""

import importlib
import json
import pkgutil
import types
from pathlib import Path

import relend

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


def test_private_classes_define_no_public_methods():
    # the tracer spans the public methods of every class, private ones too,
    # so a private helper's public method would move its time out of the
    # self time of the public layer that calls it
    public = []
    for info in pkgutil.iter_modules(relend.__path__, "relend."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if not (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and cls.__name__.startswith("_")
            ):
                continue
            public += [
                f"{module.__name__}.{cls.__name__}.{attr}"
                for attr, fn in vars(cls).items()
                if isinstance(fn, types.FunctionType) and not attr.startswith("_")
            ]
    assert public == []
