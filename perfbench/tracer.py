"""Outside-in tracing of the relend package, installed from the benchmark.

The tracer replaces every public function of every ``relend.*`` module with a
wrapper, in the defining module and in each module that bound the same object
by ``from ... import``, and wraps the public methods of the classes those
modules define.  Nothing under ``src/`` is edited; ``uninstall`` puts every
original object back.

Two kinds of wrapper exist:

* a *span* records ``(id, name, parent span, job, start, end)``; spans are kept
  in memory and written out by ``write`` when the run ends;
* a *count* only increments a call counter.  Group arithmetic and the hot
  accessors of patterns and graphs are counted, never spanned, so that the
  clock reads do not swamp the work they measure.

Self time of a layer is its spans' duration minus the time covered by their
direct child spans.  Three counters are read from returned objects: vertices
built per ``CosetGraph`` construction, cocycle table hits (a
``CocycleSpec.factor`` call that grows its table is a miss), and the
``decisions`` of each ``SearchOutcome``.  Calls, self times and counts cover
everything traced, set-up (job -1) included; the two ratios cover the jobs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import defaultdict

# Methods that are counted, never spanned: group arithmetic and the hot
# accessors called once per cell or per edge.
COUNT_ONLY_METHODS = {
    "patterns.Pattern": {"value_at", "support", "items", "is_empty"},
    "patterns.Alphabet": {"index", "permutation_of", "apply"},
    "coset_graph.CosetGraph": {"norm", "neighbors", "vertex_count"},
}
# Module-level group arithmetic; the enumerators in ``groups`` are spanned.
COUNT_ONLY_FUNCTIONS = {
    "groups.mul",
    "groups.inv",
    "groups.in_subgroup",
    "groups.coset_of",
    "groups.coset_cocycle",
}
# Class methods whose layer name differs from the method name.
RENAMED = {"coset_graph.CosetGraph.__init__": "coset_graph.build"}
PACKAGE = "relend"


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Spans and counters for one traced pass over a job list."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        # one span = four ints (id, name, parent, job) and two clock reads
        self.span_ints = array("q")
        self.span_times = array("d")
        self._next_id = 0
        self._stack = [-1]
        self.job = -1
        self._built_by_job: dict[int, int] = defaultdict(int)
        self._largest_by_job: dict[int, int] = defaultdict(int)
        self.factor_hits = 0
        self.factor_misses = 0
        self.search_decisions = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    # -- names and wrappers ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def _counted(self, name: str, fn):
        nid = self._name_id(name)
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name: str, fn, before=None, after=None):
        """A span wrapper; ``before(args)`` feeds ``after(token, args, result)``."""
        nid = self._name_id(name)
        calls = self.calls
        stack = self._stack
        ints = self.span_ints
        times = self.span_times
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[nid] += 1
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            token = before(args) if before is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ints.extend((sid, nid, parent, tracer.job))
                times.extend((start, end))
            if after is not None:
                after(token, args, result)
            return result

        return spanned

    def _hooks(self, name: str, originals: dict):
        """Ratio counters read from the arguments and results of a call."""
        if name == "coset_graph.build":
            vertex_count = originals["vertex_count"]

            def after(_token, args, _result):
                n = vertex_count(args[0])
                self._built_by_job[self.job] += n
                if n > self._largest_by_job[self.job]:
                    self._largest_by_job[self.job] = n

            return None, after
        if name == "cocycles.factor":

            def before(args):
                return len(args[0].tables.get(args[1], ()))

            def after(size, args, _result):
                if self.job < 0:
                    return
                if len(args[0].tables.get(args[1], ())) > size:
                    self.factor_misses += 1
                else:
                    self.factor_hits += 1

            return before, after
        if name == "obstruction.bounded_coboundary_search":

            def after(_token, _args, result):
                self.search_decisions += result.decisions

            return None, after
        return None, None

    def _wrap_function(self, fn):
        wrapped = self._wrapped.get(id(fn))
        if wrapped is None:
            name = f"{_short(fn.__module__)}.{fn.__name__}"
            if name in COUNT_ONLY_FUNCTIONS:
                wrapped = self._counted(name, fn)
            else:
                before, after = self._hooks(name, {})
                wrapped = self._spanned(name, fn, before, after)
            self._wrapped[id(fn)] = wrapped
        return wrapped

    def _wrap_class(self, cls) -> None:
        module = _short(cls.__module__)
        qual = f"{module}.{cls.__name__}"
        count_only = COUNT_ONLY_METHODS.get(qual, set())
        originals = {
            attr: fn
            for attr, fn in vars(cls).items()
            if isinstance(fn, types.FunctionType)
        }
        for attr, fn in originals.items():
            key = f"{qual}.{attr}"
            if attr.startswith("_") and key not in RENAMED:
                continue
            name = RENAMED.get(key, f"{module}.{attr}")
            if module == "groups" or attr in count_only:
                wrapper = self._counted(name, fn)
            else:
                before, after = self._hooks(name, originals)
                wrapper = self._spanned(name, fn, before, after)
            self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / uninstall ---------------------------------------------------

    def modules(self) -> list[types.ModuleType]:
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        prefix = PACKAGE + "."
        mods = self.modules()
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(value)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__.startswith(prefix)
                ):
                    self._patch(mod, attr, self._wrap_function(value))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_times) // 2

    def self_times(self) -> dict[str, float]:
        """Per-name span time minus the time of the direct child spans."""
        ints, times = self.span_ints, self.span_times
        n = self.span_count()
        name_of = [0] * n
        for i in range(n):
            name_of[ints[4 * i]] = ints[4 * i + 1]
        out = [0.0] * len(self.names)
        for i in range(n):
            dur = times[2 * i + 1] - times[2 * i]
            out[ints[4 * i + 1]] += dur
            parent = ints[4 * i + 2]
            if parent >= 0:
                out[name_of[parent]] -= dur
        return {name: out[nid] for nid, name in enumerate(self.names)}

    def call_counts(self) -> dict[str, int]:
        return {name: self.calls[nid] for nid, name in enumerate(self.names)}

    def vertices_built(self) -> int:
        return sum(self._built_by_job.values())

    def build_useful_ratio(self) -> float:
        """Vertices of the largest ball each job kept, over vertices built."""
        jobs = [j for j in self._built_by_job if j >= 0]
        built = sum(self._built_by_job[j] for j in jobs)
        kept = sum(self._largest_by_job[j] for j in jobs)
        return kept / built if built else 0.0

    def table_hit_ratio(self) -> float:
        """Hits over ``factor`` calls of the jobs; set-up (job -1) fills tables."""
        total = self.factor_hits + self.factor_misses
        return self.factor_hits / total if total else 0.0

    def write(self, stem: str, record: dict) -> None:
        """Write the spans as ``<stem>.bin`` and their layout as ``<stem>.json``.

        The binary file holds the int64 array (id, name, parent, job per
        span) followed by the float64 array (start, end per span).
        """
        with open(stem + ".bin", "wb") as fh:
            self.span_ints.tofile(fh)
            self.span_times.tofile(fh)
        header = {
            "spans": self.span_count(),
            "int64_columns": ["id", "name", "parent", "job"],
            "float64_columns": ["start", "end"],
            "names": self.names,
            "record": record,
        }
        with open(stem + ".json", "w") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")
