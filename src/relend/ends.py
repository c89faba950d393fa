"""Ends estimation and the capacity function for coset graphs.

Ends are a limit notion; a finite tool can only report evidence.  We remove
shells from built balls, count the connected components that reach the probe
sphere, and declare an exact value only after the count stabilises over the
top half of the probed range.  The capacity N(r) is the largest norm of a
vertex cut off from the sphere-reaching component once the closed r-ball is
removed; its value is accepted once two successive probe radii agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coset_graph import BallCache, CosetGraph
from .errors import NoStabilizationError, NotOneEndedError
from .groups import CosetId, Group


@dataclass(frozen=True)
class Component:
    vertices: frozenset[CosetId]
    touches_sphere: bool


@dataclass(frozen=True)
class EndsRow:
    r: int
    probe_radius: int
    components: int
    sphere_touching: int
    stabilized: bool


@dataclass(frozen=True)
class EndsReport:
    rows: tuple[EndsRow, ...]
    kind: str  # "exact" | "at_least" | "inconclusive"
    count: int | None

    def describe(self) -> str:
        if self.kind == "exact":
            return f"exact {self.count}"
        if self.kind == "at_least":
            return f">= {self.count} (growing with radius)"
        return "inconclusive"

    def is_exactly(self, k: int) -> bool:
        return self.kind == "exact" and self.count == k


@dataclass(frozen=True)
class CapacityEntry:
    value: int
    probe_radius: int


def _shell_components(graph: CosetGraph, inner: int, outer: int) -> list:
    """components_outside_ball as (id list, touches sphere) pairs.

    Rows below the graph's last sphere are the build's own.  A last-sphere
    vertex reached by the shell steps to its BFS parent and to its entry of
    ``CosetGraph._last_ids``, which holds its other in-ball neighbours."""
    if inner > outer or outer > graph.radius:
        raise ValueError(f"bad shell [{inner}, {outer}] for radius {graph.radius}")
    lo, top, hi = (graph.ball_size(n) for n in (inner - 1, outer - 1, outer))
    rows, last, parent_of = graph._rows, len(graph._rows), graph.parent_of
    more = graph._last_ids if hi > last else {}
    seen = bytearray(hi)
    out = []
    for start in range(lo, hi):
        if not seen[start]:
            seen[start] = 1
            comp = [start]
            for v in comp:
                if v < last:
                    for w in rows[v]:
                        if lo <= w < hi and not seen[w]:
                            seen[w] = 1
                            comp.append(w)
                else:
                    w = parent_of[v]  # below hi; -1 for the base of ball(0)
                    if lo <= w and not seen[w]:
                        seen[w] = 1
                        comp.append(w)
                    for w in more.get(v, ()):
                        if lo <= w < hi and not seen[w]:
                            seen[w] = 1
                            comp.append(w)
            out.append((comp, max(comp) >= top))
    return out


def components_outside_ball(
    graph: CosetGraph, inner: int, outer: int
) -> list[Component]:
    """Components of the induced subgraph on {v : inner <= |v| <= outer}.

    A component touches the sphere when it contains a vertex of norm equal
    to ``outer``; such components are the candidates for unbounded ones.
    """
    return [
        Component(frozenset(graph.cosets[i] for i in comp), touches)
        for comp, touches in _shell_components(graph, inner, outer)
    ]


def estimate_ends(cache: BallCache, r_max: int = 5, margin: int = 5) -> EndsReport:
    """Sphere-touching component counts for r = 1..r_max at probe r+margin."""
    if r_max < 1:
        raise ValueError("rmax must be at least 1")
    if margin < 2:
        raise ValueError("margin must be at least 2")
    graph = cache.at_least(r_max + margin)
    counts, rows = [], []
    for r in range(1, r_max + 1):
        comps = _shell_components(graph, r, r + margin)
        touching = sum(touches for _, touches in comps)
        counts.append(touching)
        rows.append((r, r + margin, len(comps), touching))
    window = counts[r_max // 2 :]
    if all(c == window[-1] for c in window):
        kind, count = "exact", window[-1]
    elif all(a <= b for a, b in zip(counts, counts[1:])) and counts[-1] > counts[0]:
        kind, count = "at_least", counts[-1]
    else:
        kind, count = "inconclusive", None
    final = tuple(
        EndsRow(r, pr, total, touch, kind == "exact" and touch == count)
        for (r, pr, total, touch) in rows
    )
    return EndsReport(final, kind, count)


def _capacity_probe(graph: CosetGraph, r: int, probe: int) -> int:
    """Max norm of a ball(probe) vertex cut off from the sphere component:
    r, which ball(r) reaches since the sphere component reaches norm probe,
    or that of a shell component that misses the sphere.  Ids sort by norm,
    so a component's last id has its largest norm."""
    comps = _shell_components(graph, r + 1, probe)
    touching = sum(touches for _, touches in comps)
    if touching != 1:
        raise NotOneEndedError(
            f"{touching} sphere-touching components after removing "
            f"ball({r}) at probe radius {probe}"
        )
    norm_of = graph.norm_of
    return max([r] + [norm_of[max(comp)] for comp, touches in comps if not touches])


def capacity(cache: BallCache, r: int) -> CapacityEntry:
    """N(r) with a stabilisation certificate, growing the probe as needed up
    to radius r + 10."""
    probe = r + 2
    graph = cache.at_least(probe + 1)
    value = _capacity_probe(graph, r, probe)
    while probe < r + 10:
        graph = cache.at_least(probe + 1)
        nxt = _capacity_probe(graph, r, probe + 1)
        if nxt == value:
            return CapacityEntry(value, probe + 1)
        value = nxt
        probe += 1
    raise NoStabilizationError(
        f"capacity({r}) did not settle by probe radius {r + 10}"
    )


@dataclass(frozen=True)
class CrossCheckResult:
    pair_report: EndsReport
    reference_report: EndsReport
    agrees: bool


def cross_check_quotient(
    group: Group, r_max: int = 5, margin: int = 5
) -> CrossCheckResult:
    """Compare the coset-graph ends estimate against the quotient Cayley graph.

    Valid when K is normal in the family (zd and products of such) or
    trivial; raises UnsupportedFamilyError otherwise.
    """
    reference = group.quotient_by_k()
    pair = estimate_ends(BallCache(group), r_max, margin)
    ref = estimate_ends(BallCache(reference), r_max, margin)
    agrees = (pair.kind, pair.count) == (ref.kind, ref.count)
    return CrossCheckResult(pair, ref, agrees)
