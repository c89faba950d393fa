"""Ends estimation and the capacity function for coset graphs.

Ends are a limit notion; a finite tool can only report evidence.  We remove
shells from built balls, count the connected components that reach the probe
sphere, and declare an exact value only after the count stabilises over the
top half of the probed range, two radii at least.  The capacity N(r) is the
largest norm of a vertex cut off from the sphere-reaching component once the
closed r-ball is removed; its value is accepted once two successive probe
radii agree.
"""

from __future__ import annotations

from typing import NamedTuple

from .coset_graph import BallCache, CosetGraph, _shell_components
from .errors import BallTooLargeError, NoStabilizationError, NotOneEndedError
from .groups import CosetId, Group


class Component(NamedTuple):
    vertices: frozenset[CosetId]
    touches_sphere: bool


class EndsRow(NamedTuple):
    r: int
    probe_radius: int
    components: int
    sphere_touching: int


class EndsReport(NamedTuple):
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


class CapacityEntry(NamedTuple):
    value: int
    probe_radius: int


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
    rows = []
    for r in range(1, r_max + 1):
        comps = _shell_components(graph, r, r + margin)
        rows.append(EndsRow(r, r + margin, len(comps), sum(t for _, t in comps)))
    counts = [row.sphere_touching for row in rows]
    window = counts[_exact_from(r_max) :]
    if len(window) > 1 and all(c == window[-1] for c in window):
        kind, count = "exact", window[-1]
    elif all(a <= b for a, b in zip(counts, counts[1:])) and counts[-1] > counts[0]:
        kind, count = "at_least", counts[-1]
    else:
        kind, count = "inconclusive", None
    return EndsReport(tuple(rows), kind, count)


def _exact_from(r_max: int) -> int:
    """The index of the first count an exact estimate reads: the top half of
    the counts, two of them at rmax 2; one is never exact."""
    return min(r_max // 2, max(r_max - 2, 0))


def row_ruling_out_one_end(
    cache: BallCache, r_max: int, margin: int
) -> EndsRow | None:
    """The first row among those an exact estimate reads whose count is not
    1, so that ``estimate_ends`` cannot report exact 1; rows are computed in
    order, and None comes back when a ball over its budget stops them first."""
    for r in range(_exact_from(r_max) + 1, r_max + 1):
        try:
            graph = cache.at_least(r + margin)
        except BallTooLargeError:
            return None
        comps = _shell_components(graph, r, r + margin)
        touching = sum(t for _, t in comps)
        if touching != 1:
            return EndsRow(r, r + margin, len(comps), touching)
    return None


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


class CrossCheckResult(NamedTuple):
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
