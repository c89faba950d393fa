"""Finite balls of the left coset graph of (G, K) with the edge-path metric.

Vertices are canonical cosets gK; for each generator s the out-neighbours of
gK are {g f K : f in F_s} where F_s is the family witness set, so adjacency
within the built radius is complete and BFS distances are exact.  The build
reads these neighbours off ``Group._coset_steps()``, which hands over the
letters of the steps once and a step that maps a coset payload to the keys
of its non-loop neighbours, in generator and witness order.  G acts on the
graph by left multiplication, transitively, so every vertex steps by the
same letters (vfK = vK iff f is in K, vfK = vgK iff fK = gK): a ball keeps
one letter tuple and one degree for all vertices.  Vertices are interned as
dense ids in BFS discovery order, one dict probe per key, so ids sort by
norm and the closed r-ball is the id prefix below sphere_start[r + 1].  A
ball is stored as integers: the build steps the spheres below the last one,
and each of their vertices keeps the tuple of its neighbour ids
(``_rows``).  That interns the last sphere, which is not stepped: a
last-sphere vertex was reached from its BFS parent, so only its other
in-ball neighbours are kept (``_last_ids``), and on a pair certified
bipartite they are read back from the rows of the sphere below.  A
last-sphere vertex without such neighbours is a leaf of the ball, and the
shell pass skips it.  A larger ball grows from a smaller one by copying the
prefix and its rows, stepping the old boundary sphere once and going on
with the search: the ids equal a fresh build's.

Graphs are not changed after construction; the ``cosets`` list, the
``degree`` count, the ``ball_set`` sets and the left tables (``left_ids``:
the id of sv for every id v, from the family's ``Group._left_step``) are
derived from them on first use, so a caller that reads only ids, payloads,
norms and edges (``ends``, ``relend graph``) never makes a ``CosetId``, and
one that reads an id range (``cosets_slice``) makes them only up to its
end.  ``labelled_rows``, the one ``(ids, letters)`` view of every vertex,
and ``neighbors`` step the last sphere once (``_last_steps``).  No other
module reads this layout, so the shell passes of ``ends`` live here
(``_shell_components``).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import (
    BallTooLargeError,
    InsufficientRadiusError,
    InternalError,
    VertexOutsideBallError,
)
from .groups import CosetId, Group, GroupElement, Letter, coset_of

MAX_VERTICES = 200_000  # vertex budget of a ball, checked per vertex
# Witness products a ball may take, per unit of MAX_VERTICES, checked before
# each sphere is expanded: expanding a vertex steps it by every witness (the
# identity ones count too), so a family with large witness sets (BS(m, n)
# has m + n) can take long over a ball of few vertices.  At 4, every ball of
# the free group of rank 2 that fits the vertex budget still builds.
WITNESS_WORK = 4


class Path(NamedTuple):
    """An edge path; labels[i] carries vertices[i] to vertices[i+1]."""

    vertices: tuple[CosetId, ...]
    labels: tuple[Letter, ...]

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def start(self) -> CosetId:
        return self.vertices[0]

    @property
    def end(self) -> CosetId:
        return self.vertices[-1]


class CosetGraph:
    """The ball of radius ``radius`` around the base coset K.

    Lists indexed by vertex id hold the coset payload (``payloads``), norm
    and BFS parent; ``index`` maps a payload to its id.  Below the last
    sphere, ``_rows[v]`` is the tuple of v's neighbour ids in step order,
    aligned with ``_step_letters``: G acts transitively, so every vertex's
    steps carry the same letters.  ``_last_ids`` holds what the last sphere
    adds to its parents.  ``labelled_rows`` is the public ``(ids, letters)``
    view of every vertex, and ``degree`` the one count of neighbours in the
    infinite graph that every vertex has.  ``cosets_slice`` makes the
    ``CosetId`` of each vertex on its first read, and ``cosets`` is the slice
    of every vertex; a grown ball starts from the ``CosetId`` objects that its
    smaller ball had made.  ``grow_from`` is a smaller ball of the same
    group to grow from.  A ball that would hold more than MAX_VERTICES
    vertices, or take more than WITNESS_WORK * MAX_VERTICES witness
    products to expand, raises BallTooLargeError.
    """

    def __init__(self, group: Group, radius: int, grow_from: CosetGraph | None = None):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.group = group
        self.radius = radius
        old = grow_from
        if old is None:
            self.base = coset_of(group.identity())
            self.payloads, self.norm_of = [self.base.rep.payload], [0]
            self.parent_of, self.sphere_start = [-1], [0, 1]
            self._rows = []
            self.index = {self.base.rep.payload: 0}
            self._made = [self.base]  # the CosetIds made so far, by id
        elif old.group is not group or old.radius > radius:
            raise InternalError("can only grow a smaller ball of the same group")
        else:
            self.base, self.payloads = old.base, old.payloads[:]
            self.norm_of = old.norm_of[:]
            self.parent_of, self.sphere_start = old.parent_of[:], old.sphere_start[:]
            self._rows = old._rows[:]
            self.index = dict(old.index)
            self._made = old._made
        self._ball_sets: dict[int, frozenset[CosetId]] = {}
        self._left: dict[Letter, list[int]] = {}
        self._build(0 if old is None else old.radius)

    def _build(self, first: int) -> None:
        """Expand the spheres first..radius-1, interning targets by payload;
        that interns the last sphere, which is not stepped.  The step hook
        hands over the letters once, and each step yields keys alone.  A key
        is interned by one probe, ``setdefault`` with the next id: the id
        comes back unchanged for a known key, and for a new one the key is
        appended to ``payloads``."""
        group, limit = self.group, MAX_VERTICES
        self._step_letters, step = group._coset_steps()
        products = sum(map(len, group.witnesses.values()))
        payloads, rows, intern = self.payloads, self._rows, self.index.setdefault
        parent_of, starts, n = self.parent_of, self.sphere_start, len(payloads)
        for r in range(first, self.radius + 1):
            # every vertex of norm <= r gets expanded, the last sphere's when
            # ``_last_steps`` is read; refuse before the work
            if starts[r + 1] * products > WITNESS_WORK * limit:
                raise BallTooLargeError(
                    f"ball({self.radius}) takes over "
                    f"{WITNESS_WORK * limit} witness products"
                )
            if r == self.radius:
                return
            for v in range(starts[r], starts[r + 1]):
                ids = []
                for key in step(payloads[v]):
                    w = intern(key, n)
                    if w == n:
                        payloads.append(key)
                        parent_of.append(v)
                        # len(), not n + 1: CPython 3.11 allocates the sum's
                        # int 4 bytes larger, and the peak of estimate_ends
                        # on BS(1, 3) at rmax 4, margin 4 rose 51 KB with it
                        n = len(payloads)
                    ids.append(w)
                rows.append(tuple(ids))
                if n > limit:
                    raise BallTooLargeError(
                        f"ball({self.radius}) has over {limit} vertices"
                    )
            self.norm_of += [r + 1] * (n - starts[r + 1])
            starts.append(n)

    def _step_last(self):
        """Step each last-sphere vertex once, in id order: yield its in-ball
        neighbour ids and their letters, each key zipped with its letter."""
        find, (letters_of, step) = self.index.get, self.group._coset_steps()
        for p in self.payloads[len(self._rows) :]:
            ids, letters = [], []
            for letter, key in zip(letters_of, step(p)):
                w = find(key)
                if w is not None:
                    ids.append(w)
                    letters.append(letter)
            yield tuple(ids), tuple(letters)

    @cached_property
    def _last_steps(self) -> list:
        """The ``(ids, letters)`` of every last-sphere vertex, by one step of
        each; made for ``labelled_rows`` and ``neighbors``."""
        return list(self._step_last())

    def labelled_rows(self):
        """The ``(ids, letters)`` row of every vertex in id order: the
        build's rows, each with the one step-letter tuple, since G's
        transitive action gives every vertex the same step letters, then
        the last sphere's, stepped on first use and kept to the ball."""
        for ids in self._rows:
            yield ids, self._step_letters
        yield from self._last_steps

    @cached_property
    def _last_ids(self) -> dict[int, list[int]]:
        """What each last-sphere vertex w adds to its BFS parent: the ids of
        its in-ball neighbours, one edge to ``parent_of[w]`` left out, for
        the w that have more than that one edge.  The parent's first edge
        to w discovered it, so a vertex missing here has that edge alone.

        When the group certifies its coset graph bipartite
        (``Group._bipartite``), no edge joins two vertices of one sphere, so
        the others are read back from the edges v -> w of the sphere below,
        v once per edge: the edge relation is symmetric, since the
        out-neighbours of gK are the cosets in gKsK and S is symmetric.
        Those edges meet the last sphere in the build's order, so the edge
        that discovers w is the one that meets the next id.  On the tree
        pairs (free groups, BS(1, n)) the table is empty.  Otherwise the
        last sphere is stepped, and the steps are not kept."""
        last, rows, parent_of = len(self._rows), self._rows, self.parent_of
        out: dict[int, list[int]] = {}
        if not self.group._bipartite:
            for w, (ids, _) in enumerate(self._step_last(), last):
                if len(ids) > 1:  # the parent and more
                    out[w] = others = list(ids)
                    others.remove(parent_of[w])
            return out
        fresh = last  # the next last-sphere id to be discovered
        for v in range(self.sphere_start[max(self.radius - 1, 0)], last):
            for w in rows[v]:
                if w == fresh:
                    fresh += 1
                elif w >= last:
                    others = out.get(w)
                    if others is None:
                        out[w] = [v]
                    else:
                        others.append(v)
        return out

    def _neighbour_ids(self, v: int) -> tuple[int, ...]:
        """The in-ball neighbour ids of v: its row below the last sphere,
        else its BFS parent (the base of a radius-0 ball has none) and its
        entry of ``_last_ids``."""
        if v < len(self._rows):
            return self._rows[v]
        return (self.parent_of[v], *self._last_ids.get(v, ())) if v else ()

    def _id(self, v: CosetId) -> int:
        i = self.index.get(v.rep.payload) if v.rep.group is self.group else None
        if i is None:
            raise VertexOutsideBallError(f"{v!r} is outside the built ball")
        return i

    # -- queries --------------------------------------------------------------

    def _made_up_to(self, stop: int) -> list[CosetId]:
        """The CosetIds of at least the ids below stop, made on first read."""
        made = self._made
        if len(made) < stop:
            group, new = self.group, self.payloads[len(made) : stop]
            made = self._made = made + [CosetId(GroupElement(group, p)) for p in new]
        return made

    def cosets_slice(self, start: int, stop: int) -> list[CosetId]:
        """The cosets of the ids start..stop-1; a coset is made on the first
        read of its id, so a reader of a short prefix makes only that."""
        return self._made_up_to(stop)[start:stop]

    @cached_property
    def cosets(self) -> list[CosetId]:
        """The coset of every vertex in id order; built on first use."""
        return self._made_up_to(len(self.payloads))

    @cached_property
    def degree(self) -> int:
        """Degree in the infinite graph of every vertex: the base's distinct
        non-loop neighbours, since G's transitive action gives every vertex
        as many.  The build interned those in the base's row; a radius-0
        ball steps its base."""
        if self._rows:
            keys = self._rows[0]
        else:
            _, step = self.group._coset_steps()
            keys = step(self.payloads[0])
        return len(set(keys))

    def __contains__(self, v: CosetId) -> bool:
        return v.rep.group is self.group and v.rep.payload in self.index

    def vertex_count(self) -> int:
        return len(self.payloads)

    def ball_size(self, r: int) -> int:
        """Number of vertices of norm at most r; they are the ids below it."""
        return self.sphere_start[min(r, self.radius) + 1] if r >= 0 else 0

    def ball_set(self, r: int) -> frozenset[CosetId]:
        """The cosets of norm at most r as a set, built once per r."""
        found = self._ball_sets.get(r)
        if found is None:
            cells = self.cosets_slice(0, self.ball_size(r))
            found = self._ball_sets[r] = frozenset(cells)
        return found

    def norm(self, v: CosetId) -> int:
        return self.norm_of[self._id(v)]

    def left_ids(self, letter: Letter) -> list[int]:
        """For every id v, the id of sv with s the letter, or -1 when sv is
        outside the built graph; built once per letter."""
        table = self._left.get(letter)
        if table is None:
            step, find = self.group._left_step(letter), self.index.get
            table = self._left[letter] = [find(step(p), -1) for p in self.payloads]
        return table

    def vertices_in_order(self) -> list[CosetId]:
        return list(self.cosets)

    def neighbors(self, v: CosetId) -> tuple[tuple[Letter, CosetId], ...]:
        """In-ball labeled neighbours of v: its row of ``labelled_rows``."""
        i, last = self._id(v), len(self._rows)
        if i < last:
            ids, letters = self._rows[i], self._step_letters
        else:
            ids, letters = self._last_steps[i - last]
        return tuple(zip(letters, (self.cosets[w] for w in ids)))

    def full_degree(self, v: CosetId) -> int:
        """Degree in the infinite graph (neighbours outside the ball count)
        of v, a vertex of the ball."""
        self._id(v)
        return self.degree


def build_ball(group: Group, radius: int) -> CosetGraph:
    return CosetGraph(group, radius)


def _bfs(graph: CosetGraph, sources, depth: int):
    """Yield (id, distance) for the ids within ``depth`` of the sources."""
    dist = {s: 0 for s in sources}
    queue = list(dist)
    for w in queue:
        yield w, dist[w]
        if dist[w] < depth:
            for z in graph._neighbour_ids(w):
                if z not in dist:
                    dist[z] = dist[w] + 1
                    queue.append(z)


def _shell_components(graph: CosetGraph, inner: int, outer: int) -> list:
    """``ends.components_outside_ball`` as (id list, touches sphere) pairs.
    Rows below the last sphere are read inline, and so is a last-sphere
    vertex: its BFS parent and its ``_last_ids`` entry, the rule of
    ``_neighbour_ids``.  A last-sphere vertex with no entry is a leaf and
    is skipped.  Its one in-ball neighbour is its parent, so it was reached
    from the parent, or it starts its component with the parent outside
    the shell; either way it adds nothing.  On the tree pairs (free groups,
    BS(1, n)) that is every last-sphere vertex: half the ball on BS(1, 2),
    two thirds on free(2) and BS(1, 3)."""
    if inner > outer or outer > graph.radius:
        raise ValueError(f"bad shell [{inner}, {outer}] for radius {graph.radius}")
    lo, top, hi = (graph.ball_size(n) for n in (inner - 1, outer - 1, outer))
    rows, last, parent_of = graph._rows, len(graph._rows), graph.parent_of
    extra = graph._last_ids if last < hi else {}
    seen = bytearray(hi)
    out = []
    # a shell that starts below the last sphere holds every last-sphere
    # vertex's parent, so no component starts on the last sphere
    for start in range(lo, hi if lo >= last else min(hi, last)):
        if not seen[start]:
            seen[start] = 1
            comp = [start]
            for v in comp:
                if v < last:
                    ws = rows[v]
                else:
                    ws = extra.get(v)
                    if ws is None:
                        continue
                    ws = (parent_of[v], *ws)
                for w in ws:
                    if lo <= w < hi and not seen[w]:
                        seen[w] = 1
                        comp.append(w)
            out.append((comp, max(comp) >= top))
    return out


def distance(graph: CosetGraph, u: CosetId, v: CosetId) -> int | None:
    """Exact edge-path distance, or None when the ball cannot certify it.

    A value d is certified exact when (|u| + |v| + d) / 2 <= radius: every
    geodesic of the full graph between u and v then stays inside the ball.
    """
    nu, nv = graph.norm(u), graph.norm(v)
    target = graph._id(v)
    for w, d in _bfs(graph, (graph._id(u),), 2 * graph.radius):
        if w == target:
            return d if nu + nv + d <= 2 * graph.radius else None
    return None


def neighborhood(graph: CosetGraph, depth: int, targets) -> frozenset[CosetId]:
    """Closed depth-neighbourhood of a vertex set, multi-source BFS."""
    targets = list(targets)
    for t in targets:
        if graph.norm(t) + depth > graph.radius:
            raise InsufficientRadiusError(
                f"neighbourhood({depth}) of {t!r} may leave radius {graph.radius}"
            )
    ids = [graph._id(t) for t in targets]
    return frozenset(graph.cosets[i] for i, _ in _bfs(graph, ids, depth))


def geodesic_to(graph: CosetGraph, v: CosetId) -> Path:
    """The BFS-tree path from the base to v; its length equals |v|."""
    ids, labels, rows = [graph._id(v)], [], graph._rows
    while ids[-1]:
        child, parent = ids[-1], graph.parent_of[ids[-1]]
        # the first edge to the child is the one that discovered it; a
        # parent lies below the last sphere, so the build made its row
        labels.append(graph._step_letters[rows[parent].index(child)])
        ids.append(parent)
    return Path(tuple(graph.cosets[i] for i in reversed(ids)), tuple(reversed(labels)))


def two_sided_geodesic(graph: CosetGraph, half: int) -> Path:
    """A verified geodesic segment through the base, indices -half..half.

    Takes the first vertex at norm 2*half in BFS order, pulls the BFS
    geodesic to it, and recentres by translating with the midpoint inverse.
    Every pairwise distance is checked before returning.
    """
    if 2 * half > graph.radius:
        raise InsufficientRadiusError(
            f"two-sided geodesic of half-length {half} needs radius {2 * half}"
        )
    if half == 0:
        return Path((graph.base,), ())
    first = graph.sphere_start[2 * half]
    if first == graph.vertex_count():
        raise InsufficientRadiusError(
            f"no vertex of norm {2 * half}; is the subgroup of finite index?"
        )
    spine = geodesic_to(graph, graph.cosets[first])
    group = graph.group
    mid_inv = group.invert(spine.vertices[half].rep)
    verts = tuple(coset_of(group.multiply(mid_inv, g.rep)) for g in spine.vertices)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if distance(graph, verts[i], verts[j]) != j - i:
                raise InternalError(
                    "translated geodesic failed the pairwise distance check"
                )
    return Path(verts, spine.labels)


class BallCache:
    """Grow-on-demand coset graphs for one group; largest ball is kept."""

    def __init__(self, group: Group):
        self.group = group
        self._graph: CosetGraph | None = None

    def at_least(self, radius: int) -> CosetGraph:
        if self._graph is None or self._graph.radius < radius:
            self._graph = CosetGraph(self.group, radius, self._graph)
        return self._graph
