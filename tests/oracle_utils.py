"""Independent brute-force oracles used to freeze expected test values.

The models share no code path with what they check: nothing in them imports
graph or group machinery from the package.  The coset-level helpers at the
end take the package's groups and balls, but only through group arithmetic
and the ball's vertex list, never through the id-level passes they check.
"""

from fractions import Fraction
from itertools import product

from relend.groups import coset_of


# -- lattice model (grids Z^k under the l1 metric, unit-step edges) ----------


def lattice_ball(dim: int, radius: int) -> list[tuple]:
    pts = []
    for p in product(range(-radius, radius + 1), repeat=dim):
        if sum(abs(c) for c in p) <= radius:
            pts.append(p)
    return pts


def lattice_neighbors(p: tuple) -> list[tuple]:
    out = []
    for i in range(len(p)):
        for step in (1, -1):
            q = list(p)
            q[i] += step
            out.append(tuple(q))
    return out


def lattice_components(points: list[tuple]) -> list[set]:
    keep = set(points)
    seen: set = set()
    comps = []
    for start in points:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop()
            for w in lattice_neighbors(v):
                if w in keep and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def lattice_shell_components(dim: int, inner: int, outer: int):
    """Components of {inner <= |v|_1 <= outer}, with sphere-touching flags."""
    shell = [
        p
        for p in lattice_ball(dim, outer)
        if inner <= sum(abs(c) for c in p) <= outer
    ]
    comps = lattice_components(shell)
    flagged = []
    for comp in comps:
        touches = any(sum(abs(c) for c in p) == outer for p in comp)
        flagged.append((comp, touches))
    return flagged


def lattice_capacity(dim: int, r: int, probe: int) -> int:
    """Flood-fill version of the capacity value at one probe radius."""
    comps = lattice_shell_components(dim, r + 1, probe)
    touching = [c for c, t in comps if t]
    assert len(touching) == 1, f"not one-ended at probe {probe}"
    unbounded = touching[0]
    return max(
        sum(abs(c) for c in p)
        for p in lattice_ball(dim, probe)
        if p not in unbounded
    )


# -- free group model (reduced words as strings over a, A, b, B, ...) --------

_LETTERS = "aAbBcCdD"


def _free_inverse(ch: str) -> str:
    return ch.lower() if ch.isupper() else ch.upper()


def free_words_of_length(rank: int, length: int) -> list[str]:
    alphabet = _LETTERS[: 2 * rank]
    words = [""]
    for _ in range(length):
        nxt = []
        for w in words:
            for ch in alphabet:
                if w and w[-1] == _free_inverse(ch):
                    continue
                nxt.append(w + ch)
        words = nxt
    return words


def free_sphere_size(rank: int, length: int) -> int:
    return len(free_words_of_length(rank, length))


# -- affine model of bs(1, n) -------------------------------------------------


def is_tree(graph) -> bool:
    """Whether a built ball, as an undirected graph, is a tree: the BFS
    build connects it, so it is one when it has one edge fewer than vertices."""
    rows = enumerate(graph.labelled_rows())
    edges = {frozenset((v, w)) for v, (ids, _) in rows for w in ids}
    return len(edges) == graph.vertex_count() - 1


def bs1n_affine(word, n: int) -> tuple:
    """x -> z+1, t -> z/n; the image determines the element for m = 1."""
    scale, shift = Fraction(1), Fraction(0)
    for letter in word:
        if abs(letter) == 1:
            gs, gb = Fraction(1), Fraction(1 if letter > 0 else -1)
        else:
            gs, gb = (Fraction(1, n), Fraction(0)) if letter > 0 else (
                Fraction(n),
                Fraction(0),
            )
        scale, shift = scale * gs, scale * gb + shift
    return (scale, shift)


# -- coset-level difference sets (the route the id-level passes must match) --
# Unlike the models above these take the package's groups and balls, but they
# use only group arithmetic (multiply, coset_of) and the ball's vertex list:
# no graph ids, translation tables or pointwise sign walks.


def word_boundary(group, boundaries, word):
    """The difference set of a word, assembled by the twisted-sum identity.

    c(uv) = c(u) xor u*c(v), expanded letter by letter.
    """
    out = set()
    prefix = group.identity()
    for letter in word:
        moved = {coset_of(group.multiply(prefix, c.rep)) for c in boundaries[letter]}
        out ^= moved
        prefix = group.multiply(prefix, group.letter_element(letter))
    return frozenset(out)


def direct_boundary(cache, region, g, radius):
    """A xor gA within ball(radius), computed pointwise."""
    graph = cache.at_least(radius)
    group = cache.group
    g_inv = group.invert(g)
    return frozenset(
        v
        for v in graph.cosets[: graph.ball_size(radius)]
        if region.member(v.rep.payload)
        != region.member(coset_of(group.multiply(g_inv, v.rep)).rep.payload)
    )


def sign_of(y, cells):
    """Product of a sign configuration over a finite set of cosets."""
    minus = sum(1 for c in cells if y.value_at(c) == "-1")
    return -1 if minus % 2 else 1
