"""Independent brute-force oracles used to freeze expected test values.

The models share no code path with what they check: nothing in them imports
graph or group machinery from the package.  The coset-level helpers at the
end take the package's groups and balls, but only through group arithmetic
and the ball's vertex list, never through the id-level passes they check.
The cocycle word oracle, last, reads a spec's tables through ``factor``
alone and moves patterns with the uncached ``act``, never through the
letter steps or the Moebius coefficients of the relation proof.
"""

from fractions import Fraction
from itertools import product

from relend.groups import coset_of
from relend.patterns import Pattern, act, make_pattern


# -- lattice model (grids Z^k under the l1 metric, unit-step edges) ----------


def lattice_ball(dim: int, radius: int) -> list[tuple]:
    pts = []
    for p in product(range(-radius, radius + 1), repeat=dim):
        if sum(abs(c) for c in p) <= radius:
            pts.append(p)
    return pts


def lattice_word_sum(dim: int, word) -> tuple:
    """The coordinates of a word over the letters +-1..+-dim of Z^dim:
    each letter adds its sign to its axis."""
    out = [0] * dim
    for letter in word:
        out[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(out)


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


def free_reduce(word) -> tuple:
    """The reduced form of a word over signed letters: each adjacent pair
    of a letter and its inverse cancels."""
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


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


# -- cocycle words by brute force --------------------------------------------
# The value of a word on a pattern, through the uncached ``act`` and the table
# lookup ``factor`` alone: no letter steps, window codes or Moebius
# coefficients.


def checked_words(group) -> list:
    """The relators, then the pair (s, s^-1) of every generator s."""
    pairs = [(i, -i) for i in range(1, len(group.gen_names) + 1)]
    return list(group.relator_words()) + pairs


class WordOracle:
    """A word's value on patterns, c(l_1...l_k, y) = prod_i c(l_i, g_i y) with
    g_i = l_{i+1}...l_k.  ``reach`` holds the cells the value reads, the
    window moved back along each suffix, and ``images`` maps each letter's
    (cell, symbol) pairs of y to the window entries of g_i y they become,
    read off ``act`` on one-cell patterns."""

    def __init__(self, spec, word):
        group, alphabet = spec.group, spec.alphabet
        self.spec, suffixes, g = spec, [], group.identity()
        for letter in reversed(word):
            suffixes.append((letter, g))
            g = group.multiply(group.letter_element(letter), g)
        self.reach = sorted(
            {coset_of(group.multiply(group.invert(g), c.rep))
             for _, g in suffixes for c in spec.region},
            key=lambda c: group.word_key(c.rep),
        )
        others = [s for s in alphabet.symbols if s != alphabet.x0]
        self.images = []
        for letter, g in suffixes:
            images = {}
            for x in self.reach:
                for s in others:
                    (entry,) = act(g, make_pattern(alphabet, {x: s})).entries
                    if entry[0] in spec.region:
                        images[x, s] = entry
            self.images.append((letter, images))

    def value(self, entries):
        """The word's value on the pattern with these (cell, symbol) entries."""
        spec = self.spec
        value = spec.target.identity()
        for letter, images in self.images:
            window = frozenset(images[e] for e in entries if e in images)
            factor = spec.factor(letter, Pattern(spec.alphabet, window))
            value = spec.target.multiply(factor, value)
        return value

    def violation(self):
        """The entries of the first pattern on the reach, in ``product``
        order, where the value is not the identity; None when all
        |A|^|reach| patterns give the identity."""
        x0 = self.spec.alphabet.x0
        for symbols in product(self.spec.alphabet.symbols, repeat=len(self.reach)):
            entries = [(c, s) for c, s in zip(self.reach, symbols) if s != x0]
            if not self.value(entries).is_identity():
                return entries
        return None

    def coefficient(self, monomial):
        """The coefficient of [y ⊇ U] in the value, U a set of (cell, symbol)
        pairs on distinct cells, by inclusion-exclusion for an abelian
        target: the sum over V ⊆ U of (-1)^|U - V| times the value at V."""
        target, entries = self.spec.target, list(monomial)
        total = target.identity()
        for bits in product((0, 1), repeat=len(entries)):
            value = self.value([e for e, bit in zip(entries, bits) if bit])
            if (len(entries) - sum(bits)) % 2:
                value = target.invert(value)
            total = target.multiply(total, value)
        return total
