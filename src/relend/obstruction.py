"""Non-coboundary evidence from almost-invariant coset sets.

Given a set A of cosets whose symmetric difference with every generator
translate is finite, the map s -> A xor sA generates a subset-valued cocycle
and, through sign products, a two-valued cocycle on configurations over the
alphabet {+1, -1}.  The falsifier asks for a finite set B inside ball(R)
with B xor sB = A xor sA for every generator s.  Over GF(2) these equations
are a 2-colouring of the ball with parities, B pinned to 0 outside it: one
breadth-first pass over graph ids either colours every coset or meets an
equation that closes a cycle of odd parity, the certificate that no such B
exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .cocycles import CocycleSpec, ObstructionData
from .coset_graph import BallCache
from .errors import NoStabilizationError, SearchSpaceTooLargeError
from .groups import CosetId, Group, GroupElement, Letter, ZmodGroup, coset_of
from .patterns import (
    Alphabet,
    Pattern,
    act,
    make_pattern,
    random_pattern,
    trivial_alphabet,
)

PLUS = "+1"
MINUS = "-1"


def sign_alphabet() -> Alphabet:
    """Two symbols with the trivial subgroup action; +1 is the default."""
    return trivial_alphabet((PLUS, MINUS), PLUS)


@dataclass(frozen=True)
class AlmostInvariantSet:
    """A coset predicate expected to have finite generator differences."""

    name: str
    member: Callable[[CosetId], bool]


def builtin_set(group: Group, name: str) -> AlmostInvariantSet:
    """Built-in examples keyed by name.

    ``halfline``: lattice cosets whose first free coordinate is nonnegative.
    ``aprefix``: free-group cosets entered through the a-direction, realised
    as representatives whose last letter is the generator a (equivalently,
    inverses with prefix a); the last-letter form is the one whose generator
    differences are finite under left translation.
    """
    if name == "halfline":
        if group.family != "zd":
            raise ValueError("halfline requires a lattice group")
        free_axes = [i for i in range(group.d) if i not in group.k_coords]
        if not free_axes:
            raise ValueError("halfline requires at least one free coordinate")
        axis = free_axes[0]
        return AlmostInvariantSet(
            "halfline", lambda c: c.rep.payload[axis] >= 0
        )
    if name == "aprefix":
        if group.family != "free":
            raise ValueError("aprefix requires a free group")
        return AlmostInvariantSet(
            "aprefix", lambda c: bool(c.rep.payload) and c.rep.payload[-1] == 1
        )
    raise ValueError(f"unknown built-in set {name!r}")


def planted_finite_set(vertices) -> AlmostInvariantSet:
    """A finite set; its boundary cocycle is a genuine coboundary (control)."""
    chosen = frozenset(vertices)
    return AlmostInvariantSet("planted", lambda c: c in chosen)


def boundary_cocycle(
    cache: BallCache, region: AlmostInvariantSet, letter: Letter, radius: int
) -> frozenset[CosetId]:
    """(A xor sA) within ball(radius), certified stable at the boundary.

    Raises NoStabilizationError when the difference has an element of norm
    radius, which means the truncation is not yet honest.
    """
    out = direct_boundary(cache, region, cache.group.letter_element(letter), radius)
    graph = cache.at_least(radius)
    if any(graph.norm(c) >= radius for c in out):
        raise NoStabilizationError(
            f"difference set for letter {letter} still grows at radius {radius}"
        )
    return out


def generator_boundaries(
    cache: BallCache, region: AlmostInvariantSet, radius: int
) -> dict[Letter, frozenset[CosetId]]:
    return {
        l: boundary_cocycle(cache, region, l, radius)
        for l in cache.group.s_letters
    }


def word_boundary(
    group: Group,
    boundaries: dict[Letter, frozenset[CosetId]],
    word,
) -> frozenset[CosetId]:
    """The difference set of a word, assembled by the twisted-sum identity.

    c(uv) = c(u) xor u*c(v), expanded letter by letter; agrees with the
    direct computation A xor gA on every built ball.
    """
    out: set[CosetId] = set()
    prefix = group.identity()
    for letter in word:
        step = boundaries[letter]
        moved = {coset_of(group.multiply(prefix, c.rep)) for c in step}
        out ^= moved
        prefix = group.multiply(prefix, group.letter_element(letter))
    return frozenset(out)


def direct_boundary(
    cache: BallCache, region: AlmostInvariantSet, g: GroupElement, radius: int
) -> frozenset[CosetId]:
    """A xor gA computed pointwise; the oracle side of the equivariance check."""
    graph = cache.at_least(radius)
    group = cache.group
    g_inv = group.invert(g)
    return frozenset(
        v
        for v in graph.cosets[: graph.ball_size(radius)]
        if region.member(v) != region.member(coset_of(group.multiply(g_inv, v.rep)))
    )


def sign_of(y: Pattern, cells: frozenset[CosetId]) -> int:
    """Product of the configuration over a finite set of cosets."""
    minus = sum(1 for c in cells if y.value_at(c) == MINUS)
    return -1 if minus % 2 else 1


def sign_cocycle(
    group: Group,
    boundaries: dict[Letter, frozenset[CosetId]],
    g: GroupElement,
    y: Pattern,
) -> int:
    """The two-valued cocycle: the configuration evaluated on c(g^-1)."""
    return sign_of(y, word_boundary(group, boundaries, group.invert(g).word))


@dataclass(frozen=True)
class SearchOutcome:
    """A witness B, or an odd cycle of equations B(v) xor B(w) = parity that
    rules every B out: entries ``(v, letter, w, parity)`` with w = s^-1 v, or
    None outside the ball, where B is 0.  ``decisions`` counts the
    components coloured from a free choice."""

    witness: frozenset[CosetId] | None
    decisions: int
    cycle: tuple[tuple[CosetId, Letter, CosetId | None, int], ...] | None = None

    @property
    def found(self) -> bool:
        return self.witness is not None


def bounded_coboundary_search(
    cache: BallCache,
    region: AlmostInvariantSet,
    radius: int,
    cap: int = 22,
) -> SearchOutcome:
    """Look for a finite B inside ball(radius) with B xor sB = A xor sA.

    Each generator s and coset v give B(v) xor B(s^-1 v) = [v in A xor sA],
    and every coset outside the ball is one vertex pinned to 0, so this is a
    2-colouring with parities.  A breadth-first pass colours from the outside
    first, then from the smallest id of each component that never meets it,
    set to 0, and checks every equation once.  The first equation whose ends
    disagree closes an odd cycle with the two tree paths to its ends; that
    cycle is the certificate.  The cap bounds |ball(radius)|.
    """
    graph = cache.at_least(radius + 1)
    n = graph.ball_size(radius)
    if n > cap:
        raise SearchSpaceTooLargeError(
            f"|ball({radius})| exceeds the configured cap {cap}"
        )
    # raises while A xor sA grows; the parity of v's equation is [v in A xor sA]
    boundaries = generator_boundaries(cache, region, radius + 1)
    # Equations as edges (v, letter, w, parity) with v in the ball and the id n
    # for the outside.  A letter moves a coset by at most one sphere, so every
    # equation with an end in the ball has both ends in ball(radius + 1); the
    # letter s^-1 gives the equations of s again, so positive letters suffice.
    edges: list[tuple[int, Letter, int, int]] = []
    incident: list[list[int]] = [[] for _ in range(n + 1)]
    for letter in (l for l in cache.group.s_letters if l > 0):
        odd = {graph._id(c) for c in boundaries[letter]}
        for v, w in enumerate(graph.left_translate(-letter, radius + 1)):
            a, b = min(v, n), w if 0 <= w < n else n
            if a == b:
                continue  # both ends outside, or a loop, whose parity is 0
            # the end in the ball goes first; seen from w, the letter is s^-1
            parity = int(v in odd)
            edge = (a, letter, b, parity) if a < n else (b, -letter, a, parity)
            incident[a].append(len(edges))
            incident[b].append(len(edges))
            edges.append(edge)

    colour = [-1] * (n + 1)
    up: list[tuple[int, int] | None] = [None] * (n + 1)  # (tree edge, parent)
    checked = bytearray(len(edges))

    def tree_path(x: int) -> list[int]:
        path = []
        while up[x]:
            e, x = up[x]
            path.append(e)
        return path

    decisions = 0
    for root in (n, *range(n)):
        if colour[root] >= 0:
            continue
        decisions += root < n
        colour[root] = 0
        queue = [root]
        for x in queue:
            for e in incident[x]:
                if checked[e]:
                    continue
                checked[e] = 1
                a, _, b, parity = edges[e]
                y = b if x == a else a
                if colour[y] < 0:
                    colour[y], up[y] = colour[x] ^ parity, (e, x)
                    queue.append(y)
                elif colour[x] ^ colour[y] != parity:
                    # a -> b along e, up from b to where the tree paths meet,
                    # then down to a
                    to_a, to_b = tree_path(a), tree_path(b)
                    while to_a and to_b and to_a[-1] == to_b[-1]:
                        to_a.pop(), to_b.pop()
                    return SearchOutcome(None, decisions, tuple(
                        (graph.cosets[v], l, graph.cosets[w] if w < n else None, p)
                        for v, l, w, p in (edges[i] for i in (e, *to_b, *to_a[::-1]))
                    ))
    return SearchOutcome(
        frozenset(c for c, bit in zip(graph.cosets, colour[:n]) if bit), decisions
    )


def sign_cocycle_spec(
    cache: BallCache, region: AlmostInvariantSet, radius: int
):
    """Package the sign cocycle as a block code into the two-element group.

    The window is the smallest ball containing every generator's inverse
    difference set; table entries are parities of the window configuration
    over those sets, computed lazily.
    """
    group = cache.group
    boundaries = generator_boundaries(cache, region, radius)
    graph = cache.at_least(radius)
    inv_cells = {
        l: word_boundary(group, boundaries, group.invert(group.letter_element(l)).word)
        for l in group.s_letters
    }
    window = max([1, *(graph.norm(c) for cells in inv_cells.values() for c in cells)])
    target = ZmodGroup((2,))
    minus_one = target.letter_element(1)

    def rule(letter: Letter, p: Pattern):
        return target.identity() if sign_of(p, inv_cells[letter]) == 1 else minus_one

    return CocycleSpec(
        group,
        sign_alphabet(),
        target,
        window,
        {},
        rule,
        ObstructionData(region.name),
    )


@dataclass(frozen=True)
class IdentityCheck:
    trials: int
    violations: int


def verify_sign_identity(
    cache: BallCache,
    boundaries: dict[Letter, frozenset[CosetId]],
    trials: int,
    rng: random.Random,
    max_word: int = 4,
    max_norm: int = 3,
) -> IdentityCheck:
    """Sample the two-variable identity c'(gh, y) = c'(g, hy) c'(h, y) of the
    sign cocycle built on the given difference sets."""
    group = cache.group
    graph = cache.at_least(max_norm)
    alphabet = sign_alphabet()
    bad = 0
    for _ in range(trials):
        y = random_pattern(graph, alphabet, max_norm, rng)
        w1 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, max_word + 1))]
        w2 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, max_word + 1))]
        g1, g2 = group.element_from_word(w1), group.element_from_word(w2)
        lhs = sign_cocycle(group, boundaries, group.multiply(g1, g2), y)
        rhs = sign_cocycle(group, boundaries, g1, act(g2, y)) * sign_cocycle(
            group, boundaries, g2, y
        )
        if lhs != rhs:
            bad += 1
    return IdentityCheck(trials, bad)


@dataclass
class ObstructionReport:
    set_name: str
    radius: int
    seed: int
    boundaries: dict[Letter, frozenset[CosetId]] = field(default_factory=dict)
    identity: IdentityCheck | None = None
    forced_signs: dict[Letter, int] = field(default_factory=dict)
    search: SearchOutcome | None = None

    @property
    def ok(self) -> bool:
        return (
            self.identity is not None
            and self.identity.violations == 0
            and all(v == 1 for v in self.forced_signs.values())
        )

    def verdict(self) -> str:
        if self.search is None:
            return "search not run"
        if self.search.found:
            return "trivial (witness B found)"
        return f"non-coboundary up to radius {self.radius}"

    def lines(self, group: Group) -> list[str]:
        out = [
            f"set: {self.set_name}",
            f"radius: {self.radius}",
            f"seed: {self.seed}",
        ]
        for letter in sorted(self.boundaries, key=abs):
            cells = sorted(
                (group.word_str(c.rep) or "e") for c in self.boundaries[letter]
            )
            out.append(
                f"boundary[{group.letter_name(letter)}] = {{{', '.join(cells)}}}"
            )
        if self.identity:
            out.append(
                f"identity check: {self.identity.trials} trials, "
                f"{self.identity.violations} violations"
            )
        forced = all(v == 1 for v in self.forced_signs.values())
        out.append(
            "fixed-point forcing: homomorphism part pinned to +1 on all "
            f"generators ({'ok' if forced else 'VIOLATED'})"
        )
        out.append(f"search verdict: {self.verdict()}")
        return out


def rho_forcing_check(
    cache: BallCache,
    region: AlmostInvariantSet,
    radius: int,
    seed: int = 0,
    identity_trials: int = 100,
    cap: int = 22,
) -> ObstructionReport:
    """The full evidence bundle for one almost-invariant set.

    At the all-plus configuration every sign is +1, so any trivialization
    would force a trivial homomorphism part; combined with the failed
    coboundary search this is the non-triviality evidence.  The difference
    sets are computed once, within ball(radius) and certified to have no
    element of norm radius; the report and the sign identity both read
    them.  The search computes its own at radius + 1 and certifies norm
    radius + 1.
    """
    group = cache.group
    report = ObstructionReport(region.name, radius, seed)
    report.boundaries = generator_boundaries(cache, region, radius)
    alphabet = sign_alphabet()
    plus = make_pattern(alphabet, {})
    report.forced_signs = {
        l: sign_cocycle(group, report.boundaries, group.letter_element(l), plus)
        for l in group.s_letters
    }
    rng = random.Random(seed)
    report.identity = verify_sign_identity(
        cache, report.boundaries, identity_trials, rng
    )
    report.search = bounded_coboundary_search(cache, region, radius, cap)
    return report
