"""Non-coboundary evidence from almost-invariant coset sets.

Given a set A of cosets whose symmetric difference with every generator
translate is finite, the map s -> A xor sA generates a subset-valued cocycle
and, through sign products, a two-valued cocycle on configurations over the
alphabet {+1, -1}.  The falsifier looks for a finite set B reproducing all
the generator differences; its pruned subset search propagates forced
memberships across graph edges, so infeasibility surfaces after linearly
many decisions instead of 2^|ball| candidates.
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

    Raises NoStabilizationError when the difference still has elements at
    the two outermost norms, which means the truncation is not yet honest.
    """
    graph = cache.at_least(radius)
    group = cache.group
    s_inv = group.letter_element(-letter)
    out = [
        v
        for v in graph.cosets[: graph.ball_size(radius)]
        if region.member(v) != region.member(coset_of(group.multiply(s_inv, v.rep)))
    ]
    # ids sort by norm, so the last difference cell has the largest norm
    if out and graph.norm(out[-1]) >= radius:
        raise NoStabilizationError(
            f"difference set for letter {letter} still grows at radius {radius}"
        )
    return frozenset(out)


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
    witness: frozenset[CosetId] | None
    decisions: int

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

    Subset enumeration with forced-value pruning: the outside of the ball is
    pinned to be empty, every edge constraint then propagates memberships
    inward, and contradictions cut whole subtrees of the 2^|ball| space.
    The cap bounds |ball(radius)| and rejects oversized instances up front.
    """
    graph = cache.at_least(radius + 1)
    if graph.ball_size(radius) > cap:
        raise SearchSpaceTooLargeError(
            f"|ball({radius})| exceeds the configured cap {cap}"
        )
    boundaries = generator_boundaries(cache, region, radius + 1)
    group = cache.group

    order = graph.cosets[: graph.ball_size(radius)]
    inside = set(order)
    # every constraint pairs v with s^-1 v across the edge labeled s
    constraints: list[tuple[CosetId, CosetId, bool]] = []
    for letter, cells in boundaries.items():
        s_inv = group.letter_element(-letter)
        for v in graph.cosets[: graph.ball_size(radius + 1)]:
            w = coset_of(group.multiply(s_inv, v.rep))
            if v not in inside and w not in inside:
                if v in cells:
                    return SearchOutcome(None, 0)   # boundary out of reach
                continue
            constraints.append((v, w, v in cells))

    assignment: dict[CosetId, int] = {}
    adj: dict[CosetId, list[tuple[CosetId, bool]]] = {v: [] for v in inside}
    decisions = 0
    queue: list[CosetId] = []

    def value_of(v: CosetId) -> int | None:
        if v in inside:
            return assignment.get(v)
        return 0

    def assign(v: CosetId, val: int) -> bool:
        known = value_of(v)
        if known is not None:
            return known == val
        assignment[v] = val
        queue.append(v)
        return True

    for v, w, parity in constraints:
        bit = 1 if parity else 0
        if v in inside:
            adj[v].append((w, parity))
        if w in inside:
            adj[w].append((v, parity))
        av, aw = value_of(v), value_of(w)
        if av is not None and aw is None:
            if not assign(w, av ^ bit):
                return SearchOutcome(None, decisions)
        elif aw is not None and av is None:
            if not assign(v, aw ^ bit):
                return SearchOutcome(None, decisions)
        elif av is not None and aw is not None:
            if av ^ aw != bit:
                return SearchOutcome(None, decisions)

    def propagate() -> bool:
        while queue:
            v = queue.pop()
            av = assignment[v]
            for w, parity in adj[v]:
                bit = 1 if parity else 0
                if not assign(w, av ^ bit):
                    return False
        return True

    if not propagate():
        return SearchOutcome(None, decisions)

    for v in order:
        if v in assignment:
            continue
        decisions += 1
        saved = dict(assignment)
        ok = assign(v, 0) and propagate()
        if ok:
            continue
        assignment.clear()
        assignment.update(saved)
        queue.clear()
        if not (assign(v, 1) and propagate()):
            return SearchOutcome(None, decisions)

    candidate = frozenset(v for v, bit in assignment.items() if bit)
    for v, w, parity in constraints:
        got = ((v in candidate) if v in inside else False) ^ (
            (w in candidate) if w in inside else False
        )
        if got != parity:
            return SearchOutcome(None, decisions)
    return SearchOutcome(candidate, decisions)


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
    window = 0
    inv_cells: dict[Letter, frozenset[CosetId]] = {}
    for letter in group.s_letters:
        cells = word_boundary(
            group, boundaries, group.invert(group.letter_element(letter)).word
        )
        inv_cells[letter] = cells
        for c in cells:
            window = max(window, graph.norm(c))
    target = ZmodGroup((2,))
    minus_one = target.letter_element(1)

    def rule(letter: Letter, p: Pattern):
        return target.identity() if sign_of(p, inv_cells[letter]) == 1 else minus_one

    return CocycleSpec(
        group,
        sign_alphabet(),
        target,
        max(window, 1),
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
    region: AlmostInvariantSet,
    trials: int,
    rng: random.Random,
    radius: int,
    max_word: int = 4,
    max_norm: int = 3,
) -> IdentityCheck:
    """Sample the two-variable identity c'(gh, y) = c'(g, hy) c'(h, y)."""
    group = cache.group
    graph = cache.at_least(max(radius, max_norm))
    boundaries = generator_boundaries(cache, region, radius)
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
    coboundary search this is the non-triviality evidence.
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
        cache, region, identity_trials, rng, radius
    )
    report.search = bounded_coboundary_search(cache, region, radius, cap)
    return report
