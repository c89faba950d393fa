"""Continuous cocycles as per-generator block codes with a finite window.

A cocycle into a target group H is stored as one lookup table per generator,
keyed by the window code of the configuration's restriction to the ball of
the window radius around the base coset: an integer with one bit per (cell,
symbol) pair of the window.  Keys have no text form here; the
``word=symbol|...`` strings of the JSON format exist only in ``serialize``,
which reads them off the rows that ``window_patterns``, the one enumerator
of a window's patterns, is built on.

A cocycle carries its window: ``CocycleSpec.region`` holds the cells of the
window ball, so evaluation takes no ball or region from its caller.
Evaluation on a general element walks its canonical word on coset
payloads: the configuration, a list of (payload, symbol) pairs, moves
through a per-cocycle table of letter steps keyed by payload.  A step is
filled on first use from one product s * rep, so the check that every
K-correction lies in K runs once per distinct (letter, cell) pair; when the
representative of the moved coset is the moved payload itself, the
correction is the identity, which lies in K, and the step takes the
identity symbol map with no inverse, product or test.  Per letter the walk
codes the window part of the configuration and reads the table.  Only a
code the table has not seen builds its window pattern of cosets, once, and
asks the rule; ``factor`` reads and fills the same table from a pattern.
The product is a target payload until the walk ends.  ``walk_word`` takes
one more step after the last letter and returns g y with c(g, y); the
trivializer and the planted rule move configurations that way, not with
``act``.  Word-independence is exactly the cocycle identity.  For a zmod or
zd target ``prove_relations`` proves it on all configurations: the Moebius
coefficients of each table, one per assignment of symbols other than x0 to
window cells, move back along every relator and pair (s, s^-1) by ``_move``,
and every sum must vanish.  ``verify_relations`` samples it instead.
``path_difference`` recomputes a difference of cocycle values along an
edge path from per-edge subgroup witnesses and the uncached ``act``,
giving a second, independent route to the same group element.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from functools import cached_property
from operator import add, attrgetter, sub
from typing import Callable, Iterator, NamedTuple

from .coset_graph import BallCache, CosetGraph, Path
from .errors import (
    ConfigError,
    InsufficientRadiusError,
    InternalError,
    NotFoundError,
    SearchSpaceTooLargeError,
)
from .groups import CosetId, Group, GroupElement, Letter, k_ball
from .patterns import (
    Alphabet,
    Pattern,
    _draw_word,
    act,
    empty_pattern,
    random_pattern,
    restrict,
)


def window_region(graph: CosetGraph, window: int) -> frozenset[CosetId]:
    """The ball of the window radius around the base coset."""
    if window > graph.radius:
        raise InsufficientRadiusError(
            f"window {window} exceeds built radius {graph.radius}"
        )
    return graph.ball_set(window)


def _window_rows(region: frozenset[CosetId], alphabet: Alphabet, item) -> Iterator:
    """``item(cell, symbol)`` for the non-default cells of each pattern
    supported in the region, one list per pattern.

    Symbols run over the cells in shortlex order of their representatives,
    the last cell fastest; planting draws its random values in this order.
    """
    x0, symbols = alphabet.x0, alphabet.symbols
    cells = sorted(region, key=lambda v: v.rep.group.word_key(v.rep))
    options = [[None if s == x0 else item(c, s) for s in symbols] for c in cells]
    for combo in itertools.product(*options):
        yield [x for x in combo if x is not None]


def window_patterns(region: frozenset[CosetId], alphabet: Alphabet) -> Iterator:
    """Every pattern supported in the region, in the order of ``_window_rows``."""
    for row in _window_rows(region, alphabet, lambda c, s: (c, s)):
        yield Pattern(alphabet, frozenset(row))


def pattern_key(p: Pattern) -> frozenset:
    """Table key of a window pattern: its frozenset of (coset, symbol) entries."""
    return p.entries


class PlantedData(NamedTuple):
    """Provenance of a planted coboundary-of-a-homomorphism cocycle.

    ``region`` holds the cells of the b0 window, whose patterns key ``b0``.
    """

    seed: int
    b0_window: int
    region: frozenset[CosetId]
    b0: dict[frozenset, GroupElement]
    hom_images: dict[Letter, GroupElement]

    def b0_of(self, p: Pattern) -> GroupElement:
        """The planted transfer value b0 of a configuration."""
        return self.b0[pattern_key(restrict(p, self.region))]


class CocycleSpec:
    """A block-coded cocycle G x Y -> H of window radius ``window``.

    ``tables`` maps a letter and the code of a window pattern to the value;
    when a ``rule`` is present, missing entries are computed on demand, so
    tables over large windows never need to be materialised in full.  A
    code sums the bits ``_digits`` gives the pattern's entries, one bit per
    (cell, symbol) pair.  ``region`` holds the cells of the window ball, and
    ``_window`` maps each one's coset payload to it in the ball's own order,
    so specs of one group, alphabet and window share their codes.
    ``_letter_steps`` maps a letter and a cell's payload to the payload of
    the moved cell and the symbol map of its K-correction, one map per
    distinct correction in ``_images``, or ``_identity_images``.  These
    caches depend only on the group, the alphabet and the window, take no
    part in equality and start empty in ``corrupted`` copies.
    """

    def __init__(
        self,
        group: Group,
        alphabet: Alphabet,
        target: Group,
        window: int,
        tables: dict[Letter, dict[int, GroupElement]] | None = None,
        rule: Callable[[Letter, Pattern], GroupElement] | None = None,
        derivation: object | None = None,
    ):
        self.group = group
        self.alphabet = alphabet
        self.target = target
        self.window = window
        self.tables = {} if tables is None else tables
        self.rule = rule
        self.derivation = derivation
        self._letter_steps: dict = defaultdict(dict)
        self._images: dict = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.group, self.alphabet, self.target, self.window,
            self.tables, self.rule, self.derivation,
        ) == (
            other.group, other.alphabet, other.target, other.window,
            other.tables, other.rule, other.derivation,
        )

    @cached_property
    def _window(self) -> dict[object, CosetId]:
        graph = CosetGraph(self.group, self.window)
        cells = graph.cosets_slice(0, graph.ball_size(self.window))
        return {v.rep.payload: v for v in cells}

    @cached_property
    def _digits(self) -> dict[object, dict[str, int]]:
        """Window-cell payload -> symbol -> digit: one bit per (cell, symbol)
        pair, so the sum over a set of such pairs codes the set, x0 included."""
        symbols = self.alphabet.symbols
        n = len(symbols)
        return {
            p: {s: 1 << (i * n + j) for j, s in enumerate(symbols)}
            for i, p in enumerate(self._window)
        }

    @cached_property
    def _identity_images(self) -> dict[str, str]:
        return {s: s for s in self.alphabet.symbols}

    @cached_property
    def region(self) -> frozenset[CosetId]:
        """The cells of the window ball; the codes of patterns on it key ``tables``."""
        return frozenset(self._window.values())

    def _code(self, entries) -> int:
        """The code of the window part of (coset, symbol) entries."""
        return _window_code(self._digits, [(c.rep.payload, s) for c, s in entries])

    def _value(self, letter: Letter, code: int) -> GroupElement:
        """The table value of a window code; a code the table lacks is filled
        by asking the rule once, on the code's window pattern."""
        table = self.tables.get(letter)
        if table is None:
            table = self.tables[letter] = {}
        value = table.get(code)
        if value is None:
            cells = self._window
            pattern = Pattern(self.alphabet, frozenset(
                (cells[p], s) for p, d in self._digits.items()
                for s, bit in d.items() if code & bit
            ))
            if self.rule is None:
                raise InternalError(
                    f"table for letter {letter} has no entry for {pattern!r}; "
                    "an explicit cocycle table must be total"
                )
            value = table[code] = self.rule(letter, pattern)
        return value

    def factor(self, letter: Letter, window_pattern: Pattern) -> GroupElement:
        return self._value(letter, self._code(window_pattern.entries))

    def _new_step(self, letter: Letter, cell) -> tuple[object, dict]:
        """The coset payload of s * cell and the symbol map of the K-correction
        rep(s c)^-1 * s * rep(c), with s the letter, from one product s * rep."""
        group, symbols = self.group, self.alphabet.symbols
        mul = group._mul_payload
        moved = mul(group._letter_payloads[letter], cell)
        key = group._coset_rep_payload(moved)
        if key == moved:  # the correction is the identity, which lies in K
            return key, self._identity_images
        correction = mul(group._inv_payload(key), moved)
        if not group._in_k(correction):
            raise InternalError(
                f"coset correction {GroupElement(group, correction)!r} is outside K; "
                "coset_rep is inconsistent"
            )
        images = self._images.get(correction)
        if images is None:
            perm = self.alphabet.permutation_of(group, GroupElement(group, correction))
            images = self._images[correction] = {
                s: symbols[perm[i]] for i, s in enumerate(symbols)
            }
        return key, images

    def _move(self, letter: Letter, z: list) -> list:
        """The (payload, symbol) pairs z moved by the letter, through the
        letter-step table."""
        table = self._letter_steps[letter]
        moved = []
        for p, s in z:
            step = table.get(p)
            if step is None:
                step = table[p] = self._new_step(letter, p)
            moved.append((step[0], step[1][s]))
        return moved

    def corrupted(
        self, letter: Letter, key: frozenset, value: GroupElement
    ) -> "CocycleSpec":
        """A copy with one ``pattern_key``'s entry overwritten; a negative control."""
        tables = {l: dict(t) for l, t in self.tables.items()}
        tables.setdefault(letter, {})[self._code(key)] = value
        # the rule, kept, is asked only for entries the tables lack
        return CocycleSpec(
            self.group, self.alphabet, self.target, self.window,
            tables, self.rule, self.derivation,
        )


def _window_code(digits: dict, z: list) -> int:
    """The code of the window part of the (payload, symbol) pairs z: the sum
    of their digits, distinct for distinct window patterns."""
    code = 0
    for p, s in z:
        d = digits.get(p)
        if d is not None:
            code += d[s]
    return code


def _walk(
    c: CocycleSpec, word, y: Pattern, through: bool
) -> tuple[GroupElement, list]:
    """The value along the word and the configuration's (payload, symbol)
    pairs after the walk: moved by every letter but the first of the word,
    or, with ``through``, by the whole word."""
    target, digits = c.target, c._digits
    acc, mul = target.identity().payload, target._mul_payload
    z = [(cell.rep.payload, s) for cell, s in y.entries]
    prev = None
    for letter in reversed(tuple(word)):
        if prev is not None:
            z = c._move(prev, z)
        acc = mul(c._value(letter, _window_code(digits, z)).payload, acc)
        prev = letter
    if through and prev is not None:
        z = c._move(prev, z)
    return GroupElement(target, acc), z


def evaluate_word(c: CocycleSpec, word, y: Pattern) -> GroupElement:
    """Cocycle value along an explicit letter word (right-to-left expansion).

    The configuration walks as (payload, symbol) pairs and the value as a
    target payload; per letter only the window pattern handed to
    ``factor`` is made of cosets.
    """
    return _walk(c, word, y, False)[0]


def walk_word(
    c: CocycleSpec, word, y: Pattern, *, cells: CosetGraph
) -> tuple[GroupElement, Pattern]:
    """c(g, y) and g y for the element g of the word, in one walk: the
    configuration takes one more step after the last factor, so g y is
    ``act(g, y)`` read off the spec's letter steps.  A moved cell inside the
    ball ``cells`` is that ball's own ``CosetId``, so a caller that keeps
    g y holds no second copy of it; only a cell outside it is made anew."""
    value, z = _walk(c, word, y, True)
    group, find = c.group, cells.index.get
    entries = []
    for p, s in z:
        i = find(p)
        if i is None:
            entries.append((CosetId(GroupElement(group, p)), s))
        else:
            entries.append((cells.cosets_slice(i, i + 1)[0], s))
    return value, Pattern(y.alphabet, frozenset(entries))


def evaluate(c: CocycleSpec, g: GroupElement, y: Pattern) -> GroupElement:
    """c(g, y) along the canonical word of g."""
    return evaluate_word(c, g.word, y)


class RelationViolation(NamedTuple):
    relator: tuple
    key: frozenset
    value: GroupElement


class RelationReport(NamedTuple):
    checked: int
    violations: tuple[RelationViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_relations(
    c: CocycleSpec,
    cache: BallCache,
    samples: int = 20,
    rng: random.Random | None = None,
) -> RelationReport:
    """Evaluate every family relator on sampled patterns; all must vanish.

    The patterns are drawn from ball(3), which the cache grows to;
    the empty configuration is always included in the sample.  A violation
    means the tables do not define a cocycle (word-independence fails).
    """
    rng = rng or random.Random(0)
    region = c.region
    graph = cache.at_least(3)
    pats = [empty_pattern(c.alphabet)] + [
        random_pattern(graph, c.alphabet, 3, rng) for _ in range(samples)
    ]
    identity = c.target.identity()
    violations = []
    checked = 0
    for rel in c.group.relator_words():
        for y in pats:
            checked += 1
            value = evaluate_word(c, rel, y)
            if value != identity:
                violations.append(
                    RelationViolation(rel, pattern_key(restrict(y, region)), value)
                )
    return RelationReport(checked, tuple(violations))


# letters x |A|^cells, the table reads of ``prove_relations``, refused before
# the first read
PROOF_LIMIT = 1 << 18


class RelationProof(NamedTuple):
    relators: int
    pairs: int
    violations: tuple[RelationViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _moebius(values: list, n: int, cells: int) -> list:
    """The Moebius coefficients of a table in mixed-radix order, digit 0 the
    symbol x0: per cell, each digit's slice minus digit 0's.  The lowest
    cell is cut into n slices and moved to the top, so after every cell the
    order is back."""
    for _ in range(cells):
        zero = values[::n]
        out = zero[:]
        for j in range(1, n):
            out += map(sub, values[j::n], zero)
        values = out
    return values


def prove_relations(c: CocycleSpec) -> RelationProof:
    """Prove every relator and every pair (s, s^-1) of a cocycle into a
    zmod or zd target on all configurations, or name a failing monomial.

    A table is Σ_U f(U)·[y ⊇ U] over the partial assignments U (cell ↦
    symbol ≠ x0) of the window, f its Moebius (ANF) coefficients, and
    [g y ⊇ U] = [y ⊇ g⁻¹U].  A word l_1…l_k sums f_{l_i} at l_{i+1}…l_k y, so
    its coefficients are the f_{l_i}(U) with U moved back along the suffix;
    the monomials are independent, so the word vanishes everywhere exactly
    when each accumulated coefficient does (mod the moduli for zmod).

    The tables must be explicit and hold every window row of every letter,
    as a loaded file's do; ``trivialize.check_relations`` sends no other.
    """
    group, alphabet, target = c.group, c.alphabet, c.target
    digits, n = c._digits, len(alphabet.symbols)
    if len(group.s_letters) * n ** len(digits) > PROOF_LIMIT:
        raise SearchSpaceTooLargeError(
            f"relation proof over {len(digits)} cells, {n} symbols and "
            f"{len(group.s_letters)} letters is over {PROOF_LIMIT} table reads"
        )
    zmod = target.family == "zmod"
    mods = target.mods if zmod else (0,) * target.d

    def reduced(xs) -> tuple:
        return tuple(x % m if m else x for x, m in zip(xs, mods))

    others = [s for s in alphabet.symbols if s != alphabet.x0]
    codes = [0]
    for d in digits.values():
        codes = [code + bit for bit in [0] + [d[s] for s in others] for code in codes]
    monomials = {}
    for letter in group.s_letters:
        rows = map(attrgetter("payload"), map(c.tables[letter].__getitem__, codes))
        if not zmod:
            rows = map(target.coordinates, rows)
        columns, hits = [], set()
        for col, m in zip(zip(*rows), mods):
            col = _moebius(list(col), n, len(digits))
            columns.append([x % m for x in col] if m else col)
            hits.update(itertools.compress(itertools.count(), columns[-1]))
        terms = monomials[letter] = {}
        for index in sorted(hits):
            xs, key = tuple(col[index] for col in columns), []
            for p in digits:
                index, j = divmod(index, n)
                if j:
                    key.append((p, others[j - 1]))
            terms[frozenset(key)] = xs

    relators = group.relator_words()
    pairs = tuple((i, -i) for i in range(1, len(group.gen_names) + 1))
    violations = []
    for word in relators + pairs:
        acc: dict = {}
        for i, letter in enumerate(word):
            if i:
                acc = {frozenset(c._move(-letter, u)): xs for u, xs in acc.items()}
            for u, xs in monomials[letter].items():
                old = acc.get(u)
                acc[u] = xs if old is None else tuple(map(add, old, xs))
        bad = [(u, xs) for u, xs in acc.items() if any(reduced(xs))]
        if bad:
            u, xs = min(bad, key=lambda t: len(t[0]))
            key = frozenset((CosetId(GroupElement(group, p)), s) for p, s in u)
            xs = reduced(xs)
            value = GroupElement(target, xs if zmod else target.payload_of(xs))
            violations.append(RelationViolation(word, key, value))
    return RelationProof(len(relators), len(pairs), tuple(violations))


class EdgeWitness(NamedTuple):
    """Subgroup elements certifying one labeled edge: v * x^-1 = u * y * s."""

    y: GroupElement
    x: GroupElement
    letter: Letter


def edge_witness(
    u: CosetId, v: CosetId, letter: Letter, radius: int = 4
) -> EdgeWitness | None:
    """Find k-elements routing the edge u ->s v; None if the K-ball is too small."""
    group = u.rep.group
    s_elem = group.letter_element(letter)
    v_inv = group.invert(v.rep)
    for y in k_ball(group, radius):
        candidate = group.multiply(group.multiply(u.rep, y), s_elem)
        shifted = group.multiply(v_inv, candidate)
        if group.is_in_k(shifted):
            return EdgeWitness(y, group.invert(shifted), letter)
    return None


WITNESS_RADIUS = 4  # K-ball radius searched for each edge witness


def path_difference(c: CocycleSpec, path: Path, y: Pattern) -> GroupElement:
    """c(g_n^-1, y) * c(g_0^-1, y)^-1 computed through per-edge witnesses.

    Each edge contributes three factors (for x^-1, s^-1, y^-1 of its
    witness), with subgroup elements expanded as words in T.  The result
    must agree exactly with the direct evaluation; tests rely on the two
    routes being independent.
    """
    group = c.group
    witnesses = []
    for i in range(len(path)):
        w = edge_witness(
            path.vertices[i], path.vertices[i + 1], path.labels[i], WITNESS_RADIUS
        )
        if w is None:
            raise NotFoundError(
                f"no edge witness within K-ball radius {WITNESS_RADIUS} for "
                f"edge {i} of the path"
            )
        witnesses.append(w)
    total = c.target.identity()
    z = act(group.invert(path.vertices[0].rep), y)
    for w in witnesses:
        eta3 = evaluate_word(c, group.invert(w.y).word, z)
        z = act(group.invert(w.y), z)
        eta2 = evaluate_word(c, (-w.letter,), z)
        z = act(group.letter_element(-w.letter), z)
        eta1 = evaluate_word(c, group.invert(w.x).word, z)
        z = act(group.invert(w.x), z)
        block = c.target.multiply(eta1, c.target.multiply(eta2, eta3))
        total = c.target.multiply(block, total)
    return total


def locality_check(c: CocycleSpec, path: Path, y: Pattern, z: Pattern) -> bool:
    """Whether two configurations give the same path difference.

    Callers arrange for y and z to agree on the window neighbourhood of the
    path; genuine cocycles then always return True.
    """
    return path_difference(c, path, y) == path_difference(c, path, z)


# ---------------------------------------------------------------------------
# Constructors


def constant_cocycle(
    group: Group,
    alphabet: Alphabet,
    target: Group,
    images: dict[Letter, GroupElement],
    window: int = 1,
) -> CocycleSpec:
    """The cocycle ignoring the configuration: c(s, y) = images[s]."""
    images = dict(images)
    for l in group.s_letters:
        if l not in images and -l in images:
            images[l] = target.invert(images[-l])
        images.setdefault(l, target.identity())

    def rule(letter: Letter, p: Pattern) -> GroupElement:
        return images[letter]

    return CocycleSpec(group, alphabet, target, window, {}, rule, None)


def _random_target_element(target: Group, rng: random.Random) -> GroupElement:
    family = target.family
    if family == "zmod":
        return GroupElement(
            target, tuple(rng.randrange(m) for m in target.mods)
        )
    if family == "zd":
        return GroupElement(
            target, target.payload_of(rng.randrange(-2, 3) for _ in range(target.d))
        )
    return target.element_from_word(_draw_word(target.s_letters, 2, rng))


def plant_cocycle(
    group: Group,
    alphabet: Alphabet,
    target: Group,
    b0_window: int,
    seed: int,
    graph: CosetGraph,
) -> CocycleSpec:
    """A genuine cocycle built from a random transfer table and homomorphism.

    Draws a random map b0 on configurations of the b0_window ball and a
    random homomorphism, then codes c(s, y) = b0(s y)^-1 * hom(s) * b0(y).
    The value of c(s, .) is determined by the window b0_window + 1, which
    becomes the window of the returned code.  The homomorphism's images are
    repaired until every relator maps to the identity, which makes c a
    cocycle by construction.  The spec is rule-backed, so
    ``trivialize.check_relations`` samples its relators and proves nothing.
    """
    if graph.group is not group:
        raise ConfigError("the supplied graph was built over a different group")
    rng = random.Random(seed)
    region0 = window_region(graph, b0_window)
    if len(alphabet.symbols) ** len(region0) > 10**6:
        raise ConfigError(
            f"b0 table over {len(region0)} cells and "
            f"{len(alphabet.symbols)} symbols is too large to materialise"
        )
    b0 = {
        pattern_key(p): _random_target_element(target, rng)
        for p in window_patterns(region0, alphabet)
    }

    images: dict[Letter, GroupElement] = {}
    if target.is_abelian:
        for i in range(1, len(group.gen_names) + 1):
            images[i] = _random_target_element(target, rng)
    else:
        h = _random_target_element(target, rng)
        for i in range(1, len(group.gen_names) + 1):
            power = rng.randrange(-2, 3)
            img = target.identity()
            step = h if power >= 0 else target.invert(h)
            for _ in range(abs(power)):
                img = target.multiply(img, step)
            images[i] = img

    def hom_value(word) -> GroupElement:
        out = target.identity()
        for l in word:
            img = images[abs(l)]
            out = target.multiply(out, img if l > 0 else target.invert(img))
        return out

    # repair images until every relator maps to the identity
    for rel in group.relator_words():
        if not hom_value(rel).is_identity():
            for l in rel:
                if abs(l) in {abs(t) for t in group.t_letters}:
                    images[abs(l)] = target.identity()
            if not hom_value(rel).is_identity():
                for l in rel:
                    images[abs(l)] = target.identity()
        if not hom_value(rel).is_identity():
            raise InternalError(f"could not repair homomorphism on relator {rel}")

    letter_images = {
        l: hom_value((l,)) for l in group.s_letters
    }
    planted = PlantedData(seed, b0_window, region0, b0, letter_images)
    b0_of = planted.b0_of
    cells0 = {cell.rep.payload: cell for cell in region0}

    def rule(letter: Letter, p: Pattern) -> GroupElement:
        # b0 of s p: p moved by the letter on the steps of the spec this
        # rule belongs to, then cut to region0
        moved = spec._move(letter, [(cell.rep.payload, s) for cell, s in p.entries])
        key = frozenset(
            [(cell, s) for q, s in moved if (cell := cells0.get(q)) is not None]
        )
        return target.multiply(
            target.invert(b0[key]),
            target.multiply(letter_images[letter], b0_of(p)),
        )

    spec = CocycleSpec(group, alphabet, target, b0_window + 1, {}, rule, planted)
    return spec
