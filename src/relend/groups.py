"""Exact arithmetic for the built-in group families.

Each family keeps every element in a unique normal form, exposes an ordered
symmetric generating list S (with the subgroup generators T as a sublist),
decides membership in the distinguished subgroup K, canonicalises left
cosets gK, and supplies finite witness sets F_s with K*s contained in F_s*K.

Families:
  * ``zd(d, k_coords)``      -- the lattice Z^d, K = span of the listed axes
  * ``free(rank)``           -- a free group, K trivial
  * ``bs(m, n)``             -- Baumslag-Solitar <x, t | t^-1 x^m t = x^n>, K = <x>
  * ``zmod(mods)``           -- a finite product of cyclic groups (target use)
  * ``direct_product(a, b)`` -- componentwise product, K = K_a x K_b

A family implements payload hooks only (``_mul_payload``, ``_word``,
``_in_k``, ``_k_exponents``, ``_witness_elements``, ...); ``Group`` defines
the element methods once over them, and ``witness`` wraps witness payloads.

Lattice and cyclic arithmetic maps the ``operator`` functions over
per-group constants (a 0/1 mask of the coordinates outside K, the moduli).
Elements and cosets hash by their payload alone; equality still compares the
group, so equal payloads in two groups stay distinct keys.

All values are immutable and every operation is a pure function, so elements
and cosets are safe to share across threads.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import add, mod, mul, neg
from typing import Callable, Iterable, Sequence

from .errors import ConfigError, InternalError, UnsupportedFamilyError

# A letter is a signed 1-based generator index: +i is generator i, -i its inverse.
Letter = int
Word = tuple


@dataclass(frozen=True)
class GroupElement:
    """An element of a built-in group, held in family normal form."""

    group: "Group"
    payload: object

    @property
    def word(self) -> Word:
        return self.group.word_of(self)

    def is_identity(self) -> bool:
        return self.payload == self.group.identity().payload

    def __hash__(self) -> int:
        return hash(self.payload)

    def __repr__(self) -> str:
        return f"<{self.group.word_str(self) or 'e'}>"


@dataclass(frozen=True)
class CosetId:
    """A left coset gK, identified by its canonical representative."""

    rep: GroupElement

    def __hash__(self) -> int:
        return hash(self.rep.payload)

    def __repr__(self) -> str:
        return f"[{self.rep.group.word_str(self.rep) or 'e'}]"


@dataclass(frozen=True)
class Witness:
    """A finite set F_s of elements with K*s contained in F_s*K."""

    letter: Letter
    elements: tuple


class Group:
    """Base class: generator bookkeeping plus family-specific arithmetic."""

    family = "abstract"
    # every group of the family is abelian; False also means "not known to be"
    is_abelian = False

    def __init__(self, gen_names: Sequence[str], k_primaries: Sequence[int]):
        if len(set(n.lower() for n in gen_names)) != len(gen_names):
            raise ConfigError(f"generator names collide: {gen_names}")
        self.gen_names = tuple(gen_names)
        # 1-based indices of the primary generators that generate K.
        self.k_primaries = tuple(sorted(k_primaries))
        self.s_letters: tuple[Letter, ...] = tuple(
            s * i for i in range(1, len(gen_names) + 1) for s in (+1, -1)
        )
        kset = set(self.k_primaries)
        self.t_letters: tuple[Letter, ...] = tuple(
            l for l in self.s_letters if abs(l) in kset
        )
        self._identity = GroupElement(self, self._identity_payload())
        # the payload and the printed name of every letter, made once; an
        # inverse's name capitalises its generator's first character
        one, self._letter_payloads = self._identity_payload(), {}
        self.letter_names: dict[Letter, str] = {}
        for letter in self.s_letters:
            g = self._mul_payload(one, self._gen_payload(abs(letter)))
            self._letter_payloads[letter] = g if letter > 0 else self._inv_payload(g)
            name = self.gen_names[abs(letter) - 1]
            if letter < 0:
                name = name[0].upper() + name[1:]
            self.letter_names[letter] = name

    # -- family hooks -------------------------------------------------------

    def _identity_payload(self) -> object:
        raise NotImplementedError

    def _mul_payload(self, a: object, b: object) -> object:
        raise NotImplementedError

    def _inv_payload(self, a: object) -> object:
        raise NotImplementedError

    def _word(self, p: object) -> Word:
        """Canonical word of the element with payload p over the letters."""
        raise NotImplementedError

    def _in_k(self, p: object) -> bool:
        raise NotImplementedError

    def _coset_rep_payload(self, a: object) -> object:
        """Payload of the canonical representative of the coset with payload a."""
        raise NotImplementedError

    def _k_exponents(self, p: object) -> tuple[int, ...]:
        """Exponents of the K-element p over the primary K generators."""
        raise NotImplementedError

    def _witness_elements(self, letter: Letter) -> tuple:
        """The payloads of F_s, made afresh; ``witnesses`` keeps them.  This
        default holds when Ks = sK: F = {e} for s in T, else F = {s}."""
        if letter in self.t_letters:
            return (self._identity_payload(),)
        return (self._letter_payloads[letter],)

    def relator_words(self) -> tuple[Word, ...]:
        raise NotImplementedError

    def _coset_steps(self) -> tuple[tuple[Letter, ...], Callable[[object], list]]:
        """The coset graph's step as ``(letters, step)``: ``step`` maps a
        coset payload to the keys of its non-loop neighbours, and
        ``letters`` holds the letter of each key, the same for every
        payload.  Letters come in ``s_letters`` order and each letter's
        witnesses in order, a repeated (letter, key) pair kept once.  G acts
        on its cosets by left multiplication, so vfK = vK exactly when f is
        in K and vfK = vgK exactly when fK = gK: a step that loops or
        repeats at one vertex does so at every vertex, and every vertex
        steps by the same letters.  This default drops those steps once, at
        the base, and multiplies by the other witnesses (zmod and direct
        products use it); zd, free and bs override it with a direct step."""
        mul, rep = self._mul_payload, self._coset_rep_payload
        base = rep(self._identity_payload())
        kept = {(l, rep(f)): (l, f) for l, fs in self.witnesses.items() for f in fs}
        steps = [pair for (_, key), pair in kept.items() if key != base]
        fs = [f for _, f in steps]

        def step(vp):
            return [rep(mul(vp, f)) for f in fs]

        return tuple(l for l, _ in steps), step

    def _left_step(self, letter: Letter) -> Callable[[object], object]:
        """The function from the payload of a coset vK to that of svK, s the
        letter; families override this product with a direct step."""
        mul, rep = self._mul_payload, self._coset_rep_payload
        s = self._letter_payloads[letter]
        return lambda vp: rep(mul(s, vp))

    def quotient_by_k(self) -> "Group":
        """The quotient group G/K when K is normal, as a built-in family."""
        raise UnsupportedFamilyError(
            f"no quotient construction for family {self.family}"
        )

    @cached_property
    def witnesses(self) -> dict[Letter, tuple]:
        """The payloads of the witness set F_s of every letter, in
        ``s_letters`` order, made once per group on first use."""
        return {letter: self._witness_elements(letter) for letter in self.s_letters}

    @cached_property
    def _bipartite(self) -> bool:
        """Whether the parity map chi: G -> Z/2 that is 0 on the generators in
        K and 1 on the others sends every relator to 0 and every witness
        outside K to 1; that certifies the coset graph bipartite.  The
        relators present the group, so chi is then a homomorphism, and it is
        0 on K.  chi is constant on cosets, and a non-loop edge gK -> gfK has
        f outside K, so every edge flips chi and chi(gK) is the parity of the
        norm of gK: no edge joins two vertices of one sphere.

        No other parity homomorphism psi can serve.  psi is 0 on K, so on
        the generators in K, and psi(f) = psi(s) for every witness f of s,
        since each built-in witness of s lies in KsK; a generator s outside K
        has a witness outside K, where psi must be 1, so psi(s) = 1.
        Computed on first use."""
        odd = {
            i
            for i in range(1, len(self.gen_names) + 1)
            if not self._in_k(self._letter_payloads[i])
        }

        def chi(word) -> int:
            return sum(abs(letter) in odd for letter in word) % 2

        return not any(map(chi, self.relator_words())) and all(
            chi(self._word(f))
            for fs in self.witnesses.values()
            for f in fs
            if not self._in_k(f)
        )

    # -- shared machinery ----------------------------------------------------

    def identity(self) -> GroupElement:
        return self._identity

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        if a.group is not self or b.group is not self:
            raise InternalError("mixing elements from different group instances")
        return GroupElement(self, self._mul_payload(a.payload, b.payload))

    def invert(self, a: GroupElement) -> GroupElement:
        return GroupElement(self, self._inv_payload(a.payload))

    def letter_element(self, letter: Letter) -> GroupElement:
        return GroupElement(self, self._letter_payloads[letter])

    def word_of(self, a: GroupElement) -> Word:
        """Canonical word of ``a`` over the generating letters."""
        return self._word(a.payload)

    def is_in_k(self, a: GroupElement) -> bool:
        return self._in_k(a.payload)

    def k_exponents(self, a: GroupElement) -> tuple[int, ...]:
        return self._k_exponents(a.payload)

    def _gen_payload(self, index: int) -> object:
        raise NotImplementedError

    def element_from_word(self, word: Iterable[Letter]) -> GroupElement:
        out, mul = self._identity_payload(), self._mul_payload
        for letter in word:
            out = mul(out, self._letter_payloads[letter])
        return GroupElement(self, out)

    def payload_str(self, p: object) -> str:
        """The canonical word of the element with payload p, its letters by
        name; empty for the identity."""
        return " ".join(map(self.letter_names.__getitem__, self._word(p)))

    def word_str(self, a: GroupElement) -> str:
        return self.payload_str(a.payload)

    def parse_token(self, token: str) -> Letter:
        sign = -1 if token[:1].isupper() else +1
        name = token[:1].lower() + token[1:]
        try:
            return sign * (self.gen_names.index(name) + 1)
        except ValueError:
            raise ConfigError(f"unknown generator token {token!r}") from None

    def parse_element(self, text: str) -> GroupElement:
        return self.element_from_word(self.parse_token(t) for t in text.split())

    def word_key(self, a: GroupElement):
        """Shortlex sort key for deterministic element ordering."""
        w = self.word_of(a)
        return (len(w), tuple(self.s_letters.index(l) for l in w))

    def __repr__(self) -> str:
        return f"{self.family}({', '.join(self.gen_names)})"


# ---------------------------------------------------------------------------
# Lattice groups Z^d with an axis subgroup


class ZdGroup(Group):
    family = "zd"
    is_abelian = True

    def __init__(self, d: int, k_coords: Sequence[int] = ()):
        if d < 0 or d > 26:
            raise ConfigError(f"zd rank out of range: {d}")
        self.d = d
        self.k_coords = tuple(sorted(set(k_coords)))
        if any(c < 0 or c >= d for c in self.k_coords):
            raise ConfigError(f"k_coords {k_coords} out of range for zd({d})")
        # 1 on each coordinate outside K, 0 on K's: a product with it zeroes K
        self._free_mask = tuple(0 if i in self.k_coords else 1 for i in range(d))
        names = tuple(string.ascii_lowercase[:d])
        super().__init__(names, tuple(c + 1 for c in self.k_coords))

    def _identity_payload(self):
        return (0,) * self.d

    def _gen_payload(self, index: int):
        return tuple(1 if i == index - 1 else 0 for i in range(self.d))

    def _mul_payload(self, a, b):
        return tuple(map(add, a, b))

    def _inv_payload(self, a):
        return tuple(map(neg, a))

    def _word(self, p):
        out = ()
        for i, c in enumerate(p, 1):
            if c:
                out += (i if c > 0 else -i,) * abs(c)
        return out

    def _in_k(self, p):
        return not any(map(mul, p, self._free_mask))

    def _coset_rep_payload(self, a):
        if not self.k_coords:
            return a
        return tuple(map(mul, a, self._free_mask))

    def _k_exponents(self, p):
        return tuple(p[c] for c in self.k_coords)

    def relator_words(self):
        return tuple((i, j, -i, -j) for i, j in combinations(range(1, self.d + 1), 2))

    def quotient_by_k(self):
        return ZdGroup(self.d - len(self.k_coords), ())

    def _coset_steps(self):
        # +-1 on one coordinate outside K; K's letters are loops
        free = [i for i in range(self.d) if i not in self.k_coords]

        def step(vp):
            # one list, moved and copied: cheaper than slicing the tuple
            cells, out = list(vp), []
            for i in free:
                c = cells[i]
                cells[i] = c + 1
                out.append(tuple(cells))
                cells[i] = c - 1
                out.append(tuple(cells))
                cells[i] = c
            return out

        return tuple(s * (i + 1) for i in free for s in (1, -1)), step

    def _left_step(self, letter):
        # abelian, so the right step: +-1 on a free coordinate, K's letters fix
        i, s = abs(letter) - 1, 1 if letter > 0 else -1
        if i in self.k_coords:
            return lambda vp: vp
        return lambda vp: vp[:i] + (vp[i] + s,) + vp[i + 1 :]


# ---------------------------------------------------------------------------
# Finite products of cyclic groups (used as cocycle targets, e.g. Z/2)


class ZmodGroup(Group):
    family = "zmod"
    is_abelian = True

    def __init__(self, mods: Sequence[int]):
        self.mods = tuple(int(m) for m in mods)
        if any(m < 1 for m in self.mods) or len(self.mods) > 26:
            raise ConfigError(f"bad moduli {mods}")
        super().__init__(tuple(string.ascii_lowercase[: len(self.mods)]), ())

    def _identity_payload(self):
        return (0,) * len(self.mods)

    def _gen_payload(self, index: int):
        return tuple(
            1 % self.mods[i] if i == index - 1 else 0
            for i in range(len(self.mods))
        )

    def _mul_payload(self, a, b):
        return tuple(map(mod, map(add, a, b), self.mods))

    def _inv_payload(self, a):
        return tuple(map(mod, map(neg, a), self.mods))

    def _word(self, p):
        """Each coordinate by its shortest signed exponent; at a tie, m/2,
        the positive one."""
        out = []
        for i, (c, m) in enumerate(zip(p, self.mods)):
            e = c - m if 2 * c > m else c
            out.extend([i + 1 if e > 0 else -(i + 1)] * abs(e))
        return tuple(out)

    def _in_k(self, p):
        return not any(p)

    def _coset_rep_payload(self, a):
        return a

    def _k_exponents(self, p):
        return ()

    def relator_words(self):
        rels = [tuple([i + 1] * m) for i, m in enumerate(self.mods) if m > 1]
        pairs = combinations(range(1, len(self.mods) + 1), 2)
        return tuple(rels + [(i, j, -i, -j) for i, j in pairs])

    def quotient_by_k(self):
        return self


# ---------------------------------------------------------------------------
# Free groups (trivial K)


class FreeGroup(Group):
    family = "free"

    def __init__(self, rank: int):
        if rank < 1 or rank > 26:
            raise ConfigError(f"free rank out of range: {rank}")
        self.rank = rank
        super().__init__(tuple(string.ascii_lowercase[:rank]), ())

    def _identity_payload(self):
        return ()

    def _gen_payload(self, index: int):
        return (index,)

    def _mul_payload(self, a, b):
        out = list(a)
        for letter in b:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def _inv_payload(self, a):
        return tuple(-l for l in reversed(a))

    def _word(self, p):
        return p

    def _in_k(self, p):
        return p == ()

    def _coset_rep_payload(self, a):
        return a

    def _k_exponents(self, p):
        return ()

    def relator_words(self):
        return ()

    def quotient_by_k(self):
        return self

    def _coset_steps(self):
        # append the letter, or cancel the last one
        moves = [(-l, (l,)) for l in self.s_letters]

        def step(vp):
            back = vp[-1] if vp else 0
            return [vp[:-1] if inv == back else vp + one for inv, one in moves]

        return self.s_letters, step

    def _left_step(self, letter):
        # prepend the letter, or cancel the first one
        return lambda vp: vp[1:] if vp and vp[0] == -letter else (letter,) + vp


# ---------------------------------------------------------------------------
# Baumslag-Solitar groups BS(m, n) = <x, t | t^-1 x^m t = x^n>, K = <x>


class BsGroup(Group):
    """Britton normal form with excess x-powers pushed to the right.

    Payload: ``(pairs, tail)`` encoding x^p1 t^e1 x^p2 t^e2 ... x^pk t^ek x^tail
    where each pair is (p_i, e_i), p_i lies in [0, m) before t and [0, n)
    before t^-1, there is no subword t^e x^0 t^-e, and the trailing exponent
    is unconstrained.  Right multiplication by x only shifts the tail, so a
    coset gK is canonicalised by zeroing it.
    """

    family = "bs"

    def __init__(self, m: int, n: int):
        if not (1 <= m <= 1000 and 1 <= n <= 1000):
            # the witness sets of t and t^-1 hold m and n elements
            raise ConfigError(f"bs parameters must lie in 1..1000, got ({m}, {n})")
        self.m = m
        self.n = n
        super().__init__(("x", "t"), (1,))

    def _identity_payload(self):
        return ((), 0)

    def _gen_payload(self, index: int):
        if index == 1:
            return ((), 1)
        return (((0, +1),), 0)

    def _append_t(self, pairs: list, tail: int, eps: int) -> int:
        """Append t^eps to x^tail, rewriting x-excess through the relation."""
        mod, carry = (self.m, self.n) if eps > 0 else (self.n, self.m)
        q, s = divmod(tail, mod)
        if s == 0 and pairs and pairs[-1][1] == -eps:
            pre, _ = pairs.pop()
            return pre + carry * q
        pairs.append((s, eps))
        return carry * q

    def _mul_payload(self, a, b):
        pairs = list(a[0])
        tail = a[1]
        for pre, eps in b[0]:
            tail += pre
            tail = self._append_t(pairs, tail, eps)
        return (tuple(pairs), tail + b[1])

    def _inv_payload(self, a):
        pairs: list = []
        tail = -a[1]
        for pre, eps in reversed(a[0]):
            tail = self._append_t(pairs, tail, -eps)
            tail += -pre
        return (tuple(pairs), tail)

    def _word(self, p):
        out = []
        for pre, eps in p[0]:
            out.extend([1] * pre)
            out.append(2 if eps > 0 else -2)
        tail = p[1]
        out.extend([1 if tail > 0 else -1] * abs(tail))
        return tuple(out)

    def _in_k(self, p):
        return p[0] == ()

    def _coset_rep_payload(self, a):
        return (a[0], 0)

    def _k_exponents(self, p):
        if p[0] != ():
            raise InternalError("k_exponents called on an element outside <x>")
        return (p[1],)

    def _witness_elements(self, letter):
        # x^i t^eps for i below m (eps = +1) or n (eps = -1)
        if abs(letter) == 1:
            return (self._identity_payload(),)
        t = self._letter_payloads[letter]
        count = self.m if letter > 0 else self.n
        return tuple(self._mul_payload(((), i), t) for i in range(count))

    def relator_words(self):
        return ((-2,) + (1,) * self.m + (2,) + (-1,) * self.n,)

    def _coset_steps(self):
        # in the Bass-Serre tree the witness x^i t^eps appends (i, eps), or
        # for i = 0 pops back to the parent when the last pair has -eps
        moves = [
            (((i, eps),), -eps if i == 0 else None)
            for eps, count in ((+1, self.m), (-1, self.n))
            for i in range(count)
        ]

        def step(vp):
            pairs = vp[0]
            back = pairs[-1][1] if pairs else 0
            return [
                (pairs[:-1] if pop == back else pairs + pair, 0) for pair, pop in moves
            ]

        return (2,) * self.m + (-2,) * self.n, step


# ---------------------------------------------------------------------------
# Direct products


class ProductGroup(Group):
    """Componentwise product; a payload is the pair of the factors' payloads."""

    family = "direct_product"

    def __init__(self, left: Group, right: Group):
        self.left = left
        self.right = right
        names = tuple(n + "1" for n in left.gen_names) + tuple(
            n + "2" for n in right.gen_names
        )
        offset = len(left.gen_names)
        k = tuple(left.k_primaries) + tuple(i + offset for i in right.k_primaries)
        self._offset = offset
        super().__init__(names, k)

    def _split(self, letter: Letter):
        idx = abs(letter)
        if idx <= self._offset:
            return (self.left, letter)
        return (self.right, (idx - self._offset) * (1 if letter > 0 else -1))

    def _identity_payload(self):
        return (self.left.identity().payload, self.right.identity().payload)

    def _gen_payload(self, index: int):
        left, right = self.left.identity().payload, self.right.identity().payload
        if index <= self._offset:
            return (self.left._letter_payloads[index], right)
        return (left, self.right._letter_payloads[index - self._offset])

    def _mul_payload(self, a, b):
        return (
            self.left._mul_payload(a[0], b[0]), self.right._mul_payload(a[1], b[1])
        )

    def _inv_payload(self, a):
        return (self.left._inv_payload(a[0]), self.right._inv_payload(a[1]))

    def _word(self, p):
        shift = self._offset
        return self.left._word(p[0]) + tuple(
            (abs(l) + shift) * (1 if l > 0 else -1) for l in self.right._word(p[1])
        )

    def _in_k(self, p):
        return self.left._in_k(p[0]) and self.right._in_k(p[1])

    def _coset_rep_payload(self, a):
        return (
            self.left._coset_rep_payload(a[0]),
            self.right._coset_rep_payload(a[1]),
        )

    def _k_exponents(self, p):
        return self.left._k_exponents(p[0]) + self.right._k_exponents(p[1])

    def _witness_elements(self, letter):
        side, inner = self._split(letter)
        left, right = self.left.identity().payload, self.right.identity().payload
        if side is self.left:
            return tuple((f, right) for f in self.left.witnesses[inner])
        return tuple((left, f) for f in self.right.witnesses[inner])

    def relator_words(self):
        shift = self._offset
        rels = list(self.left.relator_words())
        for w in self.right.relator_words():
            rels.append(tuple((abs(l) + shift) * (1 if l > 0 else -1) for l in w))
        for i in range(1, shift + 1):
            for j in range(shift + 1, len(self.gen_names) + 1):
                rels.append((i, j, -i, -j))
        return tuple(rels)

    def quotient_by_k(self):
        return ProductGroup(self.left.quotient_by_k(), self.right.quotient_by_k())


# ---------------------------------------------------------------------------
# Module-level operations


def coset_of(a: GroupElement) -> CosetId:
    """Canonical coset aK; equal cosets yield equal CosetIds."""
    return CosetId(GroupElement(a.group, a.group._coset_rep_payload(a.payload)))


def coset_cocycle(g: GroupElement, c: CosetId) -> GroupElement:
    """The K-valued correction rep(g c)^-1 * g * rep(c).

    Raises InternalError when the result escapes K, which signals a broken
    coset canonicalisation rather than bad input.
    """
    group = g.group
    moved = group.multiply(g, c.rep)
    target_rep = GroupElement(group, group._coset_rep_payload(moved.payload))
    out = group.multiply(group.invert(target_rep), moved)
    if not group.is_in_k(out):
        raise InternalError(
            f"coset correction {out!r} is outside K; coset_rep is inconsistent"
        )
    return out


def witness(group: Group, letter: Letter) -> Witness:
    if letter not in group.s_letters:
        raise ConfigError(f"letter {letter} is not a generator of {group!r}")
    return Witness(
        letter, tuple(GroupElement(group, f) for f in group.witnesses[letter])
    )


def k_ball(group: Group, radius: int) -> list[GroupElement]:
    """Elements of K with T-word length at most ``radius``, shortlex order."""
    return ball_elements(group, radius, group.t_letters)


def ball_elements(
    group: Group, radius: int, letters: Sequence[Letter] | None = None
) -> list[GroupElement]:
    """Shortlex enumeration of the word ball of the given radius, run on
    payloads, which hash faster than elements."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if letters is None:
        letters = group.s_letters
    mul = group._mul_payload
    gens = [group._letter_payloads[l] for l in letters]
    start = group.identity().payload
    queue = [start]
    dist = {start: 0}
    for g in queue:
        d = dist[g]
        if d >= radius:
            continue
        for ge in gens:
            h = mul(g, ge)
            if h not in dist:
                dist[h] = d + 1
                queue.append(h)
    return [GroupElement(group, h) for h in queue]


def verify_witness(group: Group, w: Witness, radius: int) -> bool:
    """Check K*s <= F_s*K over the K-ball of the given radius."""
    s_elem = group.letter_element(w.letter)
    inverses = [group.invert(f) for f in w.elements]
    for k in k_ball(group, radius):
        ks = group.multiply(k, s_elem)
        if not any(group.is_in_k(group.multiply(fi, ks)) for fi in inverses):
            return False
    return True

