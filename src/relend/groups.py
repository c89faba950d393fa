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

An element of an infinite family is one int: a lattice payload's fields
are the coordinates, and a free or Baumslag-Solitar payload's digits are
the letters or Britton codes of its normal form, so no payload of theirs is
a tuple.  Cyclic arithmetic maps the ``operator`` functions over the moduli.

``GroupElement`` is the named tuple (group, payload) and ``CosetId`` the
one-field tuple (rep,), so equality is tuple equality and runs in C: it
compares the group by identity, then the payloads.  Both hash by the
payload alone, so equal payloads in two groups hash alike but stay distinct
keys.  CPython hashes -1 as it hashes -2, so no payload of an infinite
family is -1: a lattice payload is even, and free and Baumslag-Solitar
payloads are nonnegative.  The cosets of a ball then hash apart, so a probe
of a ball's index or of a memo keyed by payload finds no collision chain to
walk.

All values are immutable and every operation is a pure function, so elements
and cosets are safe to share across threads.
"""

from __future__ import annotations

import string
from functools import cached_property
from itertools import combinations
from operator import add, mod, neg
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ConfigError, InternalError, UnsupportedFamilyError

# A letter is a signed 1-based generator index: +i is generator i, -i its inverse.
Letter = int
Word = tuple


class GroupElement(NamedTuple):
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


class CosetId(NamedTuple):
    """A left coset gK, identified by its canonical representative."""

    rep: GroupElement

    def __hash__(self) -> int:
        return hash(self.rep.payload)

    def __repr__(self) -> str:
        return f"[{self.rep.group.word_str(self.rep) or 'e'}]"


class Witness(NamedTuple):
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

# the bits of one lattice coordinate's field, the bias that makes it
# nonnegative, and the distance from one field to the next
_FIELD, _HALF, _WIDTH = (1 << 64) - 1, 1 << 63, 72


class ZdGroup(Group):
    """The lattice Z^d, K the span of the listed coordinate axes.

    Payload: one int, the sum of c_i << (1 + 72 i) over the coordinates
    c_i, so coordinate i is a signed field of 64 bits at bit 1 + 72 i.  A
    product is one add, an inverse one negation, and a letter adds +-1 to
    one field.  Exactness: a coordinate moves by at most one per letter, so
    no run of fewer than 2^63 letters takes a coordinate out of its 64-bit
    field.  Bit 0 is always clear, so no payload is -1, which CPython
    hashes as it hashes -2.  Adding ``_bias``, 2^63 in every field, makes
    every field nonnegative; one mask then reads a set of fields, so K's
    part, membership in K and the coset representative are one biased add
    and one mask.  An int hashes as itself modulo 2^61 - 1, and 2^72 is
    2^11 there, so the hash weights of the first five fields lie 11 bits
    apart: elements whose coordinates differ by less than 2^10 never hash
    alike in Z^5 or below.
    """

    family = "zd"
    is_abelian = True
    _mul_payload = staticmethod(add)
    _inv_payload = staticmethod(neg)

    def __init__(self, d: int, k_coords: Sequence[int] = ()):
        if d < 0 or d > 26:
            raise ConfigError(f"zd rank out of range: {d}")
        self.d = d
        self.k_coords = tuple(sorted(set(k_coords)))
        if any(c < 0 or c >= d for c in self.k_coords):
            raise ConfigError(f"k_coords {k_coords} out of range for zd({d})")
        self._shifts = tuple(1 + i * _WIDTH for i in range(d))
        self._bias = sum(_HALF << s for s in self._shifts)
        free = [s for i, s in enumerate(self._shifts) if i not in self.k_coords]
        self._free_mask = sum(_FIELD << s for s in free)
        self._free_bias = sum(_HALF << s for s in free)
        names = tuple(string.ascii_lowercase[:d])
        super().__init__(names, tuple(c + 1 for c in self.k_coords))
        self._spelled = tuple(
            (s, self.letter_names[i] + " ", self.letter_names[-i] + " ")
            for i, s in enumerate(self._shifts, 1)
        )

    def coordinates(self, p) -> tuple[int, ...]:
        """The coordinates of the element with payload p."""
        p += self._bias
        return tuple((p >> s & _FIELD) - _HALF for s in self._shifts)

    def payload_of(self, coordinates: Iterable[int]) -> int:
        """The payload of the element with the given coordinates."""
        return sum(c << s for c, s in zip(coordinates, self._shifts))

    def _identity_payload(self):
        return 0

    def _gen_payload(self, index: int):
        return 1 << self._shifts[index - 1]

    def _word(self, p):
        out = ()
        for i, c in enumerate(self.coordinates(p), 1):
            if c:
                out += (i if c > 0 else -i,) * abs(c)
        return out

    def payload_str(self, p):
        # each name with its trailing space, repeated; the last space cut
        p += self._bias
        out = ""
        for s, up, down in self._spelled:
            c = (p >> s & _FIELD) - _HALF
            out += up * c if c > 0 else down * -c
        return out[:-1]

    def _in_k(self, p):
        return (p + self._bias) & self._free_mask == self._free_bias

    def _coset_rep_payload(self, a):
        if not self.k_coords:
            return a
        return ((a + self._bias) & self._free_mask) - self._free_bias

    def _k_exponents(self, p):
        cs = self.coordinates(p)
        return tuple(cs[c] for c in self.k_coords)

    def relator_words(self):
        return tuple((i, j, -i, -j) for i, j in combinations(range(1, self.d + 1), 2))

    def quotient_by_k(self):
        return ZdGroup(self.d - len(self.k_coords), ())

    def _coset_steps(self):
        # +-1 on one coordinate outside K; K's letters are loops
        free = [i for i in range(self.d) if i not in self.k_coords]
        moves = [s << self._shifts[i] for i in free for s in (1, -1)]
        return tuple(s * (i + 1) for i in free for s in (1, -1)), (
            lambda vp: [vp + m for m in moves]
        )

    def _left_step(self, letter):
        # abelian, so the right step: +-1 on a free coordinate, K's letters fix
        if abs(letter) - 1 in self.k_coords:
            return lambda vp: vp
        return self._letter_payloads[letter].__add__


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
    """Free group of the given rank, K trivial.

    Payload: the reduced word as one nonnegative int in digits of
    b = (2 rank + 1).bit_length() bits, the last letter in the lowest digit.
    Generator i is the digit 2i and its inverse 2i + 1, so an inverse is
    ``d ^ 1``, no digit is 0 and the identity is 0.  A coset step cancels
    the last letter (``p >> b``) or appends one (``p << b | d``); a left
    step cancels or prepends the top digit.  ``codes`` decodes a payload
    and ``payload_of`` encodes a reduced word.
    """

    family = "free"

    def __init__(self, rank: int):
        if rank < 1 or rank > 26:
            raise ConfigError(f"free rank out of range: {rank}")
        self.rank = rank
        self._bits = (2 * rank + 1).bit_length()
        self._mask = (1 << self._bits) - 1
        super().__init__(tuple(string.ascii_lowercase[:rank]), ())
        self._digit_letters = {d: l for l, d in self._letter_payloads.items()}
        self._digit_names = {
            d: self.letter_names[l] for d, l in self._digit_letters.items()
        }

    def codes(self, p) -> tuple[int, ...]:
        """The digits of the reduced word with payload p, first letter first."""
        return tuple(map(self._letter_payloads.__getitem__, self._word(p)))

    def payload_of(self, word: Iterable[Letter]) -> int:
        """The payload of a reduced word."""
        p, digits = 0, self._letter_payloads
        for letter in word:
            p = p << self._bits | digits[letter]
        return p

    def _identity_payload(self):
        return 0

    def _gen_payload(self, index: int):
        return 2 * index

    def _mul_payload(self, a, b):
        # cancel b's leading digits against a's last ones, then append the rest
        bits, mask = self._bits, self._mask
        n = -(-b.bit_length() // bits)
        while n and (a ^ b >> (n - 1) * bits) & mask == 1:
            a >>= bits
            n -= 1
        return a << n * bits | b & ~(-1 << n * bits)

    def _inv_payload(self, a):
        bits, mask, out = self._bits, self._mask, 0
        while a:
            out = out << bits | (a & mask) ^ 1
            a >>= bits
        return out

    def _spell(self, p, by: dict) -> list:
        """The digits of payload p, first letter first, each looked up in ``by``."""
        bits, mask, out = self._bits, self._mask, []
        while p:
            out.append(by[p & mask])
            p >>= bits
        out.reverse()
        return out

    def _word(self, p):
        return tuple(self._spell(p, self._digit_letters))

    def payload_str(self, p):
        return " ".join(self._spell(p, self._digit_names))

    def _in_k(self, p):
        return p == 0

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
        bits, mask = self._bits, self._mask
        digits = tuple(self._letter_payloads.values())

        def step(vp):
            back, up = (vp & mask) ^ 1, vp << bits
            return [vp >> bits if d == back else up | d for d in digits]

        return self.s_letters, step

    def _left_step(self, letter):
        # prepend the letter, or cancel the first one
        bits, d = self._bits, self._letter_payloads[letter]
        inv = d ^ 1

        def step(vp):
            if not vp:
                return d
            top = (vp.bit_length() - 1) // bits * bits
            if vp >> top == inv:
                return vp ^ inv << top
            return d << top + bits | vp

        return step


# ---------------------------------------------------------------------------
# Baumslag-Solitar groups BS(m, n) = <x, t | t^-1 x^m t = x^n>, K = <x>


class BsGroup(Group):
    """Britton normal form with excess x-powers pushed to the right.

    The normal form x^p1 t^e1 x^p2 t^e2 ... x^pk t^ek x^tail has p_i in
    [0, m) before t and [0, n) before t^-1, no subword t^e x^0 t^-e, and an
    unconstrained tail.  Its codes are ``(tail, c1, ..., ck)``, the pair
    (p, e) coded p + 1 for e = +1 and -(p + 2) for e = -1, so codes lie in
    [1, m] and [-(n + 1), -2].

    Payload: one nonnegative int.  Code c is the digit c, or m - 1 - c when
    negative, so digits lie in [1, m + n]; each takes b = (m + n).bit_length()
    bits and ck is the lowest.  A nonzero tail sits, zigzag coded (2 tail,
    or -2 tail - 1 when negative), above one zero separator digit, so the
    tail is unbounded.  K = <x> is the payloads whose lowest digit is 0, a
    coset representative (tail 0) is the digit string alone, and a coset
    step appends or pops one digit.  Products and inverses decode to codes,
    run the Britton rules there and encode; ``codes`` and ``payload_of``
    are that decoder and encoder.
    """

    family = "bs"

    def __init__(self, m: int, n: int):
        if not (1 <= m <= 1000 and 1 <= n <= 1000):
            # the witness sets of t and t^-1 hold m and n elements
            raise ConfigError(f"bs parameters must lie in 1..1000, got ({m}, {n})")
        self.m = m
        self.n = n
        self._bits = (m + n).bit_length()
        self._mask = (1 << self._bits) - 1
        super().__init__(("x", "t"), (1,))

    def codes(self, p) -> tuple[int, ...]:
        """The codes ``(tail, c1, ..., ck)`` of the payload p."""
        bits, mask, m, out = self._bits, self._mask, self.m, []
        d = p & mask
        while d:
            out.append(d if d <= m else m - 1 - d)
            p >>= bits
            d = p & mask
        z = p >> bits
        out.append(z >> 1 ^ -(z & 1))
        out.reverse()
        return tuple(out)

    def payload_of(self, codes: Sequence[int]) -> int:
        """The payload of the codes ``(tail, c1, ..., ck)``."""
        bits, m, p = self._bits, self.m, 0
        for c in codes[1:]:
            p = p << bits | (c if c > 0 else m - 1 - c)
        tail = codes[0]
        if tail:
            p |= (2 * tail if tail > 0 else ~(2 * tail)) << bits * len(codes)
        return p

    def _identity_payload(self):
        return 0

    def _gen_payload(self, index: int):
        return self.payload_of((1,) if index == 1 else (0, 1))

    def _append_t(self, out: list, tail: int, eps: int) -> int:
        """Append t^eps to x^tail, rewriting x-excess through the relation;
        ``out`` holds a tail slot, then the codes."""
        mod, carry = (self.m, self.n) if eps > 0 else (self.n, self.m)
        q, s = divmod(tail, mod)
        if s == 0 and len(out) > 1 and (out[-1] < 0) == (eps > 0):
            c = out.pop()
            return (c - 1 if c > 0 else -c - 2) + carry * q
        out.append(s + 1 if eps > 0 else -s - 2)
        return carry * q

    def _mul_payload(self, a, b):
        out, b = list(self.codes(a)), self.codes(b)
        tail = out[0]
        for c in b[1:]:
            if c > 0:
                tail = self._append_t(out, tail + c - 1, +1)
            else:
                tail = self._append_t(out, tail - c - 2, -1)
        out[0] = tail + b[0]
        return self.payload_of(out)

    def _inv_payload(self, a):
        out, a = [0], self.codes(a)
        tail = -a[0]
        for c in reversed(a[1:]):
            if c > 0:
                tail = self._append_t(out, tail, -1) - c + 1
            else:
                tail = self._append_t(out, tail, +1) + c + 2
        out[0] = tail
        return self.payload_of(out)

    def _word(self, p):
        out, codes = [], self.codes(p)
        for c in codes[1:]:
            out.extend([1] * (c - 1 if c > 0 else -c - 2))
            out.append(2 if c > 0 else -2)
        tail = codes[0]
        out.extend([1 if tail > 0 else -1] * abs(tail))
        return tuple(out)

    def _in_k(self, p):
        return not p & self._mask

    def _coset_rep_payload(self, a):
        # the digits below the separator, the lowest zero digit
        bits, mask, top = self._bits, self._mask, 0
        while a >> top & mask:
            top += bits
        return a & ~(-1 << top)

    def _k_exponents(self, p):
        if p & self._mask:
            raise InternalError("k_exponents called on an element outside <x>")
        return self.codes(p)

    def _witness_elements(self, letter):
        # x^i t^eps for i below m (eps = +1) or n (eps = -1)
        if abs(letter) == 1:
            return (self._identity_payload(),)
        t = self._letter_payloads[letter]
        count = self.m if letter > 0 else self.n
        return tuple(
            self._mul_payload(self.payload_of((i,)), t) for i in range(count)
        )

    def relator_words(self):
        return ((-2,) + (1,) * self.m + (2,) + (-1,) * self.n,)

    def _coset_steps(self):
        # in the Bass-Serre tree the witness x^i t^eps appends its digit, or
        # for i = 0 pops back to the parent when the last code has sign
        # -eps: t's digit 1 pops a negative code (a digit above m) and
        # t^-1's digit m + 1 a positive one; the base has no last digit
        m, bits, mask = self.m, self._bits, self._mask
        digits = tuple(range(1, m + self.n + 1))

        def step(vp):
            last, up = vp & mask, vp << bits
            pop = 1 if last > m else m + 1 if last else 0
            return [vp >> bits if d == pop else up | d for d in digits]

        return (2,) * m + (-2,) * self.n, step


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

