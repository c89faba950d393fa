"""Finite-support configurations over the coset space and the induced action.

A configuration assigns an alphabet symbol to every coset, with a default
symbol ``x0`` everywhere outside a finite support.  The subgroup K acts on
the alphabet through per-generator permutations (the built-in subgroups are
abelian, so an exponent vector determines the permutation); the whole group
then acts on configurations by moving the support and twisting values by the
K-valued coset correction.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

from .coset_graph import CosetGraph
from .errors import ConfigError, InsufficientRadiusError
from .groups import CosetId, Group, GroupElement, coset_cocycle, coset_of


def _frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the immutable classes here."""
    raise AttributeError(f"cannot assign to field {name!r}")


class Alphabet:
    """Finite symbol set with a K-action given by generator permutations.

    ``perms`` maps primary K-generator names to permutations of symbol
    indices.  The default symbol x0 must be fixed by every generator, which
    makes it fixed by all of K and keeps finite supports finite under the
    action.  K acts by powers of the permutations in any order, an action
    only when they commute; a generator has at most one permutation, and
    random patterns need a symbol besides x0.
    """

    def __init__(
        self,
        symbols: tuple[str, ...],
        x0: str,
        perms: tuple[tuple[str, tuple[int, ...]], ...] = (),
    ):
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "perms", perms)
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigError(f"duplicate symbols: {self.symbols}")
        if self.x0 not in self.symbols:
            raise ConfigError(f"default symbol {self.x0!r} not in {self.symbols}")
        n = len(self.symbols)
        if n < 2:
            raise ConfigError(f"alphabet {self.symbols} has no symbol besides {self.x0!r}")
        x0i = self.symbols.index(self.x0)
        seen = set()
        for name, perm in self.perms:
            if name in seen:
                raise ConfigError(f"alphabet alpha names {name!r} twice")
            seen.add(name)
            if sorted(perm) != list(range(n)):
                raise ConfigError(f"{name}: {perm} is not a permutation")
            if perm[x0i] != x0i:
                raise ConfigError(f"{name}: permutation moves the default symbol")
        for (a, p), (b, q) in combinations(self.perms, 2):
            if any(p[q[j]] != q[p[j]] for j in range(n)):
                raise ConfigError(
                    f"alphabet alpha permutations of {a!r} and {b!r} do not commute"
                )

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.symbols, self.x0, self.perms) == (other.symbols, other.x0, other.perms)

    def __hash__(self) -> int:
        return hash((self.symbols, self.x0, self.perms))

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)

    @cached_property
    def _perm_map(self) -> dict[str, tuple[int, ...]]:
        return dict(self.perms)

    def permutation_of(self, group: Group, k: GroupElement) -> tuple[int, ...]:
        """The permutation alpha(k) for k in K, via its exponent vector."""
        n = len(self.symbols)
        result = list(range(n))
        exps = group.k_exponents(k)
        for idx, e in zip(group.k_primaries, exps):
            name = group.gen_names[idx - 1]
            perm = self._perm_map.get(name)
            if perm is None or e == 0:
                continue
            power = _perm_power(perm, e)
            result = [power[i] for i in result]
        return tuple(result)

    def apply(self, group: Group, k: GroupElement, symbol: str) -> str:
        return self.symbols[self.permutation_of(group, k)[self.index(symbol)]]


def _perm_power(perm: tuple[int, ...], e: int) -> list[int]:
    """perm**e for any integer e, shifting each cycle by e modulo its length."""
    out = [0] * len(perm)
    done = [False] * len(perm)
    for start in range(len(perm)):
        if done[start]:
            continue
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        for i, c in enumerate(cycle):
            done[c] = True
            out[c] = cycle[(i + e) % len(cycle)]
    return out


def trivial_alphabet(symbols: Iterable[str], x0: str) -> Alphabet:
    return Alphabet(tuple(symbols), x0, ())


class Pattern:
    """A finite-support configuration; entries never hold the default symbol."""

    def __init__(self, alphabet: Alphabet, entries: frozenset):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "entries", entries)  # frozenset[tuple[CosetId, str]]

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet, self.entries) == (other.alphabet, other.entries)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.entries))

    @cached_property
    def _map(self) -> dict[CosetId, str]:
        return dict(self.entries)

    def value_at(self, c: CosetId) -> str:
        return self._map.get(c, self.alphabet.x0)

    def support(self) -> frozenset[CosetId]:
        return frozenset(self._map)

    def items(self):
        return self._map.items()

    def is_empty(self) -> bool:
        return not self.entries

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{c!r}:{s}" for c, s in sorted(self._map.items(), key=lambda kv: repr(kv[0]))
        )
        return f"Pattern{{{inner}}}"


def empty_pattern(alphabet: Alphabet) -> Pattern:
    return Pattern(alphabet, frozenset())


def make_pattern(alphabet: Alphabet, assignment: Mapping[CosetId, str]) -> Pattern:
    """Build a pattern, dropping explicit default entries."""
    items = []
    for c, s in assignment.items():
        if s not in alphabet.symbols:
            raise ConfigError(f"symbol {s!r} not in alphabet {alphabet.symbols}")
        if s != alphabet.x0:
            items.append((c, s))
    return Pattern(alphabet, frozenset(items))


def act(g: GroupElement, y: Pattern) -> Pattern:
    """The induced action: support moves by g, values twist by alpha."""
    group = g.group
    out = {}
    for c, sym in y.items():
        moved = group.multiply(g, c.rep)
        target = coset_of(moved)
        correction = coset_cocycle(g, c)
        out[target] = y.alphabet.apply(group, correction, sym)
    return make_pattern(y.alphabet, out)


def restrict(y: Pattern, region: frozenset[CosetId] | set[CosetId]) -> Pattern:
    """Keep entries inside the region, reset everything else to the default."""
    return Pattern(
        y.alphabet, frozenset((c, s) for c, s in y.entries if c in region)
    )


def _draw_cells(
    n: int, symbols, rng: random.Random, max_entries: int = 6
) -> list[tuple[int, str]]:
    """Random ``(id, symbol)`` pairs on distinct ids below n: a count, the
    ids, then one symbol per id, in that order of draws.
    ``obstruction.verify_sign_identity`` makes the same draws inline."""
    count = rng.randrange(0, min(max_entries, n) + 1)
    return [(v, rng.choice(symbols)) for v in rng.sample(range(n), count)]


def _draw_word(letters, n: int, rng: random.Random) -> list:
    """A random word of at most n letters; its length is drawn first.
    ``obstruction.verify_sign_identity`` makes the same draws inline."""
    return [rng.choice(letters) for _ in range(rng.randrange(0, n + 1))]


def random_pattern(
    graph: CosetGraph,
    alphabet: Alphabet,
    max_norm: int,
    rng: random.Random,
    max_entries: int = 6,
) -> Pattern:
    """A random finite-support pattern with support norm at most ``max_norm``."""
    if max_norm > graph.radius:
        raise InsufficientRadiusError(
            f"patterns of norm {max_norm} need a ball of that radius; "
            f"built radius {graph.radius}"
        )
    n = graph.ball_size(max_norm)
    cosets = graph.cosets_slice(0, n)
    non_default = [s for s in alphabet.symbols if s != alphabet.x0]
    draws = _draw_cells(n, non_default, rng, max_entries)
    return make_pattern(alphabet, {cosets[v]: s for v, s in draws})


def scatter_junk(y: Pattern, cells: list[CosetId], rng: random.Random) -> Pattern:
    """y with random non-default symbols added on up to three cells drawn
    from ``cells``.  A drawn cell already in y's support would end up with
    two entries, so callers draw from cells outside it."""
    non_default = [s for s in y.alphabet.symbols if s != y.alphabet.x0]
    junk = {c: rng.choice(non_default) for c in rng.sample(cells, min(3, len(cells)))}
    return Pattern(y.alphabet, y.entries | frozenset(junk.items()))
