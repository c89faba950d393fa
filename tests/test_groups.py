import itertools
import random

import pytest
from hypothesis import given, strategies as st

from oracle_utils import bs1n_affine, free_reduce, lattice_word_sum
from relend import groups
from relend.cocycles import CocycleSpec
from relend.coset_graph import CosetGraph
from relend.errors import InternalError
from relend.obstruction import builtin_set
from relend.groups import (
    BsGroup,
    FreeGroup,
    Group,
    GroupElement,
    ProductGroup,
    Witness,
    ZdGroup,
    ZmodGroup,
    ball_elements,
    coset_cocycle,
    coset_of,
    k_ball,
    verify_witness,
    witness,
)
from relend.patterns import Alphabet
from relend.serialize import group_from_config
from test_geometry_golden import CONFIGS as GOLDEN_CONFIGS

ALL_GROUPS = [
    ZdGroup(2, ()),
    ZdGroup(2, (0,)),
    ZdGroup(3, (0,)),
    FreeGroup(2),
    BsGroup(1, 2),
    BsGroup(2, 3),
    ProductGroup(ZdGroup(1, (0,)), ZdGroup(1, ())),
    ZmodGroup((5,)),
    ZmodGroup((2, 3)),
]


def letters_of(group):
    return st.lists(st.sampled_from(group.s_letters), max_size=8)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: repr(g))
def test_normal_form_respects_concatenation(group):
    rng = random.Random(1)
    for _ in range(1000):
        u = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 6))]
        v = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 6))]
        assert group.element_from_word(u + v) == group.multiply(
            group.element_from_word(u), group.element_from_word(v)
        )


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: repr(g))
def test_inverse_and_canonical_word(group):
    rng = random.Random(2)
    for _ in range(300):
        w = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 7))]
        g = group.element_from_word(w)
        assert group.multiply(g, group.invert(g)).is_identity()
        assert group.element_from_word(g.word) == g


def test_iter_ball_ends_for_negative_and_fractional_radii():
    # on an infinite group a radius that no depth equals must still end the scan
    line = ZdGroup(1, ())
    with pytest.raises(ValueError):
        ball_elements(line, -1)
    assert ball_elements(line, 2.5) == ball_elements(line, 3)


def test_zd_examples():
    z2 = ZdGroup(2, ())
    ab = z2.multiply(z2.parse_element("a"), z2.parse_element("b"))
    assert z2.coordinates(ab.payload) == (1, 1)
    z3 = ZdGroup(3, ())
    inverse = z3.invert(z3.element_from_word([1, 2, 2, -3]))
    assert z3.coordinates(inverse.payload) == (-1, -2, 1)


def test_free_examples():
    f = FreeGroup(2)
    assert f.multiply(f.parse_element("a"), f.parse_element("A")).is_identity()
    assert f.invert(f.parse_element("a b")).word == (-2, -1)


def test_bs_normal_form_against_affine_model():
    rng = random.Random(3)
    g = BsGroup(1, 2)
    for _ in range(2000):
        w1 = [rng.choice(g.s_letters) for _ in range(rng.randrange(0, 9))]
        w2 = [rng.choice(g.s_letters) for _ in range(rng.randrange(0, 9))]
        e1, e2 = g.element_from_word(w1), g.element_from_word(w2)
        assert (e1 == e2) == (bs1n_affine(w1, 2) == bs1n_affine(w2, 2))


def test_bs_rewrite_example():
    g = BsGroup(1, 2)
    xt = g.multiply(g.parse_element("x"), g.parse_element("t"))
    assert g.word_str(xt) == "t x x"


BS_ORACLE_GROUPS = {f"bs{m}{n}": BsGroup(m, n) for m, n in [(1, 2), (1, 3), (1, 4)]}
BS_LAW_GROUPS = {f"bs{m}{n}": BsGroup(m, n) for m, n in [(2, 3), (3, 2)]}
BS_GROUPS = {**BS_ORACLE_GROUPS, **BS_LAW_GROUPS}


def _inverse_word(word):
    return tuple(-l for l in reversed(word))


@st.composite
def bs_word_pairs(draw, group):
    """Two words, the second random or the first with a relator, its
    inverse or a pair s s^-1 put in at a random place."""
    w1 = draw(letters_of(group))
    relator = group.relator_words()[0]
    insert = draw(st.sampled_from(
        [None, relator, _inverse_word(relator), *((l, -l) for l in group.s_letters)]
    ))
    if insert is None:
        return w1, draw(letters_of(group))
    at = draw(st.integers(0, len(w1)))
    return w1, w1[:at] + list(insert) + w1[at:]


@pytest.mark.parametrize("name", sorted(BS_ORACLE_GROUPS))
@given(data=st.data())
def test_bs1n_payloads_agree_with_the_affine_model(name, data):
    # BS(1, n) acts faithfully on Q by x: z -> z + 1, t: z -> z / n
    group = BS_ORACLE_GROUPS[name]
    w1, w2 = data.draw(bs_word_pairs(group))
    same = group.element_from_word(w1).payload == group.element_from_word(w2).payload
    assert same == (bs1n_affine(w1, group.n) == bs1n_affine(w2, group.n))


@pytest.mark.parametrize("name", sorted(BS_LAW_GROUPS))
@given(data=st.data())
def test_bs_payloads_obey_the_group_laws(name, data):
    group = BS_LAW_GROUPS[name]
    a, b, c = (group.element_from_word(data.draw(letters_of(group))) for _ in "abc")
    mul = group.multiply
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, group.invert(a)).is_identity()
    assert group.element_from_word(group.word_of(a)) == a
    u = data.draw(letters_of(group))
    for relator in group.relator_words():
        assert group.element_from_word(relator).is_identity()
        conjugate = u + list(relator) + list(_inverse_word(u))
        assert group.element_from_word(conjugate).is_identity()


@pytest.mark.parametrize("name", sorted(BS_GROUPS))
@given(data=st.data())
def test_bs_payloads_are_flat_reduced_code_tuples(name, data):
    # a payload is one nonnegative int whose codes (tail, c1, ..., ck) are
    # p + 1 before t and -(p + 2) before t^-1, so 0 and -1 never occur, and
    # no t^e x^0 t^-e is left
    group = BS_GROUPS[name]
    m, n = group.m, group.n
    p = group.element_from_word(data.draw(letters_of(group))).payload
    assert type(p) is int and p >= 0
    tail, *codes = group.codes(p)
    assert group.payload_of((tail, *codes)) == p
    assert all(1 <= c <= m or -(n + 1) <= c <= -2 for c in codes)
    for prev, c in zip(codes, codes[1:]):
        assert not (c == 1 and prev < 0) and not (c == -2 and prev > 0)
    rep = coset_of(GroupElement(group, p)).rep.payload
    assert group.codes(rep) == (0, *codes)


# bs tails: small values and integers beyond 2^70 in size
TAILS = st.one_of(st.sampled_from([-2, -1, 0, 1, 2]), st.integers(-2**80, 2**80))


@st.composite
def bs_codes(draw, group):
    """Codes (tail, c1, ..., ck) of any size, reduced or not."""
    values = [*range(1, group.m + 1), *range(-group.n - 1, -1)]
    codes = draw(st.lists(st.sampled_from(values), max_size=8))
    return (draw(TAILS), *codes)


@pytest.mark.parametrize("name", sorted(BS_GROUPS))
@given(data=st.data())
def test_bs_codes_round_trip_with_any_tail(name, data):
    group = BS_GROUPS[name]
    tail, *codes = data.draw(bs_codes(group))
    p = group.payload_of((tail, *codes))
    assert p >= 0 and group.codes(p) == (tail, *codes)
    # the representative clears exactly the tail; K holds exactly no codes
    assert group._coset_rep_payload(p) == group.payload_of((0, *codes))
    assert group._in_k(p) == (not codes)
    if not codes:
        assert group._k_exponents(p) == (tail,)


@pytest.mark.parametrize("name", sorted(BS_GROUPS))
@given(data=st.data())
def test_bs_products_move_a_large_tail_exactly(name, data):
    # right multiplication by x^k adds k to the tail; the tail stays exact
    # far past any fixed field width
    group = BS_GROUPS[name]
    word = data.draw(letters_of(group))
    shift = data.draw(TAILS)
    g = group.element_from_word(word).payload
    tail, *codes = group.codes(g)
    moved = group._mul_payload(g, group.payload_of((shift,)))
    assert group.codes(moved) == (tail + shift, *codes)
    inverse = group._inv_payload(moved)
    assert group._mul_payload(moved, inverse) == group._mul_payload(inverse, moved) == 0


def test_subgroup_membership():
    z = ZdGroup(2, (0,))
    assert z.is_in_k(z.element_from_word([1, 1, 1]))
    assert not z.is_in_k(z.element_from_word([1, 1, 1, 2]))
    b = BsGroup(1, 2)
    assert b.is_in_k(b.element_from_word([1] * 5))
    assert not b.is_in_k(b.parse_element("t"))


def test_coset_reps():
    z = ZdGroup(2, (0,))
    g = z.element_from_word([1, 1, 1] + [2] * 5)  # (3, 5)
    assert z.coordinates(coset_of(g).rep.payload) == (0, 5)
    assert coset_of(z.element_from_word([1, 1])).rep.is_identity()
    b = BsGroup(1, 2)
    assert b.word_str(coset_of(b.parse_element("x x x t")).rep) == "t"


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: repr(g))
def test_coset_rep_idempotent_and_constant(group):
    rng = random.Random(4)
    for _ in range(200):
        w = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 6))]
        g = group.element_from_word(w)
        rep = coset_of(g).rep
        assert coset_of(rep).rep == rep
        k = rng.choice(k_ball(group, 3))
        assert coset_of(group.multiply(g, k)) == coset_of(g)
        assert group.is_in_k(group.multiply(group.invert(rep), g))


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: repr(g))
def test_coset_cocycle_identity(group):
    # the correcting cocycle composes: d(g1 g2, c) = d(g1, g2 c) d(g2, c)
    rng = random.Random(5)
    base = coset_of(group.identity())
    for _ in range(250):
        w1 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 5))]
        w2 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 5))]
        ws = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 5))]
        g1 = group.element_from_word(w1)
        g2 = group.element_from_word(w2)
        c = coset_of(group.element_from_word(ws))
        moved = coset_of(group.multiply(g2, c.rep))
        lhs = coset_cocycle(group.multiply(g1, g2), c)
        rhs = group.multiply(coset_cocycle(g1, moved), coset_cocycle(g2, c))
        assert lhs == rhs
    assert coset_cocycle(group.identity(), base).is_identity()


def test_coset_cocycle_values():
    z = ZdGroup(2, (0,))
    base = coset_of(z.identity())
    d = coset_cocycle(z.element_from_word([1, 2, 2]), base)
    assert z.coordinates(d.payload) == (1, 0)
    k = z.element_from_word([1, 1])
    assert coset_cocycle(k, base) == k


def test_coset_cocycle_flags_broken_rep():
    class Broken(ZdGroup):
        def _coset_rep_payload(self, a):
            return self.payload_of((0, 0))  # collapses distinct cosets

    bad = Broken(2, (0,))
    c = coset_of(bad.element_from_word([2]))
    with pytest.raises(InternalError):
        coset_cocycle(bad.element_from_word([2]), c)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: repr(g))
def test_witnesses_verified(group):
    for letter in group.s_letters:
        w = witness(group, letter)
        assert verify_witness(group, w, 8)


def test_witness_values():
    b = BsGroup(1, 2)
    f_t_inv = witness(b, -2)
    assert [b.word_str(f) for f in f_t_inv.elements] == ["T", "x T"]
    assert not verify_witness(b, Witness(-2, (b.letter_element(-2),)), 2)
    z = ZdGroup(2, (0,))
    assert witness(z, 1).elements == (z.identity(),)  # generator inside K
    assert witness(z, 2).elements == (z.letter_element(2),)


@given(st.data())
def test_shortlex_ball_is_deduplicated(data):
    group = data.draw(st.sampled_from(ALL_GROUPS))
    radius = data.draw(st.integers(min_value=0, max_value=3))
    ball = ball_elements(group, radius)
    assert len(ball) == len(set(ball))
    assert ball[0].is_identity()


def test_element_serialization_round_trip():
    for group in ALL_GROUPS:
        rng = random.Random(6)
        for _ in range(50):
            w = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 6))]
            g = group.element_from_word(w)
            assert group.parse_element(group.word_str(g)) == g


def _old_bfs_ball(group, radius, letters=None):
    """A list-building shortlex BFS on elements, the oracle for
    ``ball_elements``."""
    letters = group.s_letters if letters is None else letters
    gens = [group.letter_element(l) for l in letters]
    out = [group.identity()]
    dist = {out[0]: 0}
    head = 0
    while head < len(out):
        g = out[head]
        head += 1
        if dist[g] == radius:
            continue
        for ge in gens:
            h = group.multiply(g, ge)
            if h not in dist:
                dist[h] = dist[g] + 1
                out.append(h)
    return out


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
def test_iter_ball_order_matches_old_bfs(group):
    for radius in range(5):
        expected = _old_bfs_ball(group, radius)
        assert ball_elements(group, radius) == expected
        assert ball_elements(group, radius, group.t_letters) == _old_bfs_ball(
            group, radius, group.t_letters
        )


@pytest.mark.parametrize(
    "mods", [(m,) for m in range(1, 10)] + [(2, 3), (4, 5)], ids=str
)
def test_zmod_words_are_shortest_and_parse_back(mods):
    group = ZmodGroup(mods)
    for payload in itertools.product(*(range(m) for m in mods)):
        g = GroupElement(group, payload)
        assert group.parse_element(group.word_str(g)) == g
        assert len(g.word) == sum(min(c, m - c) for c, m in zip(payload, mods))
    if mods == (2,):  # order two: the tie keeps the positive spelling
        assert group.letter_element(-1).word == (1,)


def _old_letter_name(group, letter):
    """The name of a letter computed from its generator, the reference
    for the letter-name table."""
    name = group.gen_names[abs(letter) - 1]
    return name[0].upper() + name[1:] if letter < 0 else name


@pytest.mark.parametrize(
    "group",
    ALL_GROUPS + [ProductGroup(BsGroup(1, 2), FreeGroup(2))],
    ids=repr,
)
def test_letter_names_match_the_per_letter_formula(group):
    names = [group.letter_names[l] for l in group.s_letters]
    assert names == [_old_letter_name(group, l) for l in group.s_letters]
    assert group.letter_names == dict(zip(group.s_letters, names))
    for g in ball_elements(group, 3):
        old = " ".join(_old_letter_name(group, l) for l in group.word_of(g))
        assert group.word_str(g) == old


def test_product_letter_names_carry_the_factor_index():
    group = ProductGroup(ZdGroup(1, (0,)), ZdGroup(1, ()))
    assert group.letter_names == {1: "a1", -1: "A1", 2: "a2", -2: "A2"}
    assert group.word_str(group.parse_element("A1 A1 a2")) == "A1 A1 a2"


# payload entries the operator kernels must treat as the generator formulas
# did: -1 and -2 (which CPython hashes alike) and integers past a machine word
ENTRIES = st.one_of(st.sampled_from([-2, -1, 0, 1, 2]), st.integers(-2**70, 2**70))
# lattice coordinates: the same small values and integers below 2^62 in
# size, whose sums and negations stay inside a coordinate's signed 64-bit field
COORDINATES = st.one_of(
    st.sampled_from([-2, -1, 0, 1, 2]), st.integers(1 - 2**62, 2**62 - 1)
)


@given(st.data())
def test_zd_kernels_match_the_generator_formulas(data):
    d = data.draw(st.integers(0, 5))
    k_coords = data.draw(st.sets(st.integers(0, d - 1))) if d else set()
    group = ZdGroup(d, k_coords)
    a, b = (data.draw(st.tuples(*[COORDINATES] * d)) for _ in range(2))
    inside = tuple(c if i in k_coords else 0 for i, c in enumerate(a))
    pa, pb, coords = group.payload_of(a), group.payload_of(b), group.coordinates
    assert coords(pa) == a
    assert coords(group._mul_payload(pa, pb)) == tuple(x + y for x, y in zip(a, b))
    assert coords(group._inv_payload(pa)) == tuple(-x for x in a)
    assert coords(group._coset_rep_payload(pa)) == tuple(
        0 if i in k_coords else c for i, c in enumerate(a)
    )
    for p in (a, inside):
        assert group.is_in_k(GroupElement(group, group.payload_of(p))) == all(
            c == 0 for i, c in enumerate(p) if i not in k_coords
        )
    assert group.is_in_k(GroupElement(group, group.payload_of(inside)))


@given(st.data())
def test_zd_payloads_are_equal_exactly_when_the_coordinate_sums_are(data):
    d = data.draw(st.integers(1, 4))
    group = ZdGroup(d)
    u = data.draw(letters_of(group))
    v = data.draw(st.permutations(u) | letters_of(group))
    g, h = group.element_from_word(u), group.element_from_word(v)
    sum_u, sum_v = lattice_word_sum(d, u), lattice_word_sum(d, v)
    assert group.coordinates(g.payload) == sum_u
    assert (g.payload == h.payload) == (sum_u == sum_v)


@given(st.data())
def test_a_lattice_coset_representative_zeroes_exactly_the_k_coordinates(data):
    d = data.draw(st.integers(1, 5))
    k_coords = data.draw(st.sets(st.integers(0, d - 1)))
    group = ZdGroup(d, k_coords)
    word = data.draw(letters_of(group))
    rep = coset_of(group.element_from_word(word)).rep
    assert group.coordinates(rep.payload) == tuple(
        0 if i in k_coords else c for i, c in enumerate(lattice_word_sum(d, word))
    )


@given(st.data())
def test_lattice_decoding_is_exact_near_two_to_the_62(data):
    d = data.draw(st.integers(1, 5))
    k_coords = data.draw(st.sets(st.integers(0, d - 1)))
    group = ZdGroup(d, k_coords)
    near = st.builds(
        lambda sign, offset: sign * 2**62 + offset,
        st.sampled_from([-1, 1]), st.integers(-8, 8),
    )
    coords = data.draw(st.tuples(*[near | COORDINATES] * d))
    letter = data.draw(st.sampled_from(group.s_letters))
    p = group.payload_of(coords)
    moved = [lattice_word_sum(d, [letter])[i] + c for i, c in enumerate(coords)]
    assert group.coordinates(p) == coords
    assert group.coordinates(group._inv_payload(p)) == tuple(-c for c in coords)
    assert group.coordinates(group._mul_payload(p, group._letter_payloads[letter])) == (
        tuple(moved)
    )
    assert group.k_exponents(GroupElement(group, p)) == tuple(
        coords[c] for c in group.k_coords
    )
    assert group.coordinates(group._coset_rep_payload(p)) == tuple(
        0 if i in k_coords else c for i, c in enumerate(coords)
    )


@given(st.integers(1, 3).flatmap(lambda rank: st.tuples(
    st.just(rank), st.lists(st.sampled_from(FreeGroup(rank).s_letters), max_size=12)
)))
def test_free_payloads_round_trip_their_reduced_words(case):
    rank, word = case
    group = FreeGroup(rank)
    g = group.element_from_word(word)
    assert g.word == free_reduce(word)
    assert group.element_from_word(g.word) == g
    # generator i is the digit 2i and its inverse 2i + 1, first letter first
    assert g.payload >= 0 and group.payload_of(g.word) == g.payload
    assert group.codes(g.payload) == tuple(2 * l if l > 0 else 1 - 2 * l for l in g.word)
    reduced = group.word_of(coset_of(g).rep)
    aprefix = builtin_set(group, "aprefix").member(coset_of(g).rep.payload)
    assert aprefix == (reduced[-1:] == (1,))


FREE_WORDS = st.integers(1, 3).flatmap(lambda rank: st.tuples(
    st.just(FreeGroup(rank)),
    *[st.lists(st.sampled_from(FreeGroup(rank).s_letters), max_size=12)] * 2,
))


@given(FREE_WORDS)
def test_free_products_and_inverses_reduce_the_concatenation(case):
    group, u, v = case
    g, h = group.element_from_word(u), group.element_from_word(v)
    product = group.multiply(g, h)
    assert product.payload >= 0 and product.word == free_reduce(u + v)
    assert group.invert(g).payload >= 0
    assert group.invert(g).word == _inverse_word(free_reduce(u))


@given(FREE_WORDS, st.data())
def test_free_left_step_is_the_left_product(case, data):
    # the override against the generic rep(mul(s, vp)), and aprefix against
    # the decoded word's last letter
    group, word, _ = case
    p = group.element_from_word(word).payload
    letter = data.draw(st.sampled_from(group.s_letters))
    assert group._left_step(letter)(p) == Group._left_step(group, letter)(p)
    member = builtin_set(group, "aprefix").member
    assert member(p) == (group._word(p)[-1:] == (1,))


# one ball per built-in family, its coset payloads hashed; CPython hashes
# -1 as -2, so a payload encoding that can hold -1 puts two cosets on one hash
HASH_BALLS = {
    "free2 r8": (FreeGroup(2), 8),
    "zd3 r10": (ZdGroup(3), 10),
    "zd3k0 r8": (ZdGroup(3, (0,)), 8),
    "bs13 r6": (BsGroup(1, 3), 6),
    "bs12xz r6": (ProductGroup(BsGroup(1, 2), ZdGroup(1)), 6),
    "zmod5 r2": (ZmodGroup((5,)), 2),
}


@pytest.mark.parametrize("name", list(HASH_BALLS))
def test_no_two_payloads_of_a_ball_share_a_hash(name):
    group, radius = HASH_BALLS[name]
    payloads = CosetGraph(group, radius).payloads
    assert len(set(map(hash, payloads))) == len(payloads)


@given(st.data())
def test_zmod_kernels_match_the_generator_formulas(data):
    mods = data.draw(st.lists(st.integers(1, 7), max_size=5))
    group = ZmodGroup(mods)
    a, b = (data.draw(st.tuples(*[ENTRIES] * len(mods))) for _ in range(2))
    assert group._mul_payload(a, b) == tuple(
        (x + y) % m for x, y, m in zip(a, b, mods)
    )
    assert group._inv_payload(a) == tuple((-x) % m for x, m in zip(a, mods))


def test_equal_cosets_made_apart_hash_equal():
    group = ZdGroup(2, (0,))
    alphabet = Alphabet(("0", "1", "2"), "0", (("a", (0, 2, 1)),))
    graph = CosetGraph(group, 1)
    from_graph = graph.cosets_slice(0, len(graph.payloads))
    region = CocycleSpec(group, alphabet, ZmodGroup((2,)), 1).region
    k = group.letter_element(1)
    for c in from_graph:
        made = coset_of(group.multiply(c.rep, k))
        (in_region,) = (r for r in region if r == c)
        assert made == c == in_region
        assert hash(made) == hash(c) == hash(in_region)
        assert made is not c and in_region is not c
    assert len(from_graph) == 3 and set(from_graph) == region


def test_equal_payloads_in_two_groups_stay_two_keys():
    lattice, cyclic = ZdGroup(2), ZmodGroup((5, 5))
    a, b = GroupElement(lattice, (1, 2)), GroupElement(cyclic, (1, 2))
    assert a != b and coset_of(a) != coset_of(b)
    assert len({a: 0, b: 1}) == 2
    assert len({coset_of(a): 0, coset_of(b): 1}) == 2


# -- the parity certificate of a bipartite coset graph ------------------------

GOLDEN_GROUPS = {pair: group_from_config(c) for pair, c in GOLDEN_CONFIGS.items()}


@pytest.mark.parametrize("pair", sorted(GOLDEN_GROUPS))
def test_bipartite_certificate_of_every_golden_pair(pair):
    assert GOLDEN_GROUPS[pair]._bipartite == (pair != "zmod5")


def test_bipartite_certificate_of_cyclic_groups_and_products():
    # a cyclic factor of odd order has no parity that its generator flips
    assert ZmodGroup((2, 4))._bipartite
    assert not ZmodGroup((3,))._bipartite
    assert not ProductGroup(ZdGroup(2), ZmodGroup((3,)))._bipartite


ORACLE_GROUPS = {
    **GOLDEN_GROUPS,
    "zmod24": ZmodGroup((2, 4)),
    "zmod3": ZmodGroup((3,)),
    "zd2xzmod3": ProductGroup(ZdGroup(2), ZmodGroup((3,))),
}


@pytest.mark.parametrize("pair", sorted(ORACLE_GROUPS))
def test_bipartite_certificate_matches_every_parity_map(pair):
    # the reference: try all 2^n maps from the generators to Z/2 against
    # every condition on a parity homomorphism that certifies the pair
    group = ORACLE_GROUPS[pair]
    n = len(group.gen_names)
    zero = set(group.k_primaries)
    zero |= {i for i in range(1, n + 1) if group.letter_element(i).is_identity()}
    outside = [
        f.word
        for letter in group.s_letters
        for f in witness(group, letter).elements
        if not group.is_in_k(f)
    ]

    def meets_all(bits):
        def chi(word):
            return sum(bits[abs(l) - 1] for l in word) % 2

        return (
            not any(bits[i - 1] for i in zero)
            and not any(map(chi, group.relator_words()))
            and all(chi(w) == 1 for w in outside)
        )

    maps = itertools.product((0, 1), repeat=n)
    assert group._bipartite == any(map(meets_all, maps))


def test_witness_sets_are_made_once_per_group(monkeypatch):
    # growing ball(1) to ball(6) and reading the certificate makes the
    # witness set of each of the four letters of BS(1, 2) once
    group, calls = BsGroup(1, 2), []
    make = group._witness_elements
    monkeypatch.setattr(
        group, "_witness_elements", lambda letter: calls.append(letter) or make(letter)
    )
    graph = CosetGraph(group, 1)
    for radius in range(2, 7):
        graph = CosetGraph(group, radius, grow_from=graph)
    assert group._bipartite
    assert len(calls) == 4


def _element_witnesses(group, letter):
    """F_s made from elements by ``Group.multiply``: x^i t^eps in BS(m, n), a
    factor's witnesses beside the other factor's identity in a product, and
    {e} for s in T or {s} otherwise."""
    if isinstance(group, ProductGroup):
        side, inner = group._split(letter)
        left, right = group.left.identity().payload, group.right.identity().payload
        pairs = [
            (f.payload, right) if side is group.left else (left, f.payload)
            for f in _element_witnesses(side, inner)
        ]
        return tuple(GroupElement(group, p) for p in pairs)
    if letter in group.t_letters:
        return (group.identity(),)
    if isinstance(group, BsGroup):
        x, t = group.letter_element(1), group.letter_element(letter)
        acc, out = group.identity(), []
        for _ in range(group.m if letter > 0 else group.n):
            out.append(group.multiply(acc, t))
            acc = group.multiply(acc, x)
        return tuple(out)
    return (group.letter_element(letter),)


BS_WITNESS_GROUPS = {
    **{f"bs{m}{n}": BsGroup(m, n) for m in range(1, 5) for n in range(1, 5)},
    "bs12xzd1": ProductGroup(BsGroup(1, 2), ZdGroup(1)),
    "zd2k0xbs32": ProductGroup(ZdGroup(2, (0,)), BsGroup(3, 2)),
    "bs24xbs41": ProductGroup(BsGroup(2, 4), BsGroup(4, 1)),
    "free1xbs23xzmod3": ProductGroup(
        ProductGroup(FreeGroup(1), BsGroup(2, 3)), ZmodGroup((3,))
    ),
}


@pytest.mark.parametrize("pair", sorted(BS_WITNESS_GROUPS))
def test_payload_witnesses_match_element_products(pair):
    group = BS_WITNESS_GROUPS[pair]
    for letter in group.s_letters:
        reference = _element_witnesses(group, letter)
        assert group.witnesses[letter] == tuple(f.payload for f in reference)
        assert witness(group, letter).elements == reference


def test_families_implement_payload_hooks_only():
    # the element methods are defined once, on Group, over the payload hooks,
    # and witness sets hold payloads, which only ``witness`` wraps
    overrides = [
        f"{cls.__name__}.{attr}"
        for cls in vars(groups).values()
        if isinstance(cls, type) and issubclass(cls, Group) and cls is not Group
        for attr in ("word_of", "is_in_k", "k_exponents")
        if attr in vars(cls)
    ]
    assert overrides == []
    held = [
        (group, letter)
        for group in [*ALL_GROUPS, *ORACLE_GROUPS.values(), *BS_WITNESS_GROUPS.values()]
        for letter, fs in group.witnesses.items()
        if type(fs) is not tuple or any(isinstance(f, GroupElement) for f in fs)
    ]
    assert held == []


@pytest.mark.parametrize("pair", sorted(GOLDEN_GROUPS))
def test_no_edge_of_a_certified_pair_stays_in_its_sphere(pair):
    # the certificate's premise, checked apart from it: step every payload
    # of ball(6) by the generic witness products and compare norms; zmod(5),
    # the one pair without a certificate, has such edges
    group = GOLDEN_GROUPS[pair]
    graph = CosetGraph(group, 6)
    norm = dict(zip(graph.payloads, graph.norm_of))
    _, step = Group._coset_steps(group)
    flat = [norm[p] == norm.get(key) for p in graph.payloads for key in step(p)]
    assert any(flat) == (pair == "zmod5")
