import random

import pytest
from hypothesis import given, settings, strategies as st

from relend.coset_graph import build_ball
from relend.errors import ConfigError, InsufficientRadiusError, VertexOutsideBallError
from relend.groups import BsGroup, ZdGroup, coset_of
from relend.patterns import (
    Alphabet,
    act,
    empty_pattern,
    make_pattern,
    random_pattern,
    restrict,
    trivial_alphabet,
)


@pytest.fixture(scope="module")
def setup():
    group = ZdGroup(2, (0,))
    return group, build_ball(group, 8), trivial_alphabet(("0", "1"), "0")


def test_alphabet_validation():
    with pytest.raises(ConfigError):
        Alphabet(("0", "1"), "2")
    with pytest.raises(ConfigError):
        Alphabet(("0", "1"), "0", (("x", (1, 1)),))
    with pytest.raises(ConfigError):
        # permutation must fix the default symbol
        Alphabet(("0", "1"), "0", (("x", (1, 0)),))


def test_alphabet_needs_a_symbol_besides_the_default():
    # random patterns draw their symbols from those besides x0
    with pytest.raises(ConfigError, match="no symbol besides '0'"):
        Alphabet(("0",), "0")


def test_alphabet_refuses_permutations_that_do_not_commute():
    # K = <a, b> of zd(3) would act by a^i b^j, whose product is not an action
    # when alpha(a) and alpha(b) do not commute
    perms = (("a", (0, 2, 3, 1)), ("b", (0, 2, 1, 3)))
    with pytest.raises(
        ConfigError, match="^alphabet alpha permutations of 'a' and 'b' do not commute$"
    ):
        Alphabet(("0", "1", "2", "3"), "0", perms)


@pytest.mark.parametrize("second", [(0, 1, 2), (0, 2, 1)], ids=["other", "same"])
def test_alphabet_refuses_a_generator_named_twice(second):
    # a dict of the pairs would keep the last permutation and drop the first
    perms = (("a", (0, 2, 1)), ("a", second))
    with pytest.raises(ConfigError, match="^alphabet alpha names 'a' twice$"):
        Alphabet(("0", "1", "2"), "0", perms)


def test_alphabet_homomorphism_property():
    from relend.groups import k_ball

    group = BsGroup(1, 2)
    alpha = Alphabet(("p", "0", "1", "2"), "p", (("x", (0, 2, 3, 1)),))
    ball = k_ball(group, 6)
    for k1 in ball:
        for k2 in ball:
            p1 = alpha.permutation_of(group, k1)
            p2 = alpha.permutation_of(group, k2)
            composed = tuple(p1[p2[i]] for i in range(4))
            assert composed == alpha.permutation_of(group, group.multiply(k1, k2))


def test_act_identity_and_empty(setup):
    group, graph, alpha = setup
    rng = random.Random(0)
    y = random_pattern(graph, alpha, 3, rng)
    assert act(group.identity(), y) == y
    g = group.parse_element("a b")
    assert act(g, empty_pattern(alpha)).is_empty()


def test_act_translates_support(setup):
    group, graph, alpha = setup
    y = make_pattern(alpha, {coset_of(group.parse_element("b")): "1"})
    moved = act(group.parse_element("a b"), y)
    assert moved.support() == {coset_of(group.parse_element("b b"))}


@settings(max_examples=100)
@given(st.data())
def test_action_property(setup, data):
    group, graph, alpha = setup
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    y = random_pattern(graph, alpha, 3, rng)
    w1 = data.draw(st.lists(st.sampled_from(group.s_letters), max_size=4))
    w2 = data.draw(st.lists(st.sampled_from(group.s_letters), max_size=4))
    g1, g2 = group.element_from_word(w1), group.element_from_word(w2)
    assert act(group.multiply(g1, g2), y) == act(g1, act(g2, y))


def test_action_property_bulk(setup):
    group, graph, alpha = setup
    rng = random.Random(11)
    for _ in range(500):
        y = random_pattern(graph, alpha, 3, rng)
        w1 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 5))]
        w2 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 5))]
        g1, g2 = group.element_from_word(w1), group.element_from_word(w2)
        assert act(group.multiply(g1, g2), y) == act(g1, act(g2, y))


def test_action_with_nontrivial_alphabet():
    group = BsGroup(1, 2)
    alpha = Alphabet(("p", "0", "1", "2"), "p", (("x", (0, 2, 3, 1)),))
    rng = random.Random(1)
    graph = build_ball(group, 6)
    for _ in range(150):
        y = random_pattern(graph, alpha, 2, rng, max_entries=4)
        w1 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 4))]
        w2 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 4))]
        g1, g2 = group.element_from_word(w1), group.element_from_word(w2)
        assert act(group.multiply(g1, g2), y) == act(g1, act(g2, y))


def test_generator_moves_norm_by_at_most_one(setup):
    group, graph, alpha = setup
    rng = random.Random(2)
    for _ in range(100):
        y = random_pattern(graph, alpha, 3, rng)
        for letter in group.s_letters:
            moved = act(group.letter_element(letter), y)
            assert _support_norm(graph, moved) <= _support_norm(graph, y) + 1


def _support_norm(graph, y):
    """The largest coset norm in y's support; the empty pattern has norm 0."""
    return max((graph.norm(c) for c in y.support()), default=0)


def test_pattern_norm(setup):
    group, graph, alpha = setup
    assert _support_norm(graph, empty_pattern(alpha)) == 0
    single = make_pattern(alpha, {coset_of(group.identity()): "1"})
    assert _support_norm(graph, single) == 0
    y = make_pattern(
        alpha,
        {
            coset_of(group.parse_element("b b")): "1",
            coset_of(group.parse_element("b b b")): "1",
        },
    )
    assert _support_norm(graph, y) == 3
    far = make_pattern(alpha, {coset_of(group.parse_element(" ".join(["b"] * 12))): "1"})
    with pytest.raises(VertexOutsideBallError):
        _support_norm(graph, far)


def test_restrict(setup):
    group, graph, alpha = setup
    rng = random.Random(3)
    y = random_pattern(graph, alpha, 3, rng)
    assert restrict(y, frozenset()) == empty_pattern(alpha)
    assert restrict(empty_pattern(alpha), y.support()).is_empty()
    assert restrict(y, y.support()) == y


def test_random_pattern_refuses_a_ball_below_its_norm(setup):
    group, graph, alpha = setup
    small = build_ball(group, 2)
    with pytest.raises(InsufficientRadiusError, match="built radius 2"):
        random_pattern(small, alpha, 3, random.Random(1))
    # at the built radius it draws, and from the same cells as a larger ball
    assert random_pattern(small, alpha, 2, random.Random(1)) == random_pattern(
        graph, alpha, 2, random.Random(1)
    )
