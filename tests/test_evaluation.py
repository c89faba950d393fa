"""Cocycle evaluation and the moves of configurations on coset payloads,
checked against ``act``."""

import itertools
import random

import pytest

from relend.coset_graph import BallCache, Path, build_ball
from relend.cocycles import (
    CocycleSpec,
    _window_code,
    constant_cocycle,
    evaluate_word,
    path_difference,
    pattern_key,
    plant_cocycle,
    verify_relations,
    walk_word,
    window_patterns,
    window_region,
)
from relend.errors import InternalError
from relend.groups import BsGroup, FreeGroup, ZdGroup, ZmodGroup
from relend.obstruction import builtin_set, sign_cocycle_spec
from relend.patterns import (
    Alphabet,
    act,
    empty_pattern,
    random_pattern,
    restrict,
    trivial_alphabet,
)
from relend.serialize import cocycle_from_json, cocycle_to_json

# (group, alphabet): the first two alphabets are permuted by K's generator
SETTINGS = {
    "zd2k0": (ZdGroup(2, (0,)), Alphabet(("0", "1", "2"), "0", (("a", (0, 2, 1)),))),
    "bs12": (BsGroup(1, 2), Alphabet(("0", "1", "2", "3"), "0", (("x", (0, 2, 3, 1)),))),
    "free2": (FreeGroup(2), trivial_alphabet(("0", "1"), "0")),
}


def _random_table_cocycle(group, alphabet, window, seed):
    """A rule-backed spec with a random value per window pattern.

    It is not a cocycle; evaluation along a fixed word is still a function
    of the pattern, which is all the comparison needs.
    """
    target = ZmodGroup((7,))
    rng = random.Random(seed)

    def rule(letter, p):
        return target.element_from_word([1] * rng.randrange(7))

    return CocycleSpec(group, alphabet, target, window, {}, rule, None)


def _reference_walk(c, word, y, region):
    """evaluate_word by the definition: act by each letter element in turn."""
    acc = c.target.identity()
    z = y
    for letter in reversed(tuple(word)):
        acc = c.target.multiply(c.factor(letter, restrict(z, region)), acc)
        z = act(c.group.letter_element(letter), z)
    return acc


def _reference_patterns(c, word, y, region):
    """The (letter, window pattern) pairs the definition hands to ``factor``:
    restrict, then act by the letter element, right to left."""
    out, z = [], y
    for letter in reversed(tuple(word)):
        out.append((letter, restrict(z, region)))
        z = act(c.group.letter_element(letter), z)
    return out


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_evaluate_word_matches_reference_walk(name):
    group, alphabet = SETTINGS[name]
    graph = build_ball(group, 4)
    c = _random_table_cocycle(group, alphabet, 1, seed=3)
    region = window_region(graph, c.window)
    # a recording rule: every window pattern the walk asks the rule for
    received, rule = [], c.rule
    c.rule = lambda letter, p: received.append((letter, p)) or rule(letter, p)
    there_and_back = [
        (s,) * k + (-s,) * k for s in group.s_letters for k in range(1, 5)
    ]
    rng = random.Random(11)
    permuted = 0
    for i in range(150):
        y = random_pattern(graph, alphabet, 3, rng)
        random_word = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 9))]
        for word in (random_word, there_and_back[i % len(there_and_back)]):
            received.clear()
            c.tables.clear()
            value = evaluate_word(c, word, y)
            expected = _reference_patterns(c, word, y, region)
            # the table answers a repeated (letter, pattern) pair, so only
            # its first occurrence reaches the rule
            assert received == list(dict.fromkeys(expected))
            assert value == _reference_walk(c, word, y, region)
        for letter in group.s_letters:
            moved = act(group.letter_element(letter), y)
            if {s for _, s in moved.entries} != {s for _, s in y.entries}:
                permuted += 1
    # the K-twist of the symbols is exercised, not just the moving support
    assert permuted > 0 or not alphabet.perms


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_walk_word_moves_like_act(name):
    # the walk's g y is act(g, y) and its value is evaluate's; the moved
    # cells inside the ball are the ball's own CosetIds, and a word of
    # length 8 also moves cells beyond the ball of radius 3
    group, alphabet = SETTINGS[name]
    graph = build_ball(group, 3)
    c = _random_table_cocycle(group, alphabet, 1, seed=3)
    own = {v: v for v in graph.cosets}
    rng = random.Random(12)
    permuted = outside = 0
    for _ in range(150):
        y = random_pattern(graph, alphabet, 3, rng)
        word = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 9))]
        expected = act(group.element_from_word(word), y)
        value, moved = walk_word(c, word, y, cells=graph)
        assert moved == expected
        assert value == evaluate_word(c, word, y)
        assert all(own.get(v, v) is v for v, _ in moved.entries)
        outside += sum(v not in graph for v, _ in moved.entries)
        if {s for _, s in expected.entries} != {s for _, s in y.entries}:
            permuted += 1
    assert outside > 0
    assert permuted > 0 or not alphabet.perms


# -- the code-keyed tables ------------------------------------------------------

TARGET = ZmodGroup((7,))


def _memo_spec(name, kind):
    """A window-1 spec on a SETTINGS pair: an explicit table with a seeded
    value per window pattern, as a cocycle file loads, or a planted rule."""
    group, alphabet = SETTINGS[name]
    if kind == "planted":
        return plant_cocycle(
            group, alphabet, TARGET, 0, 17, BallCache(group).at_least(1)
        )
    spec = CocycleSpec(group, alphabet, TARGET, 1)
    rng = random.Random(7)
    patterns = list(window_patterns(spec.region, alphabet))
    for letter in group.s_letters:
        spec.tables[letter] = {
            spec._code(p.entries): TARGET.element_from_word([1] * rng.randrange(7))
            for p in patterns
        }
    return spec


@pytest.mark.parametrize("kind", ["table", "planted"])
@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_window_code_memo_gives_the_factor_value(name, kind):
    # a warm spec answers every window pattern of every letter, in shuffled
    # order and then again from its table, with ``factor`` on a fresh spec
    group, alphabet = SETTINGS[name]
    warm, fresh = _memo_spec(name, kind), _memo_spec(name, kind)
    graph = build_ball(group, 3)
    rng = random.Random(21)
    for _ in range(30):
        y = random_pattern(graph, alphabet, 3, rng)
        evaluate_word(warm, [rng.choice(group.s_letters) for _ in range(5)], y)
    patterns = list(window_patterns(warm.region, alphabet))
    for letter in group.s_letters:
        for _ in range(2):
            rng.shuffle(patterns)
            for p in patterns:
                assert evaluate_word(warm, (letter,), p) == fresh.factor(letter, p)
    # one table entry per letter and window pattern, under the pattern's code
    codes = sorted(warm._code(p.entries) for p in patterns)
    assert [sorted(warm.tables[l]) for l in group.s_letters] == [codes] * len(
        group.s_letters
    )


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_a_table_edited_after_evaluation_is_read(name):
    # the table is its own memo: an entry overwritten after the spec has
    # evaluated is what the next evaluation returns, for a planted spec and
    # for one loaded from its file
    group, alphabet = SETTINGS[name]
    graph = BallCache(group).at_least(3)
    planted = plant_cocycle(group, alphabet, TARGET, 0, 17, graph)
    loaded = cocycle_from_json(group, alphabet, cocycle_to_json(planted, graph))
    fresh = plant_cocycle(group, alphabet, TARGET, 0, 17, graph)
    rng = random.Random(4)
    for spec in (fresh, loaded):
        for _ in range(10):
            y = random_pattern(graph, alphabet, 2, rng)
            letter = rng.choice(group.s_letters)
            before = evaluate_word(spec, (letter,), y)
            edited = spec.target.multiply(before, spec.target.letter_element(1))
            key = spec._code(pattern_key(restrict(y, spec.region)))
            spec.tables[letter][key] = edited
            assert evaluate_word(spec, (letter,), y) == edited


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_distinct_window_keys_never_share_a_code(name):
    # every cell/symbol set with at most one symbol per window cell, x0
    # written out or left out, has its own code; cells outside the window
    # add nothing to it
    group, alphabet = SETTINGS[name]
    spec = CocycleSpec(group, alphabet, TARGET, 1)
    cells = [v.rep.payload for v in spec.region]
    outside = [
        v.rep.payload for v in build_ball(group, 2).cosets if v not in spec.region
    ]
    codes = set()
    choices = (None, *alphabet.symbols)
    for i, combo in enumerate(itertools.product(choices, repeat=len(cells))):
        z = [(p, s) for p, s in zip(cells, combo) if s is not None]
        code = _window_code(spec._digits, z)
        far = (outside[i % len(outside)], alphabet.symbols[i % len(alphabet.symbols)])
        assert _window_code(spec._digits, z + [far]) == code
        codes.add(code)
    assert len(codes) == len(choices) ** len(cells)


PLANT_SETTINGS = {
    "zd2": (ZdGroup(2, ()), trivial_alphabet(("0", "1"), "0")),
    "zd3k0": (ZdGroup(3, (0,)), Alphabet(("0", "1", "2"), "0", (("a", (0, 2, 1)),))),
    "free2": (FreeGroup(2), trivial_alphabet(("0", "1"), "0")),
    "bs12": SETTINGS["bs12"],
}


@pytest.mark.parametrize("name", sorted(PLANT_SETTINGS))
def test_planted_rule_is_its_act_form(name):
    # c(s, p) = b0(s p)^-1 * hom(s) * b0(p), with s p moved by ``act``, on
    # every window pattern and letter
    group, alphabet = PLANT_SETTINGS[name]
    target = ZmodGroup((5,))
    graph = BallCache(group).at_least(2)
    c = plant_cocycle(group, alphabet, target, 0, 17, graph)
    pd = c.derivation
    checked = 0
    for p in window_patterns(c.region, alphabet):
        for letter in group.s_letters:
            moved = act(group.letter_element(letter), p)
            expected = target.multiply(
                target.invert(pd.b0_of(moved)),
                target.multiply(pd.hom_images[letter], pd.b0_of(p)),
            )
            assert c.rule(letter, p) == expected
            checked += 1
    assert checked == len(alphabet.symbols) ** len(c.region) * len(group.s_letters)


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_each_letter_step_is_built_once_per_spec(name, monkeypatch):
    group, alphabet = SETTINGS[name]
    graph = build_ball(group, 4)
    built = []
    new_step = CocycleSpec._new_step

    def counting(self, letter, cell):
        built.append((id(self), letter, cell))
        return new_step(self, letter, cell)

    monkeypatch.setattr(CocycleSpec, "_new_step", counting)
    specs = [_random_table_cocycle(group, alphabet, 1, seed) for seed in (3, 4)]
    rng = random.Random(5)
    walked = 0
    for _ in range(100):
        y = random_pattern(graph, alphabet, 3, rng)
        word = [rng.choice(group.s_letters) for _ in range(rng.randrange(1, 9))]
        walked += len(y.entries) * (len(word) - 1)
        for c in specs:
            evaluate_word(c, word, y)
    assert len(built) == len(set(built))
    for c in specs:
        steps = sum(len(t) for t in c._letter_steps.values())
        assert steps == sum(1 for b in built if b[0] == id(c))
        assert 0 < steps < walked  # steps are reused across walks


def test_broken_canonicalisation_raises_through_evaluate_word(monkeypatch):
    group, alphabet = SETTINGS["zd2k0"]
    graph = build_ball(group, 4)
    rng = random.Random(1)
    y = random_pattern(graph, alphabet, 2, rng, max_entries=4)
    while y.is_empty():
        y = random_pattern(graph, alphabet, 2, rng, max_entries=4)
    c = _random_table_cocycle(group, alphabet, 1, seed=4)
    # zeroing the wrong coordinate: corrections then leave K = <a>
    monkeypatch.setattr(group, "_coset_rep_payload", lambda a: (a[0], 0))
    with pytest.raises(InternalError):
        evaluate_word(c, (2, 2, 1), y)


TABLE_PAIRS = {
    "zd2": ZdGroup(2, ()),
    "zd3": ZdGroup(3, ()),
    "zd3k0": ZdGroup(3, (0,)),
    "free2": FreeGroup(2),
    "bs12": BsGroup(1, 2),
}


@pytest.mark.parametrize("name", sorted(TABLE_PAIRS))
def test_cocycle_json_round_trip(name):
    group = TABLE_PAIRS[name]
    alphabet = trivial_alphabet(("0", "1"), "0")
    graph = BallCache(group).at_least(4)
    spec = plant_cocycle(group, alphabet, ZmodGroup((2,)), 0, 29, graph)
    data = cocycle_to_json(spec, graph)
    loaded = cocycle_from_json(group, alphabet, data)
    assert cocycle_to_json(loaded, graph) == data
    # the loaded table answers every lookup the planted rule answered
    payloads = lambda tables: {
        l: {k: h.payload for k, h in t.items()} for l, t in tables.items()
    }
    assert payloads(loaded.tables) == payloads(spec.tables)


@pytest.mark.parametrize("name", ["zd2", "zd3k0", "free2", "bs12"])
def test_planted_cocycles_pass_relations(name):
    group = TABLE_PAIRS[name]
    alphabet = trivial_alphabet(("0", "1"), "0")
    graph = BallCache(group).at_least(6)
    for b0_window in (0, 1):
        spec = plant_cocycle(group, alphabet, ZmodGroup((2,)), b0_window, 8, graph)
        report = verify_relations(spec, BallCache(group), samples=15, rng=random.Random(5))
        assert report.ok and report.checked == 16 * len(group.relator_words())


# -- the window a spec carries ------------------------------------------------


@pytest.mark.parametrize("name", sorted(TABLE_PAIRS))
def test_spec_region_is_the_window_ball(name):
    group = TABLE_PAIRS[name]
    alphabet = trivial_alphabet(("0", "1"), "0")
    target = ZmodGroup((2,))
    graph = BallCache(group).at_least(4)
    planted = plant_cocycle(group, alphabet, target, 0, 29, graph)
    loaded = cocycle_from_json(
        group, alphabet, cocycle_to_json(planted, graph)
    )
    specs = [
        planted,
        loaded,
        constant_cocycle(group, alphabet, target, {1: target.letter_element(1)}),
        constant_cocycle(group, alphabet, target, {}, window=0),
        plant_cocycle(group, alphabet, target, 1, 3, graph),
    ]
    specs += [
        c.corrupted(1, pattern_key(empty_pattern(alphabet)), target.identity())
        for c in specs
    ]
    for c in specs:
        assert c.region == window_region(graph, c.window)
        assert c.region is c.region  # built once


@pytest.mark.parametrize("name", ["zd1", "free2"])
def test_sign_spec_region_is_the_window_ball(name):
    group = ZdGroup(1, ()) if name == "zd1" else FreeGroup(2)
    cache = BallCache(group)
    region = builtin_set(group, "halfline" if name == "zd1" else "aprefix")
    spec = sign_cocycle_spec(cache, region, 4)
    assert spec.region == window_region(cache.at_least(4), spec.window)


def test_region_takes_no_part_in_equality():
    group, alphabet = SETTINGS["free2"]
    a = _random_table_cocycle(group, alphabet, 1, seed=3)
    b = CocycleSpec(group, alphabet, a.target, 1, a.tables, a.rule, None)
    a.region  # built on a only
    assert a == b


@pytest.mark.parametrize("name", ["zd2", "zd3k0", "bs12"])
def test_planted_b0_of_is_the_b0_table_lookup(name):
    group = TABLE_PAIRS[name]
    alphabet = trivial_alphabet(("0", "1"), "0")
    graph = BallCache(group).at_least(5)
    rng = random.Random(12)
    for b0_window in (0, 1):
        planted = plant_cocycle(
            group, alphabet, ZmodGroup((2,)), b0_window, 6, graph
        ).derivation
        region0 = window_region(graph, b0_window)
        assert planted.region == region0
        for _ in range(60):
            y = random_pattern(graph, alphabet, 4, rng)
            assert planted.b0_of(y) == planted.b0[pattern_key(restrict(y, region0))]


def test_stale_call_with_a_graph_is_refused():
    # evaluation reads the spec's own window; passing a ball is an error, not
    # a ball taken for some other parameter
    group = ZdGroup(2, ())
    graph = build_ball(group, 4)
    alphabet = trivial_alphabet(("0", "1"), "0")
    c = plant_cocycle(group, alphabet, ZmodGroup((2,)), 0, 1, graph)
    p = Path((graph.base,), ())
    y = empty_pattern(alphabet)
    with pytest.raises(TypeError):
        path_difference(c, p, y, graph)
    with pytest.raises(TypeError):
        evaluate_word(c, (1,), y, c.region)
