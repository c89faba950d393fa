"""The record classes keep the contracts callers rely on.

Immutable records are ``typing.NamedTuple``s; ``Pattern`` and ``Alphabet``
are plain classes that refuse assignment; ``CocycleSpec`` is a plain class
whose equality ignores its caches.
"""

import random

import pytest

from relend.cocycles import (
    CocycleSpec,
    RelationViolation,
    edge_witness,
    pattern_key,
    plant_cocycle,
    verify_relations,
)
from relend.coset_graph import BallCache, CosetGraph, Path
from relend.ends import (
    EndsRow,
    capacity,
    components_outside_ball,
    cross_check_quotient,
    estimate_ends,
)
from relend.groups import FreeGroup, ZdGroup, ZmodGroup, coset_of, witness
from relend.obstruction import (
    bounded_coboundary_search,
    builtin_set,
    generator_boundaries,
    verify_sign_identity,
)
from relend.patterns import empty_pattern, make_pattern, trivial_alphabet
from relend.trivialize import CheckResult

LINE = ZdGroup(1, ())


def _frozen_records() -> dict:
    """One instance of each class that was a frozen dataclass, by name."""
    cache = BallCache(LINE)
    graph = cache.at_least(6)
    a = LINE.letter_element(1)
    base, step = coset_of(LINE.identity()), coset_of(a)
    region = builtin_set(LINE, "halfline")
    boundaries = generator_boundaries(cache, region, 4)
    ends = estimate_ends(cache, 2, 2)
    alphabet = trivial_alphabet(("0", "1"), "0")
    spec = plant_cocycle(LINE, alphabet, ZmodGroup((2,)), 0, 1, graph)
    return {
        "GroupElement": a,
        "CosetId": base,
        "Witness": witness(LINE, 1),
        "Path": Path((base, step), (1,)),
        "Component": components_outside_ball(graph, 1, 3)[0],
        "EndsRow": ends.rows[0],
        "EndsReport": ends,
        "CapacityEntry": capacity(BallCache(ZdGroup(2, ())), 1),
        "CrossCheckResult": cross_check_quotient(LINE, 2, 2),
        "AlmostInvariantSet": region,
        "SearchOutcome": bounded_coboundary_search(cache, region, 4),
        "IdentityCheck": verify_sign_identity(cache, boundaries, 3, random.Random(0)),
        "PlantedData": spec.derivation,
        "RelationViolation": RelationViolation((1, -1), frozenset(), a),
        "RelationReport": verify_relations(spec, cache, 2),
        "EdgeWitness": edge_witness(base, step, 1),
        "CheckResult": CheckResult("one_ended", True),
        "Alphabet": alphabet,
        "Pattern": make_pattern(alphabet, {step: "1"}),
    }


FROZEN = _frozen_records()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_a_frozen_record_refuses_assignment(name):
    record = FROZEN[name]
    assert type(record).__name__ == name
    field = {"Alphabet": "symbols", "Pattern": "entries"}.get(name) or next(
        iter(type(record).__annotations__)
    )
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_equal_payloads_in_two_groups_are_distinct_keys_with_equal_hashes():
    for make in (lambda: ZdGroup(2, ()), lambda: FreeGroup(2)):
        g, h = make(), make()
        x, y = g.letter_element(1), h.letter_element(1)
        assert x.payload == y.payload
        assert x != y and hash(x) == hash(y)
        assert len({x, y}) == 2 and {x: 0, y: 1}[x] == 0
        cx, cy = coset_of(x), coset_of(y)
        assert cx != cy and hash(cx) == hash(cy)
        assert len({cx, cy}) == 2
        assert x == g.letter_element(1) and cx == coset_of(g.letter_element(1))


def test_coset_ids_whose_payloads_hash_alike_stay_distinct():
    # an int hashes modulo 2^61 - 1, where a plane payload weighs its first
    # coordinate 2 and its second 2^12, so these two cosets land on one hash
    plane = ZdGroup(2, ())
    u, v = (coset_of(plane.element_from_word(w)) for w in ((2,), (1,) * 2048))
    assert plane.coordinates(u.rep.payload) == (0, 1)
    assert plane.coordinates(v.rep.payload) == (2048, 0)
    assert hash(u) == hash(v) and u != v
    assert {u: "u", v: "v"}[v] == "v"


def test_records_keep_the_field_repr():
    assert repr(EndsRow(1, 6, 2, 2)) == (
        "EndsRow(r=1, probe_radius=6, components=2, sphere_touching=2)"
    )
    assert repr(CheckResult("one_ended", True, "exact 2")) == (
        "CheckResult(name='one_ended', passed=True, detail='exact 2')"
    )
    assert repr(CheckResult("fixed_point", True)) == (
        "CheckResult(name='fixed_point', passed=True, detail='')"
    )


def test_elements_and_cosets_keep_their_word_repr():
    plane = ZdGroup(2, (0,))
    g = plane.element_from_word((1, 2, 2))
    assert repr(g) == "<a b b>"
    assert repr(coset_of(g)) == "[b b]"
    assert repr(plane.identity()) == "<e>" and repr(coset_of(plane.identity())) == "[e]"


def test_corrupted_keeps_rule_and_derivation_and_starts_fresh_caches():
    graph = CosetGraph(LINE, 3)
    alphabet = trivial_alphabet(("0", "1"), "0")
    spec = plant_cocycle(LINE, alphabet, ZmodGroup((2,)), 0, 4, graph)
    empty = empty_pattern(alphabet)
    honest = spec.factor(1, empty)
    spec.region  # built on the original only
    bad = spec.target.multiply(honest, spec.target.letter_element(1))
    copy = spec.corrupted(1, pattern_key(empty), bad)
    assert copy.rule is spec.rule and copy.derivation is spec.derivation
    assert (copy.group, copy.alphabet, copy.target, copy.window) == (
        spec.group, spec.alphabet, spec.target, spec.window
    )
    assert copy.factor(1, empty) == bad and spec.factor(1, empty) == honest
    assert copy != spec
    assert "region" not in vars(copy) and not copy._images
    assert all(not steps for steps in copy._letter_steps.values())


def test_cocycle_specs_are_unhashable():
    spec = CocycleSpec(LINE, trivial_alphabet(("0", "1"), "0"), ZmodGroup((2,)), 1)
    with pytest.raises(TypeError):
        hash(spec)
    assert spec == CocycleSpec(spec.group, spec.alphabet, spec.target, 1)
    assert spec.tables == {} and spec.rule is None and spec.derivation is None


def test_patterns_over_equal_alphabets_are_equal_keys():
    # alphabets compare by value, so a pattern made on a loaded or rebuilt
    # alphabet equals one made on the original
    cell = coset_of(LINE.letter_element(1))
    x, y = (make_pattern(trivial_alphabet(("0", "1"), "0"), {cell: "1"}) for _ in "xy")
    assert x.alphabet is not y.alphabet and x.alphabet == y.alphabet
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != make_pattern(trivial_alphabet(("0", "1", "2"), "0"), {cell: "1"})
