import random

import pytest
from test_evaluation import SETTINGS
from test_tables_golden import VARIED_SEED, assert_varies

from relend.coset_graph import BallCache, Path, build_ball, neighborhood
from relend.errors import InternalError
from relend.groups import ZdGroup, ZmodGroup, coset_cocycle, coset_of
from relend.cocycles import (
    CocycleSpec,
    constant_cocycle,
    edge_witness,
    evaluate,
    evaluate_word,
    locality_check,
    path_difference,
    pattern_key,
    plant_cocycle,
    verify_relations,
)
from relend.patterns import (
    empty_pattern,
    make_pattern,
    random_pattern,
    restrict,
    trivial_alphabet,
)
from relend.serialize import cocycle_from_json, cocycle_to_json


@pytest.fixture(scope="module", params=["grid", "quotient"])
def setting(request):
    group = ZdGroup(2, ()) if request.param == "grid" else ZdGroup(3, (0,))
    graph = build_ball(group, 10)
    alpha = trivial_alphabet(("0", "1"), "0")
    target = ZmodGroup((2,))
    cocycle = plant_cocycle(group, alpha, target, 0, 17, graph)
    return group, graph, alpha, target, cocycle


def random_walk(graph, rng, max_len=6, start_norm=3, stay_within=9):
    verts = [
        rng.choice(
            [v for v in graph.vertices_in_order() if graph.norm(v) <= start_norm]
        )
    ]
    labels = []
    for _ in range(rng.randrange(0, max_len + 1)):
        letter, w = rng.choice(graph.neighbors(verts[-1]))
        if graph.norm(w) > stay_within:
            break
        verts.append(w)
        labels.append(letter)
    return Path(tuple(verts), tuple(labels))


def test_path_factorisation_on_a_varied_planting():
    # criterion 5 (tests/test_acceptance.py) runs this check on a zd(3, [0])
    # planting at seed 32, whose b0 is constant, and so is its cocycle; at
    # VARIED_SEED b0 takes both values and c(s, y) depends on y
    group = ZdGroup(3, (0,))
    graph = build_ball(group, 10)
    alpha, target = trivial_alphabet(("0", "1"), "0"), ZmodGroup((2,))
    cocycle = plant_cocycle(group, alpha, target, 0, VARIED_SEED, graph)
    assert cocycle.window == 1
    assert_varies(cocycle)
    rng = random.Random(VARIED_SEED)
    seen = {letter: set() for letter in group.s_letters}
    for _ in range(100):
        path = random_walk(graph, rng, 6, 3, 9)
        y = random_pattern(graph, alpha, 3, rng)
        direct = target.multiply(
            evaluate(cocycle, group.invert(path.end.rep), y),
            target.invert(evaluate(cocycle, group.invert(path.start.rep), y)),
        )
        assert path_difference(cocycle, path, y) == direct
        for letter, values in seen.items():
            values.add(evaluate(cocycle, group.letter_element(letter), y))
    assert any(len(values) == 2 for values in seen.values())


def test_evaluate_identity_is_trivial(setting):
    group, graph, alpha, target, c = setting
    rng = random.Random(0)
    for _ in range(20):
        y = random_pattern(graph, alpha, 3, rng)
        assert evaluate(c, group.identity(), y).is_identity()


def test_constant_spec_evaluates_to_homomorphism(setting):
    group, graph, alpha, target, _ = setting
    images = {1: target.letter_element(1)}
    c = constant_cocycle(group, alpha, target, images)
    # the images the spec implies for the other letters
    implied = {l: target.identity() for l in group.s_letters}
    implied.update({1: images[1], -1: target.invert(images[1])})
    rng = random.Random(1)
    for _ in range(30):
        y = random_pattern(graph, alpha, 2, rng)
        g = group.element_from_word(
            [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 5))]
        )
        expected = target.identity()
        for letter in g.word:
            expected = target.multiply(expected, implied[letter])
        assert evaluate(c, g, y) == expected


def test_constant_cocycle_leaves_its_images_argument_alone(setting):
    group, graph, alpha, target, _ = setting
    a = target.letter_element(1)
    images = {1: a}
    c = constant_cocycle(group, alpha, target, images)
    assert images == {1: a}
    assert evaluate(c, group.letter_element(-1), empty_pattern(alpha)) == target.invert(a)


def test_verify_relations_planted_passes(setting):
    group, graph, alpha, target, c = setting
    report = verify_relations(c, BallCache(group), samples=15, rng=random.Random(2))
    assert report.ok and report.checked > 0


def test_verify_relations_flags_corruption(setting):
    group, graph, alpha, target, c = setting
    key = pattern_key(empty_pattern(alpha))
    honest = c.factor(1, empty_pattern(alpha))
    bad = target.multiply(honest, target.letter_element(1))
    corrupted = c.corrupted(1, key, bad)
    report = verify_relations(corrupted, BallCache(group), samples=5, rng=random.Random(3))
    assert not report.ok


def test_word_independence(setting):
    # two words for the same element agree once relations hold
    group, graph, alpha, target, c = setting
    rng = random.Random(4)
    for _ in range(200):
        w = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 5))]
        g = group.element_from_word(w)
        y = random_pattern(graph, alpha, 3, rng)
        assert evaluate_word(c, w, y) == evaluate(c, g, y)


def _as_loaded(c, graph, corrupt: bool):
    """c as ``verify`` loads it from the file ``cocycle_to_json`` emits; with
    ``corrupt``, a copy whose entry for the letter 1 on the empty window
    pattern is moved off its honest value."""
    spec = cocycle_from_json(c.group, c.alphabet, cocycle_to_json(c, graph))
    if not corrupt:
        return spec
    empty = empty_pattern(c.alphabet)
    bad = spec.target.multiply(spec.factor(1, empty), spec.target.letter_element(1))
    return spec.corrupted(1, pattern_key(empty), bad)


@pytest.mark.parametrize("spec", ["planted", "reloaded", "corrupted"])
def test_window_soundness(setting, spec):
    # perturbing outside the window never changes generator values, on the
    # planted spec, on the spec ``verify`` loads from its file and on a
    # corrupted copy of that; the verify report states this as a fact
    group, graph, alpha, target, c = setting
    if spec != "planted":
        c = _as_loaded(c, graph, corrupt=spec == "corrupted")
    rng = random.Random(5)
    outside = [
        v for v in graph.vertices_in_order() if c.window < graph.norm(v) <= 6
    ]
    for _ in range(100):
        y = random_pattern(graph, alpha, c.window, rng)
        junk = {v: "1" for v in rng.sample(outside, 3)}
        perturbed = make_pattern(alpha, {**dict(y.items()), **junk})
        for letter in group.s_letters:
            assert evaluate_word(c, (letter,), y) == evaluate_word(
                c, (letter,), perturbed
            )


def test_edge_witness_values(setting):
    group, graph, alpha, target, c = setting
    base = graph.base
    for letter, w in graph.neighbors(base):
        ew = edge_witness(base, w, letter)
        assert ew is not None
        # the witness equation: rep(w) * x^-1 == rep(base) * y * s
        lhs = group.multiply(w.rep, group.invert(ew.x))
        rhs = group.multiply(
            group.multiply(base.rep, ew.y), group.letter_element(letter)
        )
        assert lhs == rhs
        assert group.is_in_k(ew.x) and group.is_in_k(ew.y)


def test_edge_witness_bs():
    from relend.groups import BsGroup

    group = BsGroup(1, 2)
    graph = build_ball(group, 3)
    u = graph.base
    v = coset_of(group.parse_element("x T"))
    ew = edge_witness(u, v, -2, radius=1)
    assert ew is not None and ew.y == group.letter_element(1)
    missing = edge_witness(u, coset_of(group.parse_element("t t")), 2, radius=2)
    assert missing is None


def test_path_difference_matches_direct(setting):
    group, graph, alpha, target, c = setting
    rng = random.Random(6)
    for _ in range(100):
        p = random_walk(graph, rng)
        y = random_pattern(graph, alpha, 3, rng)
        via_path = path_difference(c, p, y)
        direct = target.multiply(
            evaluate(c, group.invert(p.end.rep), y),
            target.invert(evaluate(c, group.invert(p.start.rep), y)),
        )
        assert via_path == direct


def test_path_difference_length_zero(setting):
    group, graph, alpha, target, c = setting
    p = Path((graph.base,), ())
    y = empty_pattern(alpha)
    assert path_difference(c, p, y).is_identity()


def test_locality_of_path_difference(setting):
    # junk planted outside the window-neighbourhood of the path is invisible
    group, graph, alpha, target, c = setting
    rng = random.Random(7)
    for _ in range(30):
        p = random_walk(graph, rng, max_len=4, start_norm=2, stay_within=5)
        hull = neighborhood(graph, c.window, p.vertices)
        y = random_pattern(graph, alpha, 4, rng)
        far = [
            v
            for v in graph.vertices_in_order()
            if v not in hull and graph.norm(v) <= 7
        ]
        junk = {v: "1" for v in rng.sample(far, min(3, len(far)))}
        z = make_pattern(alpha, {**dict(y.items()), **junk})
        y_hull = restrict(y, hull)
        z_hull = restrict(z, hull)
        if y_hull == z_hull:
            assert locality_check(c, p, y, z)
        assert locality_check(c, p, y, y)


def test_explicit_table_must_be_total(setting):
    group, graph, alpha, target, _ = setting
    from relend.cocycles import CocycleSpec

    spec = CocycleSpec(group, alpha, target, 1, {1: {}}, None, None)
    with pytest.raises(InternalError):
        spec.factor(1, empty_pattern(alpha))


# -- letter steps --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_letter_step_is_the_generic_coset_step(name):
    # the step of a letter s from a cell c is the payload of the coset s c and
    # the symbol map of the K-correction rep(s c)^-1 * s * rep(c), on every
    # letter and cell of ball(2); both the identity shortcut and a real
    # correction are taken wherever K is nontrivial
    group, alphabet = SETTINGS[name]
    spec = CocycleSpec(group, alphabet, ZmodGroup((2,)), 1)
    corrected = 0
    for cell in build_ball(group, 2).cosets:
        for letter in group.s_letters:
            s = group.letter_element(letter)
            key, images = spec._new_step(letter, cell.rep.payload)
            assert key == coset_of(group.multiply(s, cell.rep)).rep.payload
            k = coset_cocycle(s, cell)
            assert images == {x: alphabet.apply(group, k, x) for x in alphabet.symbols}
            corrected += not k.is_identity()
    assert corrected > 0 or not group.t_letters


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_letter_step_refuses_a_correction_outside_k(name, monkeypatch):
    # every coset canonicalised to the base coset: a step off the base cell
    # by a letter outside K then has that letter as its correction
    group, alphabet = SETTINGS[name]
    spec = CocycleSpec(group, alphabet, ZmodGroup((2,)), 1)
    one = group.identity().payload
    monkeypatch.setattr(group, "_coset_rep_payload", lambda a: one)
    letter = next(l for l in group.s_letters if l not in group.t_letters)
    with pytest.raises(InternalError):
        spec._new_step(letter, one)
