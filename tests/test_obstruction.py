import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import relend.obstruction
from oracle_utils import direct_boundary, sign_of, word_boundary
from relend.coset_graph import BallCache
from relend.errors import NoStabilizationError, SearchSpaceTooLargeError
from relend.groups import (
    BsGroup,
    CosetId,
    FreeGroup,
    GroupElement,
    ProductGroup,
    ZdGroup,
    ZmodGroup,
    coset_of,
    witness,
)
from relend.obstruction import (
    AlmostInvariantSet,
    _prove_identity,
    _sign,
    _sign_table,
    bounded_coboundary_search,
    builtin_set,
    generator_boundaries,
    planted_finite_set,
    rho_forcing_check,
    sign_alphabet,
    sign_cocycle,
    sign_cocycle_spec,
    verify_sign_identity,
)
from relend.patterns import make_pattern, random_pattern


@pytest.fixture(scope="module")
def line():
    group = ZdGroup(1, ())
    return group, BallCache(group), builtin_set(group, "halfline")


@pytest.fixture(scope="module")
def tree():
    group = FreeGroup(2)
    return group, BallCache(group), builtin_set(group, "aprefix")


def names(group, cells):
    return sorted(group.word_str(c.rep) or "e" for c in cells)


def test_line_boundary_singletons(line):
    group, cache, region = line
    b = generator_boundaries(cache, region, 8)
    assert names(group, b[1]) == ["e"]
    assert names(group, b[-1]) == ["A"]


def test_boundary_requires_stability():
    group = FreeGroup(2)
    cache = BallCache(group)
    # words whose first letter is the generator a: differences keep growing
    prefix = AlmostInvariantSet("prefix", lambda p: group.codes(p)[:1] == (2,))
    with pytest.raises(NoStabilizationError):
        generator_boundaries(cache, prefix, 5)


def test_generator_with_invariant_set(line):
    group, cache, region = line
    # a K generator cannot appear in zd(1) trivial K, so plant an invariant set
    whole = AlmostInvariantSet("all", lambda c: True)
    assert generator_boundaries(cache, whole, 6)[1] == frozenset()


def test_tree_boundaries(tree):
    group, cache, region = tree
    b = generator_boundaries(cache, region, 6)
    assert names(group, b[1]) == ["a"]
    assert names(group, b[-1]) == ["e"]
    assert b[2] == b[-2] == frozenset()


def test_word_boundary_matches_direct(line):
    group, cache, region = line
    b = generator_boundaries(cache, region, 10)
    rng = random.Random(0)
    for _ in range(60):
        w = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 5))]
        g = group.element_from_word(w)
        assert word_boundary(group, b, w) == direct_boundary(cache, region, g, 10)


def test_word_boundary_matches_direct_tree(tree):
    group, cache, region = tree
    b = generator_boundaries(cache, region, 7)
    rng = random.Random(1)
    for _ in range(40):
        w = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 4))]
        g = group.element_from_word(w)
        assert word_boundary(group, b, w) == direct_boundary(cache, region, g, 7)


def test_sign_values(line):
    group, cache, region = line
    b = generator_boundaries(cache, region, 8)
    alpha = sign_alphabet()
    plus = make_pattern(alpha, {})
    for letter in group.s_letters:
        assert sign_cocycle(group, b, group.letter_element(letter), plus) == 1
    y = make_pattern(alpha, {coset_of(group.element_from_word([-1])): "-1"})
    assert sign_cocycle(group, b, group.letter_element(1), y) == -1
    assert sign_cocycle(group, b, group.identity(), y) == 1


def test_sign_identity_many_triples(line):
    group, cache, region = line
    check = verify_sign_identity(
        cache, generator_boundaries(cache, region, 10), 500, random.Random(2)
    )
    assert check.violations == 0 and check.trials == 500


def test_sign_identity_tree(tree):
    group, cache, region = tree
    check = verify_sign_identity(
        cache, generator_boundaries(cache, region, 6), 150, random.Random(3),
        max_word=3,
    )
    assert check.violations == 0


def test_parity_oracle_per_candidate(line):
    # any finite candidate has an even difference with its shift, but the
    # half-line boundary is a singleton, so no candidate can ever match
    group, cache, region = line
    graph = cache.at_least(13)
    rng = random.Random(4)
    shift = group.letter_element(1)
    for _ in range(200):
        cells = rng.sample(graph.cosets, rng.randrange(0, 10))
        candidate = frozenset(cells)
        shifted = frozenset(coset_of(group.multiply(shift, c.rep)) for c in candidate)
        assert len(candidate ^ shifted) % 2 == 0


def test_search_none_found_on_line(line):
    group, cache, region = line
    out = bounded_coboundary_search(cache, region, 12, cap=32)
    assert not out.found


def test_search_cap_guard(line):
    group, cache, region = line
    with pytest.raises(SearchSpaceTooLargeError):
        bounded_coboundary_search(cache, region, 12, cap=22)


def test_search_finds_planted_control(line):
    group, cache, region = line
    cache.at_least(13)
    planted = frozenset(
        coset_of(group.element_from_word([1] * k)) for k in (0, 1, 3)
    )
    control = planted_finite_set(planted)
    out = bounded_coboundary_search(cache, control, 12, cap=32)
    assert out.found and out.witness == planted


def test_search_none_found_on_tree(tree):
    group, cache, region = tree
    out = bounded_coboundary_search(cache, region, 4, cap=200)
    assert not out.found


def test_search_finds_planted_control_tree(tree):
    group, cache, region = tree
    cache.at_least(5)
    planted = frozenset(
        coset_of(group.parse_element(w)) for w in ("", "a", "b A")
    )
    out = bounded_coboundary_search(cache, planted_finite_set(planted), 4, cap=200)
    assert out.found and out.witness == planted


def test_rho_forcing_reports(line):
    group, cache, region = line
    report = rho_forcing_check(cache, region, 12, seed=5, identity_trials=50, cap=32)
    assert report.ok
    assert report.verdict() == "non-coboundary up to radius 12"
    planted = planted_finite_set(frozenset({coset_of(group.identity())}))
    control = rho_forcing_check(cache, planted, 8, seed=5, identity_trials=20, cap=32)
    assert control.verdict() == "trivial (witness B found)"


def test_sign_cocycle_spec_is_a_cocycle(line):
    group, cache, region = line
    spec = sign_cocycle_spec(cache, region, 8)
    from relend.cocycles import verify_relations

    graph = cache.at_least(8)
    assert verify_relations(spec, cache, samples=10, rng=random.Random(6)).ok
    # spec evaluation matches the direct sign computation
    from relend.cocycles import evaluate

    b = generator_boundaries(cache, region, 8)
    rng = random.Random(7)
    for _ in range(50):
        y = random_pattern(graph, sign_alphabet(), 3, rng)
        w = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 4))]
        g = group.element_from_word(w)
        expected = sign_cocycle(group, b, g, y)
        got = evaluate(spec, g, y)
        assert (expected == 1) == got.is_identity()


# -- an oracle for the coboundary search: every subset of the ball ------------
# The brute force below shares no code with the solver: it builds the balls
# from the witness sets by group arithmetic (an edge joins cK to c f K for f
# in F_s, which is right multiplication by s only when K is trivial) and the
# equations B(v) xor B(s^-1 v) = [v in A xor sA] from group.multiply,
# coset_of and region.member alone.


def _oracle_ball(group, radius):
    """The cosets within ``radius`` edges of the base, breadth first."""
    ball = [coset_of(group.identity())]
    frontier = list(ball)
    steps = [f for letter in group.s_letters for f in witness(group, letter).elements]
    for _ in range(radius):
        nxt = []
        for c in frontier:
            for f in steps:
                d = coset_of(group.multiply(c.rep, f))
                if d not in ball and d not in nxt:
                    nxt.append(d)
        ball += nxt
        frontier = nxt
    return ball


def _brute_force_witness(group, region, ordered):
    """The least B (id 0 most significant) solving every equation, or None.

    Every equation with an end in the ball is v -> s^-1 v for v in the ball
    or in s * ball; B is 0 outside the ball.  Among the solutions, the least
    one is the one that puts the smallest id of each free component at 0.
    """
    n = len(ordered)
    bit = {c: 1 << (n - 1 - i) for i, c in enumerate(ordered)}
    equations = []
    for letter in group.s_letters:
        s, s_inv = group.letter_element(letter), group.letter_element(-letter)
        for u in ordered:
            for v in (u, coset_of(group.multiply(s, u.rep))):
                w = coset_of(group.multiply(s_inv, v.rep))
                parity = region.member(v.rep.payload) != region.member(w.rep.payload)
                equations.append((bit.get(v, 0), bit.get(w, 0), parity))
    for mask in range(2**n):
        if all(
            (bool(mask & bv) != bool(mask & bw)) == parity
            for bv, bw, parity in equations
        ):
            return frozenset(c for c in ordered if mask & bit[c])
    return None


def _walk_closes(ends, start):
    here = start
    for v, w in ends:
        if here != v and here != w:
            return False
        here = w if here == v else v
    return here == start


def assert_certificate(cache, region, radius, outcome):
    """Re-derive every equation of an odd cycle by group arithmetic."""
    if outcome.found:
        assert outcome.cycle is None
        return
    group = cache.group
    inside = cache.at_least(radius).ball_set(radius)
    ends = []
    for v, letter, w, parity in outcome.cycle:
        moved = coset_of(group.multiply(group.letter_element(-letter), v.rep))
        assert v in inside
        if w is None:
            assert moved not in inside
        else:
            assert w == moved and w in inside
        assert parity == (
            region.member(v.rep.payload) != region.member(moved.rep.payload)
        )
        ends.append((v, w))
    assert sum(p for *_, p in outcome.cycle) % 2 == 1
    # a cycle inside the ball has even parity, so an odd one leaves it
    assert any(w is None for _, _, w, _ in outcome.cycle)
    # a closed walk, every outside end (None) being one vertex
    assert any(_walk_closes(ends, start) for start in ends[0])


def _xor_set(base, planted):
    payloads = {c.rep.payload for c in planted}
    return AlmostInvariantSet("xor", lambda p: base.member(p) != (p in payloads))


@pytest.mark.parametrize(
    "group,builtin,radii",
    [
        (ZdGroup(1, ()), "halfline", (1, 2, 3, 4)),
        (FreeGroup(2), "aprefix", (1,)),
        (ZmodGroup((5,)), None, (1, 2)),
        # infinite and not bipartite: the Z/3 factor closes triangles
        (ProductGroup(ZdGroup(1, ()), ZmodGroup((3,))), None, (1, 2)),
        # K = <x> is not normal; ball(3) has 22 cosets, too many to brute-force
        (BsGroup(1, 2), None, (1, 2)),
    ],
    ids=["zd1", "free2", "zmod5", "zd1xzmod3", "bs12"],
)
def test_search_matches_brute_force(group, builtin, radii):
    rng = random.Random(9)
    cache = BallCache(group)
    for radius in radii:
        ball = _oracle_ball(group, radius)
        ordered = cache.at_least(radius).cosets[: len(ball)]
        assert set(ordered) == set(ball)
        inner = _oracle_ball(group, radius - 1)
        planted = [frozenset(rng.sample(inner, rng.randrange(len(inner) + 1)))
                   for _ in range(6)]
        regions = [planted_finite_set(p) for p in planted]
        if builtin:
            base = builtin_set(group, builtin)
            regions += [base] + [_xor_set(base, p) for p in planted[:3]]
        for region in regions:
            out = bounded_coboundary_search(cache, region, radius, cap=len(ball))
            assert out.witness == _brute_force_witness(group, region, ordered)
            assert_certificate(cache, region, radius, out)
            if builtin:  # an infinite group: every component meets the outside
                assert out.decisions == 0


def test_search_on_a_finite_graph_fixes_the_gauge_at_the_base():
    # Z/5: ball(2) is the whole group, so nothing is pinned outside and the
    # one component is coloured from id 0, the base coset, set to 0
    group = ZmodGroup((5,))
    cache = BallCache(group)
    base = coset_of(group.identity())
    out = bounded_coboundary_search(cache, planted_finite_set({base}), 2, cap=5)
    powers = {coset_of(group.element_from_word([1] * k)) for k in range(1, 5)}
    assert out.witness == frozenset(powers)
    assert out.decisions >= 1 and out.cycle is None
    ordered = cache.at_least(2).cosets[:5]
    assert out.witness == _brute_force_witness(
        group, planted_finite_set({base}), ordered
    )


@pytest.mark.parametrize(
    "group,set_name,radius",
    [
        (ZdGroup(1, ()), "halfline", 12),
        (ZdGroup(1, ()), "halfline", 27),
        (ZdGroup(1, ()), "halfline", 40),
        (ZdGroup(2, (0,)), "halfline", 12),
        (FreeGroup(2), "aprefix", 4),
        (FreeGroup(2), "aprefix", 5),
    ],
)
def test_failing_searches_carry_a_checkable_odd_cycle(group, set_name, radius):
    cache = BallCache(group)
    region = builtin_set(group, set_name)
    cap = cache.at_least(radius).ball_size(radius)
    out = bounded_coboundary_search(cache, region, radius, cap=cap)
    assert not out.found and out.cycle
    assert_certificate(cache, region, radius, out)


@pytest.mark.parametrize(
    "group", [ZdGroup(1, ()), ZdGroup(2, (0,))], ids=["zd1", "zd2k0"]
)
def test_sign_identity_counts_violations_of_a_broken_difference_set(group):
    # negative control: with {e} xored into one letter's set the letter sets
    # no longer come from one almost-invariant set, and the sampler must see it
    cache = BallCache(group)
    boundaries = generator_boundaries(cache, builtin_set(group, "halfline"), 6)
    base = coset_of(group.identity())
    for letter in group.s_letters:
        broken = {**boundaries, letter: boundaries[letter] ^ {base}}
        check = verify_sign_identity(cache, broken, 300, random.Random(7))
        assert check.trials == 300 and check.violations > 0, letter


@pytest.mark.parametrize("fixture, radius, cap", [("line", 10, 32), ("tree", 4, 161)])
def test_one_forcing_check_evaluates_each_membership_once(
    request, fixture, radius, cap
):
    # one pass serves the report, the sign identity and the search: it tests
    # each vertex of ball(radius + 1) once, and each translate s^-1 v that
    # leaves that ball once more, and nothing else
    group, _, region = request.getfixturevalue(fixture)
    seen = []

    def counting(p):
        seen.append(p)
        return region.member(p)

    cache = BallCache(group)
    report = rho_forcing_check(
        cache, AlmostInvariantSet(region.name, counting), radius, seed=1, cap=cap
    )
    assert report.search is not None and not report.search.found
    inside = cache.at_least(radius + 1).ball_set(radius + 1)
    leaving = [
        moved
        for v in inside
        for letter in group.s_letters
        if (moved := coset_of(group.multiply(group.letter_element(-letter), v.rep)))
        not in inside
    ]
    assert leaving and Counter(seen) == Counter(
        c.rep.payload for c in [*inside, *leaving]
    )


@pytest.mark.parametrize(
    "group,builtin,radius",
    [
        (ZdGroup(1, ()), "halfline", 6),
        (ZdGroup(2, (0,)), "halfline", 3),
        (FreeGroup(2), "aprefix", 3),
        (BsGroup(1, 2), None, 3),
    ],
    ids=["zd1", "zd2k0", "free2", "bs12"],
)
def test_membership_sees_only_payloads_of_the_ball_and_its_translates(
    group, builtin, radius
):
    # bs12 has no built-in set: a finite one, planted in ball(1)
    cache = BallCache(group)
    if builtin:
        region = builtin_set(group, builtin)
    else:
        region = planted_finite_set(cache.at_least(1).cosets[1:3])
    seen = []

    def recording(p):
        seen.append(p)
        return region.member(p)

    cap = cache.at_least(radius + 1).ball_size(radius)
    rho_forcing_check(cache, AlmostInvariantSet(region.name, recording), radius, cap=cap)
    graph = cache.at_least(radius + 1)
    ball = graph.payloads[: graph.ball_size(radius + 1)]
    translates = {
        group._left_step(letter)(p) for p in ball for letter in group.s_letters
    }
    assert seen and not any(isinstance(p, CosetId) for p in seen)
    assert all(p in graph.index or p in translates for p in seen)


def test_forcing_check_makes_cosets_only_for_the_ball_it_searches(tree):
    # the pass reads ball(5) on payloads; the sets it returns lie in ball(4)
    group, _, region = tree
    cache = BallCache(group)
    report = rho_forcing_check(cache, region, 4, cap=161)
    graph = cache.at_least(0)
    assert report.search is not None and graph.radius == 5
    assert len(graph._made) <= graph.ball_size(4) == 161


# -- the id-level pass against the coset-level oracle ------------------------


def _oracle_boundaries(cache, region, radius):
    """direct_boundary per letter, with the stability check of the pass."""
    out = {}
    for letter in cache.group.s_letters:
        g = cache.group.letter_element(letter)
        cells = direct_boundary(cache, region, g, radius)
        graph = cache.at_least(radius)
        if any(graph.norm(c) >= radius for c in cells):
            raise NoStabilizationError(
                f"difference set for letter {letter} still grows at radius {radius}"
            )
        out[letter] = cells
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NoStabilizationError as err:
        return ("raised", str(err))


EQUIVALENCE_GROUPS = [
    (ZdGroup(1, ()), "halfline"),
    (ZdGroup(2, (0,)), "halfline"),
    (FreeGroup(2), "aprefix"),
    (ZmodGroup((5,)), None),
    (BsGroup(1, 2), None),
    (ProductGroup(ZdGroup(1, ()), ZmodGroup((3,))), None),
]


@pytest.mark.parametrize(
    "group,builtin", EQUIVALENCE_GROUPS,
    ids=["zd1", "zd2k0", "free2", "zmod5", "bs12", "zd1xzmod3"],
)
def test_generator_boundaries_match_the_coset_oracle(group, builtin):
    rng = random.Random(11)
    cache = BallCache(group)
    graph = cache.at_least(4)
    planted = []
    for _ in range(8):
        top = graph.ball_size(rng.randrange(0, 4))
        cells = rng.sample(graph.cosets[:top], rng.randrange(top + 1))
        planted.append(frozenset(cells))
    regions = [planted_finite_set(p) for p in planted]
    if builtin:
        base = builtin_set(group, builtin)
        regions += [base] + [_xor_set(base, p) for p in planted[:3]]
    raised = 0
    for region in regions:
        for radius in range(0, 5):
            ours = _outcome(generator_boundaries, BallCache(group), region, radius)
            theirs = _outcome(_oracle_boundaries, BallCache(group), region, radius)
            assert ours == theirs, (region.name, radius)
            raised += isinstance(ours, tuple)
    assert 0 < raised < len(regions) * 5


def test_pointwise_sign_cocycle_matches_the_word_boundary(line, tree):
    rng = random.Random(12)
    for group, cache, region in (line, tree):
        b = generator_boundaries(cache, region, 6)
        graph = cache.at_least(6)
        base = coset_of(group.identity())
        for trial in range(200):
            # every fourth trial on sets that no longer come from one A
            sets = b
            if trial % 4 == 3:
                sets = {**b, 1: b[1] ^ {base}}
            y = random_pattern(graph, sign_alphabet(), 3, rng)
            w = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 6))]
            g = group.element_from_word(w)
            expected = sign_of(y, word_boundary(group, sets, group.invert(g).word))
            assert sign_cocycle(group, sets, g, y) == expected


@pytest.mark.parametrize(
    "group,set_name,radii",
    [
        (ZdGroup(1, ()), "halfline", (2, 5, 12)),
        (ZdGroup(2, (0,)), "halfline", (2, 6)),
        (FreeGroup(2), "aprefix", (2, 3, 4)),
    ],
    ids=["zd1", "zd2k0", "free2"],
)
def test_forcing_check_search_equals_the_standalone_search(group, set_name, radii):
    # the job's search reads the ball(R) pass plus sphere R + 1; the
    # standalone search makes its own pass over ball(R + 1)
    region = builtin_set(group, set_name)
    for radius in radii:
        cap = BallCache(group).at_least(radius).ball_size(radius)
        report = rho_forcing_check(BallCache(group), region, radius, seed=2, cap=cap)
        alone = bounded_coboundary_search(BallCache(group), region, radius, cap=cap)
        assert report.search == alone


def test_forcing_check_error_order(monkeypatch):
    # the a-tail set of F_2 moved right by b^(R+1): its difference sets are
    # {a b^(R+1)} and {b^(R+1)}, stable at R but not at R + 1, which the
    # check reports only after the cap and after the identity proof
    proofs = []

    def proof(*args):
        proofs.append(args)
        return _prove_identity(*args)

    monkeypatch.setattr(relend.obstruction, "_prove_identity", proof)
    group = FreeGroup(2)
    radius = 3
    shift = group.invert(group.element_from_word([2] * (radius + 1)))

    def member(p):
        payload = group.multiply(GroupElement(group, p), shift).payload
        return group.codes(payload)[-1:] == (2,)

    moved = AlmostInvariantSet("moved", member)
    cap = BallCache(group).at_least(radius).ball_size(radius)
    late = f"letter -1 still grows at radius {radius + 1}"
    with pytest.raises(NoStabilizationError, match=late):
        rho_forcing_check(BallCache(group), moved, radius, cap=cap)
    assert len(proofs) == 1
    with pytest.raises(SearchSpaceTooLargeError):
        rho_forcing_check(BallCache(group), moved, radius, cap=cap - 1)
    assert len(proofs) == 1
    # unstable at R itself: reported before the cap
    with pytest.raises(NoStabilizationError, match=f"radius {radius + 1}"):
        rho_forcing_check(BallCache(group), moved, radius + 1, cap=1)


def test_forcing_check_refuses_the_cap_before_any_identity_trial(monkeypatch):
    def trials(*args, **kwargs):
        raise AssertionError("sign-identity trials ran before the cap check")

    def proof(*args):
        raise AssertionError("the sign-identity proof ran before the cap check")

    monkeypatch.setattr(relend.obstruction, "verify_sign_identity", trials)
    monkeypatch.setattr(relend.obstruction, "_prove_identity", proof)
    group, radius = FreeGroup(2), 4
    cache = BallCache(group)
    cap = cache.at_least(radius).ball_size(radius) - 1
    region = builtin_set(group, "aprefix")
    with pytest.raises(SearchSpaceTooLargeError, match=f"cap {cap}$"):
        rho_forcing_check(cache, region, radius, identity_trials=20000, cap=cap)


# -- the sign walk on ids against walks on payloads ---------------------------

SIGN_CASES = [
    (ZdGroup(1, ()), "halfline", 6),
    (ZdGroup(2, (0,)), "halfline", 6),
    (FreeGroup(2), "aprefix", 5),
]
SIGN_IDS = ["zd1", "zd2k0", "free2"]


def _payload_sign(group, sets, word, cells):
    """The pointwise parity by group arithmetic alone: each cell is tested
    against c(l) and moved by l^-1 with a product and a canonical rep."""
    mul, rep = group._mul_payload, group._coset_rep_payload
    odd = False
    for x in cells:
        for letter in word:
            odd ^= any(c.rep.payload == x for c in sets[letter])
            x = rep(mul(group.letter_element(-letter).payload, x))
    return -1 if odd else 1


@pytest.mark.parametrize("group,set_name,radius", SIGN_CASES, ids=SIGN_IDS)
def test_sign_walk_equals_group_arithmetic_on_cells_that_leave_the_ball(
    group, set_name, radius
):
    # cells drawn from a graph of exactly the cells' norm, so words of
    # length 8 carry most of them out of it
    max_norm = 3
    b = generator_boundaries(BallCache(group), builtin_set(group, set_name), radius)
    graph = BallCache(group).at_least(max_norm)
    assert graph.radius == max_norm
    base = coset_of(group.identity())
    rng = random.Random(13)
    left = 0
    for trial in range(150):
        sets = b if trial % 2 else {**b, 1: b[1] ^ {base}}
        ids = rng.sample(range(graph.vertex_count()), rng.randrange(0, 7))
        word = [rng.choice(group.s_letters) for _ in range(8)]
        cells = [graph.payloads[v] for v in ids]
        expected = _payload_sign(group, sets, word, cells)
        assert _sign(_sign_table(group, sets), word, cells) == expected
        for v in ids:
            p = graph.payloads[v]
            for letter in word:
                p = group._left_step(-letter)(p)
                left += p not in graph.index
    assert left > 100


def _pattern_identity_trials(cache, boundaries, trials, rng, max_word=4, max_norm=3):
    """The sign-identity sampler on patterns: y from random_pattern, then the
    two words, with every sign by group arithmetic; the reference for the
    draws verify_sign_identity makes on graph ids."""
    group = cache.group
    graph = cache.at_least(max_norm)
    mul, rep = group._mul_payload, group._coset_rep_payload
    bad = 0
    for _ in range(trials):
        y = random_pattern(graph, sign_alphabet(), max_norm, rng)
        w1 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, max_word + 1))]
        w2 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, max_word + 1))]
        g1, g2 = group.element_from_word(w1), group.element_from_word(w2)
        cells = [c.rep.payload for c, s in y.items() if s == "-1"]
        moved = [rep(mul(g2.payload, x)) for x in cells]
        lhs = _payload_sign(
            group, boundaries, group.invert(group.multiply(g1, g2)).word, cells
        )
        rhs = _payload_sign(group, boundaries, group.invert(g1).word, moved) * (
            _payload_sign(group, boundaries, group.invert(g2).word, cells)
        )
        bad += lhs != rhs
    return bad


@pytest.mark.parametrize("group,set_name,radius", SIGN_CASES, ids=SIGN_IDS)
def test_sign_identity_draws_what_the_pattern_sampler_drew(group, set_name, radius):
    # the broken-set negative control, seed by seed: the same violation
    # counts and the same rng state afterwards pin the stream of draws; on
    # the tree a cell meets the broken cell {e} rarely, so not every seed
    # sees a violation
    cache = BallCache(group)
    boundaries = generator_boundaries(cache, builtin_set(group, set_name), radius)
    broken = {**boundaries, 1: boundaries[1] ^ {coset_of(group.identity())}}
    counts = []
    for seed in range(10):
        ours, theirs = random.Random(seed), random.Random(seed)
        check = verify_sign_identity(cache, broken, 60, ours)
        assert check.violations == _pattern_identity_trials(cache, broken, 60, theirs)
        assert ours.getstate() == theirs.getstate()
        counts.append(check.violations)
    assert any(counts)


@pytest.mark.parametrize("group,set_name,radius", SIGN_CASES, ids=SIGN_IDS)
@pytest.mark.parametrize(
    "max_word, max_norm", [(0, 3), (3, 3), (4, 1)], ids=["w0", "w3", "n1"]
)
def test_sign_identity_draws_the_pattern_stream_with_any_letter_broken(
    group, set_name, radius, max_word, max_norm
):
    # the same comparison with {e} xored into each letter's set in turn, at
    # word bounds 0 and 3, and on ball(1): its at most 6 cells cap the
    # count draw, and random.sample takes its pool branch there, where
    # free(2) at max_norm 3 takes its set branch; zero trials must draw
    # nothing at all
    cache = BallCache(group)
    boundaries = generator_boundaries(cache, builtin_set(group, set_name), radius)
    base = coset_of(group.identity())
    counts = []
    for letter in group.s_letters:
        broken = {**boundaries, letter: boundaries[letter] ^ {base}}
        for seed, trials in ((0, 0), (1, 60), (2, 60), (3, 60)):
            ours, theirs = random.Random(seed), random.Random(seed)
            before = ours.getstate()
            check = verify_sign_identity(
                cache, broken, trials, ours, max_word, max_norm
            )
            assert check.trials == trials
            assert check.violations == _pattern_identity_trials(
                cache, broken, trials, theirs, max_word, max_norm
            ), (letter, seed)
            assert ours.getstate() == theirs.getstate()
            if not trials:
                assert check.violations == 0 and ours.getstate() == before
            counts.append(check.violations)
    assert any(counts) == (max_word > 0)


def test_sign_identity_refuses_a_negative_trial_count(line):
    group, cache, region = line
    b = generator_boundaries(cache, region, 6)
    with pytest.raises(ValueError, match="trials must be nonnegative"):
        verify_sign_identity(cache, b, -1, random.Random(0))


# -- c(w) as a memoised set of payloads ----------------------------------------


@pytest.mark.parametrize("group,set_name,radius", SIGN_CASES, ids=SIGN_IDS)
def test_a_shared_sign_table_answers_as_fresh_tables_do(group, set_name, radius):
    # one table serves words in any order, repeats among them, on the sets
    # of one A and on a broken set; each answer must be what a table made
    # for that call alone gives
    b = generator_boundaries(BallCache(group), builtin_set(group, set_name), radius)
    graph = BallCache(group).at_least(3)
    broken = {**b, 1: b[1] ^ {coset_of(group.identity())}}
    rng = random.Random(14)
    for sets in (b, broken):
        shared = _sign_table(group, sets)
        words = [
            tuple(rng.choice(group.s_letters) for _ in range(rng.randrange(0, 7)))
            for _ in range(40)
        ]
        for word in words + words[::-1]:
            ids = rng.sample(range(graph.vertex_count()), rng.randrange(0, 7))
            cells = [graph.payloads[v] for v in ids]
            assert _sign(shared, word, cells) == _sign(_sign_table(group, sets), word, cells)
            assert shared(list(word)) is shared(word)


@pytest.mark.parametrize("group,set_name,radius", SIGN_CASES, ids=SIGN_IDS)
def test_a_repeated_cell_counts_twice(group, set_name, radius):
    sets = generator_boundaries(BallCache(group), builtin_set(group, set_name), radius)
    table = _sign_table(group, sets)
    hits = 0
    for letter in group.s_letters:
        for c in sets[-letter]:
            # the cell lies in c(letter^-1): once flips the sign, twice does not
            x, word = c.rep.payload, (-letter,)
            for cells in ([x], [x, x], [x, x, x]):
                expected = _payload_sign(group, sets, word, cells)
                assert _sign(table, word, cells) == expected
            assert _sign(table, word, [x]) == -_sign(table, word, [x, x]) == -1
            hits += 1
    assert hits


def test_a_long_free_word_agrees_with_group_arithmetic(tree):
    # c(w) of an unreduced word of 1,000 letters, cell by cell: cells of
    # the ball, which mostly miss it, and cells the table puts in it
    group, cache, region = tree
    sets = generator_boundaries(cache, region, 5)
    graph = cache.at_least(3)
    rng = random.Random(15)
    word = [rng.choice(group.s_letters) for _ in range(1000)]
    table = _sign_table(group, sets)
    inside = sorted(table(word))
    assert len(inside) > 100
    cells = [graph.payloads[v] for v in rng.sample(range(graph.vertex_count()), 16)]
    cells += rng.sample(inside, 8)
    signs = [_sign(table, word, [x]) for x in cells]
    assert signs == [_payload_sign(group, sets, word, [x]) for x in cells]
    assert {-1, 1} <= set(signs)
    assert _sign(table, word, cells) == _payload_sign(group, sets, word, cells)


# -- the sign identity proved on relators and inverse pairs -------------------
# c'(gh, y) = c'(g, hy) c'(h, y) for all g, h, y exactly when c(w) is empty
# on every relator word and every pair (s, s^-1).  The forcing check proves
# that and runs the trials only when the proof fails; these tests hold the
# proof against the sampler and against the identity by group arithmetic.

PROOF_CASES = [
    (ZdGroup(1, ()), "halfline", 6),
    (ZdGroup(2, (0,)), "halfline", 6),
    (FreeGroup(2), "aprefix", 4),
    # finite sets on groups with relators: bs(1,2)'s T x t X X, and with it
    # the product's commutators
    (BsGroup(1, 2), None, 3),
    (ProductGroup(BsGroup(1, 2), ZdGroup(1, ())), None, 3),
]
PROOF_IDS = ["zd1", "zd2k0", "free2", "bs12", "bs12xz"]


def _proof_region(group, set_name):
    """The built-in set, or a finite set of ball(1) cosets, stable at 3 and 4."""
    if set_name:
        return builtin_set(group, set_name)
    graph = BallCache(group).at_least(1)
    return planted_finite_set(graph.cosets[1 : graph.ball_size(1)])


def _checked_words(group):
    """The relators, then (s, s^-1) for every letter s, as the proof orders them."""
    return [*group.relator_words(), *((s, -s) for s in group.s_letters)]


def _violates(group, sets, g, h, x):
    """Whether y with the one minus cell x breaks c'(gh, y) = c'(g, hy)
    c'(h, y), every sign by group arithmetic (``_payload_sign``)."""
    moved = group._coset_rep_payload(group._mul_payload(h.payload, x))
    lhs = _payload_sign(group, sets, group.invert(group.multiply(g, h)).word, [x])
    rhs = _payload_sign(group, sets, group.invert(g).word, [moved])
    return lhs != rhs * _payload_sign(group, sets, group.invert(h).word, [x])


def _candidates(group, sets, g, h):
    """The cells either side of the identity at (g, h) can read: c((gh)^-1),
    c(h^-1) and h^-1 c(g^-1), assembled by ``word_boundary``."""
    h_inv = group.invert(h)
    moved = {
        coset_of(group.multiply(h_inv, c.rep))
        for c in word_boundary(group, sets, group.invert(g).word)
    }
    gh_inv = group.invert(group.multiply(g, h))
    return (
        word_boundary(group, sets, gh_inv.word)
        | word_boundary(group, sets, h_inv.word)
        | moved
    )


def _violating_triple(group, sets, word):
    """A (g, h, x) breaking the identity, read off a word that is the
    identity of G with c(word) not empty.  With C(k) = c of the normal form
    of k, c(word) is the xor of p c(l) over the prefixes p and letters l, and
    C(word) is empty; so C(p l) = C(p) xor p c(l) fails at some step, which
    is the identity at g = l^-1, h = p^-1."""
    p = group.identity()
    for letter in word:
        g, h = group.invert(group.letter_element(letter)), group.invert(p)
        for x in _candidates(group, sets, g, h):
            if _violates(group, sets, g, h, x.rep.payload):
                return g, h, x
        p = group.multiply(p, group.letter_element(letter))
    return None


def _left_ball(group, radius, key):
    """The distinct ``key(g)`` over the elements g of word length <= radius,
    made breadth first by left multiplication with the letters: the
    elements themselves, or their cosets."""
    seen, frontier = {key(group.identity())}, [group.identity()]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for s in group.s_letters:
                h = group.multiply(group.letter_element(s), g)
                if key(h) not in seen:
                    seen.add(key(h))
                    nxt.append(h)
        frontier = nxt
    return list(seen)


def _identity_violation(group, sets):
    """A violation at any g among the letters and any h of length below the
    longest checked word, the range every refuted word has one in."""
    longest = max(map(len, _checked_words(group)))
    letters = [group.letter_element(s) for s in group.s_letters]
    for h in _left_ball(group, longest - 1, lambda g: g):
        for g in letters:
            for x in _candidates(group, sets, g, h):
                if _violates(group, sets, g, h, x.rep.payload):
                    return g, h, x
    return None


def _forcing_check_on(sets, *args, **kwargs):
    """``rho_forcing_check`` with ``sets`` in place of its certified sets
    in ball(radius); the search and the R + 1 certificate are unchanged."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relend.obstruction, "_stable", lambda *_: sets)
        return rho_forcing_check(*args, **kwargs)


@pytest.mark.parametrize("group,set_name,radius", PROOF_CASES, ids=PROOF_IDS)
def test_the_forcing_check_identity_equals_the_samplers(group, set_name, radius):
    # intact sets, seeds 0-9, 0, 60 and 200 trials: the report states the
    # count the sampler draws on the same sets and seed, with its 0 violations
    cache, region = BallCache(group), _proof_region(group, set_name)
    cap = cache.at_least(radius).ball_size(radius)
    sets = generator_boundaries(cache, region, radius)
    for seed in range(10):
        for trials in (0, 60, 200):
            report = rho_forcing_check(
                cache, region, radius, seed=seed, identity_trials=trials, cap=cap
            )
            sampled = verify_sign_identity(cache, sets, trials, random.Random(seed))
            assert report.ok and sampled == (report.trials, 0), (seed, trials)
            line = f"identity check: {trials} trials, 0 violations"
            assert line in report.lines(group)


@pytest.mark.parametrize("group,set_name,radius", PROOF_CASES, ids=PROOF_IDS)
def test_each_refuted_word_gives_a_violating_triple(group, set_name, radius):
    sets = generator_boundaries(BallCache(group), _proof_region(group, set_name), radius)
    intact = _prove_identity(group, sets)
    assert intact == (len(group.relator_words()), len(group.s_letters), None)
    base = coset_of(group.identity())
    for letter in group.s_letters:
        broken = {**sets, letter: sets[letter] ^ {base}}
        refuted = [
            (w, len(cells))
            for w in _checked_words(group)
            if (cells := word_boundary(group, broken, w))
        ]
        assert refuted and _prove_identity(group, broken).failure == refuted[0]
        for word, _ in refuted:
            g, h, x = _violating_triple(group, broken, word)
            assert _violates(group, broken, g, h, x.rep.payload), (letter, word)


@pytest.mark.parametrize("group,set_name,radius", PROOF_CASES, ids=PROOF_IDS)
def test_no_triple_violates_the_identity_on_intact_sets(group, set_name, radius):
    sets = generator_boundaries(BallCache(group), _proof_region(group, set_name), radius)
    assert _identity_violation(group, sets) is None


SWEEP_CASES = PROOF_CASES[:4]


@given(
    case=st.sampled_from(range(len(SWEEP_CASES))),
    paired=st.booleans(),
    data=st.data(),
)
def test_the_proof_refutes_a_xored_cell_exactly_when_the_identity_breaks(
    case, paired, data
):
    # one cell x xored into c(s); paired, s^-1 x into c(s^-1) as well,
    # which keeps every pair (s, s^-1) empty, so only a relator can fail
    group, set_name, radius = SWEEP_CASES[case]
    cache = BallCache(group)
    sets = generator_boundaries(cache, _proof_region(group, set_name), radius)
    graph = cache.at_least(radius)
    letter = data.draw(st.sampled_from(group.s_letters))
    x = graph.cosets[data.draw(st.integers(0, graph.ball_size(radius) - 1))]
    broken = {**sets, letter: sets[letter] ^ {x}}
    if paired:
        back = coset_of(group.multiply(group.letter_element(-letter), x.rep))
        broken[-letter] = broken[-letter] ^ {back}
    proof = _prove_identity(group, broken)
    assert (proof.failure is not None) == (_identity_violation(group, broken) is not None)
    if not paired:
        assert proof.failure is not None


def test_a_paired_xor_breaks_only_groups_with_relators():
    # the sweep's two outcomes, each seen: {b} into c(a) and a^-1 b into
    # c(A) keeps a cocycle on free(2); on zd(2,[0]), where a acts trivially,
    # the commutator's sum is c(a) xor b c(a), so it fails once c(a) = {b}
    for group, set_name, radius, holds in (
        (FreeGroup(2), "aprefix", 4, True), (ZdGroup(2, (0,)), "halfline", 6, False)
    ):
        sets = generator_boundaries(BallCache(group), builtin_set(group, set_name), radius)
        x = coset_of(group.letter_element(2))
        back = coset_of(group.multiply(group.letter_element(-1), x.rep))
        broken = {**sets, 1: sets[1] ^ {x}, -1: sets[-1] ^ {back}}
        assert (_prove_identity(group, broken).failure is None) == holds
        assert (_identity_violation(group, broken) is None) == holds


@pytest.mark.parametrize(
    "group,set_name,radius",
    [(FreeGroup(2), "aprefix", 5), (ZdGroup(1, ()), "halfline", 6),
     (ZdGroup(2, (0,)), "halfline", 6)],
    ids=["free2", "zd1", "zd2k0"],
)
def test_a_failed_proof_fails_the_report_at_every_seed(group, set_name, radius):
    # {e} xored into one letter's set: the sampled trials alone miss it at
    # some seeds on free(2); the report fails at all of them, and states no
    # trial count under the failed proof
    cache, region = BallCache(group), builtin_set(group, set_name)
    cap = cache.at_least(radius).ball_size(radius)
    sets = generator_boundaries(cache, region, radius)
    base, names = coset_of(group.identity()), group.letter_names
    missed = 0
    for letter in group.s_letters:
        broken = {**sets, letter: sets[letter] ^ {base}}
        word, count = _prove_identity(group, broken).failure
        kind = "relator" if word in group.relator_words() else "inverse pair"
        line = (
            f"identity proof: FAILS on {kind} "
            f"{' '.join(names[l] for l in word)}, {count} cells"
        )
        for seed in range(5):
            report = _forcing_check_on(
                broken, cache, region, radius, seed=seed, identity_trials=200, cap=cap
            )
            assert not report.ok, (letter, seed)
            lines = report.lines(group)
            assert line in lines, (letter, seed)
            assert not any(l.startswith("identity check") for l in lines)
            check = verify_sign_identity(cache, broken, 200, random.Random(seed))
            missed += check.violations == 0
    assert missed or group.family != "free"


def test_a_failed_proof_makes_obstruct_exit_one(tmp_path):
    from relend.cli import main

    config, report = tmp_path / "free2.json", tmp_path / "report.txt"
    config.write_text('{"family": "free", "rank": 2, "k": "trivial"}')
    group = FreeGroup(2)
    sets = generator_boundaries(BallCache(group), builtin_set(group, "aprefix"), 5)
    broken = {**sets, 1: sets[1] ^ {coset_of(group.identity())}}
    argv = ["obstruct", "--config", str(config), "--set", "aprefix", "--radius", "5",
            "--cap", "485", "--samples", "200", "--seed", "3", "--report", str(report)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relend.obstruction, "_stable", lambda *_: broken)
        assert main(argv) == 1
    lines = report.read_text().splitlines()
    assert "identity proof: FAILS on inverse pair a A, 1 cells" in lines
    assert not any(line.startswith("identity check") for line in lines)
    assert main(argv) == 0
    assert "identity check: 200 trials, 0 violations" in report.read_text().splitlines()


@pytest.mark.parametrize(
    "group,set_name,radius",
    [(FreeGroup(2), "aprefix", 4), (ZdGroup(1, ()), "halfline", 12)],
    ids=["free2", "zd1"],
)
def test_intact_sets_skip_the_trial_loop(monkeypatch, group, set_name, radius):
    def trials(*args, **kwargs):
        raise AssertionError("sign-identity trials ran on an intact set")

    monkeypatch.setattr(relend.obstruction, "verify_sign_identity", trials)
    cache = BallCache(group)
    cap = cache.at_least(radius).ball_size(radius)
    report = rho_forcing_check(
        cache, builtin_set(group, set_name), radius, seed=4, identity_trials=200, cap=cap
    )
    assert report.ok and report.trials == 200 and report.proof.failure is None


@pytest.mark.parametrize(
    "group,set_name,radius",
    [(FreeGroup(2), "aprefix", 4), (ZdGroup(1, ()), "halfline", 12)],
    ids=["free2", "zd1"],
)
def test_a_failed_proof_runs_no_trial(monkeypatch, group, set_name, radius):
    # each {e}-xored set: the proof alone fails the report, with no trial
    def trials(*args, **kwargs):
        raise AssertionError("sign-identity trials ran after a failed proof")

    monkeypatch.setattr(relend.obstruction, "verify_sign_identity", trials)
    cache, region = BallCache(group), builtin_set(group, set_name)
    cap = cache.at_least(radius).ball_size(radius)
    sets, base = generator_boundaries(cache, region, radius), coset_of(group.identity())
    for letter in group.s_letters:
        broken = {**sets, letter: sets[letter] ^ {base}}
        report = _forcing_check_on(
            broken, cache, region, radius, seed=4, identity_trials=200, cap=cap
        )
        assert not report.ok and report.proof.failure is not None, letter


def test_the_forcing_check_refuses_a_negative_trial_count(line):
    group, cache, region = line
    with pytest.raises(ValueError, match="trials must be nonnegative, got -1"):
        rho_forcing_check(cache, region, 6, identity_trials=-1, cap=13)


# -- the fixed-point conflict at the all-minus configuration ------------------


def _oracle_parities(group, region, radius):
    """|A xor sA| mod 2 for each generator s, over the cosets of ball(radius)
    by group arithmetic, membership by the predicate on payloads."""
    ball = _left_ball(group, radius, coset_of)
    out = {}
    for s in range(1, len(group.gen_names) + 1):
        back = group.letter_element(-s)
        out[s] = sum(
            region.member(v.rep.payload)
            != region.member(coset_of(group.multiply(back, v.rep)).rep.payload)
            for v in ball
        ) % 2
    return out


@pytest.mark.parametrize(
    "group,set_name,radii,pinned",
    [
        (ZdGroup(1, ()), "halfline", (2, 6, 12), "a"),
        # a spans K, so A xor aA is empty; b moves A by one coset
        (ZdGroup(2, (0,)), "halfline", (2, 6), "b"),
        (FreeGroup(2), "aprefix", (2, 4), "a"),
        (FreeGroup(3), "aprefix", (2,), "a"),
    ],
    ids=["zd1", "zd2k0", "free2", "free3"],
)
def test_the_builtin_sets_pin_a_generator_at_all_minus(group, set_name, radii, pinned):
    region = builtin_set(group, set_name)
    for radius in radii:
        cache = BallCache(group)
        cap = cache.at_least(radius).ball_size(radius)
        lines = rho_forcing_check(cache, region, radius, cap=cap).lines(group)
        assert lines[-2] == (
            f"fixed-point conflict: all-minus pins {pinned} to -1 (given the "
            f"difference sets certified at radius {radius})"
        )
        odd = _oracle_parities(group, region, radius + 1)
        assert [group.letter_names[s] for s, bit in odd.items() if bit] == [pinned]


@pytest.mark.parametrize("group,set_name,radius", PROOF_CASES, ids=PROOF_IDS)
def test_finite_sets_pin_nothing(group, set_name, radius):
    # |F xor sF| = 2|F| - 2|F & sF| is even for a finite F
    rng = random.Random(16)
    graph = BallCache(group).at_least(radius - 2)
    inner = graph.cosets[: graph.ball_size(radius - 2)]
    for _ in range(4):
        region = planted_finite_set(rng.sample(inner, rng.randrange(len(inner) + 1)))
        cache = BallCache(group)
        cap = cache.at_least(radius).ball_size(radius)
        lines = rho_forcing_check(cache, region, radius, cap=cap).lines(group)
        assert lines[-2] == "no fixed-point conflict"
        assert not any(_oracle_parities(group, region, radius + 1).values())
