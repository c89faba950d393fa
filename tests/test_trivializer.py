import random

import pytest

from relend.coset_graph import BallCache
from relend.errors import NotFoundError, NotOneEndedError
from relend.groups import (
    FreeGroup,
    ZdGroup,
    ZmodGroup,
    ball_elements,
    coset_of,
    iter_ball,
)
from relend import trivialize
from relend.cocycles import (
    RelationReport,
    constant_cocycle,
    evaluate,
    pattern_key,
    plant_cocycle,
    window_region,
)
from relend.patterns import (
    Pattern,
    empty_pattern,
    make_pattern,
    random_pattern,
    restrict,
    scatter_junk,
    trivial_alphabet,
)
from relend.trivialize import Trivializer


@pytest.fixture()
def grid_setting():
    group = ZdGroup(2, ())
    cache = BallCache(group)
    alpha = trivial_alphabet(("0", "1"), "0")
    target = ZmodGroup((2,))
    cocycle = plant_cocycle(group, alpha, target, 0, 21, cache.at_least(8))
    return group, cache, alpha, target, cocycle


def test_homomorphism_part(grid_setting):
    group, cache, alpha, target, c = grid_setting
    worker = Trivializer(cache, c, seed=1)
    assert worker.homomorphism(group.identity()).is_identity()
    rng = random.Random(0)
    for _ in range(50):
        w1 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 4))]
        w2 = [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 4))]
        g1, g2 = group.element_from_word(w1), group.element_from_word(w2)
        assert worker.homomorphism(group.multiply(g1, g2)) == target.multiply(
            worker.homomorphism(g1), worker.homomorphism(g2)
        )


def test_far_element_deterministic_shortlex(grid_setting):
    group, cache, alpha, target, c = grid_setting
    worker = Trivializer(cache, c, seed=1)
    g = worker.far_element(3)
    assert g.payload == (4, 0)
    # cached and reused
    assert worker.far_element(3) is g
    graph = cache.at_least(5)
    assert graph.norm(coset_of(g)) > 3
    assert graph.norm(coset_of(group.invert(g))) > 3
    # threshold zero: the first generator already qualifies
    assert worker.far_element(0).payload == (1, 0)


def test_far_element_missing_for_finite_index():
    group = ZdGroup(1, (0,))
    cache = BallCache(group)
    alpha = trivial_alphabet(("0", "1"), "0")
    c = constant_cocycle(group, alpha, ZmodGroup((2,)), {})
    worker = Trivializer(cache, c, seed=0)
    with pytest.raises(NotFoundError):
        worker.far_element(1)


def test_transfer_at_fixed_point_is_identity(grid_setting):
    group, cache, alpha, target, c = grid_setting
    worker = Trivializer(cache, c, seed=1)
    assert worker.transfer(empty_pattern(alpha)).is_identity()


def test_transfer_is_constant_offset_of_plant(grid_setting):
    group, cache, alpha, target, c = grid_setting
    worker = Trivializer(cache, c, seed=1)
    graph = cache.at_least(8)
    region0 = window_region(graph, 0)
    pd = c.derivation
    rng = random.Random(5)
    offsets = set()
    for _ in range(40):
        y = random_pattern(graph, alpha, 3, rng)
        b0_y = pd.b0[pattern_key(restrict(y, region0))]
        offsets.add(target.multiply(b0_y, worker.transfer(y)))
    assert len(offsets) == 1


def test_choice_independence(grid_setting):
    group, cache, alpha, target, c = grid_setting
    worker = Trivializer(cache, c, seed=1)
    rng = random.Random(6)
    graph = cache.at_least(8)
    for _ in range(5):
        y = random_pattern(graph, alpha, 2, rng)
        assert worker.verify_choice_independence(y, trials=5)


def test_too_small_threshold_can_break_independence(grid_setting):
    # negative control: pulling with near elements disagrees for some pattern
    group, cache, alpha, target, c = grid_setting
    worker = Trivializer(cache, c, seed=1)
    graph = cache.at_least(8)
    rng = random.Random(7)
    disagreements = 0
    for _ in range(40):
        y = random_pattern(graph, alpha, 3, rng)
        candidates = worker._far_candidates(0, 6)
        values = {
            target.multiply(
                target.invert(evaluate(c, g, y)),
                worker.homomorphism(g),
            )
            for g in candidates
        }
        if len(values) > 1:
            disagreements += 1
    assert disagreements > 0


def test_verify_cohomology_samples(grid_setting):
    group, cache, alpha, target, c = grid_setting
    worker = Trivializer(cache, c, seed=1)
    graph = cache.at_least(9)
    rng = random.Random(8)
    for _ in range(60):
        y = random_pattern(graph, alpha, 3, rng)
        g = group.element_from_word(
            [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 5))]
        )
        assert worker.verify_cohomology(g, y)
    assert worker.verify_cohomology(group.identity(), random_pattern(graph, alpha, 2, rng))


def test_full_roundtrip_report(grid_setting):
    group, cache, alpha, target, c = grid_setting
    table, report = Trivializer(cache, c, seed=3).run(cohomology_samples=25)
    assert report.ok
    names = {chk.name for chk in report.checks}
    assert {
        "one_ended",
        "fixed_point",
        "relations",
        "cohomology_sweep",
        "choice_independence",
        "window_locality",
        "planted_offset_constant",
        "planted_homomorphism_recovered",
    } <= names
    assert table.hom and table.entries


def test_roundtrip_on_quotient_pair():
    group = ZdGroup(3, (0,))
    cache = BallCache(group)
    alpha = trivial_alphabet(("0", "1"), "0")
    c = plant_cocycle(group, alpha, ZmodGroup((2,)), 1, 4, cache.at_least(8))
    table, report = Trivializer(cache, c, seed=9).run(cohomology_samples=15)
    assert report.ok


def test_not_one_ended_rejected_before_transfer():
    group = FreeGroup(2)
    cache = BallCache(group)
    alpha = trivial_alphabet(("0", "1"), "0")
    target = ZmodGroup((2,))
    c = constant_cocycle(group, alpha, target, {1: target.letter_element(1)})
    worker = Trivializer(cache, c, seed=0, ends_rmax=3, ends_margin=4)
    with pytest.raises(NotOneEndedError):
        worker.run()
    assert worker.transfer_evaluations == 0
    assert not worker.table.entries


def _old_far_candidates(worker, threshold, count):
    """The far-element scan over a fully built word ball, as an oracle."""
    group, graph = worker.group, worker.cache.at_least(max(threshold, 1))
    ball = ball_elements(group, threshold + worker.far_search_slack)
    out = []
    for g in ball:
        if g.is_identity():
            continue
        near = [coset_of(g), coset_of(group.invert(g))]
        if any(c in graph and graph.norm(c) <= threshold for c in near):
            continue
        out.append(g)
    return out[:count]


@pytest.mark.parametrize("group", [ZdGroup(2, ()), ZdGroup(3, (0,))], ids=repr)
def test_lazy_far_scan_matches_full_ball(group):
    cache = BallCache(group)
    c = constant_cocycle(group, trivial_alphabet(("0", "1"), "0"), ZmodGroup((2,)), {})
    worker = Trivializer(cache, c)
    for t in range(1, 9):
        expected = _old_far_candidates(worker, t, 5)
        assert len(expected) == 5
        assert worker._far_candidates(t, 5) == expected
        assert worker.far_element(t) == expected[0]


def test_far_scan_runs_once_per_threshold(grid_setting, monkeypatch):
    # far_element and verify_choice_independence share one scan of the word
    # ball per threshold, resumed when a later call asks for more elements
    import relend.trivialize as module

    group, cache, alpha, target, c = grid_setting
    radii = []

    def counting(group, radius, *rest):
        radii.append(radius)
        return iter_ball(group, radius, *rest)

    monkeypatch.setattr(module, "iter_ball", counting)
    worker = Trivializer(cache, c, seed=1)
    y = random_pattern(cache.at_least(8), alpha, 2, random.Random(6))
    threshold = worker.capacity_at(worker._norm(y) + c.window)
    first = worker.far_element(threshold)
    for _ in range(3):
        assert worker.verify_choice_independence(y, trials=5)
        assert worker.far_element(threshold) is first
    assert radii == [threshold + worker.far_search_slack]
    assert worker._far_candidates(threshold, 5) == _old_far_candidates(
        worker, threshold, 5
    )


def test_truncation_junk_never_lands_on_the_support(monkeypatch):
    # a window-0 cocycle puts the junk zone at norms |g^-1 K| + 1..2, which
    # meets the support of the sampled patterns (norm <= 3); junk drawn
    # there would give one cell two symbols
    import relend.trivialize as module

    perturbed = []

    def recording(y, cells, rng):
        out = scatter_junk(y, cells, rng)
        perturbed.append(out)
        return out

    monkeypatch.setattr(module, "scatter_junk", recording)
    group = ZdGroup(2, ())
    alpha = trivial_alphabet(("0", "1", "2"), "0")
    c = constant_cocycle(group, alpha, ZmodGroup((2,)), {}, window=0)
    table, report = Trivializer(BallCache(group), c, seed=1).run()
    assert report.ok and len(perturbed) == 60
    assert sum(len(p.entries) != len(p.support()) for p in perturbed) == 0


def test_importing_the_submodule_gives_the_module():
    import types

    import relend.trivialize as module

    assert isinstance(module, types.ModuleType)
    assert module.Trivializer is Trivializer


def test_largest_ball_does_not_depend_on_the_seed():
    # the run grows its balls for the largest pattern norm it can meet before
    # sampling, so the seed cannot change how far the cache grows (and with it
    # the run's peak memory); without that, seeds 0-7 end at radius 9, 10 or 11
    alpha = trivial_alphabet(("0", "1"), "0")
    radii = set()
    for seed in range(8):
        group = ZdGroup(2, ())
        cache = BallCache(group)
        c = plant_cocycle(group, alpha, ZmodGroup((2,)), 0, 21, cache.at_least(4))
        table, report = Trivializer(cache, c, seed=seed).run(cohomology_samples=10)
        assert report.ok
        radii.add(cache.at_least(0).radius)
    assert radii == {11}


def test_norm_grows_the_cache_one_radius_at_a_time():
    group = ZdGroup(2, ())
    alpha = trivial_alphabet(("0", "1"), "0")
    cocycle = constant_cocycle(group, alpha, ZmodGroup((2,)), {}, window=1)
    cache = BallCache(group)
    worker = Trivializer(cache, cocycle)
    far = make_pattern(alpha, {coset_of(group.parse_element("a a a b b b b")): "1"})
    assert worker._norm(far) == 7 and cache.at_least(0).radius == 7
    assert worker._norm(empty_pattern(alpha)) == 0
    assert cache.at_least(0).radius == 7


# -- values computed once per run --------------------------------------------


def test_hom_on_the_empty_configuration_is_evaluated_once_per_element(
    grid_setting, monkeypatch
):
    group, cache, alpha, target, c = grid_setting
    evaluated = []
    real = trivialize.evaluate

    def recording(cocycle, g, y):
        if y.is_empty():
            evaluated.append(g.payload)
        return real(cocycle, g, y)

    monkeypatch.setattr(trivialize, "evaluate", recording)
    table, report = Trivializer(cache, c, seed=3).run(cohomology_samples=25)
    assert report.ok
    assert evaluated and len(evaluated) == len(set(evaluated))


def test_memoised_transfers_equal_fresh_values(grid_setting):
    group, cache, alpha, target, c = grid_setting
    worker = Trivializer(cache, c, seed=3)
    worker.run(cohomology_samples=25)
    memo = worker._transfers
    assert len(memo) == worker.transfer_evaluations > 20
    for key, value in sorted(memo.items(), key=lambda kv: repr(kv[0]))[:40]:
        fresh = Trivializer(BallCache(group), c, seed=3)
        assert fresh.transfer(Pattern(alpha, key)) == value


def test_homomorphism_on_relators_reads_the_relator_words(monkeypatch):
    # with the relation check forced to pass, a table whose value on the
    # empty configuration breaks the relator a b A B must fail this check
    group = ZdGroup(2, ())
    cache = BallCache(group)
    alpha = trivial_alphabet(("0", "1"), "0")
    target = ZmodGroup((2,))
    c = plant_cocycle(group, alpha, target, 0, 21, cache.at_least(1))
    empty = pattern_key(empty_pattern(alpha))
    flipped = target.multiply(c.factor(1, empty_pattern(alpha)), target.letter_element(1))
    broken = c.corrupted(1, empty, flipped)
    monkeypatch.setattr(
        trivialize, "verify_relations", lambda *args: RelationReport(0, ())
    )
    table, report = Trivializer(cache, broken, seed=3).run(cohomology_samples=5)
    checks = {chk.name: chk.passed for chk in report.checks}
    assert checks["relations"] and not checks["homomorphism_on_relators"]


def test_a_run_makes_cosets_only_for_the_balls_it_reads():
    # the zd(3) run grows its cache to ball(11) for the capacity thresholds,
    # but reads cells only up to norm 3 * window + max_word + 2 = 9
    group = ZdGroup(3, ())
    cache = BallCache(group)
    alpha = trivial_alphabet(("0", "1"), "0")
    c = plant_cocycle(group, alpha, ZmodGroup((2,)), 0, 11, cache.at_least(0))
    table, report = Trivializer(cache, c, seed=1).run(cohomology_samples=12)
    graph = cache.at_least(0)
    assert report.ok and graph.radius == 11
    assert "cosets" not in vars(graph)
    assert len(graph._made) <= graph.ball_size(9) < graph.vertex_count()
