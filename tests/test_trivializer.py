import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from relend.coset_graph import BallCache
from relend.errors import NotFoundError, NotOneEndedError
from relend.groups import (
    BsGroup,
    FreeGroup,
    ProductGroup,
    ZdGroup,
    ZmodGroup,
    ball_elements,
    coset_of,
)
from relend import trivialize
from relend.cocycles import (
    CocycleSpec,
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
    assert group.coordinates(g.payload) == (4, 0)
    # cached and reused
    assert worker.far_element(3) is g
    graph = cache.at_least(5)
    assert graph.norm(coset_of(g)) > 3
    assert graph.norm(coset_of(group.invert(g))) > 3
    # threshold zero: the first generator already qualifies
    assert group.coordinates(worker.far_element(0).payload) == (1, 0)


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


def test_run_refuses_a_negative_sample_count(grid_setting, monkeypatch):
    # refused before the ends estimate, so no report can pass on it
    group, cache, alpha, target, c = grid_setting
    monkeypatch.setattr(trivialize, "estimate_ends", None)
    message = "cohomology_samples must be nonnegative, got -1"
    with pytest.raises(ValueError, match=message):
        Trivializer(cache, c, seed=3).run(cohomology_samples=-1)


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


# free(2) targets take the non-abelian branch of ``plant_cocycle``, which
# draws one word and sends each generator to a power of it; about half of
# all seeds draw the trivial homomorphism, these three do not.  A zd(1)
# target draws lattice points.
PLANTS = [
    (ZdGroup(2), FreeGroup(2), 0),
    (ZdGroup(2), FreeGroup(2), 3),
    (ZdGroup(2), FreeGroup(2), 4),
    (ProductGroup(BsGroup(1, 2), ZdGroup(1)), FreeGroup(2), 0),
    (ProductGroup(BsGroup(1, 2), ZdGroup(1)), FreeGroup(2), 3),
    (ProductGroup(BsGroup(1, 2), ZdGroup(1)), FreeGroup(2), 4),
    (ZdGroup(2), ZdGroup(1), 0),
]


@pytest.mark.parametrize("group,target,seed", PLANTS)
def test_roundtrip_recovers_a_nontrivial_planted_homomorphism(group, target, seed):
    cache = BallCache(group)
    alpha = trivial_alphabet(("0", "1"), "0")
    c = plant_cocycle(group, alpha, target, 0, seed, cache.at_least(8))
    planted = c.derivation
    assert not all(img.is_identity() for img in planted.hom_images.values())
    table, report = Trivializer(cache, c, seed=seed).run(cohomology_samples=10)
    assert report.ok and "relations" in {chk.name for chk in report.checks}
    # the transfer is b0 up to the constant b0(empty), so the recovered
    # homomorphism is the planted one conjugated by it
    b0 = planted.b0_of(empty_pattern(alpha))
    conjugate = target.invert(b0)
    assert table.hom == {
        l: target.multiply(conjugate, target.multiply(img, b0))
        for l, img in planted.hom_images.items()
    }


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
    ball = ball_elements(group, threshold + trivialize.FAR_SLACK)
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


def _record_scan_products(group, monkeypatch):
    """The (element, generator) payload pairs ``_far_scan`` multiplies."""
    scan_code = trivialize._far_scan.__code__
    products, mul = [], group._mul_payload

    def recording(a, b):
        if sys._getframe(1).f_code is scan_code:
            products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(group, "_mul_payload", recording)
    return products


def _record_requests(monkeypatch):
    """The thresholds asked of ``_far_candidates``, in order."""
    asked, answer = [], Trivializer._far_candidates

    def recording(self, threshold, count):
        asked.append(threshold)
        return answer(self, threshold, count)

    monkeypatch.setattr(Trivializer, "_far_candidates", recording)
    return asked


def test_each_word_ball_element_is_expanded_at_most_once_per_run(
    grid_setting, monkeypatch
):
    # one scan of the word ball serves every threshold of a run, which asks
    # for them in mixed order: no element is multiplied by a generator twice
    group, cache, alpha, target, c = grid_setting
    products = _record_scan_products(group, monkeypatch)
    asked = _record_requests(monkeypatch)
    worker = Trivializer(cache, c, seed=3)
    table, report = worker.run(cohomology_samples=25)
    assert report.ok
    asked = list(dict.fromkeys(asked))  # in the order of the first request
    assert asked != sorted(asked)
    assert products and len(products) == len(set(products))
    for t in asked:
        first = worker.far_element(t)
        assert worker.far_element(t) is first  # the memoised object
        assert worker._far_candidates(t, 5) == _old_far_candidates(worker, t, 5)


def test_run_scans_only_as_far_as_its_largest_threshold_needs(monkeypatch):
    # the run's scan covers every threshold up to its ceiling but is advanced
    # only as far as each request needs: on zd(3, [0]) the first far elements
    # for t have word length t + 1, so no discovered word is longer than the
    # largest asked threshold plus one, while an eager scan reaches ceiling + 1
    group = ZdGroup(3, (0,))
    cache = BallCache(group)
    alpha = trivial_alphabet(("0", "1"), "0")
    c = plant_cocycle(group, alpha, ZmodGroup((2,)), 0, 3, cache.at_least(0))
    assert c.window == 1
    products = _record_scan_products(group, monkeypatch)
    asked = _record_requests(monkeypatch)
    worker = Trivializer(cache, c, seed=3)
    table, report = worker.run()
    assert report.ok
    # run's defaults: max_norm 3, max_word 4
    ceiling = worker.capacity_at(max(3 + 4, 3 * c.window + 2) + c.window)
    t_max = max(asked)
    assert t_max < ceiling
    words = {group._mul_payload(a, b) for a, b in products}
    assert max(sum(map(abs, group.coordinates(h))) for h in words) == t_max + 1


# (group, largest threshold asked): the oracle builds ball(t + 4) in full
FAR_GROUPS = {
    "zd2": (ZdGroup(2, ()), 8),
    "zd3": (ZdGroup(3, ()), 5),
    "zd3k0": (ZdGroup(3, (0,)), 5),
    "free2": (FreeGroup(2), 3),
    "bs12": (BsGroup(1, 2), 3),
    "bs12xz": (ProductGroup(BsGroup(1, 2), ZdGroup(1, ())), 2),
}
_ORACLE: dict = {}


def _oracle(name, worker, threshold):
    """The first six far elements of the full-ball oracle, computed once."""
    key = (name, threshold)
    if key not in _ORACLE:
        _ORACLE[key] = _old_far_candidates(worker, threshold, 6)
    return _ORACLE[key]


@example("zd2", -1, [(0, 5, 0), (1, 5, 0)])
@example("zd2", 8, [(5, 1, 0), (1, 5, 2), (5, 6, 0), (5, 1, 0)])
@given(
    st.sampled_from(sorted(FAR_GROUPS)),
    st.integers(-1, 8),  # a run's scan for the thresholds up to this, if any
    st.lists(
        st.tuples(
            st.integers(0, 8),  # threshold, cut to the group's largest
            st.sampled_from((1, 5, 5, 6)),  # how many far elements
            st.integers(0, 3),  # the cache grows to the threshold plus this
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_grown_scan_matches_full_ball(name, ceiling, requests):
    # thresholds in any order, a smaller one after a larger one, a request
    # after the cache grew, a count above the batch and a threshold outside
    # the run's scan all give the full-ball answer; far_element returns the
    # memoised object
    group, largest = FAR_GROUPS[name]
    cache = BallCache(group)
    c = constant_cocycle(group, trivial_alphabet(("0", "1"), "0"), ZmodGroup((2,)), {})
    worker = Trivializer(cache, c)
    ceiling = min(ceiling, largest)
    if ceiling >= 0:  # started as ``run`` starts it
        worker._far = {t: [] for t in range(ceiling + 1)}
        worker._scan = trivialize._far_scan(
            group, cache.at_least(ceiling), worker._far,
            trivialize.FAR_SLACK, trivialize.FAR_BATCH,
        )
    for t, count, grow in requests:
        t = min(t, largest)
        cache.at_least(t + grow)
        found = worker._far_candidates(t, count)
        expected = _oracle(name, worker, t)  # grows the cache to radius 1
        assert found == expected[:count]
        first = worker.far_element(t)
        assert first == expected[0] and worker.far_element(t) is first


@pytest.mark.parametrize("order", [(1, 3, 2), (4, 0, 6, 1), (2, 2, 5)])
def test_no_far_element_when_k_has_finite_index(order):
    # zd(1, [0]): K = G, every coset is the base, so no threshold has one
    group = ZdGroup(1, (0,))
    c = constant_cocycle(group, trivial_alphabet(("0", "1"), "0"), ZmodGroup((2,)), {})
    worker = Trivializer(BallCache(group), c)
    for t in order:
        assert worker._far_candidates(t, 5) == []
        message = f"no far element for threshold {t} within word radius {t + 4}"
        with pytest.raises(NotFoundError, match=message):
            worker.far_element(t)


def test_truncation_junk_never_lands_on_the_support(monkeypatch):
    # the locality check scatters junk, once per trial, on the cells at norms
    # 3 window + 1..2 around a pattern truncated to ball(3 window); junk
    # drawn on the support would give one cell two symbols
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
    assert report.ok and len(perturbed) == 10
    assert sum(len(p.entries) != len(p.support()) for p in perturbed) == 0


# the families whose canonical words the truncation_agreement fact rests on
WORD_FAMILIES = {
    "zd2": ZdGroup(2, ()),
    "zd3": ZdGroup(3, ()),
    "zd3k0": ZdGroup(3, (0,)),
    "zd2k0": ZdGroup(2, (0,)),
    "free2": FreeGroup(2),
    "bs12": BsGroup(1, 2),
    "bs23": BsGroup(2, 3),
    "bs12xz": ProductGroup(BsGroup(1, 2), ZdGroup(1, ())),
    "z2xz3": ProductGroup(ZdGroup(2, ()), ZmodGroup((3,))),
    "free2xz": ProductGroup(FreeGroup(2), ZdGroup(1, ())),
}
WORD_CACHES = {name: BallCache(group) for name, group in WORD_FAMILIES.items()}


@pytest.mark.parametrize("name", sorted(WORD_FAMILIES))
@given(data=st.data())
def test_suffixes_of_canonical_words_stay_inside_the_coset_norm(name, data):
    # |sK| <= |gK| for every suffix s of g's canonical word, and |g^-1 K| =
    # |gK|: with them the walk of c(g, y) reads y inside ball(|g^-1 K| + w)
    group = WORD_FAMILIES[name]
    word = data.draw(st.lists(st.sampled_from(group.s_letters), max_size=6))
    g = group.element_from_word(word)
    graph = WORD_CACHES[name].at_least(len(word))
    radius = graph.norm(coset_of(g))
    assert graph.norm(coset_of(group.invert(g))) == radius
    inside = graph.ball_set(radius)
    for i in range(len(g.word) + 1):
        assert coset_of(group.element_from_word(g.word[i:])) in inside, g.word[i:]


def _read_case(name):
    """A spec whose reads the truncation test checks: the window-1 files
    planted at ``VARIED_SEED``, a rule-backed planting on BS(1, 2) x Z, a
    window-0 constant cocycle, and two counting specs into Z.  A counting
    spec is no cocycle, but the walk reads the same cells for any table,
    and its value moves with every non-default cell of its window; a
    planted cocycle's telescopes to two cells of y."""
    from test_relation_proof import BINARY, _file_spec
    from test_tables_golden import VARIED_SEED

    bs12z = ProductGroup(BsGroup(1, 2), ZdGroup(1, ()))
    z2, z1 = ZmodGroup((2,)), ZdGroup(1)
    if name.endswith("-file"):
        return _file_spec(name[:-5], z2, VARIED_SEED)
    if name == "bs12z-planted":
        graph = BallCache(bs12z).at_least(1)
        return plant_cocycle(bs12z, BINARY, z2, 0, VARIED_SEED, graph)
    if name == "constant-window-0":
        alphabet = trivial_alphabet(("0", "1", "2"), "0")
        return constant_cocycle(
            ZdGroup(2, ()), alphabet, z2, {1: z2.letter_element(1)}, window=0
        )
    group = {"zd3k0-counting": ZdGroup(3, (0,)), "bs12z-counting": bs12z}[name]
    count = lambda _, p: z1.element_from_word([1] * len(p.entries))
    return CocycleSpec(group, BINARY, z1, 1, rule=count)


@pytest.mark.parametrize(
    "name",
    ["zd2-file", "zd3k0a-file", "bs12z-planted", "constant-window-0",
     "zd3k0-counting", "bs12z-counting"],
)
def test_evaluation_reads_nothing_past_the_coset_norm_plus_window(name):
    # the truncation_agreement fact, tighter than the extension step's cut
    # |g^-1 K| + 3w: y filled out to |gK| + 3w + 2 and y cut to ball(|gK| +
    # w) give the same c(g, y)
    c = _read_case(name)
    group, w, symbols = c.group, c.window, c.alphabet.symbols
    cache, rng = BallCache(group), random.Random(5)
    for _ in range(30):
        g = group.element_from_word(
            [rng.choice(group.s_letters) for _ in range(rng.randrange(0, 5))]
        )
        near = cache.at_least(4).norm(coset_of(g)) + w
        graph = cache.at_least(near + 2 * w + 2)
        cells = graph.cosets_slice(0, graph.ball_size(near + 2 * w + 2))
        y = make_pattern(c.alphabet, {v: rng.choice(symbols) for v in cells})
        cut = restrict(y, graph.ball_set(near))
        assert evaluate(c, g, y) == evaluate(c, g, cut), g.word


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
