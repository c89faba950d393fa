"""Per-family coset steps and left steps, the budgets they leave unchanged,
the lazy ``cosets`` list, the left tables of a coset graph and how often
each payload is stepped."""

import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from relend import coset_graph
from relend.cli import main
from relend.cocycles import plant_cocycle
from relend.coset_graph import BallCache, CosetGraph
from relend.ends import capacity, estimate_ends
from relend.errors import BallTooLargeError
from relend.obstruction import builtin_set, rho_forcing_check
from relend.patterns import trivial_alphabet
from relend.trivialize import Trivializer
from relend.groups import (
    BsGroup,
    CosetId,
    FreeGroup,
    Group,
    GroupElement,
    ProductGroup,
    ZdGroup,
    ZmodGroup,
)

GROUPS = st.one_of(
    st.integers(1, 3).flatmap(
        lambda d: st.sets(st.integers(0, d - 1)).map(lambda k: ZdGroup(d, sorted(k)))
    ),
    st.just(ZdGroup(2, (0, 1))),
    st.integers(1, 3).map(FreeGroup),
    st.builds(BsGroup, st.integers(1, 4), st.integers(1, 4)),
    st.just(ProductGroup(ZdGroup(1), BsGroup(1, 2))),
    # nested, with a zmod(2) factor whose two letters reach one neighbour
    st.just(ProductGroup(
        ZdGroup(2, (1,)), ProductGroup(FreeGroup(1), ZmodGroup((2,)))
    )),
)


def _pairs_at(group, p):
    """The ``(letter, key)`` pairs of the payload p's non-loop steps by its
    own witness products, a repeated pair kept once."""
    mul, rep = group._mul_payload, group._coset_rep_payload
    pairs = []
    for letter, fs in group.witnesses.items():
        for f in fs:
            pair = (letter, rep(mul(p, f)))
            if pair[1] != p and pair not in pairs:
                pairs.append(pair)
    return pairs


@given(group=GROUPS, radius=st.integers(0, 5))
def test_family_steps_equal_the_generic_default(group, radius):
    (letters, step), (generic_letters, generic) = (
        group._coset_steps(), Group._coset_steps(group)
    )
    assert type(letters) is tuple and letters == generic_letters
    graph = CosetGraph(group, radius)
    for p in graph.payloads:
        keys = step(p)
        assert keys == generic(p)
        # the letters handed over once are every payload's own step letters
        assert list(zip(letters, keys, strict=True)) == _pairs_at(group, p)


def _limit(build) -> str:
    with pytest.raises(BallTooLargeError) as err:
        build()
    return str(err.value)


def test_size_limit_texts_are_unchanged(monkeypatch):
    # the witness-work budget counts identity witnesses as products
    assert _limit(lambda: CosetGraph(BsGroup(1000, 1000), 1)) == (
        "ball(1) takes over 800000 witness products"
    )
    monkeypatch.setattr(coset_graph, "MAX_VERTICES", 20)
    assert _limit(lambda: CosetGraph(FreeGroup(2), 3)) == "ball(3) has over 20 vertices"
    # ball(2) of BS(1,2) x Z has 20 vertices and 7 witness products each,
    # 2 of them identities: 140 > 4 * 30, while 20 * 5 non-loop steps is not
    monkeypatch.setattr(coset_graph, "MAX_VERTICES", 30)
    bs_z = ProductGroup(BsGroup(1, 2), ZdGroup(1))
    assert _limit(lambda: CosetGraph(bs_z, 2)) == (
        "ball(2) takes over 120 witness products"
    )


@pytest.mark.parametrize("group", [ZdGroup(3, (0,)), BsGroup(1, 2), FreeGroup(2)])
def test_ends_never_creates_the_cosets(group):
    cache = BallCache(group)
    report = estimate_ends(cache, 3, 3)
    if report.is_exactly(1):
        for r in range(0, 4):
            capacity(cache, r)
    assert "cosets" not in vars(cache.at_least(0))


def test_grown_ball_shares_its_parents_coset_objects():
    cache = BallCache(FreeGroup(2))
    small = cache.at_least(2)
    old = small.cosets
    # the ball between never makes its cosets; the next one still shares
    # the objects of the ball that did
    middle = cache.at_least(3)
    grown = cache.at_least(4)
    assert "cosets" not in vars(middle)
    assert grown.base is small.base
    assert all(a is b for a, b in zip(grown.cosets, old))
    assert small.cosets is old and len(old) == small.vertex_count()
    assert grown.cosets[len(old):] == [
        CosetId(GroupElement(grown.group, p)) for p in grown.payloads[len(old):]
    ]


# -- left steps and the left tables of a graph ---------------------------------


@given(group=GROUPS, radius=st.integers(0, 4))
def test_family_left_steps_equal_the_generic_default(group, radius):
    graph = CosetGraph(group, radius)
    for letter in group.s_letters:
        step, generic = group._left_step(letter), Group._left_step(group, letter)
        for p in graph.payloads:
            assert step(p) == generic(p)


@given(group=GROUPS, radius=st.integers(0, 4))
def test_left_ids_read_the_product_with_the_letter(group, radius):
    graph = CosetGraph(group, radius)
    mul, rep = group._mul_payload, group._coset_rep_payload
    for letter in group.s_letters:
        s = group.letter_element(letter).payload
        assert graph.left_ids(letter) == [
            graph.index.get(rep(mul(s, p)), -1) for p in graph.payloads
        ]


class _CountingDict(dict):
    def __init__(self):
        super().__init__()
        self.sets = []

    def __setitem__(self, key, value):
        self.sets.append(key)
        super().__setitem__(key, value)


@pytest.mark.parametrize(
    "group,set_name,radius",
    [(ZdGroup(1), "halfline", 12), (ZdGroup(2, (0,)), "halfline", 4),
     (FreeGroup(2), "aprefix", 4)],
)
def test_one_forcing_check_builds_each_left_table_once(group, set_name, radius):
    # the difference pass, the sign identity and the search all read the one
    # graph of ball(radius + 1)
    cache = BallCache(group)
    graph = cache.at_least(radius + 1)
    graph._left = _CountingDict()
    cap = graph.ball_size(radius)
    region = builtin_set(group, set_name)
    report = rho_forcing_check(cache, region, radius, seed=1, cap=cap)
    assert report.ok and cache.at_least(0) is graph
    assert sorted(graph._left.sets) == sorted(group.s_letters)


# -- how often each payload is stepped ----------------------------------------


def _count_steps(monkeypatch, family) -> Counter:
    """Count, per payload, the calls of the family's coset step."""
    stepped: Counter = Counter()
    make = family._coset_steps

    def counted(self):
        letters, step = make(self)

        def counting(p):
            stepped[p] += 1
            return step(p)

        return letters, counting

    monkeypatch.setattr(family, "_coset_steps", counted)
    return stepped


@pytest.mark.parametrize("group", [FreeGroup(2), ZdGroup(3, (0,))])
def test_a_ball_grown_radius_by_radius_steps_each_inner_vertex_once(
    monkeypatch, group
):
    stepped = _count_steps(monkeypatch, type(group))
    cache = BallCache(group)
    for radius in range(1, 7):
        graph = cache.at_least(radius)
    assert stepped == Counter(graph.payloads[: graph.sphere_start[6]])


def test_library_passes_never_make_the_last_sphere_rows():
    free = BallCache(FreeGroup(2))
    report = rho_forcing_check(
        free, builtin_set(free.group, "aprefix"), 4, seed=1,
        cap=free.at_least(4).ball_size(4),
    )
    assert report.ok
    grid = BallCache(ZdGroup(2))
    cocycle = plant_cocycle(
        grid.group, trivial_alphabet(("0", "1"), "0"), ZmodGroup((2,)), 0, 21,
        grid.at_least(8),
    )
    assert Trivializer(grid, cocycle, seed=3).run(cohomology_samples=5)[1].ok
    capacity(grid, 3)
    for cache in (free, grid):
        graph = cache.at_least(0)
        assert "_last_steps" not in vars(graph)


def test_graph_command_steps_each_payload_once(monkeypatch, tmp_path):
    config = tmp_path / "free2.json"
    config.write_text(json.dumps({"family": "free", "rank": 2}))
    stepped = _count_steps(monkeypatch, FreeGroup)
    argv = ["graph", "--config", str(config), "--radius", "4",
            "--out", str(tmp_path / "g.dot"), "--csv", str(tmp_path / "g.csv")]
    assert main(argv) == 0
    # ball(4) of free(2) has 161 vertices: the build steps the 53 of norm
    # <= 3, the base's row gives the degree that the CSV reads, and
    # ``_last_steps`` steps the 108 of the last sphere once for the DOT edges
    assert len(stepped) == 161 and set(stepped.values()) == {1}
