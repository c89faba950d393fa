"""Interned vertex ids: BFS order, sphere offsets, growth and the budget."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from oracle_utils import is_tree
from relend import coset_graph
from relend.coset_graph import (
    BallCache,
    CosetGraph,
    build_ball,
    geodesic_to,
)
from relend.errors import BallTooLargeError
from relend.groups import BsGroup, FreeGroup, ProductGroup, ZdGroup
from relend.serialize import group_from_config
from test_geometry_golden import CONFIGS

GROWTH_GROUPS = {
    "zd3": ZdGroup(3, ()),
    "zd3k0": ZdGroup(3, (0,)),
    "free2": FreeGroup(2),
    "bs12": BsGroup(1, 2),
    "bs23": BsGroup(2, 3),
    "zd1xbs12": ProductGroup(ZdGroup(1, ()), BsGroup(1, 2)),
    "zd2k01": ZdGroup(2, (0, 1)),  # finite index: the ball is one vertex
}


def _layout(g):
    return (g.cosets, g.norm_of, g.parent_of, g.adj, g.degree, g.sphere_start)


@given(
    name=st.sampled_from(sorted(GROWTH_GROUPS)),
    radii=st.tuples(st.integers(0, 6), st.integers(0, 6)).map(sorted),
)
def test_grown_ball_equals_fresh_build(name, radii):
    group = GROWTH_GROUPS[name]
    a, b = radii
    cache = BallCache(group)
    small = cache.at_least(a)
    before = [list(part) for part in _layout(small)]
    grown = cache.at_least(b)
    fresh = CosetGraph(group, b)
    assert _layout(grown) == _layout(fresh)
    assert [grown.norm(v) for v in fresh.cosets] == fresh.norm_of
    assert (grown is small) == (a == b)
    # growing never mutates the smaller ball
    assert [list(part) for part in _layout(small)] == before
    assert small.radius == a and small.vertex_count() == len(set(small.cosets))


@pytest.mark.parametrize("name", sorted(GROWTH_GROUPS))
def test_ids_are_bfs_order_with_sphere_offsets(name):
    g = CosetGraph(GROWTH_GROUPS[name], 5)
    assert g.norm_of == sorted(g.norm_of)
    assert len(set(g.cosets)) == len(g.cosets)
    assert g.cosets == g.vertices_in_order()
    for r in range(-1, 8):
        assert g.ball_size(r) == sum(1 for n in g.norm_of if n <= r)
    for i, v in enumerate(g.cosets):
        assert g.norm(v) == g.norm_of[i]
        assert len(geodesic_to(g, v)) == g.norm_of[i]


@pytest.mark.parametrize("m,n", list(product(range(1, 5), repeat=2)))
def test_bs_coset_graph_is_regular_tree(m, n):
    # Bass-Serre: BS(m, n) relative to <x> acts on the (m+n)-regular tree
    radius, k = 4, m + n
    g = build_ball(BsGroup(m, n), radius)
    assert all(g.full_degree(v) == k for v in g.cosets)
    assert is_tree(g)
    for r in range(1, radius + 1):
        assert sum(1 for d in g.norm_of if d == r) == k * (k - 1) ** (r - 1)


def test_vertex_budget_raises_typed_error(monkeypatch):
    assert CosetGraph(FreeGroup(2), 8).vertex_count() < coset_graph.MAX_VERTICES
    # free(2): ball(2) has 17 vertices, ball(3) has 53
    monkeypatch.setattr(coset_graph, "MAX_VERTICES", 17)
    assert CosetGraph(FreeGroup(2), 2).vertex_count() == 17
    monkeypatch.setattr(coset_graph, "MAX_VERTICES", 20)
    with pytest.raises(BallTooLargeError):
        CosetGraph(FreeGroup(2), 3)
    cache = BallCache(FreeGroup(2))
    small = cache.at_least(2)
    with pytest.raises(BallTooLargeError):
        cache.at_least(3)
    assert cache.at_least(2) is small


def _stepped_degrees(graph):
    """The degree of every vertex by a fresh step of its payload."""
    step = graph.group._coset_steps()
    return [len({k for _, k in step(p)}) for p in graph.payloads]


@pytest.mark.parametrize("pair", sorted(CONFIGS))
def test_degree_matches_a_restep_of_every_payload(pair):
    # below the last sphere the degree is read off the build's edges
    group = group_from_config(CONFIGS[pair])
    cache = BallCache(group)
    for radius in range(4):
        fresh = CosetGraph(group, radius)
        assert fresh.degree == _stepped_degrees(fresh)
        grown = cache.at_least(radius)
        assert grown.degree == fresh.degree


def test_degree_of_a_last_sphere_with_an_inner_edge():
    # zmod(5) at radius 2: the last sphere {2, 3} has the edge 2 -> 3, so its
    # edges hold every neighbour, yet it is stepped again like any last sphere
    g = CosetGraph(group_from_config(CONFIGS["zmod5"]), 2)
    last = range(g.sphere_start[2], g.vertex_count())
    assert any(w in last for v in last for _, w in g.adj[v])
    assert g.degree == _stepped_degrees(g) == [2] * 5
