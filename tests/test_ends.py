import pytest

from oracle_utils import (
    free_sphere_size,
    lattice_capacity,
    lattice_shell_components,
)
from relend.coset_graph import BallCache, CosetGraph, build_ball
from relend.ends import (
    _shell_components,
    capacity,
    components_outside_ball,
    cross_check_quotient,
    estimate_ends,
)
from relend.errors import NotOneEndedError, UnsupportedFamilyError
from relend.groups import BsGroup, FreeGroup, ProductGroup, ZdGroup
from relend.serialize import group_from_config
from test_geometry_golden import CONFIGS


def test_line_has_two_ends():
    report = estimate_ends(BallCache(ZdGroup(1, ())), 5, 5)
    assert report.is_exactly(2)
    assert all(row.sphere_touching == 2 for row in report.rows)


def test_grid_has_one_end():
    report = estimate_ends(BallCache(ZdGroup(2, ())), 5, 5)
    assert report.is_exactly(1)


def test_quotient_grid_has_one_end():
    report = estimate_ends(BallCache(ZdGroup(3, (0,))), 5, 5)
    assert report.is_exactly(1)


def test_free_group_reports_growth():
    report = estimate_ends(BallCache(FreeGroup(2)), 3, 5)
    assert report.kind == "at_least"
    assert [r.sphere_touching for r in report.rows] == [
        free_sphere_size(2, 1),
        free_sphere_size(2, 2),
        free_sphere_size(2, 3),
    ] == [4, 12, 36]


def test_components_against_lattice_oracle():
    graph = build_ball(ZdGroup(2, ()), 8)
    for inner in (1, 2, 3):
        ours = components_outside_ball(graph, inner, inner + 5)
        oracle = lattice_shell_components(2, inner, inner + 5)
        assert len(ours) == len(oracle)
        assert sum(c.touches_sphere for c in ours) == sum(t for _, t in oracle)


def test_line_components_example():
    graph = build_ball(ZdGroup(1, ()), 6)
    comps = components_outside_ball(graph, 2, 6)
    assert len(comps) == 2 and all(c.touches_sphere for c in comps)


def test_capacity_matches_flood_fill():
    cache = BallCache(ZdGroup(2, ()))
    for r in range(0, 6):
        entry = capacity(cache, r)
        assert entry.value == r
        assert entry.value == lattice_capacity(2, r, entry.probe_radius)


def test_capacity_quotient_grid():
    cache = BallCache(ZdGroup(3, (0,)))
    assert all(capacity(cache, r).value == r for r in range(0, 6))


def test_capacity_rejects_two_ended():
    with pytest.raises(NotOneEndedError):
        capacity(BallCache(ZdGroup(1, ())), 2)


def test_component_merging_is_monotone():
    # for fixed inner radius, growing the probe can only merge components
    graph = build_ball(FreeGroup(2), 7)
    for inner in (1, 2):
        last = None
        for outer in range(inner + 2, 8):
            count = sum(
                c.touches_sphere
                for c in components_outside_ball(graph, inner, outer)
            )
            if last is not None:
                assert count <= last
            last = count


def test_cross_checks():
    assert cross_check_quotient(ZdGroup(3, (0,)), 5, 5).agrees
    two_ended = cross_check_quotient(ZdGroup(2, (0,)), 5, 5)
    assert two_ended.agrees and two_ended.pair_report.is_exactly(2)
    free = cross_check_quotient(FreeGroup(2), 3, 5)
    assert free.agrees and free.pair_report.kind == "at_least"
    with pytest.raises(UnsupportedFamilyError):
        cross_check_quotient(BsGroup(1, 2), 3, 3)


def test_cross_check_product_pair():
    # (Z x Z) / (Z x 1) behaves like the line: two ends on both sides
    pair = ProductGroup(ZdGroup(1, (0,)), ZdGroup(1, ()))
    result = cross_check_quotient(pair, 4, 4)
    assert result.agrees and result.pair_report.is_exactly(2)


# -- the last sphere's edges: reversed on certified pairs ---------------------

CERTIFIED = sorted(p for p, c in CONFIGS.items() if group_from_config(c)._bipartite)


@pytest.mark.parametrize("pair", CERTIFIED)
def test_reversed_last_sphere_rows_equal_the_stepped_rows(pair):
    group = group_from_config(CONFIGS[pair])
    for radius in range(7):
        graph = CosetGraph(group, radius)
        reversed_ids = graph._last_ids
        assert "adj" not in vars(graph)  # read back, not stepped
        last = graph.sphere_start[radius]
        assert [sorted(ids) for ids in reversed_ids] == [
            sorted(w for _, w in row) for row in graph.adj[last:]
        ]


def test_a_last_sphere_with_an_inner_edge_is_read_from_adj():
    # zmod(5) at radius 2: the edge 2 -> 3 joins the two last-sphere vertices,
    # which no reversed row of sphere 1 holds
    graph = CosetGraph(group_from_config(CONFIGS["zmod5"]), 2)
    assert _shell_components(graph, 2, 2) == [([3, 4], True)]
