import json
import tracemalloc

import pytest

from oracle_utils import (
    free_sphere_size,
    lattice_capacity,
    lattice_shell_components,
)
from relend.cli import main
from relend.coset_graph import BallCache, CosetGraph, _shell_components, build_ball
from relend.ends import (
    _capacity_probe,
    capacity,
    components_outside_ball,
    cross_check_quotient,
    estimate_ends,
)
from relend.errors import NotOneEndedError, UnsupportedFamilyError
from relend.groups import BsGroup, FreeGroup, ProductGroup, ZdGroup, ZmodGroup
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


def _parent_and_table(graph, w):
    """The in-ball neighbour ids of a last-sphere vertex by the parent rule:
    its BFS parent (the base of a radius-0 ball has none) and its entry of
    ``_last_ids``."""
    parent = [graph.parent_of[w]] if w else []
    return sorted(parent + list(graph._last_ids.get(w, ())))


@pytest.mark.parametrize("pair", CERTIFIED)
def test_reversed_last_sphere_rows_equal_the_stepped_rows(pair):
    group = group_from_config(CONFIGS[pair])
    for radius in range(7):
        graph = CosetGraph(group, radius)
        last = graph.sphere_start[radius]
        by_parent = [
            _parent_and_table(graph, w) for w in range(last, graph.vertex_count())
        ]
        assert "_last_steps" not in vars(graph)
        assert set(graph._last_ids) <= set(range(last, graph.vertex_count()))
        stepped = _stepped_adj(graph)[last:]
        assert by_parent == [sorted(w for _, w in row) for row in stepped]


UNCERTIFIED = [
    group_from_config(CONFIGS["zmod5"]),
    ProductGroup(ZdGroup(2), ZmodGroup((3,))),
]


@pytest.mark.parametrize("group", UNCERTIFIED)
def test_uncertified_last_sphere_tables_equal_the_stepped_rows(group):
    # the table steps the last sphere to find its same-sphere edges, and
    # keeps none of the steps
    for radius in range(7):
        graph = CosetGraph(group, radius)
        last = graph.sphere_start[radius]
        by_parent = [
            _parent_and_table(graph, w) for w in range(last, graph.vertex_count())
        ]
        assert "_last_steps" not in vars(graph)
        stepped = _stepped_adj(graph)[last:]
        assert by_parent == [sorted(w for _, w in row) for row in stepped]


@pytest.mark.parametrize("group", [FreeGroup(2), BsGroup(1, 2), BsGroup(1, 3)])
def test_tree_pairs_keep_no_last_sphere_table(group):
    # on a tree a last-sphere vertex's one in-ball neighbour is its parent
    cache = BallCache(group)
    for radius in range(7):
        assert CosetGraph(group, radius)._last_ids == {}
        assert cache.at_least(radius)._last_ids == {}


def _stepped_adj(graph):
    """``(letter, id)`` rows by a fresh step of every payload, kept inside
    the ball."""
    (letters, step), find = graph.group._coset_steps(), graph.index.get
    return [
        tuple(
            (l, w)
            for l, k in zip(letters, step(p), strict=True)
            if (w := find(k)) is not None
        )
        for p in graph.payloads
    ]


ADJ_GROUPS = {
    **{pair: group_from_config(config) for pair, config in CONFIGS.items()},
    "zd2xzmod3": ProductGroup(ZdGroup(2), ZmodGroup((3,))),
}


@pytest.mark.parametrize("name", sorted(ADJ_GROUPS))
def test_labelled_rows_pair_letters_and_ids(name):
    group = ADJ_GROUPS[name]
    (step_letters, step), cache = group._coset_steps(), BallCache(group)
    for radius in range(7):
        for graph in (CosetGraph(group, radius), cache.at_least(radius)):
            last = graph.sphere_start[radius]
            assert len(graph._rows) == last
            stepped = _stepped_adj(graph)
            assert list(graph.labelled_rows()) == [
                (tuple(w for _, w in row), tuple(l for l, _ in row))
                for row in stepped
            ]
            cosets = graph.cosets
            assert [graph.neighbors(v) for v in cosets] == [
                tuple((l, cosets[w]) for l, w in row) for row in stepped
            ]
            # every row below the last sphere aligns with the one letter
            # tuple, the hook's, and a fresh step of its payload yields a
            # key for each of those letters
            letters = graph._step_letters
            assert letters == step_letters
            for ids, p in zip(graph._rows, graph.payloads):
                assert len(ids) == len(letters) == len(step(p))


def _shell_by_rows(graph, inner, outer):
    """The components of the vertices of norm inner..outer, each as its
    sorted ids and whether it meets norm outer, by a search over the
    edges of ``labelled_rows`` taken both ways."""
    norm = graph.norm_of
    shell = [v for v in range(graph.vertex_count()) if inner <= norm[v] <= outer]
    edges = {v: set() for v in shell}
    for v, (ids, _) in enumerate(graph.labelled_rows()):
        for w in ids:
            if v in edges and w in edges:
                edges[v].add(w)
                edges[w].add(v)
    out, seen = [], set()
    for start in shell:
        if start not in seen:
            seen.add(start)
            comp = [start]
            for v in comp:
                new = edges[v] - seen
                seen |= new
                comp += new
            out.append((sorted(comp), any(norm[v] == outer for v in comp)))
    return out


@pytest.mark.parametrize("name", sorted(ADJ_GROUPS))
def test_shell_components_equal_a_search_of_the_labelled_rows(name):
    # zmod(5) and Z^2 x Z/3 have last-sphere vertices with an edge besides
    # the one to their parent, and the tree pairs have none: a skipped
    # leaf that still had an edge would split or drop a component
    group, cache = ADJ_GROUPS[name], BallCache(ADJ_GROUPS[name])
    for radius in range(7):
        for graph in (CosetGraph(group, radius), cache.at_least(radius)):
            shells = [(i, o) for o in range(radius + 1) for i in range(o + 1)]
            ours = [
                [(sorted(comp), touches) for comp, touches in
                 _shell_components(graph, i, o)]
                for i, o in shells
            ]
            assert ours == [_shell_by_rows(graph, i, o) for i, o in shells]


# zmod(2): a and A reach one coset; zmod(1): the trivial group, degree 0
DEGREE_GROUPS = {
    **ADJ_GROUPS, "zmod1": ZmodGroup((1,)), "zmod2": ZmodGroup((2,)),
}


@pytest.mark.parametrize("name", sorted(DEGREE_GROUPS))
def test_degree_is_one_count_of_the_stepped_neighbours(name):
    group = DEGREE_GROUPS[name]
    (_, step), cache = group._coset_steps(), BallCache(group)
    for radius in range(7):
        for graph in (CosetGraph(group, radius), cache.at_least(radius)):
            d = graph.degree
            assert type(d) is int
            assert {
                len({k for k in step(p) if k != p}) for p in graph.payloads
            } == {d}
            assert all(graph.full_degree(v) == d for v in graph.cosets)


# one-ended golden pairs: lattices of rank 2 and 3, and BS(1, 2) x Z relative
# to <x> x 0
ONE_ENDED = ("zd2", "zd3", "zd3k0", "bs12xz")


def _capacity_by_unbounded_set(graph, r, probe):
    """The capacity probe as a scan of ball(probe) for the vertices outside
    the one sphere-touching component."""
    comps = _shell_components(graph, r + 1, probe)
    (unbounded,) = [set(comp) for comp, touches in comps if touches]
    return max(
        graph.norm_of[i] for i in range(graph.ball_size(probe)) if i not in unbounded
    )


@pytest.mark.parametrize("pair", ONE_ENDED)
def test_capacity_probe_equals_the_unbounded_set_scan(pair):
    cache = BallCache(group_from_config(CONFIGS[pair]))
    assert estimate_ends(cache, 3, 3).is_exactly(1)
    for r in range(7):
        entry = capacity(cache, r)
        for probe in range(r + 2, entry.probe_radius + 1):
            # the cache's ball, and one whose last sphere is the probe's
            for graph in (cache.at_least(probe), CosetGraph(cache.group, probe)):
                assert _capacity_probe(graph, r, probe) == _capacity_by_unbounded_set(
                    graph, r, probe
                )
        assert entry.value == _capacity_probe(graph, r, entry.probe_radius)


def test_ends_on_bs13_peaks_below_360_bytes_per_ball_vertex():
    # ball(8) of BS(1, 3) has 13,121 vertices, two thirds of them on the
    # last sphere; the id rows, the one letter tuple and the empty
    # last-sphere table keep the whole pass under this bound
    tracemalloc.start()
    try:
        cache = BallCache(BsGroup(1, 3))
        estimate_ends(cache, 4, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 360 * cache.at_least(8).vertex_count()


def test_a_last_sphere_with_an_inner_edge_is_one_shell_component():
    # zmod(5) at radius 2: the edge 2 -> 3 joins the two last-sphere vertices,
    # which no reversed row of sphere 1 holds
    graph = CosetGraph(group_from_config(CONFIGS["zmod5"]), 2)
    assert _shell_components(graph, 2, 2) == [([3, 4], True)]


@pytest.mark.parametrize(
    "config,rmax,margin,verdict,code",
    [
        ({"family": "bs", "m": 2, "n": 3}, 2, 2, ">= 20 (growing with radius)", 0),
        ({"family": "free", "rank": 2}, 2, 3, ">= 12 (growing with radius)", 0),
        ({"family": "free", "rank": 2}, 1, 3, "inconclusive", 1),
    ],
    ids=["bs23-rmax2", "free2-rmax2", "free2-rmax1"],
)
def test_one_count_is_never_exact(
    tmp_path, capsys, config, rmax, margin, verdict, code
):
    # at rmax 2 the window holds both counts; at rmax 1 its one count decides
    # nothing
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(config))
    argv = ["ends", "--config", str(path), "--rmax", str(rmax)]
    assert main(argv + ["--margin", str(margin)]) == code
    assert capsys.readouterr().out == f"ends estimate: {verdict}\n"
