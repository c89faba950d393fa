import random

import pytest

from oracle_utils import free_sphere_size, is_tree, lattice_ball
from relend.coset_graph import (
    BallCache,
    _bfs,
    build_ball,
    distance,
    geodesic_to,
    neighborhood,
    two_sided_geodesic,
)
from relend.errors import InsufficientRadiusError, VertexOutsideBallError
from relend.groups import BsGroup, FreeGroup, ProductGroup, ZdGroup, ZmodGroup, coset_of


def test_radius_zero():
    g = build_ball(ZdGroup(2, ()), 0)
    assert g.vertex_count() == 1
    assert g.neighbors(g.base) == ()


def test_zd_ball_counts_match_lattice_oracle():
    for r in range(0, 7):
        g = build_ball(ZdGroup(2, ()), r)
        assert g.vertex_count() == len(lattice_ball(2, r)) == 2 * r * r + 2 * r + 1


def test_zd_axis_quotient_ball_counts():
    # cosets of the first-axis subgroup of Z^3 carry the geometry of Z^2
    for r in range(0, 6):
        g = build_ball(ZdGroup(3, (0,)), r)
        assert g.vertex_count() == len(lattice_ball(2, r))


def test_free_sphere_sizes_match_word_enumeration():
    g = build_ball(FreeGroup(2), 5)
    by_norm = {}
    for n in g.norm_of:
        by_norm[n] = by_norm.get(n, 0) + 1
    for r in range(0, 6):
        assert by_norm[r] == free_sphere_size(2, r)


def test_bs_ball_is_three_regular_tree():
    g = build_ball(BsGroup(1, 2), 3)
    assert all(g.full_degree(v) == 3 for v in g.cosets)
    assert is_tree(g)
    names = {g.group.word_str(w.rep) for _, w in g.neighbors(g.base)}
    assert names == {"t", "T", "x T"}


def test_edge_symmetry_everywhere():
    for group in (ZdGroup(2, (0,)), BsGroup(1, 2), FreeGroup(2)):
        g = build_ball(group, 4)
        for v in g.vertices_in_order():
            for letter, w in g.neighbors(v):
                assert any(
                    l2 == -letter and z == v for l2, z in g.neighbors(w)
                ), (v, letter, w)


def test_distance_values_and_invariance():
    z = ZdGroup(2, ())
    g = build_ball(z, 8)
    u = coset_of(z.identity())
    v = coset_of(z.parse_element("a a b"))
    assert distance(g, u, u) == 0
    assert distance(g, u, v) == 3
    # left invariance: d(gu, gv) = d(u, v) for shifts staying in the ball
    rng = random.Random(0)
    for _ in range(50):
        w = [rng.choice(z.s_letters) for _ in range(rng.randrange(0, 3))]
        shift = z.element_from_word(w)
        su = coset_of(z.multiply(shift, u.rep))
        sv = coset_of(z.multiply(shift, v.rep))
        assert distance(g, su, sv) == 3


def test_distance_outside_ball_raises():
    z = ZdGroup(2, ())
    g = build_ball(z, 3)
    far = coset_of(z.element_from_word([1] * 10))
    with pytest.raises(VertexOutsideBallError):
        distance(g, g.base, far)


def test_ball_and_neighborhood():
    z = ZdGroup(2, ())
    g = build_ball(z, 6)
    assert len(neighborhood(g, 1, (g.base,))) == 5
    b2 = neighborhood(g, 2, (g.base,))
    b3 = neighborhood(g, 3, (g.base,))
    assert b2 <= b3
    assert b3 == g.ball_set(3)
    vset = {g.base}
    assert neighborhood(g, 0, vset) == frozenset(vset)
    with pytest.raises(InsufficientRadiusError):
        neighborhood(g, 7, (g.base,))


def test_geodesic_prefixes_are_geodesic():
    z = ZdGroup(2, ())
    g = build_ball(z, 6)
    v = coset_of(z.parse_element("a a b B b"))  # (2, 1)
    p = geodesic_to(g, v)
    assert len(p) == g.norm(v) == 3
    for i in range(len(p.vertices)):
        assert g.norm(p.vertices[i]) == i


def test_two_sided_geodesic_pairwise_distances():
    for group in (ZdGroup(2, ()), ZdGroup(3, (0,)), BsGroup(1, 2)):
        g = build_ball(group, 8)
        p = two_sided_geodesic(g, 3)
        assert len(p.vertices) == 7
        for i in range(7):
            for j in range(i, 7):
                assert distance(g, p.vertices[i], p.vertices[j]) == j - i
        assert p.vertices[3] == g.base


def _row_view_distances(rows, source, depth):
    dist, queue = {source: 0}, [source]
    for w in queue:
        if dist[w] < depth:
            for z in rows[w]:
                if z not in dist:
                    dist[z] = dist[w] + 1
                    queue.append(z)
    return dist


@pytest.mark.parametrize(
    "group",
    [
        ZdGroup(2, ()),
        BsGroup(1, 2),
        ZmodGroup((5,)),
        ProductGroup(ZdGroup(2), ZmodGroup((3,))),
    ],
    ids=["zd2", "bs12", "zmod5", "zd2xzmod3"],
)
def test_bfs_walks_the_id_rows_and_the_last_sphere_table(group):
    # the walk behind distance and neighborhood makes no step of the last
    # sphere, and agrees with a walk of the id rows of ``labelled_rows``
    for radius in range(5):
        g = build_ball(group, radius)
        depth = 2 * radius
        walked = [dict(_bfs(g, (s,), depth)) for s in range(g.vertex_count())]
        assert "_last_steps" not in vars(g)
        rows = [ids for ids, _ in g.labelled_rows()]
        assert walked == [
            _row_view_distances(rows, s, depth) for s in range(g.vertex_count())
        ]


def test_two_sided_geodesic_zero():
    g = build_ball(ZdGroup(2, ()), 2)
    p = two_sided_geodesic(g, 0)
    assert p.vertices == (g.base,)


def test_norm_realization():
    # every norm up to the radius is achieved when K has infinite index
    for group in (ZdGroup(2, ()), ZdGroup(3, (0,)), BsGroup(1, 2), FreeGroup(2)):
        g = build_ball(group, 6)
        norms = set(g.norm_of)
        assert norms == set(range(0, 7))


def test_split_neighbourhoods_meet_near_base():
    # a two-sided geodesic's half-neighbourhoods can only overlap close in
    for group in (ZdGroup(2, ()), ZdGroup(3, (0,))):
        g = build_ball(group, 13)
        p = two_sided_geodesic(g, 5)
        for depth in (0, 1, 2, 3):
            pos = neighborhood(g, depth, p.vertices[5:])
            neg = neighborhood(g, depth, p.vertices[: 5 + 1])
            meet = pos & neg
            allowed = neighborhood(g, 3 * depth, (g.base,))
            assert meet <= set(allowed)


def test_ball_connectivity():
    for group in (ZdGroup(2, (0,)), BsGroup(1, 2), FreeGroup(2)):
        g = build_ball(group, 5)
        reached = {g.base}
        queue = [g.base]
        while queue:
            v = queue.pop()
            for _, w in g.neighbors(v):
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
        assert reached == set(g.cosets)


def test_ball_cache_growth():
    cache = BallCache(ZdGroup(2, ()))
    small = cache.at_least(2)
    big = cache.at_least(4)
    assert big.radius >= 4
    assert cache.at_least(3) is big
