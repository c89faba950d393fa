import pytest

from relend.coset_graph import build_ball
from relend.errors import ConfigError
from relend.groups import ZdGroup, ZmodGroup, coset_of
from relend.cocycles import plant_cocycle
from relend.patterns import make_pattern
from relend.serialize import (
    alphabet_from_config,
    alphabet_to_config,
    cocycle_from_json,
    cocycle_to_json,
    group_from_config,
    group_to_config,
    parse_element,
    pattern_from_json,
    pattern_to_json,
)

GROUP_CONFIGS = [
    {"family": "zd", "d": 3, "k_coords": [0]},
    {"family": "free", "rank": 2, "k": "trivial"},
    {"family": "bs", "m": 1, "n": 2},
    {"family": "zmod", "mods": [2]},
    {
        "family": "direct_product",
        "factors": [
            {"family": "zd", "d": 1, "k_coords": [0]},
            {"family": "zd", "d": 1, "k_coords": []},
        ],
    },
]


@pytest.mark.parametrize("cfg", GROUP_CONFIGS, ids=lambda c: c["family"])
def test_group_config_round_trip(cfg):
    group = group_from_config(cfg)
    assert group_from_config(group_to_config(group)).gen_names == group.gen_names


def test_bad_group_configs():
    with pytest.raises(ConfigError):
        group_from_config({"family": "nope"})
    with pytest.raises(ConfigError):
        group_from_config({"family": "bs", "m": 1})
    with pytest.raises(ConfigError):
        group_from_config({"family": "free", "rank": 2, "k": "<a>"})


def test_element_strings():
    b = group_from_config({"family": "bs", "m": 1, "n": 2})
    g = parse_element(b, "x x t X")
    assert b.word_str(g) == "t x x x"  # normal form rewrites through t
    assert parse_element(b, b.word_str(g)) == g
    assert parse_element(b, "").is_identity()


def test_alphabet_config_round_trip():
    cfg = {"symbols": ["0", "1"], "x0": "0", "alpha": {"x": [0, 1]}}
    alpha = alphabet_from_config(cfg)
    assert alphabet_to_config(alpha) == cfg
    with pytest.raises(ConfigError):
        alphabet_from_config({"symbols": ["0"]})


def test_pattern_round_trip():
    group = ZdGroup(2, (0,))
    alpha = alphabet_from_config({"symbols": ["0", "1"], "x0": "0", "alpha": {}})
    pattern = make_pattern(
        alpha,
        {
            coset_of(parse_element(group, "b b")): "1",
            coset_of(parse_element(group, "B")): "1",
        },
    )
    data = pattern_to_json(pattern)
    assert pattern_from_json(group, alpha, data) == pattern
    assert pattern_from_json(group, alpha, []).is_empty()


def test_cocycle_totality_enforced():
    group = ZdGroup(2, ())
    alpha = alphabet_from_config({"symbols": ["0", "1"], "x0": "0", "alpha": {}})
    graph = build_ball(group, 5)
    spec = plant_cocycle(group, alpha, ZmodGroup((2,)), 0, 5, graph)
    data = cocycle_to_json(spec, graph)
    loaded = cocycle_from_json(group, alpha, data)
    assert loaded.window == spec.window
    del data["tables"]["a"][0]
    with pytest.raises(ConfigError):
        cocycle_from_json(group, alpha, data)
