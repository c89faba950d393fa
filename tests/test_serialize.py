import re

import pytest

from relend.coset_graph import build_ball
from relend.errors import ConfigError
from relend.groups import ZdGroup, ZmodGroup
from relend.cocycles import plant_cocycle
from relend.serialize import (
    alphabet_from_config,
    cocycle_from_json,
    cocycle_to_json,
    group_from_config,
    group_to_config,
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
    g = b.parse_element("x x t X")
    assert b.word_str(g) == "t x x x"  # normal form rewrites through t
    assert b.parse_element(b.word_str(g)) == g
    assert b.parse_element("").is_identity()


def test_alphabet_from_config():
    cfg = {"symbols": ["0", "1", "2"], "x0": "0", "alpha": {"x": [0, 2, 1]}}
    alpha = alphabet_from_config(cfg)
    assert alpha.symbols == ("0", "1", "2") and alpha.x0 == "0"
    assert alpha.perms == (("x", (0, 2, 1)),)
    with pytest.raises(ConfigError):
        alphabet_from_config({"symbols": ["0"]})


def test_cocycle_totality_enforced():
    group = ZdGroup(2, ())
    alpha = alphabet_from_config({"symbols": ["0", "1"], "x0": "0", "alpha": {}})
    graph = build_ball(group, 5)
    spec = plant_cocycle(group, alpha, ZmodGroup((2,)), 0, 5, graph)
    data = cocycle_to_json(spec, graph)
    loaded = cocycle_from_json(group, alpha, data)
    assert loaded.window == spec.window
    text, _ = data["tables"]["a"].pop(3)
    message = f"cocycle table for a is missing window pattern {text!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        cocycle_from_json(group, alpha, data)
    # a generator with no table misses the first pattern of the window
    data["tables"]["a"].insert(3, [text, ""])
    del data["tables"]["B"]
    message = "cocycle table for B is missing window pattern ''"
    with pytest.raises(ConfigError, match=re.escape(message)):
        cocycle_from_json(group, alpha, data)


@pytest.mark.parametrize(
    "row", [["e=1", 5], ["e=1", "a", "a"], ["e=1"], [None, "a"], "e=1", ("e=1", "")]
)
def test_a_malformed_row_is_named_in_the_message(row):
    group = ZdGroup(2, ())
    alpha = alphabet_from_config({"symbols": ["0", "1"], "x0": "0", "alpha": {}})
    data = {"window": 0, "H": {"family": "zmod", "mods": [2]}, "tables": {"b": [row]}}
    message = (
        f"cocycle table for b has a row {row!r}; rows are [key, word] pairs of "
        "strings"
    )
    with pytest.raises(ConfigError, match=re.escape(message)):
        cocycle_from_json(group, alpha, data)
