"""Window-pattern keys in memory and their JSON text at the boundary."""

import contextlib
import io
import json
import re

import pytest

from relend.cli import main
from relend.coset_graph import build_ball
from relend.cocycles import (
    constant_cocycle,
    pattern_key,
    plant_cocycle,
    window_patterns,
    window_region,
)
from relend.errors import ConfigError
from relend.groups import ZdGroup, ZmodGroup, coset_of
from relend.patterns import Pattern, make_pattern, trivial_alphabet
from relend.serialize import cocycle_from_json, cocycle_to_json, transfer_to_json
from relend.trivialize import TransferTable

ALPHA = trivial_alphabet(("0", "1"), "0")


@pytest.fixture(scope="module")
def zd5():
    # the fifth generator is named e, which is also how the base coset renders
    group = ZdGroup(5, ())
    return group, build_ball(group, 2)


def _colliding_pair(group):
    base = make_pattern(ALPHA, {coset_of(group.identity()): "1"})
    e = make_pattern(ALPHA, {coset_of(group.letter_element(5)): "1"})
    return base, e


def test_keys_of_colliding_texts_stay_distinct(zd5):
    group, graph = zd5
    base, e = _colliding_pair(group)
    assert pattern_key(base) != pattern_key(e)
    spec = plant_cocycle(group, ALPHA, ZmodGroup((2,)), 1, 3, graph)
    assert len(spec.derivation.b0) == 2 ** len(window_region(graph, 1)) == 2048


def test_json_boundary_refuses_colliding_texts(zd5, tmp_path):
    group, graph = zd5
    spec = constant_cocycle(group, ALPHA, ZmodGroup((2,)), {}, window=1)
    with pytest.raises(ConfigError, match="share the JSON key 'e=1'"):
        cocycle_to_json(spec, graph)
    data = {"window": 1, "H": {"family": "zmod", "mods": [2]}, "tables": {}}
    with pytest.raises(ConfigError, match="share the JSON key"):
        cocycle_from_json(group, ALPHA, data)
    table = TransferTable(1)
    for p in _colliding_pair(group):
        table.entries[pattern_key(p)] = ZmodGroup((2,)).identity()
    with pytest.raises(ConfigError, match="share the JSON key"):
        transfer_to_json(group, table)
    # from the command line: exit 2 and one line on stderr
    cfg = tmp_path / "zd5.json"
    cfg.write_text(json.dumps({"family": "zd", "d": 5, "k_coords": []}))
    cocycle = tmp_path / "c.json"
    cocycle.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["verify", "--config", str(cfg), "--cocycle", str(cocycle)])
    assert code == 2
    assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1


def test_loader_refuses_unknown_repeated_and_oversized_rows():
    group = ZdGroup(2, ())
    graph = build_ball(group, 4)
    spec = plant_cocycle(group, ALPHA, ZmodGroup((2,)), 0, 5, graph)
    data = cocycle_to_json(spec, graph)
    assert cocycle_from_json(group, ALPHA, data).window == 1
    repeated = json.loads(json.dumps(data))
    repeated["tables"]["a"].append(list(repeated["tables"]["a"][0]))
    with pytest.raises(ConfigError, match="repeated"):
        cocycle_from_json(group, ALPHA, repeated)
    # a cell outside the window, an explicit default symbol, two cells out of
    # shortlex order, one cell twice, and a symbol outside the alphabet
    for text in ("a a a=1", "e=0", "A=1|a=1", "a=1|a=1", "e=2"):
        unknown = json.loads(json.dumps(data))
        unknown["tables"]["a"][0][0] = text
        refused = f"unknown or repeated window pattern '{text}'"
        with pytest.raises(ConfigError, match=re.escape(refused)):
            cocycle_from_json(group, ALPHA, unknown)
    # 13 cells at window 2: 8192 rows per generator, over the limit
    with pytest.raises(ConfigError, match="over the limit"):
        cocycle_from_json(group, ALPHA, dict(data, window=2))


def test_loader_builds_no_pattern(monkeypatch):
    group = ZdGroup(3, ())
    graph = build_ball(group, 2)
    spec = plant_cocycle(group, ALPHA, ZmodGroup((2,)), 0, 5, graph)
    data = cocycle_to_json(spec, graph)
    assert spec.window == 1 and len(data["tables"]["a"]) == 2**7

    def refused(*args, **kwargs):
        raise AssertionError("the loader built a Pattern")

    monkeypatch.setattr(Pattern, "__init__", refused)
    loaded = cocycle_from_json(group, ALPHA, data)
    monkeypatch.undo()
    assert cocycle_to_json(loaded, graph) == data


def test_loader_and_emitter_refuse_oversized_tables_alike():
    group = ZdGroup(2, ())
    graph = build_ball(group, 4)
    spec = plant_cocycle(group, ALPHA, ZmodGroup((2,)), 0, 5, graph)
    assert spec.window == 1
    with pytest.raises(ConfigError) as emitted:
        cocycle_to_json(spec, graph, limit=16)
    assert str(emitted.value) == (
        "window 1 table has at least 32 entries per generator "
        "(5 cells within radius 1); over the limit of 16"
    )
    # the loader's last sphere is counted on the window ball it keys on
    data = dict(cocycle_to_json(spec, graph), window=2)
    with pytest.raises(ConfigError) as loaded:
        cocycle_from_json(group, ALPHA, data)
    assert str(loaded.value) == (
        "window 2 table has at least 8192 entries per generator "
        "(13 cells within radius 2); over the limit of 4096"
    )


def test_window_patterns_enumerates_each_pattern_once():
    group = ZdGroup(2, (0,))
    graph = build_ball(group, 3)
    alpha = trivial_alphabet(("0", "1", "2"), "0")
    region = window_region(graph, 2)
    keys = [pattern_key(p) for p in window_patterns(region, alpha)]
    assert len(keys) == len(set(keys)) == 3 ** len(region)
    assert all({c for c, _ in k} <= region for k in keys)
    assert keys[0] == frozenset()
