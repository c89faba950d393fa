"""Malformed input, size budgets, exponent reduction and cross-process output."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import relend.cli
import relend.coset_graph
from relend.cli import MAX_SAMPLES, main
from relend.cocycles import plant_cocycle
from relend.coset_graph import CosetGraph
from relend.groups import BsGroup, ZdGroup, ZmodGroup
from relend.obstruction import bounded_coboundary_search, builtin_set, rho_forcing_check
from relend.patterns import Alphabet, trivial_alphabet
from relend.serialize import PRODUCT_DEPTH, cocycle_to_json, dump_json

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(argv):
    """main(argv) with stderr captured; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _nested_product(levels):
    """zd(1) inside ``levels`` direct_product levels, each with a zd(0) factor."""
    cfg = {"family": "zd", "d": 1}
    for _ in range(levels):
        cfg = {"family": "direct_product", "factors": [cfg, {"family": "zd", "d": 0}]}
    return cfg


@pytest.mark.parametrize(
    "cfg",
    [
        {"family": "zd", "d": 2, "k_coords": "ab"},
        {"family": "zd", "d": 2, "k_coords": [None]},
        {"family": "zmod", "mods": 5},
        {"family": "zd", "d": "2"},
        {"family": "bs", "m": 1, "n": True},
        {"family": "bs", "m": 10**9, "n": 1},
        {"family": "direct_product", "factors": [{"family": "zd", "d": 1}]},
        {"group": {"family": "zd", "d": 1}, "alphabet": {"symbols": 5, "x0": 0}},
        {"group": {"family": "zd", "d": 1}, "alphabet": ["0", "1"]},
        {
            "group": {"family": "zd", "d": 1, "k_coords": [0]},
            "alphabet": {"symbols": ["0", "1"], "x0": "0", "alpha": {"a": "10"}},
        },
        # permutations for a generator outside K, and for no generator of G
        {
            "group": {"family": "zd", "d": 3, "k_coords": [0]},
            "alphabet": {"symbols": ["0", "1", "2"], "x0": "0", "alpha": {"b": [0, 2, 1]}},
        },
        {
            "group": {"family": "zd", "d": 3, "k_coords": [0]},
            "alphabet": {"symbols": ["0", "1", "2"], "x0": "0", "alpha": {"zz": [0, 2, 1]}},
        },
        # permutations of two K generators that do not commute
        {
            "group": {"family": "zd", "d": 4, "k_coords": [0, 1]},
            "alphabet": {
                "symbols": ["0", "1", "2", "3"],
                "x0": "0",
                "alpha": {"a": [0, 2, 1, 3], "b": [0, 1, 3, 2]},
            },
        },
        # parameters out of range, and repeated alphabet symbols
        {"family": "zd", "d": 27},
        {"family": "zd", "d": -1},
        {"family": "zd", "d": 2, "k_coords": [2]},
        {"family": "zmod", "mods": [0]},
        {"family": "free", "rank": 0},
        {
            "group": {"family": "zd", "d": 1},
            "alphabet": {"symbols": ["0", "0"], "x0": "0"},
        },
        # one direct_product level over the nesting budget
        _nested_product(PRODUCT_DEPTH + 1),
        # no symbol besides the default one
        {"group": {"family": "zd", "d": 2}, "alphabet": {"symbols": ["0"], "x0": "0"}},
    ],
)
def test_malformed_config_exits_two_with_one_line(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, err = _run(["graph", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, key",
    [
        # json keeps the last value of a repeated key, here the identity
        ('{"group": {"family": "zd", "d": 3, "k_coords": [0]}, "alphabet": '
         '{"symbols": ["0", "1", "2"], "x0": "0", '
         '"alpha": {"a": [0, 2, 1], "a": [0, 1, 2]}}}', "a"),
        ('{"family": "zd", "d": 1, "d": 2}', "d"),
    ],
    ids=["alpha", "group"],
)
def test_repeated_json_key_exits_two_with_one_line(tmp_path, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, err = _run(["graph", "--config", str(path), "--out", str(tmp_path / "o")])
    assert (code, err) == (
        2, f"config error: malformed JSON in {path}: repeated key {key!r}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_one_symbol_alphabet_exits_two_before_planting(tmp_path):
    # random patterns draw their symbols from those besides x0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"group": {"family": "zd", "d": 2}, "alphabet": {"symbols": ["0"], "x0": "0"}}
    ))
    argv = ["trivialize", "--config", str(path), "--plant", "--samples", "1",
            "--out", str(tmp_path / "T.json"), "--report", str(tmp_path / "t.txt")]
    code, err = _run(argv)
    assert code == 2
    assert err == "config error: alphabet ('0',) has no symbol besides '0'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


FAMILIES = ["zd", "free", "bs", "zmod", "direct_product", "trivial"]
KEYS = [
    "family", "d", "k_coords", "rank", "k", "m", "n", "mods", "factors",
    "group", "alphabet", "symbols", "x0", "alpha",
]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.sampled_from(FAMILIES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=12,
)
family_configs = st.fixed_dictionaries(
    {"family": st.sampled_from(FAMILIES)},
    optional={key: json_values for key in KEYS if key != "family"},
)
wrapped_configs = st.fixed_dictionaries({"group": family_configs})


@given(cfg=json_values | family_configs | wrapped_configs)
def test_config_fuzz_never_escapes(tmp_path_factory, cfg):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["graph", "--config", str(path), "--radius", "0", "--out", str(tmp / "o")]
    code, err = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and err.count("\n") <= 1


def test_vertex_budget_exits_two(tmp_path, monkeypatch):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"family": "free", "rank": 2}))
    monkeypatch.setattr(relend.coset_graph, "MAX_VERTICES", 20)
    argv = ["graph", "--config", str(path), "--out", str(tmp_path / "o")]
    assert _run(argv + ["--radius", "2"]) == (0, "")
    code, err = _run(argv + ["--radius", "3"])
    assert code == 2
    assert err.startswith("size limit: ") and err.count("\n") == 1


def _perm_power_by_squaring(perm, k):
    """perm ** (2 ** k) by k squarings, independent of cycle arithmetic."""
    out = list(perm)
    for _ in range(k):
        out = [out[i] for i in out]
    return tuple(out)


def test_permutation_of_reduces_huge_exponents():
    # in BS(1, 2), t^-k x t^k = x^(2^k); order-6 permutation on 7 symbols
    group = BsGroup(1, 2)
    perm = (0, 2, 1, 4, 5, 3, 6)
    alphabet = Alphabet(tuple("0123456"), "0", (("x", perm),))
    k = 40
    g = group.element_from_word([-2] * k + [1] + [2] * k)
    assert group.k_exponents(g) == (2**k,)
    start = time.perf_counter()
    forward = alphabet.permutation_of(group, g)
    inverse = alphabet.permutation_of(group, group.invert(g))
    assert time.perf_counter() - start < 1.0
    assert forward == _perm_power_by_squaring(perm, k)
    assert tuple(forward[i] for i in inverse) == tuple(range(7))


@given(
    perm=st.permutations(range(1, 6)).map(lambda p: (0,) + tuple(p)),
    e=st.integers(-15, 15),
)
def test_permutation_of_matches_repeated_application(perm, e):
    group = BsGroup(1, 2)
    alphabet = Alphabet(tuple("012345"), "0", (("x", perm),))
    inverse = [0] * 6
    for i, p in enumerate(perm):
        inverse[p] = i
    step = perm if e > 0 else tuple(inverse)
    expected = list(range(6))
    for _ in range(abs(e)):
        expected = [step[i] for i in expected]
    g = group.element_from_word([1 if e > 0 else -1] * abs(e))
    assert alphabet.permutation_of(group, g) == tuple(expected)


def _outputs(tmp: Path, hashseed: str) -> dict[str, bytes]:
    out = tmp / hashseed
    out.mkdir()
    configs = {
        "free2": {"family": "free", "rank": 2},
        "zd3k0": {"family": "zd", "d": 3, "k_coords": [0]},
        "zd2": {"family": "zd", "d": 2},
        "zd1": {"family": "zd", "d": 1},
    }
    for name, cfg in configs.items():
        (out / f"{name}.json").write_text(json.dumps(cfg))
    commands = [
        ["graph", "--config", "free2.json", "--radius", "4", "--out", "g.dot",
         "--csv", "g.csv"],
        ["ends", "--config", "zd3k0.json", "--rmax", "4", "--margin", "4",
         "--csv", "e.csv"],
        ["trivialize", "--config", "zd2.json", "--plant", "--b0-window", "1",
         "--seed", "5", "--samples", "10", "--out", "t.json", "--report", "t.txt"],
        ["trivialize", "--config", "zd3k0.json", "--plant", "--b0-window", "1",
         "--seed", "3", "--samples", "10", "--out", "k.json", "--report", "k.txt"],
        ["obstruct", "--config", "zd1.json", "--set", "halfline", "--radius", "12",
         "--cap", "25", "--seed", "3", "--report", "o1.txt"],
        ["obstruct", "--config", "free2.json", "--set", "aprefix", "--radius", "4",
         "--cap", "161", "--seed", "3", "--report", "o2.txt"],
    ]
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(SRC))
    stdout = b""
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-m", "relend.cli", *argv],
            cwd=out, env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        stdout += done.stdout
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.stem not in configs}
    files["stdout"] = stdout
    return files


def test_outputs_identical_across_hash_seeds(tmp_path):
    first = _outputs(tmp_path, "0")
    assert set(first) == {
        "g.dot", "g.csv", "e.csv", "t.json", "t.txt", "k.json", "k.txt", "o1.txt",
        "o2.txt", "stdout",
    }
    assert first == _outputs(tmp_path, "12345")


def test_witness_work_budget_stops_large_bs_quickly(tmp_path):
    # 2,001 vertices, each multiplied by all 2,002 witnesses of BS(1000, 1000)
    started = time.perf_counter()
    with pytest.raises(relend.coset_graph.BallTooLargeError):
        relend.coset_graph.CosetGraph(BsGroup(1000, 1000), 1)
    assert time.perf_counter() - started < 3.0
    path = tmp_path / "bs.json"
    path.write_text(json.dumps({"family": "bs", "m": 1000, "n": 1000}))
    code, err = _run(["graph", "--config", str(path), "--radius", "1",
                      "--out", str(tmp_path / "o")])
    assert code == 2
    assert err.startswith("size limit: ") and err.count("\n") == 1


def _verify_cocycle(tmp: Path, cocycle) -> tuple[int, str]:
    """``relend verify`` of a cocycle file over zd(2); returns (exit, stderr)."""
    pair, path = tmp / "zd2.json", tmp / "cocycle.json"
    pair.write_text(json.dumps({"family": "zd", "d": 2}))
    path.write_text(json.dumps(cocycle))
    return _run(["verify", "--config", str(pair), "--cocycle", str(path),
                 "--samples", "2", "--report", str(tmp / "report.txt")])


def _window0(tables):
    return {"window": 0, "H": {"family": "zmod", "mods": [2]}, "tables": tables}


@pytest.mark.parametrize(
    "cocycle",
    [
        _window0([]),
        _window0({"a": [["", 5], ["e=1", ""]]}),
        [_window0({})],
        _window0({"": []}),
        _window0({"a": {"": ""}}),
        _window0({"a": [["", "a", "a"]]}),
        _window0({"a": [[None, "a"]]}),
        {"window": [], "H": {"family": "zmod", "mods": [2]}, "tables": {}},
        {"window": -1, "H": {"family": "zmod", "mods": [2]}, "tables": {}},
    ],
    ids=["tables-list", "word-int", "not-object", "empty-name", "rows-object",
         "row-triple", "key-null", "window-list", "window-negative"],
)
def test_malformed_cocycle_file_exits_two_with_one_line(tmp_path, cocycle):
    code, err = _verify_cocycle(tmp_path, cocycle)
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_negative_window_is_named_in_the_message(tmp_path):
    cocycle = {"window": -1, "H": {"family": "zmod", "mods": [2]}, "tables": {}}
    assert _verify_cocycle(tmp_path, cocycle) == (
        2, "config error: window must be nonnegative, got -1\n"
    )


def _spy_on_balls(monkeypatch) -> list[int]:
    """The radius of every coset graph built from now on, in build order."""
    radii = []
    init = relend.coset_graph.CosetGraph.__init__

    def recording(self, group, radius, grow_from=None):
        radii.append(radius)
        init(self, group, radius, grow_from)

    monkeypatch.setattr(relend.coset_graph.CosetGraph, "__init__", recording)
    return radii


def test_oversized_window_is_refused_before_its_ball_is_built(tmp_path, monkeypatch):
    # two symbols on the 25 cells of zd(3)'s ball(2) are already over the
    # table limit, so the window-100 ball is never built
    pair, path = tmp_path / "zd3.json", tmp_path / "cocycle.json"
    pair.write_text(json.dumps({"family": "zd", "d": 3}))
    path.write_text(json.dumps(
        {"window": 100, "H": {"family": "zmod", "mods": [2]}, "tables": {}}
    ))
    radii = _spy_on_balls(monkeypatch)
    assert _run(["verify", "--config", str(pair), "--cocycle", str(path)]) == (
        2,
        "config error: window 100 table has at least 33554432 entries per "
        "generator (25 cells within radius 2); over the limit of 4096\n",
    )
    assert max(radii) == 2


def test_negative_b0_window_is_named_in_the_message(tmp_path, monkeypatch):
    pair = tmp_path / "zd2.json"
    pair.write_text(json.dumps({"family": "zd", "d": 2}))
    radii = _spy_on_balls(monkeypatch)
    argv = ["trivialize", "--config", str(pair), "--plant", "--b0-window", "-1"]
    assert _run(argv) == (2, "config error: --b0-window must be nonnegative, got -1\n")
    assert radii == []  # refused before any ball is built


ROW_TEXTS = ["", "e=1", "a=1", "x"]
TOKENS = ["a", "A", "b", "B", "c", ""]
table_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=3)
    | st.sampled_from(ROW_TEXTS + TOKENS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(TOKENS) | st.text(max_size=2), inner,
                      max_size=4),
    max_leaves=12,
)
table_rows = st.lists(
    st.tuples(st.sampled_from(ROW_TEXTS), st.sampled_from(["", "a", "b"])).map(list),
    max_size=3,
)


@given(tables=table_values | st.dictionaries(st.sampled_from(TOKENS), table_rows))
def test_cocycle_tables_fuzz_never_escapes(tmp_path_factory, tables):
    code, err = _verify_cocycle(tmp_path_factory.mktemp("fuzz"), _window0(tables))
    assert code in (0, 1, 2)
    assert "Traceback" not in err and err.count("\n") <= 1


def _zd2_cocycle_file(tmp: Path) -> Path:
    """A cocycle planted on zd(2) with b0-window 0, written as a file."""
    group = ZdGroup(2)
    graph = CosetGraph(group, 1)
    spec = plant_cocycle(
        group, trivial_alphabet(("0", "1"), "0"), ZmodGroup((2,)), 0, 1, graph
    )
    cocycle = tmp / "cocycle.json"
    dump_json(str(cocycle), cocycle_to_json(spec, graph))
    return cocycle


def test_negative_samples_are_refused_with_one_line(tmp_path):
    # a negative count is a config error before any check runs: obstruct
    # would report "-1 trials, 0 violations" and pass, and trivialize --plant
    # "PASS cohomology_sweep: -1 samples" and then fail a later check
    line, plane = tmp_path / "zd1.json", tmp_path / "zd2.json"
    line.write_text(json.dumps({"family": "zd", "d": 1}))
    plane.write_text(json.dumps({"family": "zd", "d": 2}))
    cocycle = _zd2_cocycle_file(tmp_path)
    report = str(tmp_path / "report.txt")
    commands = [
        ["obstruct", "--config", str(line), "--radius", "3", "--cap", "7"],
        ["trivialize", "--config", str(plane), "--plant"],
        ["verify", "--config", str(plane), "--cocycle", str(cocycle)],
    ]
    for argv in commands:
        assert _run(argv + ["--samples", "1", "--report", report]) == (0, "")
        assert _run(argv + ["--samples", "-1", "--report", report]) == (
            2, "config error: --samples must be nonnegative\n"
        )


@pytest.mark.parametrize("cap", ["-1", "-5"])
def test_a_negative_cap_is_refused_with_one_line(tmp_path, cap):
    # a cap below zero is malformed input, not a budget the ball went over,
    # so it is refused before any ball is built; a cap of 0 is a budget
    line = tmp_path / "zd1.json"
    line.write_text(json.dumps({"family": "zd", "d": 1}))
    report = tmp_path / "report.txt"
    argv = ["obstruct", "--config", str(line), "--radius", "3", "--report", str(report)]
    assert _run(argv + ["--cap", cap]) == (2, "config error: --cap must be nonnegative\n")
    assert not report.exists()
    assert _run(argv + ["--cap", "0"]) == (
        2, "size limit: |ball(3)| exceeds the configured cap 0\n"
    )


class _NoBall:
    """A cache that fails the test when any ball is asked of it."""

    group = ZdGroup(1, ())

    def at_least(self, radius):
        raise AssertionError(f"ball({radius}) was built")


@pytest.mark.parametrize("search", [rho_forcing_check, bounded_coboundary_search])
def test_the_obstruction_library_refuses_a_negative_cap_before_any_ball(search):
    region = builtin_set(_NoBall.group, "halfline")
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        search(_NoBall(), region, 3, cap=-1)


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**12])
def test_samples_over_the_budget_are_refused_before_any_work(
    tmp_path, monkeypatch, samples
):
    # only counts over the budget run here, so no trial or sample is drawn;
    # the refusal comes before the config is even read
    line, plane = tmp_path / "zd1.json", tmp_path / "zd2.json"
    line.write_text(json.dumps({"family": "zd", "d": 1}))
    plane.write_text(json.dumps({"family": "zd", "d": 2}))
    cocycle = _zd2_cocycle_file(tmp_path)

    def load(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(relend.cli, "_load_pair", load)
    report = tmp_path / "report.txt"
    commands = [
        ["obstruct", "--config", str(line), "--radius", "3", "--cap", "7"],
        ["trivialize", "--config", str(plane), "--plant"],
        ["verify", "--config", str(plane), "--cocycle", str(cocycle)],
    ]
    for argv in commands:
        assert _run(argv + ["--samples", str(samples), "--report", str(report)]) == (
            2, f"config error: --samples {samples} is over the budget {MAX_SAMPLES}\n"
        )
    assert not report.exists()


@pytest.mark.parametrize("rmax", ["0", "-3"])
def test_ends_refuses_an_rmax_below_one_with_one_line(tmp_path, monkeypatch, rmax):
    # an empty range of radii has no count to read the verdict from
    pair = tmp_path / "zd2.json"
    pair.write_text(json.dumps({"family": "zd", "d": 2}))
    radii = _spy_on_balls(monkeypatch)
    argv = ["ends", "--config", str(pair), "--rmax", rmax]
    assert _run(argv) == (2, "config error: rmax must be at least 1\n")
    assert radii == []  # refused before any ball is built


def _unwritable_argv(tmp: Path, case: str, bad: str) -> list[str]:
    """A run of ``case`` that writes one of its outputs to ``bad``."""
    pair = tmp / "zd2.json"
    pair.write_text(json.dumps({"family": "zd", "d": 2}))
    config = ["--config", str(pair)]
    if case == "verify-report":
        return ["verify", *config, "--cocycle", str(_zd2_cocycle_file(tmp)),
                "--samples", "1", "--report", bad]
    return {
        "graph-out": ["graph", *config, "--radius", "1", "--out", bad],
        "graph-csv": ["graph", *config, "--radius", "1", "--out", str(tmp / "g.dot"),
                      "--csv", bad],
        "ends-csv": ["ends", *config, "--rmax", "2", "--margin", "2", "--csv", bad],
        "trivialize-out": ["trivialize", *config, "--plant", "--samples", "1",
                           "--out", bad, "--report", str(tmp / "t.txt")],
        "trivialize-report": ["trivialize", *config, "--plant", "--samples", "1",
                              "--out", str(tmp / "T.json"), "--report", bad],
        "graph-out-directory": ["graph", *config, "--radius", "1", "--out", bad],
    }[case]


@pytest.mark.parametrize(
    "case",
    ["graph-out", "graph-csv", "ends-csv", "trivialize-out", "trivialize-report",
     "verify-report", "graph-out-directory"],
)
def test_unwritable_output_path_exits_two_with_one_line(tmp_path, case):
    if case.endswith("directory"):
        bad = str(tmp_path)
    else:
        bad = str(tmp_path / "missing" / "out.txt")
    argv = _unwritable_argv(tmp_path, case, bad)
    inputs = set(tmp_path.iterdir())
    code, err = _run(argv)
    assert code == 2
    assert err.startswith(f"config error: cannot write {bad}: ")
    assert err.count("\n") == 1
    # every output path is checked before any work, so a run that cannot
    # write one of its outputs writes none of them
    assert set(tmp_path.iterdir()) == inputs


def _config_run(command, path, tmp_path):
    """``graph`` (DOT into tmp_path) or ``ends`` on the config at path."""
    out = ["--out", str(tmp_path / "o.dot")] if command == "graph" else []
    return _run([command, "--config", str(path), *out])


@pytest.mark.parametrize("command", ["graph", "ends"])
def test_deeply_nested_json_exits_two_with_one_line(tmp_path, command):
    # json.dumps cannot encode this nesting, so the file is written as text
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, err = _config_run(command, path, tmp_path)
    assert code == 2
    assert err.startswith(f"config error: malformed JSON in {path}: ")
    assert err.count("\n") == 1


UNDECODABLE = {
    # a UTF-16 byte-order mark and text: not UTF-8
    "not_utf8": b"\xff\xfe{\x00}\x00",
    # an integer over the interpreter's 4,300-digit conversion limit
    "long_int": b'{"family": "zd", "d": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("bad", ["config", "cocycle"])
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_json_names_its_file(tmp_path, bad, name):
    files = {"config": tmp_path / "zd2.json", "cocycle": _zd2_cocycle_file(tmp_path)}
    files["config"].write_text(json.dumps({"family": "zd", "d": 2}))
    files[bad].write_bytes(UNDECODABLE[name])
    code, err = _run(["verify", "--config", str(files["config"]),
                      "--cocycle", str(files["cocycle"]), "--samples", "1",
                      "--report", str(tmp_path / "report.txt")])
    assert code == 2
    assert err.startswith(f"config error: malformed JSON in {files[bad]}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["graph", "ends"])
def test_product_nesting_budget_itself_is_accepted(tmp_path, capsys, command):
    # one level more is a case of test_malformed_config_exits_two_with_one_line
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(_nested_product(PRODUCT_DEPTH)))
    assert _config_run(command, path, tmp_path) == (0, "")
    if command == "ends":
        assert capsys.readouterr().out == "ends estimate: exact 2\n"


def test_unreadable_config_path_exits_two_with_one_line(tmp_path):
    code, err = _run(["graph", "--config", str(tmp_path)])
    assert code == 2
    assert err.startswith(f"config error: cannot read {tmp_path}: ")
    assert err.count("\n") == 1


# argv after the command's --config, the config's name, and the one line
MISUSED_COMMANDS = {
    "missing-config": (["graph"], "missing.json", "no such file: {config}"),
    "trivialize-no-cocycle": (
        ["trivialize"], "zd2", "trivialize needs --cocycle FILE or --plant"
    ),
    "trivialize-plant-and-cocycle": (
        ["trivialize", "--plant", "--cocycle", "/nonexistent.json", "--samples", "2"],
        "zd2",
        "trivialize takes --cocycle FILE or --plant, not both",
    ),
    "plant-b0-over-limit": (
        ["trivialize", "--plant", "--b0-window", "4"],
        "zd2",
        "b0 table over 41 cells and 2 symbols is too large to materialise",
    ),
    "obstruct-unknown-set": (
        ["obstruct", "--set", "nope"], "zd2", "unknown built-in set 'nope'"
    ),
    "halfline-on-free": (
        ["obstruct", "--set", "halfline"], "free2", "halfline requires a lattice group"
    ),
    "halfline-without-free-axis": (
        ["obstruct", "--set", "halfline"],
        "zd1k0",
        "halfline requires at least one free coordinate",
    ),
    "aprefix-on-lattice": (
        ["obstruct", "--set", "aprefix"], "zd2", "aprefix requires a free group"
    ),
    "ends-margin-one": (["ends", "--margin", "1"], "zd2", "margin must be at least 2"),
}
PAIRS = {
    "zd2": {"family": "zd", "d": 2},
    "free2": {"family": "free", "rank": 2},
    "zd1k0": {"family": "zd", "d": 1, "k_coords": [0]},
}


@pytest.mark.parametrize("case", sorted(MISUSED_COMMANDS))
def test_misused_command_exits_two_with_one_line(tmp_path, case):
    command, pair, message = MISUSED_COMMANDS[case]
    config = tmp_path / f"{pair}.json"
    if pair in PAIRS:
        config.write_text(json.dumps(PAIRS[pair]))
    code, err = _run([command[0], "--config", str(config), *command[1:]])
    assert (code, err) == (2, f"config error: {message.format(config=config)}\n")
