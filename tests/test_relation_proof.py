"""The exact relation check of ``verify`` against brute force.

``prove_relations`` moves Moebius coefficients along every relator and
every inverse pair (s, s^-1).  The oracle (``oracle_utils.WordOracle``)
evaluates each such word on every pattern of the cells it reads, through
``act`` and the table lookups alone, and recomputes a reported coefficient
by inclusion-exclusion.  A word whose reach holds more than ``BRUTE_LIMIT``
patterns is left to the coefficient check.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import WordOracle, checked_words
from test_tables_golden import CONFIGS, ONE_ENDED, VARIED_SEED, _write_cocycle

from relend import cocycles
from relend.cli import main
from relend.cocycles import (
    plant_cocycle,
    prove_relations,
    window_patterns,
)
from relend.coset_graph import BallCache
from relend.errors import SearchSpaceTooLargeError
from relend.groups import FreeGroup, ZdGroup, ZmodGroup
from relend.patterns import trivial_alphabet
from relend.serialize import (
    alphabet_from_config,
    cocycle_from_json,
    cocycle_to_json,
    group_from_config,
)
from relend.trivialize import Trivializer

BRUTE_LIMIT = 3**8  # patterns on a word's reach the oracle enumerates
BINARY = trivial_alphabet(("0", "1"), "0")


def _pair(name):
    cfg = CONFIGS[name]
    if "group" in cfg:
        return group_from_config(cfg["group"]), alphabet_from_config(cfg["alphabet"])
    return group_from_config(cfg), BINARY


def _file_spec(name, target, seed, b0_window=0):
    """A planted cocycle as ``verify`` reads it: written as a file, loaded."""
    group, alphabet = _pair(name)
    graph = BallCache(group).at_least(b0_window + 1)
    spec = plant_cocycle(group, alphabet, target, b0_window, seed, graph)
    return cocycle_from_json(group, alphabet, cocycle_to_json(spec, graph))


def _bump(target):
    """A nonzero target element: the last generator, so that a corruption
    of a two-coordinate target sits in its second coordinate."""
    return target.letter_element(len(target.gen_names))


def assert_proof_matches_brute_force(spec):
    """The words the proof refutes are the words brute force refutes, and
    each reported coefficient is the word's own, and nonzero."""
    proof = prove_relations(spec)
    refuted = {v.relator: v for v in proof.violations}
    words = checked_words(spec.group)
    assert (proof.relators, proof.pairs) == (
        len(spec.group.relator_words()), len(spec.group.gen_names)
    )
    assert set(refuted) <= set(words)
    for word in words:
        oracle = WordOracle(spec, word)
        if word in refuted:
            v = refuted[word]
            assert not v.value.is_identity()
            assert oracle.coefficient(v.key) == v.value
        if len(spec.alphabet.symbols) ** len(oracle.reach) <= BRUTE_LIMIT:
            assert (oracle.violation() is not None) == (word in refuted), word
    return proof


# -- planted files, genuine and with one corrupted entry -----------------------

# (pair, target, seed): non-constant plantings, Z/5, Z^1, Z^2 and Z/2 x Z/3
# targets, the K-permuted alphabets and the product
PLANTED = {
    "zd2-varied": ("zd2", ZmodGroup((2,)), VARIED_SEED),
    "zd3k0-varied": ("zd3k0", ZmodGroup((2,)), VARIED_SEED),
    "free2-varied": ("free2", ZmodGroup((2,)), VARIED_SEED),
    "zd2-z5": ("zd2", ZmodGroup((5,)), 3),
    "bs12-z5": ("bs12", ZmodGroup((5,)), 3),
    "zd2-z1": ("zd2", ZdGroup(1), 3),
    "bs12-z1": ("bs12", ZdGroup(1), 3),
    # two target coordinates, each transformed on its own
    "zd2-z^2": ("zd2", ZdGroup(2), 3),
    "bs12-z2xz3": ("bs12", ZmodGroup((2, 3)), 3),
    "zd3k0a": ("zd3k0a", ZmodGroup((2,)), VARIED_SEED),
    "bs12x": ("bs12x", ZmodGroup((2,)), VARIED_SEED),
    "bs12z": ("bs12z", ZmodGroup((2,)), VARIED_SEED),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_a_planted_file_is_proved(name):
    spec = _file_spec(*PLANTED[name])
    values = {h.payload for table in spec.tables.values() for h in table.values()}
    assert len(values) >= 2  # not a table of one value
    assert assert_proof_matches_brute_force(spec).ok


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_a_corrupted_entry_fails_where_brute_force_does(name):
    spec = _file_spec(*PLANTED[name])
    patterns = list(window_patterns(spec.region, spec.alphabet))
    pattern = patterns[len(patterns) // 3]
    for letter in (1, -len(spec.group.gen_names)):
        value = spec.target.multiply(spec.factor(letter, pattern), _bump(spec.target))
        corrupted = spec.corrupted(letter, pattern.entries, value)
        proof = assert_proof_matches_brute_force(corrupted)
        assert not proof.ok
        # a table s and its inverse's always disagree on the pair (s, s^-1)
        assert (abs(letter), -abs(letter)) in {v.relator for v in proof.violations}


@settings(max_examples=30)
@given(
    letter=st.sampled_from(ZdGroup(2, ()).s_letters),
    row=st.integers(0, 31),
)
def test_one_random_corrupted_entry_on_zd2(letter, row):
    # window-1 zd(2) files planted at VARIED_SEED: the exact check fails
    # exactly on the words where brute force finds a violation
    spec = _file_spec("zd2", ZmodGroup((2,)), VARIED_SEED)
    pattern = list(window_patterns(spec.region, spec.alphabet))[row]
    value = spec.target.multiply(spec.factor(letter, pattern), _bump(spec.target))
    corrupted = spec.corrupted(letter, pattern.entries, value)
    assert not assert_proof_matches_brute_force(corrupted).ok


def test_a_rule_backed_spec_over_the_budget_raises_before_any_read():
    group = ZdGroup(3, ())
    calls = []
    spec = plant_cocycle(group, BINARY, ZmodGroup((2,)), 1, 1,
                         BallCache(group).at_least(2))
    rule = spec.rule
    spec.rule = lambda letter, p: calls.append(letter) or rule(letter, p)
    # window 2: 25 cells, so 6 * 2^25 table reads
    assert len(spec.region) == 25
    with pytest.raises(SearchSpaceTooLargeError, match="over 262144 table reads"):
        prove_relations(spec)
    assert calls == [] and not spec.tables


# -- the verify and trivialize commands ----------------------------------------


def _run(tmp_path, config, data, seed=1, command="verify"):
    """Exit code and report lines of ``verify`` (or ``trivialize``, which
    also writes ``transfer.json``) on a cocycle file holding ``data``."""
    (tmp_path / "pair.json").write_text(json.dumps(config))
    (tmp_path / "c.json").write_text(json.dumps(data))
    report, transfer = tmp_path / "report.txt", tmp_path / "transfer.json"
    for f in (report, transfer):
        f.unlink(missing_ok=True)
    argv = [command, "--config", str(tmp_path / "pair.json"),
            "--cocycle", str(tmp_path / "c.json"), "--seed", str(seed),
            "--report", str(report)]
    if command == "trivialize":
        argv += ["--out", str(transfer)]
    code = main(argv)
    lines = report.read_text().splitlines() if report.exists() else []
    return code, lines


def _planted_json(name, target, seed):
    group, alphabet = _pair(name)
    graph = BallCache(group).at_least(1)
    return cocycle_to_json(plant_cocycle(group, alphabet, target, 0, seed, graph), graph)


def _flip(data, letter, row):
    """The file with one Z/2 row of a letter's table flipped."""
    data = json.loads(json.dumps(data))
    entry = data["tables"][letter][row]
    entry[1] = "" if entry[1] else "a"
    return data


def test_a_flipped_row_of_A_on_free2_fails_on_its_inverse_pair(tmp_path):
    # free(2) has no relators, so only the pair (a, A) can refute a flip of A
    data = _planted_json("free2", ZmodGroup((2,)), VARIED_SEED)
    assert len(data["tables"]["A"]) == 32
    for row in range(32):
        code, lines = _run(tmp_path, CONFIGS["free2"], _flip(data, "A", row))
        assert code == 1
        assert lines[1].startswith("FAIL relations: inverse pair a A has coefficient a ")
        assert lines[2] == "PASS window_soundness"


def test_every_single_row_flip_of_A_on_zd2_fails_at_every_seed(tmp_path):
    # the proof reads no seed; sampled relator evaluations miss the flip of
    # the row A=1|B=1 at every seed from 1 to 5
    data = _planted_json("zd2", ZmodGroup((2,)), VARIED_SEED)
    keys = [key for key, _ in data["tables"]["A"]]
    assert "A=1|B=1" in keys
    for row in range(len(keys)):
        for seed in range(1, 6):
            code, lines = _run(tmp_path, CONFIGS["zd2"], _flip(data, "A", row), seed)
            assert code == 1 and lines[1].startswith("FAIL relations: ")


def test_a_failing_proof_names_the_word_and_the_monomial(tmp_path):
    data = _planted_json("zd2", ZmodGroup((2,)), VARIED_SEED)
    row = [key for key, _ in data["tables"]["A"]].index("A=1|B=1")
    code, lines = _run(tmp_path, CONFIGS["zd2"], _flip(data, "A", row))
    assert (code, lines) == (1, [
        "seed: 1",
        # the flipped row's monomial {A=1, B=1} of A, moved back along b
        "FAIL relations: relator a b A B has coefficient a on monomial {e=1|A b=1}",
        "PASS window_soundness",
    ])


def test_a_non_abelian_target_keeps_the_sampled_check(tmp_path):
    data = _planted_json("zd2", FreeGroup(2), VARIED_SEED)
    assert data["H"]["family"] == "free"
    code, lines = _run(tmp_path, CONFIGS["zd2"], data)
    assert (code, lines) == (0, [
        "seed: 1", "PASS relations: 21 relator evaluations", "PASS window_soundness"
    ])


def test_a_proof_over_the_budget_is_a_size_limit(tmp_path, monkeypatch, capsys):
    data = _planted_json("zd2", ZmodGroup((2,)), VARIED_SEED)
    monkeypatch.setattr(cocycles, "PROOF_LIMIT", 4 * 32 - 1)
    code, lines = _run(tmp_path, CONFIGS["zd2"], data)
    assert (code, lines) == (2, [])
    assert capsys.readouterr().err == (
        "size limit: relation proof over 5 cells, 2 symbols and 4 letters is "
        "over 127 table reads\n"
    )


# -- trivialize runs verify's relations check ----------------------------------


@pytest.mark.parametrize("pair,flips", [("zd2", 128), ("zd3k0", 192)])
def test_trivialize_stops_on_every_flipped_row(pair, flips, tmp_path):
    # relators sampled on 10 patterns let 77 of the zd2 flips and 124 of the
    # zd3k0 ones through to RESULT: ok; the proof refutes every one, in both
    # commands and in the library, before any transfer is evaluated
    group, alphabet = _pair(pair)
    data = _planted_json(pair, ZmodGroup((2,)), VARIED_SEED)
    cache = BallCache(group)
    rows = [(l, row) for l, t in sorted(data["tables"].items()) for row in range(len(t))]
    assert len(rows) == flips
    for letter, row in rows:
        flipped = _flip(data, letter, row)
        code, lines = _run(tmp_path, CONFIGS[pair], flipped)
        assert code == 1 and lines[1].startswith("FAIL relations: ")
        assert _run(tmp_path, CONFIGS[pair], flipped, command="trivialize") == (1, [
            "seed: 1", "PASS one_ended: exact 1", "PASS fixed_point", lines[1],
            "RESULT: FAILED",
        ])
        trivializer = Trivializer(cache, cocycle_from_json(group, alphabet, flipped), 1)
        _, report = trivializer.run()
        assert report.checks[-1].line() == lines[1]
        assert trivializer.transfer_evaluations == 0


@pytest.mark.parametrize(
    "pair,command",
    [(pair, "verify") for pair in (*ONE_ENDED, "zd3k0a")]
    + [(pair, "trivialize-varied") for pair in ONE_ENDED],
)
def test_an_intact_file_gets_one_relations_line_from_both_commands(
    pair, command, tmp_path
):
    # the tables-golden files trivialize reaches the relations check on: the
    # one-ended pairs, at PLANT_SEED (command "verify") and VARIED_SEED
    _write_cocycle(pair, tmp_path / "file.json", command)
    data = json.loads((tmp_path / "file.json").read_text())
    code, verify = _run(tmp_path, CONFIGS[pair], data)
    assert code == 0 and verify[1].startswith("PASS relations: proved on ")
    code, lines = _run(tmp_path, CONFIGS[pair], data, command="trivialize")
    assert (code, lines[3], lines[-1]) == (0, verify[1], "RESULT: ok")


def test_trivialize_meets_the_proof_budget_as_verify_does(
    tmp_path, monkeypatch, capsys
):
    data = _planted_json("zd2", ZmodGroup((2,)), VARIED_SEED)
    monkeypatch.setattr(cocycles, "PROOF_LIMIT", 4 * 32 - 1)
    for command in ("verify", "trivialize"):
        assert _run(tmp_path, CONFIGS["zd2"], data, command=command) == (2, [])
        assert not (tmp_path / "transfer.json").exists()
        assert capsys.readouterr() == ("", (
            "size limit: relation proof over 5 cells, 2 symbols and 4 letters is "
            "over 127 table reads\n"
        ))


def test_a_planted_run_samples_its_relators_and_its_file_is_proved():
    # a rule-backed spec would pay one rule call per table entry to be proved
    group = ZdGroup(2, ())
    graph = BallCache(group).at_least(1)
    spec = plant_cocycle(group, BINARY, ZmodGroup((2,)), 0, VARIED_SEED, graph)
    loaded = cocycle_from_json(group, BINARY, cocycle_to_json(spec, graph))
    lines = [
        Trivializer(BallCache(group), c, 1).run(2)[1].checks[2].line()
        for c in (spec, loaded)
    ]
    assert lines == [
        "PASS relations: 11 relator evaluations",
        "PASS relations: proved on 1 relators and 2 inverse pairs",
    ]
