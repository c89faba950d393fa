"""Byte-level digests of ``relend verify`` and ``relend trivialize`` runs.

Each case pins the sha256 of (exit code, stdout, stderr, report file,
transfer JSON) for one argument list, so any change to cocycle loading, the
relation and window checks or the trivialize pipeline that moves a byte of a
report, a transfer table, a message or an exit code shows up here.  The
cocycle files are window-1 tables planted with ``plant_cocycle`` and written
with ``cocycle_to_json``, one per pair of the benchmark's tables workload.
The cases verify each file at two seeds, trivialize each file (and the
zd(2), zd(3) and zd(3, [0]) files at two seeds with the default 50
samples), verify one file with a corrupted entry, and plant-and-trivialize
at b0-windows 0 and 1.  The files use ``PLANT_SEED``, whose b0 is constant
at b0-window 0, so their cocycles are constant; the one-ended pairs are
also trivialized on files planted at ``VARIED_SEED``, whose b0 takes both
values (``assert_varies``).
Two pairs carry an alphabet that K permutes, given as a
``{"group": ..., "alphabet": ...}`` config: zd(3, [0]) with a = (0 2 1) is
planted and trivialized, and a file planted on BS(1, 2) with x = (0 2 3 1)
is verified (BS(1, 2) is many-ended, so trivialize stops at one_ended).
The product BS(1, 2) x Z relative to <x> x 0, whose letter steps correct
by K-elements on flat product payloads, is planted and trivialized at
b0-window 0, at seed 1 (a constant b0) and at ``VARIED_SEED``, and its
planted file is verified.

To re-record after an intended change, run this file as a script; it prints
the table below.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from relend.cli import main
from relend.cocycles import plant_cocycle
from relend.coset_graph import BallCache
from relend.groups import ZmodGroup
from relend.patterns import trivial_alphabet
from relend.serialize import alphabet_from_config, cocycle_to_json, group_from_config

CONFIGS = {
    "zd2": {"family": "zd", "d": 2, "k_coords": []},
    "zd3": {"family": "zd", "d": 3, "k_coords": []},
    "zd3k0": {"family": "zd", "d": 3, "k_coords": [0]},
    "free2": {"family": "free", "rank": 2, "k": "trivial"},
    "bs12": {"family": "bs", "m": 1, "n": 2},
    "zd3k0a": {
        "group": {"family": "zd", "d": 3, "k_coords": [0]},
        "alphabet": {"symbols": ["0", "1", "2"], "x0": "0", "alpha": {"a": [0, 2, 1]}},
    },
    "bs12z": {"family": "direct_product", "factors": [
        {"family": "bs", "m": 1, "n": 2}, {"family": "zd", "d": 1}]},
    "bs12x": {
        "group": {"family": "bs", "m": 1, "n": 2},
        "alphabet": {
            "symbols": ["0", "1", "2", "3"], "x0": "0", "alpha": {"x": [0, 2, 3, 1]}
        },
    },
}
PLANT_SEED = 11  # seed of every planted cocycle file but the varied ones
# a seed whose b0 takes both values, so the planted cocycle is not constant
VARIED_SEED = 4
PLAIN = ("zd2", "zd3", "zd3k0", "free2", "bs12")  # binary trivial alphabet
ONE_ENDED = ("zd2", "zd3", "zd3k0")

# (command, pair, seed, extra arguments)
CASES = (
    [("verify", pair, seed, ()) for pair in PLAIN for seed in (1, 2)]
    + [("trivialize", pair, 1, ("--samples", "12")) for pair in PLAIN]
    # the default 50 cohomology samples
    + [
        ("trivialize", pair, seed, ())
        for pair in ("zd2", "zd3", "zd3k0")
        for seed in (1, 2)
    ]
    + [("verify-corrupt", "zd2", 1, ())]
    # files planted at VARIED_SEED: the transfer is tested on a b0 that varies
    + [("trivialize-varied", pair, 1, ()) for pair in ONE_ENDED]
    + [
        ("plant", pair, 1, ("--b0-window", str(w), "--samples", "12"))
        for pair in ("zd2", "zd3k0", "bs12")
        for w in (0, 1)
    ]
    # alphabets permuted by K
    + [("verify", "bs12x", seed, ()) for seed in (1, 2)]
    + [("trivialize", "zd3k0a", 1, ("--samples", "12"))]
    + [
        ("plant", "zd3k0a", 1, ("--b0-window", str(w), "--samples", "12"))
        for w in (0, 1)
    ]
    # a product pair: K-corrections on flat product payloads
    + [
        ("plant", "bs12z", seed, ("--b0-window", "0", "--samples", "12"))
        for seed in (1, VARIED_SEED)
    ]
    + [("verify", "bs12z", 1, ())]
)


def _name(case):
    command, pair, seed, extra = case
    return "-".join([command, pair, f"s{seed}", *(a.lstrip("-") for a in extra)])


def assert_varies(spec) -> None:
    """The planted b0 takes at least two values.  With one value b, c(s, y)
    = b^-1 hom(s) b = hom(s) at every y, a constant cocycle."""
    values = {g.payload for g in spec.derivation.b0.values()}
    assert len(values) >= 2, f"b0 is constant: {values}"


def test_assert_varies_refuses_a_constant_planting():
    # the PLANT_SEED files are constant at b0-window 0, the VARIED_SEED
    # ones are not
    group = group_from_config(CONFIGS["zd2"])
    alphabet, graph = trivial_alphabet(("0", "1"), "0"), BallCache(group).at_least(1)

    def plant(seed):
        return plant_cocycle(group, alphabet, ZmodGroup((2,)), 0, seed, graph)

    with pytest.raises(AssertionError, match="b0 is constant"):
        assert_varies(plant(PLANT_SEED))
    assert_varies(plant(VARIED_SEED))


def test_the_varied_product_planting_is_not_constant():
    # what ``trivialize --plant --b0-window 0`` plants on bs12z at VARIED_SEED
    group = group_from_config(CONFIGS["bs12z"])
    alphabet, graph = trivial_alphabet(("0", "1"), "0"), BallCache(group).at_least(0)
    assert_varies(
        plant_cocycle(group, alphabet, ZmodGroup((2,)), 0, VARIED_SEED, graph)
    )


def _write_cocycle(pair: str, path: Path, command: str) -> None:
    cfg = CONFIGS[pair]
    if "group" in cfg:
        group = group_from_config(cfg["group"])
        alphabet = alphabet_from_config(cfg["alphabet"])
    else:
        group, alphabet = group_from_config(cfg), trivial_alphabet(("0", "1"), "0")
    graph = BallCache(group).at_least(1)
    varied = command == "trivialize-varied"
    seed = VARIED_SEED if varied else PLANT_SEED
    spec = plant_cocycle(group, alphabet, ZmodGroup((2,)), 0, seed, graph)
    if varied:
        assert_varies(spec)
    data = cocycle_to_json(spec, graph)
    if command == "verify-corrupt":
        # flip the value of the first row of the first generator
        row = data["tables"][sorted(data["tables"])[0]][0]
        row[1] = "" if row[1] else "a"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run_case(case, workdir: Path) -> str:
    command, pair, seed, extra = case
    config = workdir / f"{pair}.json"
    config.write_text(json.dumps(CONFIGS[pair]))
    report, transfer = workdir / "report.txt", workdir / "transfer.json"
    for f in (report, transfer):
        f.unlink(missing_ok=True)
    argv = ["--config", str(config), "--seed", str(seed), "--report", str(report)]
    if command == "plant":
        argv = ["trivialize", *argv, "--plant", "--out", str(transfer)]
    else:
        cocycle = workdir / "cocycle.json"
        _write_cocycle(pair, cocycle, command)
        argv = [command.split("-")[0], *argv, "--cocycle", str(cocycle)]
        if argv[0] == "trivialize":
            argv += ["--out", str(transfer)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + list(extra))
    digest = hashlib.sha256()
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
    parts += [f.read_bytes() if f.exists() else b"<no file>" for f in (report, transfer)]
    for part in parts:
        digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


GOLDEN = {
    "verify-zd2-s1":
        "cc28e377bd2a471ad3037d1ee34f6643360f274da2d4ef8742b58da342e9b678",
    "verify-zd2-s2":
        "b8b38e9adf961d83252fcf48c6fa278ae2d41a39c9f2822f2a121b05e42297e6",
    "verify-zd3-s1":
        "9b21d64b86098166dc2a351d3687747aa29533dfa45dbffaf866fd707f9ec7d8",
    "verify-zd3-s2":
        "12377f581f9d98f8407effde0b00b1cb3ae5cf0a0730f828dd0a7ba2a5300964",
    "verify-zd3k0-s1":
        "9b21d64b86098166dc2a351d3687747aa29533dfa45dbffaf866fd707f9ec7d8",
    "verify-zd3k0-s2":
        "12377f581f9d98f8407effde0b00b1cb3ae5cf0a0730f828dd0a7ba2a5300964",
    "verify-free2-s1":
        "eeb289ed4ff32ed79b0d49c5dcd83b3810a561a4aa76cee7d32f95f336b5ddee",
    "verify-free2-s2":
        "8f88a98d17bd4f808023fc8d21e74a9c9336d843101563c2897189bf536c7f67",
    "verify-bs12-s1":
        "cc28e377bd2a471ad3037d1ee34f6643360f274da2d4ef8742b58da342e9b678",
    "verify-bs12-s2":
        "b8b38e9adf961d83252fcf48c6fa278ae2d41a39c9f2822f2a121b05e42297e6",
    "trivialize-zd2-s1-samples-12":
        "65d0a62a8c7ea51097b3ef1dc9abb59f27d1a0072ca7af4067f431e787ce53eb",
    "trivialize-zd3-s1-samples-12":
        "3d6f36c047d933a8c21eb54cf8de1752dadf8d7c2fa4bde0c5f6115c8d3b30aa",
    "trivialize-zd3k0-s1-samples-12":
        "49ee12a4321a4890f14e6d3d54e6d64b23f62e69f70767595fe84ef7995bea23",
    "trivialize-free2-s1-samples-12":
        "c20ad46b5490f5d95e488ccac08ae5e4b396040f1e1a01d8f7f11e83cd1f2577",
    "trivialize-bs12-s1-samples-12":
        "777993a21a61936f2b97daf30a527ea5ae4aa5b600b8aaf1d477094472f8c4f4",
    "trivialize-zd2-s1":
        "575e245a3903240c1218091d10ec96e02eef3954ef2c7d589fff516843b5fd9c",
    "trivialize-zd2-s2":
        "ed16ddef1b3a3b1928316d4a511358995370a865066ae5fff50b7dcc21322a1b",
    "trivialize-zd3-s1":
        "ec5877204b8ff7fab0ef45b1abe2090300cdfc060a2d966ab466bce87bc8942e",
    "trivialize-zd3-s2":
        "368d0308d5bd97a6a0d8393b45d9ed0495a8c0c19c5045d1d794bfbe951ed5fa",
    "trivialize-zd3k0-s1":
        "775a3a64a7f2c768264f5775f5aab868b89d8f55ff2a3767b3b193d7bf380306",
    "trivialize-zd3k0-s2":
        "01a363527922ff1982249484fd526f6e8ab19cea9c12d888c6ba7946ffbf41d2",
    "verify-corrupt-zd2-s1":
        "04a1b2e45e798f4d41d2af4e0a743f0330842a46df1a0727a482b4e44a3d6d21",
    "trivialize-varied-zd2-s1":
        "31fa24722ee5a774a3fb5f7bfeb82624d7edd80915e886d46daba23fca4500cc",
    "trivialize-varied-zd3-s1":
        "58d672485e1bbb9e1fcf06d187b87f2d402d7c9e67573b55477ee106b0d97e1c",
    "trivialize-varied-zd3k0-s1":
        "720c78b9d17877b8e8530a3813b593974830efeb01a569086d08e1a456a77c20",
    "plant-zd2-s1-b0-window-0-samples-12":
        "9f96b777760eb72bde9b5c1f7ea7dd410b3c0c220665c99210bbce97b6eac6d8",
    "plant-zd2-s1-b0-window-1-samples-12":
        "1dabfd50e7fb42c11940fa61bde48269989ac8e55ae086845a73c2c52812726f",
    "plant-zd3k0-s1-b0-window-0-samples-12":
        "92ad8d474bea71c5aceee358125e67812de9d0aab415f3ea32e508f69e89ec4e",
    "plant-zd3k0-s1-b0-window-1-samples-12":
        "27eb107091ffa60391f911cf27db97a0714cb0a7febe33fb79bf894232baba7c",
    "plant-bs12-s1-b0-window-0-samples-12":
        "777993a21a61936f2b97daf30a527ea5ae4aa5b600b8aaf1d477094472f8c4f4",
    "plant-bs12-s1-b0-window-1-samples-12":
        "777993a21a61936f2b97daf30a527ea5ae4aa5b600b8aaf1d477094472f8c4f4",
    "verify-bs12x-s1":
        "cc28e377bd2a471ad3037d1ee34f6643360f274da2d4ef8742b58da342e9b678",
    "verify-bs12x-s2":
        "b8b38e9adf961d83252fcf48c6fa278ae2d41a39c9f2822f2a121b05e42297e6",
    "trivialize-zd3k0a-s1-samples-12":
        "88d8e069e5d12dc40157126d7afb90cda8b01408e6a0e43bf4dc01fd75263cae",
    "plant-zd3k0a-s1-b0-window-0-samples-12":
        "96c5ce6217a4b05ba4a7ada8ec093d26ed8a1ab1deac8003760a907e3b8b406d",
    "plant-zd3k0a-s1-b0-window-1-samples-12":
        "8829f4b91f3d5fdde8eabcfa961c71087e27854b18db31b46f1996efa4f1aecf",
    "plant-bs12z-s1-b0-window-0-samples-12":
        "b949d0642bc590888d009a3934b01ffacd04d04db5ad6c097d006dca8c0e1afa",
    "plant-bs12z-s4-b0-window-0-samples-12":
        "0b06880670f3c0a6843abad2ffcd5296fa4a6e72a7334f9bb0ed64c4c608e4de",
    "verify-bs12z-s1":
        "9b21d64b86098166dc2a351d3687747aa29533dfa45dbffaf866fd707f9ec7d8",
}


@pytest.mark.parametrize("case", CASES, ids=_name)
def test_tables_output_digest(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[_name(case)]


@pytest.mark.parametrize("pair", ONE_ENDED)
def test_a_varied_planting_is_recovered_by_a_transfer_that_varies(pair, tmp_path):
    # the digests pin bytes; this says what the varied cases show: the run
    # passes, and the recovered b takes both values of Z/2
    run_case(("trivialize-varied", pair, 1, ()), tmp_path)
    assert (tmp_path / "report.txt").read_text().endswith("RESULT: ok\n")
    transfer = json.loads((tmp_path / "transfer.json").read_text())
    assert len(set(transfer["b"].values())) == 2


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            sys.stdout.write(f'    "{_name(case)}":\n')
            sys.stdout.write(f'        "{run_case(case, Path(tmp))}",\n')
