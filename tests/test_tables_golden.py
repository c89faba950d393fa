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
b0-window 0, and its planted file is verified.

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
    + [("plant", "bs12z", 1, ("--b0-window", "0", "--samples", "12"))]
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
        "a24d82e3cc79c34243b5c69d042aa185cf7f73182fb0266d0c6128107e0d530d",
    "verify-zd2-s2":
        "d1cbd48c0bb2edaab996b3cffcc21d23660637ab31939424c1a4d6f5c56b20ad",
    "verify-zd3-s1":
        "94d51ccdf92779d84533713768738396c27a6f50ca176aaed55b45fa1c5365da",
    "verify-zd3-s2":
        "cc2617cdcdb54ed21c61322ffe316ad4b2e3fd46fbfcc7aea4431a5d618e3c5d",
    "verify-zd3k0-s1":
        "94d51ccdf92779d84533713768738396c27a6f50ca176aaed55b45fa1c5365da",
    "verify-zd3k0-s2":
        "cc2617cdcdb54ed21c61322ffe316ad4b2e3fd46fbfcc7aea4431a5d618e3c5d",
    "verify-free2-s1":
        "957bd46e81e8619f55f93942b3adbb8ed3797a5aad6059b6ad64d439a2173f39",
    "verify-free2-s2":
        "b1721e88b2d5c56568b19b109bec19ac6c8e95e3becc873bea788a0cc978e169",
    "verify-bs12-s1":
        "a24d82e3cc79c34243b5c69d042aa185cf7f73182fb0266d0c6128107e0d530d",
    "verify-bs12-s2":
        "d1cbd48c0bb2edaab996b3cffcc21d23660637ab31939424c1a4d6f5c56b20ad",
    "trivialize-zd2-s1-samples-12":
        "d0c8fb250aab9a6fe94e2e61db3948d49ff2d65c15428ab523f20679e0fce3b3",
    "trivialize-zd3-s1-samples-12":
        "9dd1ac35e86fc0bc1ea846840d7dac6387416af9d693b8d801a8fe264d177dcb",
    "trivialize-zd3k0-s1-samples-12":
        "4f52b9c016a9a08f044a289f6dff2fb8596bc06652342727775f28dd8a3f85c1",
    "trivialize-free2-s1-samples-12":
        "c20ad46b5490f5d95e488ccac08ae5e4b396040f1e1a01d8f7f11e83cd1f2577",
    "trivialize-bs12-s1-samples-12":
        "777993a21a61936f2b97daf30a527ea5ae4aa5b600b8aaf1d477094472f8c4f4",
    "trivialize-zd2-s1":
        "b9e89b9c215e185581acaf3c7094700a6b5c3ef6603c19322021ed94eb2d4322",
    "trivialize-zd2-s2":
        "d3bcad4c3808e840bccf5c16e77db2729b267e225efcaa3d2ddeacec13320287",
    "trivialize-zd3-s1":
        "9fc7bb06b89cc658a1ef7750d0ccb3665cde446f99858fe829ed9256975ee127",
    "trivialize-zd3-s2":
        "fd080b3be72f46a4fd5a1436d3cf5f7d092037198deb1bfa0d1d49b5111d6095",
    "trivialize-zd3k0-s1":
        "a002cd568df24f1c16d9a31b2967eebd5f11fc413c3f96e8167a47b8018b39a7",
    "trivialize-zd3k0-s2":
        "c4c7cc857a4ed2a50f18906775c9ef3ca203f8920a2360e52d1e25ae3dddb9a1",
    "verify-corrupt-zd2-s1":
        "c078a646d351e35c2fab2a02a871ba88bbdff89b30d10452f0821f6a9536745e",
    "trivialize-varied-zd2-s1":
        "90172eef7fcbefcf595bae05e150b0cc000e88f88e449bee86705587eb100eac",
    "trivialize-varied-zd3-s1":
        "0c4fd93b99a314245a78bc4d8a2d24a3ef3a56d704e7a9e60307e66262d3f0f7",
    "trivialize-varied-zd3k0-s1":
        "07b18ef3222eb03ef9bacd8139473056b3d2a54ebf5e42e4fc7a940e6ee777f9",
    "plant-zd2-s1-b0-window-0-samples-12":
        "77343e221469032abc7e6317d35fda0d9f4fa1c4b0e6aec743af17b19073cb80",
    "plant-zd2-s1-b0-window-1-samples-12":
        "60862076c05d1214cc7573baf3116281950496e07d496625e7aa1f82936005bc",
    "plant-zd3k0-s1-b0-window-0-samples-12":
        "95c79d6a7eb267af7583f420994be76c53518a8f99343d0ad217021fb3972eb6",
    "plant-zd3k0-s1-b0-window-1-samples-12":
        "8fcebc626f029d920508d3c0dbff238d50ec8efa99079020be3bd52bbe5616df",
    "plant-bs12-s1-b0-window-0-samples-12":
        "777993a21a61936f2b97daf30a527ea5ae4aa5b600b8aaf1d477094472f8c4f4",
    "plant-bs12-s1-b0-window-1-samples-12":
        "777993a21a61936f2b97daf30a527ea5ae4aa5b600b8aaf1d477094472f8c4f4",
    "verify-bs12x-s1":
        "a24d82e3cc79c34243b5c69d042aa185cf7f73182fb0266d0c6128107e0d530d",
    "verify-bs12x-s2":
        "d1cbd48c0bb2edaab996b3cffcc21d23660637ab31939424c1a4d6f5c56b20ad",
    "trivialize-zd3k0a-s1-samples-12":
        "015838b3d29882ecb80f42573a3b95ee6d13c37b70f895bdafcc7da52fa8fda8",
    "plant-zd3k0a-s1-b0-window-0-samples-12":
        "3f9d9d0ccf3e1329ec6fefe23ebeb3a1d1a9e8e70ac879900564cc1b91e09d26",
    "plant-zd3k0a-s1-b0-window-1-samples-12":
        "201e885dd5c3c7df7d46bc69d78682ee143551f106e489656c493f25cde914cf",
    "plant-bs12z-s1-b0-window-0-samples-12":
        "2729fd26b9fedc60dc38a460439d393148800dcf8a1ddf30520021183abd4e00",
    "verify-bs12z-s1":
        "94d51ccdf92779d84533713768738396c27a6f50ca176aaed55b45fa1c5365da",
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
