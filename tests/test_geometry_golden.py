"""Byte-level digests of ``relend graph`` and ``relend ends`` runs.

Each case pins the sha256 of (exit code, stdout, stderr, each output file)
for one argument list, so any change to ball building or to the shell passes
that moves a byte of a DOT file, a CSV row, a verdict or an exit code shows
up here.  The cases cover every pair of the benchmark's geometry workload at
its own parameters, plus bs(2, 3), BS(1, 2) x Z relative to <x> x 0 (a
commensurated, non-normal subgroup), the finite group zmod(5) and zd(2) with
K the whole lattice (one vertex).  ``graph`` on zmod(5) at radius 2 has an
edge inside its last sphere, and on bs(2, 3) at radius 0 the whole ball is
its last sphere.

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

CONFIGS = {
    "zd1": {"family": "zd", "d": 1, "k_coords": []},
    "zd2": {"family": "zd", "d": 2, "k_coords": []},
    "zd3": {"family": "zd", "d": 3, "k_coords": []},
    "zd3k0": {"family": "zd", "d": 3, "k_coords": [0]},
    "free2": {"family": "free", "rank": 2, "k": "trivial"},
    "bs12": {"family": "bs", "m": 1, "n": 2},
    "bs13": {"family": "bs", "m": 1, "n": 3},
    "bs23": {"family": "bs", "m": 2, "n": 3},
    "bs12xz": {"family": "direct_product", "factors": [
        {"family": "bs", "m": 1, "n": 2}, {"family": "zd", "d": 1}]},
    "zmod5": {"family": "zmod", "mods": [5]},
    "zd2k01": {"family": "zd", "d": 2, "k_coords": [0, 1]},
}

# ("ends", pair, rmax, margin) and ("graph", pair, radius)
CASES = [
    ("ends", "zd2", 5, 5), ("ends", "zd3", 5, 5), ("ends", "zd3k0", 8, 6),
    ("ends", "zd1", 5, 5), ("ends", "free2", 3, 4), ("ends", "free2", 3, 5),
    ("ends", "bs12", 5, 5), ("ends", "bs13", 4, 4), ("ends", "bs23", 3, 3),
    ("ends", "bs12xz", 4, 4), ("ends", "zmod5", 3, 3), ("ends", "zd2k01", 2, 2),
    ("graph", "free2", 6), ("graph", "zd3", 8), ("graph", "zd1", 5),
    ("graph", "zd2", 4), ("graph", "zd3k0", 4), ("graph", "bs12", 4),
    ("graph", "bs13", 3), ("graph", "bs23", 3), ("graph", "bs12xz", 4),
    ("graph", "zmod5", 3), ("graph", "zd2k01", 2), ("graph", "zmod5", 2),
    ("graph", "bs23", 0),
]


def _name(case):
    return "-".join(map(str, case))


def run_case(case, workdir: Path) -> str:
    command, pair, *params = case
    config = workdir / f"{pair}.json"
    config.write_text(json.dumps(CONFIGS[pair]))
    argv = [command, "--config", str(config), "--seed", "1"]
    if command == "ends":
        argv += ["--rmax", str(params[0]), "--margin", str(params[1])]
        files = [workdir / "out.csv"]
    else:
        files = [workdir / "out.dot", workdir / "out.csv"]
        argv += ["--radius", str(params[0]), "--out", str(files[0])]
    argv += ["--csv", str(files[-1])]
    for f in files:
        f.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    digest = hashlib.sha256()
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
    parts += [f.read_bytes() if f.exists() else b"<no file>" for f in files]
    for part in parts:
        digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


GOLDEN = {
    "ends-zd2-5-5":
        "91f76d063ea98615014efdb48891b6901c5516f435e3f72d233110bcc5ac76d9",
    "ends-zd3-5-5":
        "91f76d063ea98615014efdb48891b6901c5516f435e3f72d233110bcc5ac76d9",
    "ends-zd3k0-8-6":
        "5126384a728567b2bf98546053e9d6d0e4f86bfe11d0083bf21622e27ec72997",
    "ends-zd1-5-5":
        "b51c37d46365cdb94733a3337fef60a9c94a72ac5c7f4c025b8f83bf61c8e98f",
    "ends-free2-3-4":
        "e4ff187ae8f70a07abdcf446c1231b3617d184d698a78e8427847e9fd4a94923",
    "ends-free2-3-5":
        "fc08f24f21b21acb4f908fca514ad68f5ca982b11cb1cb1517de5f39e23ed19c",
    "ends-bs12-5-5":
        "9c3128a5ead41762dde48dd037d28de7d0e9348aff007b579b7355afe8351a32",
    "ends-bs13-4-4":
        "dfad49704f2044fa2a2e447921c5430a60ef46c589e2133849fcf3eeb9244d1e",
    "ends-bs23-3-3":
        "337e7fb5e33f581a19f6006badfeb85a24549a91d177f6c94216a1c8bcbaf6da",
    "ends-bs12xz-4-4":
        "b4aafbef17025b74800a68c9bb08d9199a15ca691d9e131e46f082db1cacdd34",
    "ends-zmod5-3-3":
        "6ca0e93956099952d1a761ab9fa21c55f4ecea0d87c81ae8cd258f20055df2ee",
    "ends-zd2k01-2-2":
        "a4f02a6f49669dc772e9d198410b43eee0c50ba1315c10738b8378de92ecd30a",
    "graph-free2-6":
        "529af70867eea169a986888384e7518c48b661d824e467d1c3f8d6a56e2c927a",
    "graph-zd3-8":
        "c303cc1c6447108c6a165f72493bb277a3db6d0f46785486df78027c748a6bc2",
    "graph-zd1-5":
        "758b247840ad741d1330213a7a87b2faa948d642060ab430824a2c8d0b10e5e4",
    "graph-zd2-4":
        "6eeda248d746ffb73c15fa258daf629d7d3ba8520f4c8473e4a7b7ce6bc89d42",
    "graph-zd3k0-4":
        "cf4ecb2dd9d8045ae49733750eff16d7649bea10731c3988e1a34a76aad205f6",
    "graph-bs12-4":
        "4e6aca9d58d4f9bc9846a0b7c504b48d2792e53684b295c5905dad1cf3a893a2",
    "graph-bs13-3":
        "eb112fb1aacd512f082c0eb7e340023002d749f07b4ced863e43cabd6b613446",
    "graph-bs23-3":
        "acc36d578768dd016cc954b3833641194c7202a5cc637454da94faf026c280e3",
    "graph-bs12xz-4":
        "0ce0b991dc38ca3eea8554d81a72c6587f56c430749f4006b86161c0b5717cc7",
    "graph-zmod5-3":
        "96e30c273a39ebfb7165f358bf11c68b8734c0831463d0c40084b278bf334747",
    "graph-zd2k01-2":
        "d5a0ab9e609efbf10268d009ff85a3eba78625bd4af93b1ac9d5402944be5ae8",
    "graph-zmod5-2":
        "96e30c273a39ebfb7165f358bf11c68b8734c0831463d0c40084b278bf334747",
    "graph-bs23-0":
        "530815c49011827a65f43f5edcce95f4730bc29bae21d6b1fe63a4e37f4b3d5b",
}


@pytest.mark.parametrize("case", CASES, ids=_name)
def test_geometry_output_digest(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[_name(case)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            sys.stdout.write(f'    "{_name(case)}":\n')
            sys.stdout.write(f'        "{run_case(case, Path(tmp))}",\n')
