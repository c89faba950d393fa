"""Byte-level digests of ``relend obstruct`` runs.

Each case pins the sha256 of (exit code, stdout, stderr, report file) for one
argument list, so any change to the obstruction pipeline that moves a byte of
a report, a message or an exit code shows up here.  The cases cover the
half-line on Z and on Z^2 relative to the first axis, the a-tail set of F_2,
the radii where the difference sets are not yet stable, a ``--cap`` that is
too small and a built-in set that does not fit the group.

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
    "zd2k0": {"family": "zd", "d": 2, "k_coords": [0]},
    "free2": {"family": "free", "rank": 2, "k": "trivial"},
}


def _case(pair, set_name, radius, cap, seed=3):
    return (pair, set_name, radius, cap, seed)


CASES = (
    [_case("zd1", "halfline", r, 2 * r + 1) for r in (*range(1, 13), 20, 27, 40)]
    + [_case("zd2k0", "halfline", r, 2 * r + 1) for r in (1, 2, 3, 6, 12)]
    + [_case("free2", "aprefix", r, 2 * 3**r - 1) for r in range(1, 6)]
    # a cap that is too small, alone and behind an unstable radius; radii
    # below 1; a set that does not fit the group
    + [_case("zd1", "halfline", 12, 22), _case("zd1", "halfline", 1, 1),
       _case("free2", "aprefix", 1, 1), _case("zd1", "halfline", 0, 1),
       _case("zd1", "halfline", -1, 1), _case("zd1", "aprefix", 4, 9)]
)


def _name(case):
    pair, set_name, radius, cap, seed = case
    return f"{pair}-{set_name}-r{radius}-cap{cap}-s{seed}"


def run_case(case, workdir: Path) -> str:
    pair, set_name, radius, cap, seed = case
    config = workdir / f"{pair}.json"
    config.write_text(json.dumps(CONFIGS[pair]))
    report = workdir / "report.txt"
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(
            ["obstruct", "--config", str(config), "--seed", str(seed),
             "--set", set_name, "--radius", str(radius), "--cap", str(cap),
             "--report", str(report)]
        )
    digest = hashlib.sha256()
    for part in (
        str(code).encode(),
        out.getvalue().encode(),
        err.getvalue().encode(),
        report.read_bytes() if report.exists() else b"<no report>",
    ):
        digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


GOLDEN = {
    "zd1-halfline-r1-cap3-s3":
        "bfd48af795fd37cf3681954365d25448b3717720daa83109e7f4eda29a9d6233",
    "zd1-halfline-r2-cap5-s3":
        "8375b517573abcf6822d7bf456ff1404b3aec48ddd389766b2e6324af8684465",
    "zd1-halfline-r3-cap7-s3":
        "8f6cf4a8d63435980eff34cea1b87aefc7aa27a1e71a6ade64ab9d0172a640a2",
    "zd1-halfline-r4-cap9-s3":
        "4ea0148d7e04638e08d10502c2cefbc781e62e0fa9beb3d6c0aa1fa702106513",
    "zd1-halfline-r5-cap11-s3":
        "a2598a1a1d5542540346fa05b4a8df6eb01f281a5cb584fe312de5d6d0124882",
    "zd1-halfline-r6-cap13-s3":
        "df082cadee4001331895a70d191e4bc507defea1af08ccd06f1701c90886e16d",
    "zd1-halfline-r7-cap15-s3":
        "b1f22affc77c5d1b75d3b580873dd2da5048438b5e4cacc9b7ed1c888aafa07d",
    "zd1-halfline-r8-cap17-s3":
        "5f5d03ef1adc0cba2374b9708d6e15dd09f3ee22ecb995ecf9a3df0b948dca4b",
    "zd1-halfline-r9-cap19-s3":
        "60a7914d3327a5f129b5391733cf144cf0209698f11e0d7f87f95bc6c012d69d",
    "zd1-halfline-r10-cap21-s3":
        "13623255c3250b8ed118eef867d4cf767e0db9ace189473b462c7d10fa6595d9",
    "zd1-halfline-r11-cap23-s3":
        "12af74698b175e49a9d79fe88e21f991b745d088ff93b5047d3d7f73f421b017",
    "zd1-halfline-r12-cap25-s3":
        "a124791c993d3b8f3877452f2572184636dfc6f8eac3085ede5d68c0e64b0917",
    "zd1-halfline-r20-cap41-s3":
        "c89155abccd0976fe0df67ab017debf62d7d28ea06ac39ad9609d892cc436245",
    "zd1-halfline-r27-cap55-s3":
        "01e3d100e5d3d1bed2a63436e66e4ea40b0dd16988e968c3bbde286b73e1857d",
    "zd1-halfline-r40-cap81-s3":
        "56ef87c053fc3c66a2489fad9de93aa9f72184b961a06343091d1e1760899268",
    "zd2k0-halfline-r1-cap3-s3":
        "44a09f95bbeae5106e80dc4c6123b39dda736187ed85f835609270c63f47bf82",
    "zd2k0-halfline-r2-cap5-s3":
        "d501d28ec25dc56e640fcdd06dd4929b63d690665997d00a5c1bda462b9fbe62",
    "zd2k0-halfline-r3-cap7-s3":
        "aa4d720f0c036bde22025e7cd7c46a6c3a8f7b302aa3e7b4de2069ba4d12a3a5",
    "zd2k0-halfline-r6-cap13-s3":
        "f7819a7438eac073fff523c1f1cdce214b2d58c576a818ca9212c97b6e4dbc87",
    "zd2k0-halfline-r12-cap25-s3":
        "febc041ff016905f6cd670d1b486ea214aa51fbc4f299d3844d58f168aee056f",
    "free2-aprefix-r1-cap5-s3":
        "3777f47272e6c1c2a01cafcf6a64633de3fb1363cc541d9a5a384bef0c91a0a3",
    "free2-aprefix-r2-cap17-s3":
        "d7c2023a8297b42056cacf9700616a1233dfb1ffca5996c927475be43ba5a786",
    "free2-aprefix-r3-cap53-s3":
        "acb6d521570354ede28fb6022142541edb3abe320d8ac81666256c62875c3243",
    "free2-aprefix-r4-cap161-s3":
        "2ef9077e646003a4a41a2c660716ad751d8abf05dfccb1be360f335511b7b2e2",
    "free2-aprefix-r5-cap485-s3":
        "401b6e0c086bf65727a94646efa233578c16bdb1c14646a7267a688c597b049b",
    "zd1-halfline-r12-cap22-s3":
        "1e9960f00970da75447612e6b78a5a10a6c4956b6883fe16516592ff3f1af0a0",
    "zd1-halfline-r1-cap1-s3":
        "bfd48af795fd37cf3681954365d25448b3717720daa83109e7f4eda29a9d6233",
    "free2-aprefix-r1-cap1-s3":
        "3777f47272e6c1c2a01cafcf6a64633de3fb1363cc541d9a5a384bef0c91a0a3",
    "zd1-halfline-r0-cap1-s3":
        "34bd5744760786b1620e32f8531fa32aee983b2739e03da54bb4ea29f1d583d7",
    "zd1-halfline-r-1-cap1-s3":
        "887493f21ce44f7c0903d4980f3f5be1974f3a533dd787d8f1f8bf193b392d31",
    "zd1-aprefix-r4-cap9-s3":
        "afe6a2c9f34fd369a615d141415af8a5b5cb5bb8b9a9cfa19e92e6d63ddee11d",
}


@pytest.mark.parametrize("case", CASES, ids=_name)
def test_obstruct_output_digest(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[_name(case)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            sys.stdout.write(f'    "{_name(case)}":\n')
            sys.stdout.write(f'        "{run_case(case, Path(tmp))}",\n')
