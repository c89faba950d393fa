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
        "f039ace097c6fd48bcd00f085a9856d6a038e0ecadb3e2b1087e17f92f23f2b5",
    "zd1-halfline-r3-cap7-s3":
        "59b15ea97145ab3624b55081ff69eb6db733aa5f1469848ae3204858e4fb171b",
    "zd1-halfline-r4-cap9-s3":
        "9d33c142e798023d007e25f93b6b472a071e59b9ed3e90311c35e4cf774eb3e7",
    "zd1-halfline-r5-cap11-s3":
        "5c47d475d6228d5cb0225ddaa9bac27e8a038a830299733f8fa91d413c234edd",
    "zd1-halfline-r6-cap13-s3":
        "9ad91689f400c178715cbb568ae2f8e4f47ba84be6d47fc1086eb450dc43e5bf",
    "zd1-halfline-r7-cap15-s3":
        "e4d477fd4a92d6b921e902e236303a3f4f8f7b3d2ff8d40a680a2c78f7f54cd0",
    "zd1-halfline-r8-cap17-s3":
        "6b8157d876fd9f888f72da3dd9f9df4bcb125a1aaa9cad59292753a44a3a44d0",
    "zd1-halfline-r9-cap19-s3":
        "949df565fafbf75cbebd8b02b4f843b5c45f8e74ff91cee404f1d020edd24f1a",
    "zd1-halfline-r10-cap21-s3":
        "e5a7f9450ed7ea9f09f0093a448d301d0b34678a058f5105aa02330c02b8b429",
    "zd1-halfline-r11-cap23-s3":
        "0f793c783cac5ce9850ca021dd34ae9c736bc23e099999c24674ea0dccd23f46",
    "zd1-halfline-r12-cap25-s3":
        "f0c7bd492bbd33750f448add276c755f2a6581229b464486c00dbd8036ab5183",
    "zd1-halfline-r20-cap41-s3":
        "cead47233712b70409ba3b9aa3fce049806fc7d257460df2823d3b844611bed1",
    "zd1-halfline-r27-cap55-s3":
        "ba2168de7e3bcb6677fea66183e40678db0628a35e9626ec72c92713f1408e95",
    "zd1-halfline-r40-cap81-s3":
        "96ce5f9ab0060646282449de88455e3e81754eb3d641f83fbb7dfe5610ed8d6f",
    "zd2k0-halfline-r1-cap3-s3":
        "44a09f95bbeae5106e80dc4c6123b39dda736187ed85f835609270c63f47bf82",
    "zd2k0-halfline-r2-cap5-s3":
        "b185e85872a6155675dc60a295ee521853c394f4347a416cceb34b501aed6b5f",
    "zd2k0-halfline-r3-cap7-s3":
        "8f99984731ce5e85cac80ac2edcfc032133a2b47a860d2c6dabd64e9404323fb",
    "zd2k0-halfline-r6-cap13-s3":
        "89043ad0eccea3d5922c8dc86e1b55bb1acf1a9d750ac03fb969344329e46956",
    "zd2k0-halfline-r12-cap25-s3":
        "828e6d67fc8b058c17f1cc0cd4bb4f1e8eee1f6d71719bccafb5822126adf182",
    "free2-aprefix-r1-cap5-s3":
        "3777f47272e6c1c2a01cafcf6a64633de3fb1363cc541d9a5a384bef0c91a0a3",
    "free2-aprefix-r2-cap17-s3":
        "61848d21e6c5dd5e76750a0d1569b7b01f06fe349480a12ceb0c57e5fc7fc7f0",
    "free2-aprefix-r3-cap53-s3":
        "12d2035c8a046c74ec20b1a6c93f014780a60d229faa60e7e6e7c55b2feed7bb",
    "free2-aprefix-r4-cap161-s3":
        "0b2127fe37e6944a1915b2392e02b35c2bf228e812ebdf5d56ca5787753e837a",
    "free2-aprefix-r5-cap485-s3":
        "6c62b7f29f36c8b2fe2c8985cd1a703200171a8ac8f6c4d9266388d0861dac65",
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
