import json
import time

import pytest

from relend.cli import main


@pytest.fixture()
def configs(tmp_path):
    paths = {}
    paths["z2"] = tmp_path / "z2.json"
    paths["z2"].write_text(json.dumps({"family": "zd", "d": 2, "k_coords": []}))
    paths["z1"] = tmp_path / "z1.json"
    paths["z1"].write_text(json.dumps({"family": "zd", "d": 1, "k_coords": []}))
    paths["bs_pair"] = tmp_path / "bs_pair.json"
    paths["bs_pair"].write_text(
        json.dumps(
            {
                "group": {"family": "bs", "m": 1, "n": 2},
                "alphabet": {"symbols": ["0", "1"], "x0": "0", "alpha": {"x": [0, 1]}},
            }
        )
    )
    paths["free"] = tmp_path / "free.json"
    paths["free"].write_text(json.dumps({"family": "free", "rank": 2, "k": "trivial"}))
    paths["bad"] = tmp_path / "bad.json"
    paths["bad"].write_text("{not json")
    return tmp_path, paths


def test_graph_outputs(configs):
    tmp, paths = configs
    dot = tmp / "ball.dot"
    csv = tmp / "ball.csv"
    code = main(
        [
            "graph",
            "--config",
            str(paths["bs_pair"]),
            "--radius",
            "3",
            "--out",
            str(dot),
            "--csv",
            str(csv),
        ]
    )
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph") and '[label="t"]' in text
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "vertex,norm,degree"
    assert all(r.endswith(",3") for r in rows[1:])  # 3-regular


def test_ends_csv(configs, capsys):
    tmp, paths = configs
    csv = tmp / "ends.csv"
    code = main(
        ["ends", "--config", str(paths["z2"]), "--rmax", "4", "--margin", "4",
         "--csv", str(csv)]
    )
    assert code == 0
    assert "exact 1" in capsys.readouterr().out
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "r,R,components,sphere_touching,N_r"
    assert rows[1] == "1,5,1,1,1"


def test_trivialize_planted_and_determinism(configs):
    tmp, paths = configs
    argsets = []
    for tag in ("one", "two"):
        out = tmp / f"transfer_{tag}.json"
        rep = tmp / f"report_{tag}.txt"
        argsets.append((out, rep))
        code = main(
            [
                "trivialize",
                "--config",
                str(paths["z2"]),
                "--plant",
                "--b0-window",
                "1",
                "--seed",
                "7",
                "--samples",
                "10",
                "--out",
                str(out),
                "--report",
                str(rep),
            ]
        )
        assert code == 0
    (out1, rep1), (out2, rep2) = argsets
    assert out1.read_bytes() == out2.read_bytes()
    assert rep1.read_bytes() == rep2.read_bytes()
    report = rep1.read_text()
    assert "seed: 7" in report and "RESULT: ok" in report
    payload = json.loads(out1.read_text())
    assert set(payload) == {"window", "phi", "b"}


def test_trivialize_plant_with_no_samples_passes(configs):
    # a planted cocycle is trivial; a sweep of no samples sees no offset,
    # which is at most one, so the offset check passes vacuously
    tmp, paths = configs
    rep = tmp / "report.txt"
    code = main(
        [
            "trivialize",
            "--config",
            str(paths["z2"]),
            "--plant",
            "--seed",
            "1",
            "--samples",
            "0",
            "--report",
            str(rep),
        ]
    )
    report = rep.read_text().splitlines()
    assert code == 0 and report[-1] == "RESULT: ok"
    assert "PASS cohomology_sweep: 0 samples" in report
    assert "PASS planted_offset_constant: 0 distinct offsets over sweep" in report


def test_trivialize_rejects_many_ends(configs):
    tmp, paths = configs
    rep = tmp / "free_report.txt"
    code = main(
        [
            "trivialize",
            "--config",
            str(paths["free"]),
            "--plant",
            "--b0-window",
            "0",
            "--seed",
            "1",
            "--report",
            str(rep),
        ]
    )
    assert code == 1
    assert "one_ended" in rep.read_text()


def test_trivialize_rejects_free3_on_a_row_that_fits(tmp_path, capsys):
    # the pre-check's ball(8) is over the vertex budget on free(3), but
    # ball(7) fits and its row r = 3, which an exact estimate reads, already
    # has 150 sphere-touching components
    config = tmp_path / "free3.json"
    config.write_text(json.dumps({"family": "free", "rank": 3, "k": "trivial"}))
    rep = tmp_path / "report.txt"
    code = main(["trivialize", "--config", str(config), "--plant",
                 "--report", str(rep)])
    assert code == 1 and capsys.readouterr().err == ""
    assert rep.read_text().splitlines() == [
        "seed: 0",
        "FAIL one_ended: trivialization requires a one-ended pair; ball(8) has "
        "over 200000 vertices, and row r=3 has 150 sphere-touching components "
        "at probe radius 7, so the estimate cannot be exact 1",
    ]


def test_trivialize_keeps_the_size_limit_when_no_row_rules_out_one_end(configs, monkeypatch, capsys):
    # zd(2)'s ball(7) and ball(8) have 113 and 145 vertices: under a budget
    # of 120 the exact estimate's row r = 3 fits and has one sphere-touching
    # component, and its row r = 4 does not fit, so the size limit stands
    import relend.coset_graph

    tmp, paths = configs
    monkeypatch.setattr(relend.coset_graph, "MAX_VERTICES", 120)
    code = main(["trivialize", "--config", str(paths["z2"]), "--plant"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "size limit: ball(8) has over 120 vertices\n"
    )


def test_obstruct_report(configs):
    tmp, paths = configs
    rep = tmp / "obstruction.txt"
    code = main(
        [
            "obstruct",
            "--config",
            str(paths["z1"]),
            "--set",
            "halfline",
            "--radius",
            "10",
            "--cap",
            "32",
            "--seed",
            "2",
            "--report",
            str(rep),
        ]
    )
    assert code == 0
    text = rep.read_text()
    assert "non-coboundary up to radius 10" in text
    assert "boundary[a] = {e}" in text
    assert "seed: 2" in text


def _planted_cocycle_file(tmp):
    """A small explicit zd(2) cocycle file, built through the library."""
    from relend.coset_graph import build_ball
    from relend.cocycles import plant_cocycle
    from relend.groups import ZdGroup, ZmodGroup
    from relend.patterns import trivial_alphabet
    from relend.serialize import cocycle_to_json, dump_json

    group = ZdGroup(2, ())
    graph = build_ball(group, 6)
    spec = plant_cocycle(
        group, trivial_alphabet(("0", "1"), "0"), ZmodGroup((2,)), 0, 3, graph
    )
    path = tmp / "c.json"
    dump_json(str(path), cocycle_to_json(spec, graph))
    return path


def test_verify_command(configs, tmp_path):
    tmp, paths = configs
    cpath = _planted_cocycle_file(tmp)
    code = main(
        ["verify", "--config", str(paths["z2"]), "--cocycle", str(cpath)]
    )
    assert code == 0
    # corrupt one entry: verification must fail with exit 1
    data = json.loads(cpath.read_text())
    key, word = data["tables"]["a"][0]
    data["tables"]["a"][0] = [key, "a" if word == "" else ""]
    cpath.write_text(json.dumps(data))
    code = main(
        ["verify", "--config", str(paths["z2"]), "--cocycle", str(cpath)]
    )
    assert code == 1


def test_malformed_config_exit_two(configs, capsys):
    tmp, paths = configs
    code = main(["ends", "--config", str(paths["bad"])])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_obstruct_cap_overflow_is_a_size_limit(configs, capsys):
    tmp, paths = configs
    code = main(
        ["obstruct", "--config", str(paths["z1"]), "--radius", "12",
         "--cap", "22", "--report", str(tmp / "obstruction.txt")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "size limit: |ball(12)| exceeds the configured cap 22\n"


@pytest.mark.parametrize(
    "pair, set_name, radius", [("z1", "halfline", 0), ("free", "aprefix", 1)]
)
def test_obstruct_instability_at_radius_comes_before_the_cap(
    configs, capsys, pair, set_name, radius
):
    tmp, paths = configs
    code = main(
        ["obstruct", "--config", str(paths[pair]), "--set", set_name,
         "--radius", str(radius), "--cap", "0"]
    )
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"check failed: difference set for letter 1 still grows at radius {radius}\n"
    )


def test_graph_of_a_large_cyclic_group_spells_inverses_short(tmp_path):
    config = tmp_path / "zmod.json"
    config.write_text(json.dumps({"family": "zmod", "mods": [1000000]}))
    dot = tmp_path / "ball.dot"
    argv = ["graph", "--config", str(config), "--radius", "1", "--out", str(dot)]
    assert main(argv) == 0
    assert dot.stat().st_size < 1024
    assert '[label="A"]' in dot.read_text()


def test_trivialize_plants_and_recovers_on_a_non_normal_pair(tmp_path):
    # BS(1,2) x Z relative to <x> x 0: K is commensurated, not normal, and
    # the pair has one relative end.  The sweep ball is sized by the norms
    # the sweep reads, so b0-window 1 fits the budgets.
    config = tmp_path / "bs_z.json"
    config.write_text(json.dumps({"family": "direct_product", "factors": [
        {"family": "bs", "m": 1, "n": 2}, {"family": "zd", "d": 1}]}))
    report = tmp_path / "report.txt"
    start = time.perf_counter()
    code = main(["trivialize", "--config", str(config), "--plant", "--b0-window",
                 "1", "--seed", "1", "--report", str(report)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert report.read_text().splitlines()[-1] == "RESULT: ok"
    assert elapsed < 20, f"BS(1,2) x Z round trip took {elapsed:.2f}s"


def test_verify_sizes_its_balls_by_the_file_window(configs, tmp_path):
    """A window-5 table on zd(1) loads on its own window ball and verifies."""
    from relend.coset_graph import build_ball
    from relend.cocycles import constant_cocycle
    from relend.groups import ZdGroup, ZmodGroup
    from relend.patterns import trivial_alphabet
    from relend.serialize import cocycle_to_json, dump_json

    tmp, paths = configs
    group, target = ZdGroup(1, ()), ZmodGroup((2,))
    spec = constant_cocycle(
        group, trivial_alphabet(("0", "1"), "0"), target,
        {1: target.letter_element(1)}, window=5,
    )
    data = cocycle_to_json(spec, build_ball(group, 5))
    assert len(spec.region) == 11 and len(data["tables"]["a"]) == 2048
    cpath = tmp / "c5.json"
    dump_json(str(cpath), data)
    code = main(
        ["verify", "--config", str(paths["z1"]), "--cocycle", str(cpath),
         "--samples", "4", "--report", str(tmp / "report.txt")]
    )
    assert code == 0
    assert (tmp / "report.txt").read_text().splitlines()[1:] == [
        "PASS relations: proved on 0 relators and 1 inverse pairs",
        "PASS window_soundness",
    ]


def test_verify_has_no_radius_option(configs, capsys):
    tmp, paths = configs
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--config", str(paths["z1"]), "--cocycle", "c.json",
              "--radius", "4"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --radius 4" in capsys.readouterr().err


# -- one parser per process ---------------------------------------------------


def test_one_process_keeps_each_commands_defaults(configs, capsys):
    tmp, paths = configs
    cocycle = _planted_cocycle_file(tmp)
    verify = ["verify", "--config", str(paths["z2"]), "--cocycle", str(cocycle)]
    reports = {}
    for tag, extra in (("default", []), ("twenty", ["--samples", "20"])):
        reports[tag] = tmp / f"verify_{tag}.txt"
        assert main(verify + extra + ["--report", str(reports[tag])]) == 0
    assert reports["default"].read_bytes() == reports["twenty"].read_bytes()

    obstruct = ["obstruct", "--config", str(paths["z1"]), "--radius", "6",
                "--cap", "13"]
    assert main(obstruct + ["--report", str(tmp / "before.txt")]) == 0
    assert "identity check: 100 trials, 0 violations" in (
        (tmp / "before.txt").read_text().splitlines()
    )

    plant = tmp / "plant.txt"
    assert main(["trivialize", "--config", str(paths["z2"]), "--plant",
                 "--report", str(plant)]) == 0
    assert "PASS cohomology_sweep: 50 samples" in plant.read_text().splitlines()

    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--cocycle", str(cocycle)])
    assert exit_info.value.code == 2
    assert "the following arguments are required: --config" in (
        capsys.readouterr().err
    )
    assert main(obstruct + ["--report", str(tmp / "after.txt")]) == 0
    assert (tmp / "after.txt").read_bytes() == (tmp / "before.txt").read_bytes()


def test_later_calls_build_no_parser(configs, capsys, monkeypatch):
    import argparse

    import relend.cli

    tmp, paths = configs
    cocycle = _planted_cocycle_file(tmp)
    z2 = ["--config", str(paths["z2"])]
    commands = [
        ["graph", *z2, "--radius", "2", "--out", str(tmp / "g.dot")],
        ["ends", *z2, "--rmax", "2", "--margin", "2"],
        ["trivialize", *z2, "--plant", "--samples", "5"],
        ["obstruct", "--config", str(paths["z1"]), "--radius", "6", "--cap", "13"],
        ["verify", *z2, "--cocycle", str(cocycle)],
    ]
    assert main(commands[0]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert [main(argv) for argv in commands] == [0] * len(commands)
    assert built == []
    monkeypatch.undo()

    relend.cli._parser.cache_clear()
    capsys.readouterr()
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(["obstruct", "--help"])
        assert exit_info.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith("usage: relend obstruct [-h] --config CONFIG")
