"""Command-line dispatch: graph, ends, trivialize, obstruct, verify.

All commands are batch-style: read JSON configs, write DOT/CSV/JSON/text
artifacts, and exit 0 when every mathematical check passed, 1 when one
failed, 2 on configuration errors and on sizes over a budget (the vertex
and witness-work budgets of a ball, and the ``--cap`` of ``obstruct``).
Outputs are deterministic functions of the config and the seed, so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass

from .cocycles import evaluate_word, plant_cocycle, verify_relations, window_region
from .coset_graph import BallCache, build_ball
from .ends import capacity, estimate_ends
from .errors import (
    BallTooLargeError,
    ConfigError,
    NotOneEndedError,
    RelendError,
    SearchSpaceTooLargeError,
)
from .groups import Group, ZmodGroup
from .obstruction import builtin_set, rho_forcing_check
from .patterns import Alphabet, Pattern, random_pattern, trivial_alphabet
from .serialize import (
    alphabet_from_config,
    cocycle_from_json,
    dump_json,
    group_from_config,
    load_json,
    transfer_to_json,
)
from .trivialize import trivialize


@dataclass
class RunConfig:
    """Everything one command needs; the seed lands in every report."""

    command: str
    group: Group
    alphabet: Alphabet | None = None
    seed: int = 0
    radius: int = 4
    rmax: int = 5
    margin: int = 5
    cap: int = 22
    samples: int = 50
    out: str | None = None
    csv: str | None = None
    report: str | None = None
    cocycle_path: str | None = None
    plant: bool = False
    b0_window: int = 0
    set_name: str = "halfline"


def _load_pair(path: str) -> tuple[Group, Alphabet | None]:
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    if "group" in cfg:
        group = group_from_config(cfg["group"])
        alphabet = (
            alphabet_from_config(cfg["alphabet"]) if "alphabet" in cfg else None
        )
        return group, alphabet
    return group_from_config(cfg), None


def _write_text(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_graph(cfg: RunConfig) -> int:
    graph = build_ball(cfg.group, cfg.radius)
    group = cfg.group
    labels = [group.word_str(v.rep) or "1" for v in graph.cosets]
    lines = ["digraph coset_ball {"]
    lines += [f'  v{i} [label="{label}"];' for i, label in enumerate(labels)]
    for i, edges in enumerate(graph.adj):
        for letter, j in edges:
            lines.append(f'  v{i} -> v{j} [label="{group.letter_name(letter)}"];')
    lines.append("}")
    _write_text(cfg.out, lines)
    if cfg.csv:
        rows = ["vertex,norm,degree"]
        rows += [
            f"{label},{n},{d}"
            for label, n, d in zip(labels, graph.norm_of, graph.degree)
        ]
        _write_text(cfg.csv, rows)
    return 0


def _cmd_ends(cfg: RunConfig) -> int:
    cache = BallCache(cfg.group)
    report = estimate_ends(cache, cfg.rmax, cfg.margin)
    capacities: dict[int, int] = {}
    if report.is_exactly(1):
        for r in range(1, cfg.rmax + 1):
            capacities[r] = capacity(cache, r).value
    rows = ["r,R,components,sphere_touching,N_r"]
    for row in report.rows:
        n_r = capacities.get(row.r, "")
        rows.append(
            f"{row.r},{row.probe_radius},{row.components},"
            f"{row.sphere_touching},{n_r}"
        )
    if cfg.csv:
        _write_text(cfg.csv, rows)
    _write_text(None, [f"ends estimate: {report.describe()}"])
    return 0 if report.kind != "inconclusive" else 1


def _default_alphabet() -> Alphabet:
    return trivial_alphabet(("0", "1"), "0")


def _cmd_trivialize(cfg: RunConfig) -> int:
    alphabet = cfg.alphabet or _default_alphabet()
    cache = BallCache(cfg.group)
    if cfg.plant:
        graph = cache.at_least(max(cfg.b0_window + 1, 4))
        cocycle = plant_cocycle(
            cfg.group, alphabet, ZmodGroup((2,)), cfg.b0_window, cfg.seed, graph
        )
    elif cfg.cocycle_path:
        graph = cache.at_least(4)
        cocycle = cocycle_from_json(
            cfg.group, alphabet, load_json(cfg.cocycle_path), graph
        )
    else:
        raise ConfigError("trivialize needs --cocycle FILE or --plant")
    try:
        table, report = trivialize(
            cache, cocycle, seed=cfg.seed, cohomology_samples=cfg.samples
        )
    except NotOneEndedError as err:
        _write_text(cfg.report, [f"seed: {cfg.seed}", f"FAIL one_ended: {err}"])
        return 1
    if cfg.out:
        dump_json(cfg.out, transfer_to_json(cfg.group, table))
    _write_text(cfg.report, report.lines())
    return 0 if report.ok else 1


def _cmd_obstruct(cfg: RunConfig) -> int:
    cache = BallCache(cfg.group)
    region = builtin_set(cfg.group, cfg.set_name)
    report = rho_forcing_check(
        cache,
        region,
        cfg.radius,
        seed=cfg.seed,
        identity_trials=cfg.samples,
        cap=cfg.cap,
    )
    _write_text(cfg.report, report.lines(cfg.group))
    return 0 if report.ok else 1


def _cmd_verify(cfg: RunConfig) -> int:
    alphabet = cfg.alphabet or _default_alphabet()
    cache = BallCache(cfg.group)
    graph = cache.at_least(max(4, cfg.radius))
    if not cfg.cocycle_path:
        raise ConfigError("verify needs --cocycle FILE")
    cocycle = cocycle_from_json(
        cfg.group, alphabet, load_json(cfg.cocycle_path), graph
    )
    rng = random.Random(cfg.seed)
    relations = verify_relations(cocycle, graph, cfg.samples, rng)
    lines = [f"seed: {cfg.seed}"]
    mark = "PASS" if relations.ok else "FAIL"
    lines.append(f"{mark} relations: {relations.checked} relator evaluations")
    window_ok = _window_soundness(cocycle, graph, rng, trials=20)
    lines.append(("PASS" if window_ok else "FAIL") + " window_soundness")
    _write_text(cfg.report, lines)
    return 0 if relations.ok and window_ok else 1


def _window_soundness(cocycle, graph, rng, trials: int) -> bool:
    """Perturbing a configuration outside the window must not change values."""
    region = window_region(graph, cocycle.window)
    outside = graph.cosets[graph.ball_size(cocycle.window) :]
    non_default = [
        s for s in cocycle.alphabet.symbols if s != cocycle.alphabet.x0
    ]
    if not outside:
        return True
    for _ in range(trials):
        y = random_pattern(graph, cocycle.alphabet, cocycle.window, rng)
        junk = {
            v: rng.choice(non_default)
            for v in rng.sample(outside, min(3, len(outside)))
        }
        perturbed = Pattern(
            cocycle.alphabet, y.entries | frozenset(junk.items())
        )
        for letter in cocycle.group.s_letters:
            if evaluate_word(cocycle, (letter,), y, region) != evaluate_word(
                cocycle, (letter,), perturbed, region
            ):
                return False
    return True


_COMMANDS = {
    "graph": _cmd_graph,
    "ends": _cmd_ends,
    "trivialize": _cmd_trivialize,
    "obstruct": _cmd_obstruct,
    "verify": _cmd_verify,
}


def run(command: str, cfg: RunConfig) -> int:
    """Dispatch a parsed command; returns the process exit status."""
    return _COMMANDS[command](cfg)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="relend")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, radius=False, rmax=False):
        p.add_argument("--config", required=True, help="group or pair JSON file")
        p.add_argument("--seed", type=int, default=0)
        if radius:
            p.add_argument("--radius", type=int, default=4)
        if rmax:
            p.add_argument("--rmax", type=int, default=5)
            p.add_argument("--margin", type=int, default=5)

    g = sub.add_parser("graph", help="emit a coset ball as DOT and CSV")
    common(g, radius=True)
    g.add_argument("--out", help="DOT output path (stdout when omitted)")
    g.add_argument("--csv", help="vertex,norm,degree CSV path")

    e = sub.add_parser("ends", help="estimate ends and capacities")
    common(e, rmax=True)
    e.add_argument("--csv", help="per-radius CSV path")

    t = sub.add_parser("trivialize", help="recover a trivialization")
    common(t)
    t.add_argument("--cocycle", dest="cocycle_path", help="cocycle JSON file")
    t.add_argument("--plant", action="store_true", help="plant a random cocycle")
    t.add_argument("--b0-window", dest="b0_window", type=int, default=0)
    t.add_argument("--samples", type=int, default=50)
    t.add_argument("--out", help="transfer JSON output path")
    t.add_argument("--report", help="text report path (stdout when omitted)")

    o = sub.add_parser("obstruct", help="gather non-coboundary evidence")
    common(o, radius=True)
    o.add_argument("--set", dest="set_name", default="halfline")
    o.add_argument("--cap", type=int, default=22)
    o.add_argument("--samples", type=int, default=100)
    o.add_argument("--report", help="text report path (stdout when omitted)")

    v = sub.add_parser("verify", help="check a cocycle table file")
    common(v, radius=True)
    v.add_argument("--cocycle", dest="cocycle_path", required=True)
    v.add_argument("--samples", type=int, default=20)
    v.add_argument("--report", help="text report path (stdout when omitted)")

    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        options = vars(args)
        group, alphabet = _load_pair(options.pop("config"))
        cfg = RunConfig(group=group, alphabet=alphabet, **options)
        return run(args.command, cfg)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (BallTooLargeError, SearchSpaceTooLargeError) as err:
        print(f"size limit: {err}", file=sys.stderr)
        return 2
    except RelendError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
