"""Command-line dispatch: graph, ends, trivialize, obstruct, verify.

All commands are batch-style: read JSON configs, write DOT/CSV/JSON/text
artifacts, and exit 0 when every mathematical check passed, 1 when one
failed, 2 on configuration errors and on sizes over a budget (the vertex
and witness-work budgets of a ball, the ``--cap`` of ``obstruct``,
``cocycles.PROOF_LIMIT`` for ``verify`` and ``MAX_SAMPLES`` for ``--samples``).
Outputs are deterministic functions of the config and the seed, so repeated
runs are byte-identical.  ``main(argv)`` may be called repeatedly in one
process; its argument parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .cocycles import plant_cocycle, prove_relations, verify_relations
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
from .patterns import Alphabet, trivial_alphabet
from .serialize import (
    _key_texts,
    alphabet_from_config,
    check_output,
    cocycle_from_json,
    dump_json,
    element_str,
    group_from_config,
    load_json,
    transfer_to_json,
    write_file,
)
from .trivialize import Trivializer

# the --samples budget of trivialize, obstruct and verify, checked before any work
MAX_SAMPLES = 100_000


def _load_pair(path: str) -> tuple[Group, Alphabet | None]:
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    if "group" not in cfg:
        return group_from_config(cfg), None
    group = group_from_config(cfg["group"])
    alphabet = alphabet_from_config(cfg["alphabet"]) if "alphabet" in cfg else None
    k_names = {group.gen_names[i - 1] for i in group.k_primaries}
    perms = alphabet.perms if alphabet else ()
    for name, _ in perms:
        if name not in k_names:
            raise ConfigError(f"alphabet alpha names {name!r}, not a generator of K")
    return group, alphabet


def _write_text(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        write_file(path, text)
    else:
        sys.stdout.write(text)


def _cmd_graph(
    args: argparse.Namespace, group: Group, alphabet: Alphabet | None
) -> int:
    graph = build_ball(group, args.radius)
    labels = [group.payload_str(p) or "1" for p in graph.payloads]
    lines = ["digraph coset_ball {"]
    lines += [f'  v{i} [label="{label}"];' for i, label in enumerate(labels)]
    tails = {l: f' [label="{name}"];' for l, name in group.letter_names.items()}
    lines += [
        f"{head}{j}{tails[letter]}"
        for i, (ids, letters) in enumerate(graph.labelled_rows())
        for head in (f"  v{i} -> v",)  # formatted once per vertex
        for j, letter in zip(ids, letters)
    ]
    lines.append("}")
    _write_text(args.out, lines)
    if args.csv:
        degree = graph.degree
        rows = ["vertex,norm,degree"]
        rows += [f"{label},{n},{degree}" for label, n in zip(labels, graph.norm_of)]
        _write_text(args.csv, rows)
    return 0


def _cmd_ends(
    args: argparse.Namespace, group: Group, alphabet: Alphabet | None
) -> int:
    cache = BallCache(group)
    report = estimate_ends(cache, args.rmax, args.margin)
    capacities: dict[int, int] = {}
    if report.is_exactly(1):
        for r in range(1, args.rmax + 1):
            capacities[r] = capacity(cache, r).value
    rows = ["r,R,components,sphere_touching,N_r"]
    for row in report.rows:
        n_r = capacities.get(row.r, "")
        rows.append(
            f"{row.r},{row.probe_radius},{row.components},"
            f"{row.sphere_touching},{n_r}"
        )
    if args.csv:
        _write_text(args.csv, rows)
    _write_text(None, [f"ends estimate: {report.describe()}"])
    return 0 if report.kind != "inconclusive" else 1


def _default_alphabet() -> Alphabet:
    return trivial_alphabet(("0", "1"), "0")


def _cmd_trivialize(
    args: argparse.Namespace, group: Group, alphabet: Alphabet | None
) -> int:
    if args.plant and args.cocycle_path:
        raise ConfigError("trivialize takes --cocycle FILE or --plant, not both")
    alphabet = alphabet or _default_alphabet()
    cache = BallCache(group)
    if args.plant:
        if args.b0_window < 0:
            raise ConfigError(f"--b0-window must be nonnegative, got {args.b0_window}")
        graph = cache.at_least(args.b0_window)
        cocycle = plant_cocycle(
            group, alphabet, ZmodGroup((2,)), args.b0_window, args.seed, graph
        )
    elif args.cocycle_path:
        cocycle = cocycle_from_json(group, alphabet, load_json(args.cocycle_path))
    else:
        raise ConfigError("trivialize needs --cocycle FILE or --plant")
    try:
        table, report = Trivializer(cache, cocycle, seed=args.seed).run(
            cohomology_samples=args.samples
        )
    except NotOneEndedError as err:
        _write_text(args.report, [f"seed: {args.seed}", f"FAIL one_ended: {err}"])
        return 1
    if args.out:
        dump_json(args.out, transfer_to_json(group, table))
    _write_text(args.report, report.lines())
    return 0 if report.ok else 1


def _cmd_obstruct(
    args: argparse.Namespace, group: Group, alphabet: Alphabet | None
) -> int:
    if args.cap < 0:
        raise ConfigError("--cap must be nonnegative")
    cache = BallCache(group)
    region = builtin_set(group, args.set_name)
    report = rho_forcing_check(
        cache,
        region,
        args.radius,
        seed=args.seed,
        identity_trials=args.samples,
        cap=args.cap,
    )
    _write_text(args.report, report.lines(group))
    return 0 if report.ok else 1


def _cmd_verify(
    args: argparse.Namespace, group: Group, alphabet: Alphabet | None
) -> int:
    alphabet = alphabet or _default_alphabet()
    cocycle = cocycle_from_json(group, alphabet, load_json(args.cocycle_path))
    lines = [f"seed: {args.seed}"]
    if cocycle.target.family in ("zmod", "zd"):
        relations = prove_relations(cocycle)
        line = (
            f"PASS relations: proved on {relations.relators} relators and "
            f"{relations.pairs} inverse pairs"
        )
        for word, key, value in relations.violations[:1]:
            kind = "inverse pair" if word[1:] == (-word[0],) else "relator"
            names = " ".join(map(group.letter_names.__getitem__, word))
            line = (
                f"FAIL relations: {kind} {names} has coefficient "
                f"{element_str(value)} on monomial {{{next(iter(_key_texts([key])))}}}"
            )
    else:
        relations = verify_relations(
            cocycle, BallCache(group), args.samples, random.Random(args.seed)
        )
        mark = "PASS" if relations.ok else "FAIL"
        line = f"{mark} relations: {relations.checked} relator evaluations"
    lines.append(line)
    # a table value reads the code of its window cells alone (``_window_code``
    # skips every other cell), so no change outside the window can move it;
    # tests/test_cocycles.py::test_window_soundness guards this
    lines.append("PASS window_soundness")
    _write_text(args.report, lines)
    return 0 if relations.ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.  It holds each
    command's ``_cmd_*`` handler as bound when it was built; parsing makes a
    fresh namespace and leaves the parser unchanged."""
    top = argparse.ArgumentParser(prog="relend")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, handler, *, radius=False, rmax=False):
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="group or pair JSON file")
        p.add_argument("--seed", type=int, default=0)
        if radius:
            p.add_argument("--radius", type=int, default=4)
        if rmax:
            p.add_argument("--rmax", type=int, default=5)
            p.add_argument("--margin", type=int, default=5)

    g = sub.add_parser("graph", help="emit a coset ball as DOT and CSV")
    common(g, _cmd_graph, radius=True)
    g.add_argument("--out", help="DOT output path (stdout when omitted)")
    g.add_argument("--csv", help="vertex,norm,degree CSV path")

    e = sub.add_parser("ends", help="estimate ends and capacities")
    common(e, _cmd_ends, rmax=True)
    e.add_argument("--csv", help="per-radius CSV path")

    t = sub.add_parser("trivialize", help="recover a trivialization")
    common(t, _cmd_trivialize)
    t.add_argument("--cocycle", dest="cocycle_path", help="cocycle JSON file")
    t.add_argument("--plant", action="store_true", help="plant a random cocycle")
    t.add_argument("--b0-window", dest="b0_window", type=int, default=0)
    t.add_argument("--samples", type=int, default=50)
    t.add_argument("--out", help="transfer JSON output path")
    t.add_argument("--report", help="text report path (stdout when omitted)")

    o = sub.add_parser("obstruct", help="gather non-coboundary evidence")
    common(o, _cmd_obstruct, radius=True)
    o.add_argument("--set", dest="set_name", default="halfline")
    o.add_argument("--cap", type=int, default=22)
    o.add_argument("--samples", type=int, default=100)
    o.add_argument("--report", help="text report path (stdout when omitted)")

    v = sub.add_parser("verify", help="check a cocycle table file")
    common(v, _cmd_verify)
    v.add_argument("--cocycle", dest="cocycle_path", required=True)
    v.add_argument("--samples", type=int, default=20)
    v.add_argument("--report", help="text report path (stdout when omitted)")

    return top


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  Callable repeatedly in one
    process: the parser is built once, on the first call."""
    args = _parser().parse_args(argv)
    try:
        samples = getattr(args, "samples", 0)
        if samples < 0:
            raise ConfigError("--samples must be nonnegative")
        if samples > MAX_SAMPLES:
            raise ConfigError(f"--samples {samples} is over the budget {MAX_SAMPLES}")
        for name in ("out", "csv", "report"):
            path = getattr(args, name, None)
            if path:
                check_output(path)
        return args.handler(args, *_load_pair(args.config))
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
