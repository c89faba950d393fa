"""JSON configuration ingestion and artifact emission.

Group configs: ``{"family": "bs", "m": 1, "n": 2}``,
``{"family": "zd", "d": 3, "k_coords": [0]}``,
``{"family": "free", "rank": 2, "k": "trivial"}``,
``{"family": "zmod", "mods": [2]}``, and
``{"family": "direct_product", "factors": [cfg, cfg]}``.

Elements travel as whitespace-separated generator tokens with an uppercase
first letter marking an inverse, e.g. ``"x x t X"``.  Patterns are lists of
``[word, symbol]`` pairs; cocycle tables map window-pattern keys to target
words.
"""

from __future__ import annotations

import json
from typing import Any

from .cocycles import CocycleSpec, pattern_key, window_region
from .coset_graph import CosetGraph
from .errors import ConfigError
from .groups import (
    BsGroup,
    FreeGroup,
    Group,
    GroupElement,
    ProductGroup,
    ZdGroup,
    ZmodGroup,
    coset_of,
)
from .patterns import Alphabet, Pattern, make_pattern


def _int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {type(value).__name__}")
    return tuple(_int(v, f"each entry of {what}") for v in value)


def group_from_config(cfg: dict) -> Group:
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ConfigError("group config needs to be an object with a 'family' key")
    family = cfg["family"]
    try:
        if family == "zd":
            k_coords = _ints(cfg.get("k_coords", ()), "k_coords")
            return ZdGroup(_int(cfg["d"], "d"), k_coords)
        if family == "free":
            k = cfg.get("k", "trivial")
            if k != "trivial":
                raise ConfigError("free groups only support a trivial subgroup")
            return FreeGroup(_int(cfg["rank"], "rank"))
        if family == "bs":
            return BsGroup(_int(cfg["m"], "m"), _int(cfg["n"], "n"))
        if family == "zmod":
            return ZmodGroup(_ints(cfg["mods"], "mods"))
        if family == "direct_product":
            factors = cfg["factors"]
            if not isinstance(factors, list) or len(factors) != 2:
                raise ConfigError("direct_product needs a list of two factors")
            left, right = factors
            return ProductGroup(group_from_config(left), group_from_config(right))
    except KeyError as missing:
        raise ConfigError(f"{family} config is missing {missing}") from None
    raise ConfigError(f"unknown group family {family!r}")


def group_to_config(group: Group) -> dict:
    if isinstance(group, ZdGroup):
        return {"family": "zd", "d": group.d, "k_coords": list(group.k_coords)}
    if isinstance(group, FreeGroup):
        return {"family": "free", "rank": group.rank, "k": "trivial"}
    if isinstance(group, BsGroup):
        return {"family": "bs", "m": group.m, "n": group.n}
    if isinstance(group, ZmodGroup):
        return {"family": "zmod", "mods": list(group.mods)}
    if isinstance(group, ProductGroup):
        return {
            "family": "direct_product",
            "factors": [group_to_config(group.left), group_to_config(group.right)],
        }
    raise ConfigError(f"cannot serialise group {group!r}")


def element_str(g: GroupElement) -> str:
    return g.group.word_str(g)


def parse_element(group: Group, text: str) -> GroupElement:
    return group.parse_element(text)


def alphabet_from_config(cfg: dict) -> Alphabet:
    if not isinstance(cfg, dict):
        raise ConfigError("alphabet config needs to be an object")
    try:
        symbols, x0 = cfg["symbols"], str(cfg["x0"])
    except KeyError as missing:
        raise ConfigError(f"alphabet config is missing {missing}") from None
    alpha = cfg.get("alpha", {})
    if not isinstance(symbols, list) or not isinstance(alpha, dict):
        raise ConfigError("alphabet symbols must be a list and alpha an object")
    perms = tuple((name, _ints(alpha[name], name)) for name in sorted(alpha))
    return Alphabet(tuple(str(s) for s in symbols), x0, perms)


def alphabet_to_config(alphabet: Alphabet) -> dict:
    return {
        "symbols": list(alphabet.symbols),
        "x0": alphabet.x0,
        "alpha": {name: list(perm) for name, perm in alphabet.perms},
    }


def pattern_from_json(group: Group, alphabet: Alphabet, data: list) -> Pattern:
    out = {}
    for word, symbol in data:
        out[coset_of(parse_element(group, word))] = str(symbol)
    return make_pattern(alphabet, out)


def pattern_to_json(p: Pattern) -> list:
    rows = [
        (element_str(c.rep), s) for c, s in p.items()
    ]
    return [list(r) for r in sorted(rows)]


def cocycle_from_json(
    group: Group, alphabet: Alphabet, data: dict, graph: CosetGraph
) -> CocycleSpec:
    """Load an explicit cocycle table and check it is total over its window."""
    try:
        window = int(data["window"])
        target = group_from_config(data["H"])
        raw_tables = data["tables"]
    except KeyError as missing:
        raise ConfigError(f"cocycle config is missing {missing}") from None
    tables: dict[int, dict[str, GroupElement]] = {}
    for token, entries in raw_tables.items():
        letter = group.parse_token(token)
        tables[letter] = {
            str(key): target.parse_element(word) for key, word in entries
        }
    spec = CocycleSpec(group, alphabet, target, window, tables, None, None)
    _check_totality(spec, graph)
    return spec


def _check_totality(spec: CocycleSpec, graph: CosetGraph, limit: int = 4096) -> None:
    import itertools

    region = sorted(
        window_region(graph, spec.window),
        key=lambda v: spec.group.word_key(v.rep),
    )
    count = len(spec.alphabet.symbols) ** len(region)
    if count > limit:
        return  # too large to enumerate; missing keys surface on use
    for letter in spec.group.s_letters:
        table = spec.tables.get(letter, {})
        for combo in itertools.product(spec.alphabet.symbols, repeat=len(region)):
            p = make_pattern(spec.alphabet, dict(zip(region, combo)))
            if pattern_key(p) not in table:
                raise ConfigError(
                    f"cocycle table for {spec.group.letter_name(letter)} is "
                    f"missing window pattern {pattern_key(p)!r}"
                )


def cocycle_to_json(spec: CocycleSpec, graph: CosetGraph, limit: int = 4096) -> dict:
    """Emit a cocycle as explicit tables, materialising rule-backed entries."""
    import itertools

    region = sorted(
        window_region(graph, spec.window),
        key=lambda v: spec.group.word_key(v.rep),
    )
    count = len(spec.alphabet.symbols) ** len(region)
    if count > limit:
        raise ConfigError(
            f"window table has {count} entries per generator; refusing to emit"
        )
    tables: dict[str, list] = {}
    for letter in spec.group.s_letters:
        rows = []
        for combo in itertools.product(spec.alphabet.symbols, repeat=len(region)):
            p = make_pattern(spec.alphabet, dict(zip(region, combo)))
            rows.append([pattern_key(p), element_str(spec.factor(letter, p))])
        tables[spec.group.letter_name(letter)] = sorted(rows)
    return {
        "window": spec.window,
        "H": group_to_config(spec.target),
        "tables": tables,
    }


def transfer_to_json(group: Group, table) -> dict:
    return {
        "window": table.window,
        "phi": {
            group.letter_name(l): element_str(h)
            for l, h in sorted(table.hom.items(), key=lambda kv: abs(kv[0]) * 2 - (kv[0] > 0))
        },
        "b": {key: element_str(h) for key, h in sorted(table.entries.items())},
    }


def dump_json(path: str, payload: Any) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed JSON in {path}: {err}") from None
