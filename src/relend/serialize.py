"""JSON configuration ingestion and artifact emission.

Group configs: ``{"family": "bs", "m": 1, "n": 2}``,
``{"family": "zd", "d": 3, "k_coords": [0]}``,
``{"family": "free", "rank": 2, "k": "trivial"}``,
``{"family": "zmod", "mods": [2]}``, and
``{"family": "direct_product", "factors": [cfg, cfg]}``.

Elements travel as whitespace-separated generator tokens with an uppercase
first letter marking an inverse, e.g. ``"x x t X"``.  Cocycle tables map
window-pattern keys to target words.  A key's text is ``word=symbol`` for
each non-default cell, in shortlex order of the cells' words and joined by
``|``, with ``e`` for the base coset.  That text exists only here: in memory
a cocycle table is keyed by window codes, and a transfer table by the
pattern's frozenset of entries.  A cocycle file's texts map to codes through
one pass over the window's rows, which builds no pattern, and two patterns
whose texts coincide cannot be written or read.
"""

from __future__ import annotations

import errno
import json
import os
from typing import Any, Iterable

from .cocycles import CocycleSpec, _window_rows
from .cocycles import pattern_key  # noqa: F401  (perfbench's tracer test reads it)
from .coset_graph import BallCache, CosetGraph
from .errors import ConfigError
from .groups import (
    BsGroup,
    CosetId,
    FreeGroup,
    Group,
    GroupElement,
    ProductGroup,
    ZdGroup,
    ZmodGroup,
)
from .patterns import Alphabet


def _int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {type(value).__name__}")
    return tuple(_int(v, f"each entry of {what}") for v in value)


# direct_product levels a group config may nest; the group's arithmetic
# recurses through every level
PRODUCT_DEPTH = 32


def group_from_config(cfg: dict, depth: int = 0) -> Group:
    """The group of a config; ``depth`` counts the direct_product levels
    around it."""
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
            if depth == PRODUCT_DEPTH:
                raise ConfigError(f"direct_product nests over {PRODUCT_DEPTH} levels")
            left, right = (group_from_config(f, depth + 1) for f in factors)
            return ProductGroup(left, right)
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


TABLE_LIMIT = 4096  # window patterns per generator a cocycle file may hold


def _cell_label(c: CosetId) -> tuple:
    """A cell's shortlex key and its word text, ``e`` for the base coset."""
    g = c.rep
    return g.group.word_key(g), g.group.word_str(g) or "e"


def _add_text(out: dict, text: str, key) -> None:
    """File a key under its JSON text; two keys with one text are refused."""
    if out.setdefault(text, key) != key:
        raise ConfigError(f"two distinct window patterns share the JSON key {text!r}")


def _key_texts(keys: Iterable[frozenset]) -> dict[str, frozenset]:
    """Map each pattern key's JSON text to the key."""
    labels: dict[CosetId, tuple] = {}
    out: dict[str, frozenset] = {}
    for key in keys:
        for c, _ in key:
            if c not in labels:
                labels[c] = _cell_label(c)
        items = sorted((labels[c], s) for c, s in key)
        _add_text(out, "|".join(f"{label[1]}={s}" for label, s in items), key)
    return out


def _window_texts(spec: CocycleSpec) -> dict[str, int]:
    """Map the JSON text of each pattern on the spec's window to its code,
    from the rows ``window_patterns`` enumerates, with no pattern built."""
    digits = spec._digits

    def item(c: CosetId, s: str) -> tuple[str, int]:
        return f"{_cell_label(c)[1]}={s}", digits[c.rep.payload][s]

    out: dict[str, int] = {}
    for row in _window_rows(spec.region, spec.alphabet, item):
        texts, bits = zip(*row) if row else ((), ())
        _add_text(out, "|".join(texts), sum(bits))
    return out


def _refuse_over_limit(
    alphabet: Alphabet, window: int, radius: int, cells: int, limit: int
) -> None:
    """Refuse a window table when the patterns on the ``cells`` cells within
    ``radius`` of the base, a part of the window, are already over ``limit``."""
    count = len(alphabet.symbols) ** cells
    if count > limit:
        raise ConfigError(
            f"window {window} table has at least {count} entries per "
            f"generator ({cells} cells within radius {radius}); over the limit "
            f"of {limit}"
        )


def cocycle_from_json(group: Group, alphabet: Alphabet, data: dict) -> CocycleSpec:
    """Load an explicit cocycle table; it must be total over its window.

    The rows are keyed on the patterns of the loaded cocycle's own window
    ball, so no caller sizes a ball for the loader.  A window whose table
    would be over TABLE_LIMIT is refused before its ball is built.
    """
    if not isinstance(data, dict):
        raise ConfigError("a cocycle file must hold a JSON object")
    try:
        window = _int(data["window"], "window")
        target = group_from_config(data["H"])
        raw_tables = data["tables"]
    except KeyError as missing:
        raise ConfigError(f"cocycle config is missing {missing}") from None
    if window < 0:
        raise ConfigError(f"window must be nonnegative, got {window}")
    if not isinstance(raw_tables, dict):
        raise ConfigError("cocycle tables must be an object keyed by generator names")
    # count the balls between the base cell and the window one sphere at a
    # time, so that an oversized window ball is never built
    cache = BallCache(group)
    for r in range(1, window):
        cells = cache.at_least(r).ball_size(r)
        _refuse_over_limit(alphabet, window, r, cells, TABLE_LIMIT)
    spec = CocycleSpec(group, alphabet, target, window)
    _refuse_over_limit(alphabet, window, window, len(spec.region), TABLE_LIMIT)
    codes = _window_texts(spec)
    values: dict[str, GroupElement] = {}  # each distinct target word parsed once
    tables = spec.tables
    for token, rows in raw_tables.items():
        table = tables[group.parse_token(token)] = {}
        if not isinstance(rows, list):
            raise ConfigError(f"cocycle table for {token} must be a list of rows")
        for row in rows:
            if (
                not isinstance(row, list)
                or len(row) != 2
                or type(row[0]) is not str
                or type(row[1]) is not str
            ):
                raise ConfigError(
                    f"cocycle table for {token} has a row {row!r}; rows are "
                    "[key, word] pairs of strings"
                )
            text, word = row
            code = codes.get(text)
            if code is None or code in table:
                raise ConfigError(
                    f"cocycle table for {token} has an unknown or repeated "
                    f"window pattern {text!r}"
                )
            value = values.get(word)
            if value is None:
                value = values[word] = target.parse_element(word)
            table[code] = value
    # every code filed is a known one filed once, so a table is total
    # exactly when it holds as many codes as the window
    for letter in group.s_letters:
        table = tables.get(letter, {})
        if len(table) < len(codes):
            text = next(t for t, code in codes.items() if code not in table)
            raise ConfigError(
                f"cocycle table for {group.letter_names[letter]} is "
                f"missing window pattern {text!r}"
            )
    return spec


def cocycle_to_json(
    spec: CocycleSpec, graph: CosetGraph, limit: int = TABLE_LIMIT
) -> dict:
    """Emit a cocycle as explicit tables, materialising rule-backed entries.

    The keys come from ``spec.region``; ``graph`` is not read.
    """
    window = spec.window
    _refuse_over_limit(spec.alphabet, window, window, len(spec.region), limit)
    codes = _window_texts(spec)
    tables: dict[str, list] = {}
    for letter in spec.group.s_letters:
        rows = [
            [text, element_str(spec._value(letter, code))]
            for text, code in codes.items()
        ]
        tables[spec.group.letter_names[letter]] = sorted(rows)
    return {
        "window": spec.window,
        "H": group_to_config(spec.target),
        "tables": tables,
    }


def transfer_to_json(group: Group, table) -> dict:
    return {
        "window": table.window,
        "phi": {
            group.letter_names[l]: element_str(h)
            for l, h in sorted(table.hom.items(), key=lambda kv: abs(kv[0]) * 2 - (kv[0] > 0))
        },
        "b": {
            text: element_str(table.entries[key])
            for text, key in sorted(_key_texts(table.entries).items())
        },
    }


def check_output(path: str) -> None:
    """Refuse an output path before any work, so that a run which cannot
    write all of its outputs writes none; ``write_file`` stays the backstop."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def write_file(path: str, text: str) -> None:
    """Write an artifact; a path that cannot be written is a config error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from None


def dump_json(path: str, payload: Any) -> None:
    write_file(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key that occurs twice, whose
    earlier values ``json`` would drop."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"repeated key {key!r}")
        out[key] = value
    return out


def load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err.strerror or err}") from None
    except (ValueError, RecursionError, ConfigError) as err:
        # ValueError: bad JSON, bytes that are not UTF-8 or an integer over
        # the digit limit; RecursionError: nesting too deep for the decoder
        raise ConfigError(f"malformed JSON in {path}: {err}") from None
