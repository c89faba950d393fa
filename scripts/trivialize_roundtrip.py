#!/usr/bin/env python3
"""Plant random cocycles over one-ended pairs and recover them.

    python3 scripts/trivialize_roundtrip.py [--seed 7] [--b0-window 2] [--samples 100]
"""

import argparse
import sys
import time

from relend.cli import MAX_SAMPLES
from relend.coset_graph import BallCache
from relend.cocycles import plant_cocycle
from relend.errors import BallTooLargeError, ConfigError, SearchSpaceTooLargeError
from relend.groups import ZdGroup, ZmodGroup
from relend.patterns import trivial_alphabet
from relend.trivialize import Trivializer

PAIRS = [
    ("Z^2 / trivial", lambda: ZdGroup(2, ())),
    ("Z^3 / first axis", lambda: ZdGroup(3, (0,))),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--b0-window", type=int, default=2)
    parser.add_argument("--samples", type=int, default=100)
    args = parser.parse_args()
    for flag, value in (("--b0-window", args.b0_window), ("--samples", args.samples)):
        if value < 0:
            message = f"{flag} must be nonnegative, got {value}"
            parser.exit(2, f"{parser.prog}: error: {message}\n")
    if args.samples > MAX_SAMPLES:
        message = f"--samples {args.samples} is over the budget {MAX_SAMPLES}"
        parser.exit(2, f"{parser.prog}: error: {message}\n")
    try:
        return roundtrip(args)
    except (ConfigError, BallTooLargeError, SearchSpaceTooLargeError) as err:
        parser.exit(2, f"{parser.prog}: error: {err}\n")


def roundtrip(args) -> int:
    alphabet = trivial_alphabet(("0", "1"), "0")
    failures = 0
    for name, make in PAIRS:
        group = make()
        cache = BallCache(group)
        cocycle = plant_cocycle(
            group, alphabet, ZmodGroup((2,)), args.b0_window, args.seed,
            cache.at_least(args.b0_window),
        )
        started = time.perf_counter()
        table, report = Trivializer(cache, cocycle, seed=args.seed).run(
            cohomology_samples=args.samples
        )
        elapsed = time.perf_counter() - started
        print(f"== {name} (window {cocycle.window}, {elapsed:.1f}s) ==")
        for line in report.lines():
            print("  " + line)
        failures += 0 if report.ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
