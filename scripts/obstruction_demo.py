#!/usr/bin/env python3
"""Run the obstruction evidence pipeline on the built-in many-ended pairs.

    python3 scripts/obstruction_demo.py [--seed 0] [--trials 200]
"""

import argparse
import sys

from relend.coset_graph import BallCache
from relend.groups import FreeGroup, ZdGroup
from relend.obstruction import builtin_set, rho_forcing_check

CASES = [
    ("Z half-line", ZdGroup(1, ()), "halfline", 12, 32),
    ("F_2 a-tail", FreeGroup(2), "aprefix", 4, 200),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=200)
    args = parser.parse_args()
    if args.trials < 0:
        message = f"--trials must be nonnegative, got {args.trials}"
        parser.exit(2, f"{parser.prog}: error: {message}\n")

    bad = 0
    for name, group, set_name, radius, cap in CASES:
        cache = BallCache(group)
        region = builtin_set(group, set_name)
        report = rho_forcing_check(
            cache, region, radius, seed=args.seed,
            identity_trials=args.trials, cap=cap,
        )
        print(f"== {name} ==")
        for line in report.lines(group):
            print("  " + line)
        bad += 0 if report.ok else 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
