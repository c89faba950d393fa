#!/usr/bin/env python3
"""Survey ends estimates and capacities across the built-in pairs.

Writes one CSV row per (pair, r) and prints the verdict table.

    python3 scripts/ends_survey.py [--out ends_survey.csv]
"""

import argparse
import csv
import sys

from relend.coset_graph import BallCache
from relend.ends import capacity, estimate_ends
from relend.errors import ConfigError, NotOneEndedError
from relend.groups import BsGroup, FreeGroup, ZdGroup
from relend.serialize import check_output

PAIRS = [
    ("Z^2 / trivial", ZdGroup(2, ()), 5, 5),
    ("Z^3 / first axis", ZdGroup(3, (0,)), 5, 5),
    ("Z / trivial", ZdGroup(1, ()), 5, 5),
    ("Z^2 / first axis", ZdGroup(2, (0,)), 5, 5),
    ("F_2 / trivial", FreeGroup(2), 3, 5),
    ("BS(1,2) / <x>", BsGroup(1, 2), 4, 4),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="ends_survey.csv")
    args = parser.parse_args()
    try:
        check_output(args.out)
    except ConfigError as err:
        parser.exit(2, f"{parser.prog}: error: {err}\n")

    rows = []
    for name, group, rmax, margin in PAIRS:
        cache = BallCache(group)
        report = estimate_ends(cache, rmax, margin)
        print(f"{name:<24} {report.describe()}")
        for row in report.rows:
            n_r = ""
            if report.is_exactly(1):
                try:
                    n_r = capacity(cache, row.r).value
                except NotOneEndedError:
                    n_r = ""
            rows.append(
                [name, row.r, row.probe_radius, row.components,
                 row.sphere_touching, n_r]
            )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair", "r", "R", "components", "sphere_touching", "N_r"])
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
