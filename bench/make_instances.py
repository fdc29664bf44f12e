"""Regenerate the pinned instance files of the ``cli-files`` workload.

    PYTHONPATH=src python3 bench/make_instances.py

Each file is written by the program's own ``gen`` subcommand with a
fixed seed, so rerunning this script reproduces the committed files
byte for byte.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# file name -> gen arguments
PINNED = {
    "plain-d2-a.json": "--d 2 --points 4,4 --range 0:10 --sets 7 --max-width 6 --seed 101",
    "plain-d2-b.json": "--d 2 --points 4,4 --range 0:10 --sets 8 --max-width 7 --seed 202",
    "plain-d3.json": "--d 3 --points 3,3,3 --range 0:9 --sets 7 --max-width 6 --seed 303",
    "colorful-d2-k1.json": "--d 2 --points 3,3 --range 0:5 --sets 2 --seed 404 --predicate colorful-helly:1",
    "cfh-d2.json": "--d 2 --points 3,3 --range 0:8 --sets 3 --families 4 --seed 505",
}


def main() -> int:
    from dintervals.cli import run_command

    for name, args in PINNED.items():
        out = os.path.join(HERE, "instances", name)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        code = run_command(["gen", *args.split(), "--out", out])
        if code != 0:
            print(f"gen failed for {name} with exit {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
