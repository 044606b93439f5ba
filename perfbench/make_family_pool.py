"""Regenerate ``family_pool.csv``, the frozen family instances the lookup
workload draws its accepted tuples from.

    PYTHONPATH=src python3 perfbench/make_family_pool.py

The pool is a fixed sample of every family instance with a4 <= 500 and
d2 <= 1000, each with the first (series, assignment) that produces it.  It
is frozen so that a later change to ``wcidp.families`` cannot change the
inputs or the answers the benchmark holds the package to.
"""

from __future__ import annotations

import random
from pathlib import Path

from wcidp import families

MAX_A4, MAX_D2 = 500, 1000
POOL_SIZE = 2500
OUT = Path(__file__).resolve().parent / "family_pool.csv"


def main() -> None:
    instances = families.instances_within(MAX_A4, MAX_D2)
    keys = random.Random(0).sample(sorted(instances), POOL_SIZE)
    lines = ["a0,a1,a2,a3,a4,d1,d2,family,params"]
    for key in sorted(keys):
        first = instances[key][0]
        params = ";".join(f"{k}={v}" for k, v in first.assignment)
        lines.append(",".join(map(str, key)) + f",{first.family_id},{params}")
    OUT.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
