"""Reproduce the sporadic solution table at desk scale and audit the result.

Enumerates every del Pezzo candidate with a4 <= 60 and d2 <= 120, strips the
solutions covered by the 45 infinite series, and compares the remainder with
the shipped golden table restricted to the same box.

Run:  python demos/reproduce_sporadic_table.py   (exits 1 on a mismatch)
"""

import csv
import sys
import time
from importlib import resources

from wcidp import Bounds, enumerate_solutions

BOUNDS = Bounds(max_a4=60, max_d2=120)

text = resources.files("wcidp").joinpath("data/sporadic_catalog.csv").read_text()
golden = sorted(
    tuple(int(row[k]) for k in ("a0", "a1", "a2", "a3", "a4", "d1", "d2"))
    for row in csv.DictReader(text.splitlines())
)
expected = [r for r in golden if r[4] <= BOUNDS.max_a4 and r[6] <= BOUNDS.max_d2]

start = time.monotonic()
result = enumerate_solutions(BOUNDS, jobs=2)
elapsed = time.monotonic() - start

found = [c.key for c in result.sporadic]
print(f"searched up to a4 <= {BOUNDS.max_a4}, d2 <= {BOUNDS.max_d2} in {elapsed:.0f}s")
print(f"  {len(result.solutions)} solutions total")
print(f"  {len(result.family_instances)} carried by an infinite series")
print(f"  {len(found)} sporadic")
print(f"golden table restricted to the same box: {len(expected)} rows")
print("exact match!" if found == expected else "MISMATCH -- investigate")

print("\nfirst few sporadic solutions:")
for c in result.sporadic[:8]:
    print(" ", c)

sys.exit(0 if found == expected else 1)
