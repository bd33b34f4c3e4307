#!/usr/bin/env python3
"""Check one connectivity table against pinned values and the brute oracle.

`graphs.connectivity_table(m)` is built by recursion from the (m-1) table.
This script checks the table for one m three ways:

- its sha256 prefix equals the one pinned below (computed with the
  deletion-set build the recursion replaced, equal for every m <= 7);
- `minimal_connected_graphs(m, 1)` has m^(m-2) masks, Cayley's count of
  the labeled spanning trees on m vertices;
- a seeded sample of masks matches `brute_force_kappa`, which shares no
  code with the recursion.

Exits 1 if any check fails, else 0.  The m=7 default runs in about a
second.

    python3 scripts/check_table.py
"""

import argparse
import hashlib
import random
import sys

from hcramsey.graphs import Graph, brute_force_kappa, connectivity_table
from hcramsey.search import minimal_connected_graphs

DIGESTS = {
    2: "fcf0a6c700dd13e2",
    3: "d0f3bab5061224a5",
    4: "40c89aa593990b26",
    5: "a1ded13d45dfbbfd",
    6: "257244cd1199c988",
    7: "fdc6e1ede520d607",
}
SAMPLES = 2000
SEED = 20181215


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=7, choices=sorted(DIGESTS))
    args = ap.parse_args(argv)
    m = args.m
    table = connectivity_table(m)

    digest = hashlib.sha256(table).hexdigest()[:16]
    trees = len(minimal_connected_graphs(m, 1).masks)
    rng = random.Random(SEED)
    mismatches = 0
    for _ in range(SAMPLES):
        mask = rng.randrange(len(table))
        mismatches += table[mask] != brute_force_kappa(Graph.from_mask(m, mask))

    checks = [
        ("sha256 prefix", digest, DIGESTS[m]),
        ("spanning trees", trees, m ** (m - 2)),
        ("oracle mismatches", mismatches, 0),
    ]
    failed = False
    print(f"connectivity_table({m}): {len(table)} masks, {SAMPLES} sampled")
    for name, got, want in checks:
        ok = got == want
        failed |= not ok
        print(f"{name:>18} {got!s:>17} {'ok' if ok else f'FAIL, want {want}'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
