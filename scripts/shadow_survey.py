#!/usr/bin/env python3
"""Survey the two explicit avoiding constructions at small finite scale.

Part 1: first-difference colorings of the full bitstring family of each
length, each checked once for a 3-connected monochromatic triple (on
three vertices that is a monochromatic triangle), over the counting order
and shuffled enumeration orders (the construction should not care about
the order).

Part 2: spanning-path partitions of K_n for even n, checked to be forest
color classes partitioning the edge set with no 2-connected monochromatic
triple, with the color count n/2 printed next to the 2-color lower bound
they beat.

Exits 1 if any first-difference row is not clean under every order or any
spanning-path row has a False column, else 0.

    python3 scripts/shadow_survey.py --max-length 4 --max-n 10 --shuffles 10
"""

import argparse
import random
import sys

from hcramsey.colorings import (
    BitstringFamily,
    forest_partition_coloring,
    sierpinski_coloring,
)
from hcramsey.graphs import induced_color_graph, is_forest
from hcramsey.search import arrow_check


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-length", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--shuffles", type=int, default=10)
    ap.add_argument("--seed", type=int, default=20181215)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    dirty = False

    print("first-difference colorings")
    print(f"{'length':>7} {'points':>7} {'colors':>7} {'orders':>7} {'clean':>6}")
    for length in range(1, args.max_length + 1):
        base = list(BitstringFamily.full(length).strings)
        orders = [tuple(base)]
        for _ in range(args.shuffles):
            shuffled = base[:]
            rng.shuffle(shuffled)
            orders.append(tuple(shuffled))
        clean = sum(
            arrow_check(sierpinski_coloring(BitstringFamily(length, strings)), 3, 3) is None
            for strings in orders
        )
        dirty |= clean < len(orders)
        print(f"{length:>7} {len(base):>7} {2 * length:>7} "
              f"{len(orders):>7} {clean:>6}/{len(orders)}")

    print()
    print("spanning-path partitions")
    print(f"{'n':>4} {'colors':>7} {'forests':>8} {'partition':>10} {'no-triple':>10}")
    for n in range(4, args.max_n + 1, 2):
        c = forest_partition_coloring(n)
        classes = [induced_color_graph(c, xi, range(n)).graph for xi in range(c.k)]
        forests = all(is_forest(g) for g in classes)
        npairs = n * (n - 1) // 2
        covered = 0
        for g in classes:
            covered |= g.mask
        partition = covered == (1 << npairs) - 1 and (
            sum(g.mask.bit_count() for g in classes) == npairs
        )
        clean = arrow_check(c, 2, 3) is None
        dirty |= not (forests and partition and clean)
        print(f"{n:>4} {c.k:>7} {str(forests):>8} {str(partition):>10} "
              f"{str(clean):>10}")
    return 1 if dirty else 0


if __name__ == "__main__":
    sys.exit(main())
