#!/usr/bin/env python3
"""Tabulate finite connected Ramsey numbers R_kappa(m; k) over a small grid.

For each (m, kappa, k) the script searches n = m, m+1, ..., n_max for the
least n at which no avoiding coloring exists, and prints one row per
parameter point together with the search effort.  Points that stay open up
to n_max are reported as "> n_max".  The `last_n_nodes` column is the node
count of the last n searched, the one that decided the row: exhausted,
unknown, or n_max when open.  Each row is one search over K_n_max that
reads off each smaller n on the way, so that count is every node the row's
search visited; the smaller n's counts are prefixes of it and are not added.

Typical run:

    python3 scripts/collapse_table.py --max-m 4 --max-kappa 3 --nmax 7
"""

import argparse
import time

from hcramsey.search import ramsey_number


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-m", type=int, default=3)
    ap.add_argument("--max-kappa", type=int, default=3)
    ap.add_argument("--colors", type=int, default=2)
    ap.add_argument("--nmax", type=int, default=6)
    ap.add_argument("--budget", type=int, default=None,
                    help="node budget per search; exceeded points print '?'")
    args = ap.parse_args(argv)

    print(f"{'m':>3} {'kappa':>5} {'k':>3} {'value':>7} {'last_n_nodes':>12} {'time':>8}")
    for m in range(2, args.max_m + 1):
        for kappa in range(1, args.max_kappa + 1):
            if kappa > m:
                continue
            start = time.perf_counter()
            result = ramsey_number(m, kappa, args.colors, args.nmax, node_budget=args.budget)
            elapsed = time.perf_counter() - start
            nodes = result.outcomes[max(result.outcomes)].stats.nodes
            if result.status == "determined":
                value = str(result.value)
            elif result.status == "open":
                value = f"> {args.nmax}"
            else:
                value = "?"
            print(f"{m:>3} {kappa:>5} {args.colors:>3} {value:>7} "
                  f"{nodes:>12} {elapsed:>7.2f}s")


if __name__ == "__main__":
    main()
