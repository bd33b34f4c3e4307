"""One-shot comparison with the ROADMAP's "Baseline measured at this
re-anchor" table; not part of the per-change workloads.

    python3 bench/reanchor.py            # about 8 minutes on 2 cores

Times each row of the table through public calls, in one process, and
writes measured against stated values to bench/reanchor.json.  A time
agrees when it is within a factor of 1.5 of the stated value (or range);
counts and verdicts must match exactly.  Single runs: treat as rough.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from hcramsey import (  # noqa: E402
    Graph,
    brute_force_kappa,
    emit_cnf,
    exists_avoiding_coloring,
    minimal_connected_graphs,
    ramsey_number,
    vertex_connectivity,
)

from run import machine_facts  # noqa: E402

TOLERANCE = 1.5


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def random_graphs(count: int, orders, seed: int = 0) -> list[Graph]:
    rng = random.Random(seed)
    seen, graphs = set(), []
    while len(graphs) < count:
        n = rng.choice(orders)
        edges = frozenset(p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5)
        if (n, edges) not in seen and len(edges) < n * (n - 1) // 2:
            seen.add((n, edges))
            graphs.append(Graph(n, edges))
    return graphs


def per_call_us(fn, graphs) -> float:
    times = []
    for g in graphs:
        _, dt = timed(fn, g)
        times.append(dt)
    return statistics.median(times) * 1e6


def search_rate(n, m, kappa, k, budget):
    outcome, dt = timed(exists_avoiding_coloring, n, m, kappa, k, node_budget=budget)
    return outcome.stats.nodes / dt, outcome


def verdicts(result) -> str:
    kinds = {n: o.kind for n, o in result.outcomes.items()}
    avoiding = [n for n, kind in kinds.items() if kind == "avoiding"]
    unknown = [n for n, kind in kinds.items() if kind == "unknown"]
    return f"avoiding to n={max(avoiding)}, unknown at {unknown[0] if unknown else None}"


def rows():
    """(row, stated, measured, unit); stated is a number, a (low, high)
    range or an exact string."""
    fl, dt = timed(minimal_connected_graphs, 7, 2)
    yield ("minimal_connected_graphs(7, 2) [stated: _mask_kappa_connected_table(7, 2)]",
           28.4, dt, "s")
    _, dt = timed(minimal_connected_graphs, 6, 3)
    yield ("minimal_connected_graphs(6, 3)", 0.67, dt, "s")
    inst, dt = timed(emit_cnf, 8, 5, 2, 2)
    yield ("emit_cnf(8, 5, 2, 2)", 1.15, dt, "s")
    yield ("emit_cnf(8, 5, 2, 2) clauses", "2520", str(len(inst.clauses)), "count")

    graphs7 = random_graphs(300, (7,))
    yield ("vertex_connectivity, n=7 random, median", 1000.0,
           per_call_us(vertex_connectivity, graphs7), "us")
    yield ("brute_force_kappa, same graphs, median", 15.0,
           per_call_us(brute_force_kappa, graphs7), "us")
    yield ("brute_force_kappa, mixed n=7..9 random, median", 15.0,
           per_call_us(brute_force_kappa, random_graphs(300, (7, 8, 9), seed=1)), "us")

    rate, _ = search_rate(9, 5, 1, 3, 25_000)
    yield ("search (9,5,1,3), 25k-node budget", 8000.0, rate, "1/s")
    rate, _ = search_rate(11, 3, 2, 3, None)
    yield ("search (11,3,2,3)", (220_000.0, 340_000.0), rate, "1/s")

    for workers, stated_nodes, stated_s in ((1, 39_593, 0.49), (2, 250_401, 2.92)):
        outcome, dt = timed(exists_avoiding_coloring, 10, 4, 2, 3, workers=workers)
        yield (f"search (10,4,2,3) workers={workers}", stated_s, dt, "s")
        yield (f"search (10,4,2,3) workers={workers} nodes", str(stated_nodes),
               str(outcome.stats.nodes), "count")

    result, dt = timed(ramsey_number, 3, 2, 3, 14, node_budget=3_000_000)
    yield ("ramsey_number(3, 2, 3), budget 3M", "avoiding to n=11, unknown at 12",
           verdicts(result), "verdict")
    result, dt = timed(ramsey_number, 5, 1, 3, 9, node_budget=2_000_000)
    yield ("ramsey_number(5, 1, 3), budget 2M: time to unknown at n=9", 295.0, dt, "s")
    yield ("ramsey_number(5, 1, 3), budget 2M", "unknown at n=9",
           f"{result.status} at n={max(result.outcomes)}", "verdict")


def agrees(stated, measured) -> bool:
    if isinstance(stated, str):
        return stated == measured
    low, high = stated if isinstance(stated, tuple) else (stated, stated)
    return low / TOLERANCE <= measured <= high * TOLERANCE


def main() -> int:
    report = []
    for row, stated, measured, unit in rows():
        entry = {"row": row, "unit": unit, "stated": stated, "measured": measured,
                 "agrees": agrees(stated, measured)}
        report.append(entry)
        print(json.dumps(entry), flush=True)
    path = BENCH / "reanchor.json"
    path.write_text(json.dumps({"facts": machine_facts(), "tolerance": TOLERANCE,
                                "rows": report}, indent=2) + "\n")
    print(f"disagreeing rows: {[r['row'] for r in report if not r['agrees']]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
