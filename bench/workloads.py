"""The benchmark's three workloads, each split into prepare (untimed),
execute (timed, one pass) and check (untimed).

* search_panel: backtracking search on a fixed panel of Ramsey instances,
  serial and with two workers.  Exercises the forbidden-list table, the
  completion index and backtracking; never the flow engine or satbridge.
* cnf_roundtrip: forbidden-list builds, CNF export, size-guard refusals and
  the CLI round trip (cnf, verify-model, number).  Almost no backtracking.
* certify: cold and cache-hit connectivity decisions on seeded random
  graphs, and arrow checks on explicit constructions.  Exercises the flow
  engine and the certificate cache; never backtracks or emits CNF.

Only `certify` draws its inputs from the seed.  Every public call is one
operation; it fails on an exception, a wrong verdict or a missing expected
refusal.  A budget `unknown` is not a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import statistics
import time
from collections import defaultdict

from hcramsey import (
    BitstringFamily,
    EdgeColoring,
    Graph,
    arrow_check,
    brute_force_kappa,
    emit_cnf,
    exists_avoiding_coloring,
    forest_partition_coloring,
    induced_color_graph,
    is_kappa_connected,
    minimal_connected_graphs,
    ramsey_number,
    random_coloring,
    sierpinski_coloring,
    to_dimacs,
)
from hcramsey import cli
from hcramsey.satbridge import CnfInstance, coloring_to_literals

from reference import GOOD_MODEL_10_4_2_3, REFERENCE
from spans import self_times

# (m, kappa, k, nmax, node budget).  Budgets are scaled so that one pass
# fits several times into a run; the frontier they give is 47.
PANEL = [
    (3, 3, 2, 6, None),
    (3, 2, 3, 14, 60_000),
    (4, 2, 3, 12, 42_000),
    (5, 1, 3, 9, 4_000),
    (5, 2, 2, 9, None),
    (6, 1, 2, 8, None),
]

SIZES = {
    "search_panel": {
        "full": {
            "panel": PANEL,
            # (n, m, kappa, k) run with two workers; its serial twin is the
            # n outcome of the panel instance (m, kappa, k).
            "parallel": [(10, 4, 2, 3), (6, 6, 1, 2)],
        },
        "smoke": {
            "panel": [(3, 3, 2, 6, None), (3, 2, 3, 14, 3_000), (4, 1, 2, 6, None)],
            "parallel": [(6, 3, 2, 3), (4, 4, 1, 2)],
        },
    },
    "cnf_roundtrip": {
        "full": {
            "refusals": [(9, 6, 1, 2), (8, 6, 3, 2)],
            "tables": [(6, 2), (6, 4), (6, 5)],
            "cnf": [(8, 5, 2, 2), (12, 4, 2, 3), (14, 3, 2, 3)],
        },
        "smoke": {
            "refusals": [(9, 6, 1, 2)],
            "tables": [],
            "cnf": [(12, 4, 2, 3), (14, 3, 2, 3)],
        },
    },
    "certify": {
        # Sized for passes of a few seconds: machine noise comes in bursts
        # of seconds, and per-call medians over many passes filter them.
        # graphs: distinct random graphs, an equal share per (n, density);
        # the first `repeat` of them are decided again at kappa = 3.
        # constructions: (kind, size, kappa, m, mode), all avoiding.
        "full": {
            "graphs": 1200,
            "repeat": 600,
            "constructions": [
                ("sierpinski", 5, 3, 3, "exact"),
                ("sierpinski", 4, 2, 3, "exact"),
                ("forest", 12, 2, 3, "atLeast"),
                ("forest", 20, 2, 3, "exact"),
            ],
            "random_colorings": 20,
        },
        "smoke": {
            "graphs": 48,
            "repeat": 24,
            "constructions": [
                ("sierpinski", 4, 3, 3, "exact"),
                ("forest", 8, 2, 3, "atLeast"),
                ("forest", 20, 2, 3, "exact"),
            ],
            "random_colorings": 3,
        },
    },
}

GRAPH_ORDERS = (7, 8, 9)
DENSITIES = (0.3, 0.5, 0.7, 0.9)
RANDOM_COLORING = (11, 3, 2, 5)  # n, k, kappa, m


def tag(*params) -> str:
    return "-".join(map(str, params))


def attempt(fn, *args, **kwargs):
    """(result, None) or (None, repr of the exception): a failing call is a
    failed operation, not the end of the pass."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
        return None, repr(exc)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class Checker:
    """Attempted and failed operations of one pass, plus timings of the
    brute-force oracle it consults."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.oracle_s: list[float] = []

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def brute(self, g: Graph) -> int:
        t = time.perf_counter()
        value = brute_force_kappa(g)
        self.oracle_s.append(time.perf_counter() - t)
        return value

    def avoids(self, c: EdgeColoring, kappa: int, m: int) -> bool:
        """No monochromatic kappa-connected m-set, by the brute oracle."""
        for subset in itertools.combinations(range(c.n), m):
            for xi in range(c.k):
                if self.brute(induced_color_graph(c, xi, subset).graph) >= kappa:
                    return False
        return True

    def witness_ok(self, c: EdgeColoring, kappa: int, m: int, witness) -> bool:
        return (
            len(witness.vertices) == m
            and self.brute(induced_color_graph(c, witness.color, witness.vertices).graph) >= kappa
        )


def build_table(tr, m: int, kappa: int):
    """A forbidden-list build, timed as one `search.table_s` call."""
    with tr.span(f"search.table_s:{m}-{kappa}", "search") as sp:
        fl, err = attempt(minimal_connected_graphs, m, kappa)
        if fl is not None:
            sp.count(**{"search.forbidden_graphs": len(fl.masks)})
    return fl, err


# ---------------------------------------------------------------------------
# search_panel


def prepare_search_panel(size: dict, seed: int, workdir) -> dict:
    return size


def execute_search_panel(inp: dict, tr) -> dict:
    out = {"panel": [], "parallel": []}
    for m, kappa, k, nmax, budget in inp["panel"]:
        name = tag(m, kappa, k)
        fl, table_err = build_table(tr, m, kappa)
        with tr.span(f"search.backtrack_s:{name}", "search") as sp:
            result, err = attempt(ramsey_number, m, kappa, k, nmax, node_budget=budget)
            if result is not None:
                nodes = sum(o.stats.nodes for o in result.outcomes.values())
                sp.count(**{
                    "search.nodes": nodes,
                    "search.prunes": sum(o.stats.forbidden_prunes for o in result.outcomes.values()),
                    "search.frontier_n": frontier(result),
                })
        probe = probe_err = None
        if result is not None:
            last_n = max(result.outcomes)
            with tr.span(f"search.index_s:{tag(last_n, m, kappa, k)}", "search"):
                probe, probe_err = attempt(
                    exists_avoiding_coloring, last_n, m, kappa, k, node_budget=1
                )
        out["panel"].append({
            "params": (m, kappa, k, nmax, budget),
            "forbidden": None if fl is None else len(fl.masks),
            "table_error": table_err,
            "result": result,
            "error": err,
            "probe": probe,
            "probe_error": probe_err,
        })
    twins = {row["params"][:3]: row["result"] for row in out["panel"]}
    for n, m, kappa, k in inp["parallel"]:
        twin = twins.get((m, kappa, k))
        twin_outcome = None if twin is None else twin.outcomes.get(n)
        with tr.span(f"search.parallel_s:{tag(n, m, kappa, k)}", "search") as sp:
            outcome, err = attempt(exists_avoiding_coloring, n, m, kappa, k, workers=2)
            if outcome is not None and twin_outcome is not None:
                sp.count(**{
                    "search.parallel_nodes": outcome.stats.nodes,
                    "search.twin_nodes": twin_outcome.stats.nodes,
                    "search.twin_s": twin_outcome.stats.wall_time,
                })
        out["parallel"].append({"params": (n, m, kappa, k), "outcome": outcome,
                                "error": err, "twin": twin_outcome})
    return out


def frontier(result) -> int:
    """Largest n the search resolved (avoiding or exhausted) in budget."""
    resolved = [n for n, o in result.outcomes.items() if o.kind != "unknown"]
    return max(resolved, default=result.m - 1)


def outcome_counts(o) -> list:
    colors = list(o.coloring.colors) if o.coloring is not None else None
    return [o.kind, o.stats.nodes, o.stats.forbidden_prunes, digest(colors)]


def check_search_panel(inp: dict, out: dict, chk: Checker) -> dict:
    refs = REFERENCE
    counts = {"fixed": {}}
    for row in out["panel"]:
        m, kappa, k, nmax, budget = row["params"]
        name = tag(m, kappa, k)
        want = refs["forbidden_graphs"].get((m, kappa))
        chk.op(f"table {m}-{kappa}", row["table_error"] is None
               and (want is None or row["forbidden"] == want),
               f"{row['table_error'] or row['forbidden']} forbidden graphs, want {want}")
        result = row["result"]
        if result is None:
            chk.op(f"ramsey {name}", False, str(row["error"]))
            continue
        problems = []
        ref = refs["ramsey"].get((m, kappa, k))
        if ref is not None:
            if result.status == "determined" and result.value != ref:
                problems.append(f"value {result.value}, reference {ref}")
            if result.status == "open" and ref <= nmax:
                problems.append(f"open to {nmax}, reference {ref}")
        for n, o in result.outcomes.items():
            if o.kind == "avoiding" and arrow_check(o.coloring, kappa, m) is not None:
                problems.append(f"n={n} coloring does not avoid")
        chk.op(f"ramsey {name}", not problems, "; ".join(problems))
        last_n = max(result.outcomes)
        probe = row["probe"]
        chk.op(f"index probe {name}", probe is not None
               and probe.kind in ("unknown", result.outcomes[last_n].kind),
               str(row["probe_error"] or probe.kind))
        counts["fixed"][name] = {
            "status": result.status,
            "value": result.value,
            "frontier": frontier(result),
            "forbidden": row["forbidden"],
            "outcomes": {str(n): outcome_counts(o) for n, o in result.outcomes.items()},
        }
    for row in out["parallel"]:
        n, m, kappa, k = row["params"]
        o, twin = row["outcome"], row["twin"]
        problems = [] if o is not None else [str(row["error"])]
        if o is not None:
            if twin is None or o.kind != twin.kind:
                problems.append(f"{o.kind} with 2 workers, serial {twin and twin.kind}")
            if o.kind == "avoiding" and arrow_check(o.coloring, kappa, m) is not None:
                problems.append("coloring does not avoid")
            counts["fixed"][f"parallel {tag(n, m, kappa, k)}"] = outcome_counts(o)
        chk.op(f"parallel {tag(n, m, kappa, k)}", not problems, "; ".join(problems))
    return counts


# ---------------------------------------------------------------------------
# cnf_roundtrip


def prepare_cnf_roundtrip(size: dict, seed: int, workdir) -> dict:
    inst = CnfInstance(10, 4, 2, 3, 45 * 3, (), "")
    good = EdgeColoring(10, 3, GOOD_MODEL_10_4_2_3)
    bad = EdgeColoring.constant(10, 3)
    paths = {
        "store": workdir / "results.jsonl",
        "cnf": workdir / "k10.cnf",
        "good": workdir / "good.model",
        "bad": workdir / "bad.model",
    }
    for key, c in (("good", good), ("bad", bad)):
        lits = coloring_to_literals(inst, c)
        paths[key].write_text("v " + " ".join(map(str, lits)) + " 0\n")
    return dict(size, paths=paths, good=good, bad=bad)


def run_cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code, err = attempt(cli.main, argv)
    return code, err, buf.getvalue()


def execute_cnf_roundtrip(inp: dict, tr) -> dict:
    out = {"refusals": [], "tables": [], "cnf": [], "cli": {}}
    for params in inp["refusals"]:
        with tr.span(f"satbridge.refuse_s:{tag(*params)}", "satbridge"):
            inst, err = attempt(emit_cnf, *params)
        out["refusals"].append((params, inst, err))
    for m, kappa in inp["tables"]:
        fl, err = build_table(tr, m, kappa)
        out["tables"].append(((m, kappa), fl, err))
    for n, m, kappa, k in inp["cnf"]:
        name = tag(n, m, kappa, k)
        build_table(tr, m, kappa)
        with tr.span(f"satbridge.emit_s:{name}", "satbridge") as sp:
            inst, err = attempt(emit_cnf, n, m, kappa, k)
            if inst is not None:
                sp.count(**{"satbridge.clauses": len(inst.clauses)})
        text = None
        if inst is not None:
            with tr.span(f"satbridge.dimacs_s:{name}", "satbridge"):
                text, err = attempt(to_dimacs, inst)
        out["cnf"].append(((n, m, kappa, k), inst, text, err))
    p = {key: str(path) for key, path in inp["paths"].items()}
    store = ["--store", p["store"]]
    calls = {
        "cnf": store + ["cnf", "--n", "10", "--m", "4", "--kappa", "2", "--colors", "3",
                        "--out", p["cnf"]],
        "verify_model": store + ["verify-model", p["cnf"], p["good"]],
        "verify_model_bad": store + ["verify-model", p["cnf"], p["bad"]],
        "number": store + ["number", "--m", "4", "--kappa", "2", "--colors", "2", "--nmax", "7"],
    }
    for key, argv in calls.items():
        with tr.span(f"cli.{key}_s", "cli"):
            out["cli"][key] = run_cli(argv)
    manifest = inp["paths"]["store"]
    lines = len(manifest.read_text().splitlines()) if manifest.exists() else 0
    tr.count(**{"cli.manifest_lines": lines})
    return out


def check_cnf_roundtrip(inp: dict, out: dict, chk: Checker) -> dict:
    refs = REFERENCE
    fixed = {}
    for params, inst, err in out["refusals"]:
        refused = err is not None and err.startswith("ValueError")
        chk.op(f"refusal {tag(*params)}", refused, f"got {err or 'an instance'}")
        fixed[f"refusal {tag(*params)}"] = refused
    for (m, kappa), fl, err in out["tables"]:
        chk.op(f"table {m}-{kappa}", fl is not None, str(err))
    # Forbidden lists built above, or inside emit_cnf, are cached now.
    built = {mk for mk, _, _ in out["tables"]} | {p[1:3] for p, _, _ in out["refusals"]}
    for m, kappa in sorted(built & refs["forbidden_graphs"].keys()):
        want = refs["forbidden_graphs"][(m, kappa)]
        count = len(minimal_connected_graphs(m, kappa).masks)
        chk.op(f"forbidden {m}-{kappa}", count == want, f"{count}, want {want}")
        fixed[f"forbidden {m}-{kappa}"] = count
    for params, inst, text, err in out["cnf"]:
        name = tag(*params)
        if text is None:
            chk.op(f"cnf {name}", False, str(err))
            continue
        got = (len(inst.clauses), hashlib.sha256(text.encode()).hexdigest()[:12])
        want = refs["cnf"][params]
        chk.op(f"cnf {name}", got == want, f"{got}, want {want}")
        fixed[f"cnf {name}"] = got
    fixed.update(check_cli(inp, out["cli"], chk))
    return {"fixed": fixed}


def check_cli(inp: dict, calls: dict, chk: Checker) -> dict:
    refs = REFERENCE
    paths = inp["paths"]
    codes = {key: (code, err) for key, (code, err, _) in calls.items()}
    fixed = {"exit codes": {key: code for key, (code, _) in codes.items()}}

    code, err = codes["cnf"]
    text = paths["cnf"].read_text() if paths["cnf"].exists() else ""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith(("c", "p"))]
    got = (len(lines), hashlib.sha256(text.encode()).hexdigest()[:12])
    chk.op("cli cnf", code == 0 and got == refs["cnf"][(10, 4, 2, 3)],
           f"exit {code} {err or ''} {got}")
    fixed["cli cnf"] = got

    code, err = codes["verify_model"]
    chk.op("cli verify-model", code == 0 and chk.avoids(inp["good"], 2, 4),
           f"exit {code} {err or ''}")

    manifests = [json.loads(ln) for ln in paths["store"].read_text().splitlines()] \
        if paths["store"].exists() else []
    bad = [mf for mf in manifests if mf["command"] == "verify-model"
           and not mf["outcome"].get("valid", True)]
    code, err = codes["verify_model_bad"]
    witness = bad[0]["outcome"].get("witness") if bad else None
    ok = code == 1 and witness is not None
    if ok:
        g = induced_color_graph(inp["bad"], witness["color"], witness["vertices"]).graph
        ok = len(witness["vertices"]) == 4 and chk.brute(g) >= 2
    chk.op("cli verify-model bad", ok, f"exit {code} {err or ''} witness {witness}")

    code, err = codes["number"]
    printed = calls["number"][2].strip()
    chk.op("cli number", code == 0 and printed == refs["cli_number"], f"exit {code} {printed!r}")

    fixed["manifest lines"] = len(manifests)
    fixed["manifest digests"] = [mf["digest"] for mf in manifests]
    chk.op("cli manifest", len(manifests) == len(calls), f"{len(manifests)} lines")
    return fixed


# ---------------------------------------------------------------------------
# certify


def prepare_certify(size: dict, seed: int, workdir) -> dict:
    rng = random.Random(seed)
    cells = [(n, p) for n in GRAPH_ORDERS for p in DENSITIES]
    per_cell = size["graphs"] // len(cells)
    seen, graphs = set(), []
    for n, p in cells:
        made = 0
        while made < per_cell:
            edges = frozenset(
                (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
            )
            if (n, edges) in seen:
                continue
            seen.add((n, edges))
            graphs.append(Graph(n, edges))
            made += 1
    rng.shuffle(graphs)
    coloring_seeds = [rng.randrange(1 << 30) for _ in range(size["random_colorings"])]
    return dict(size, graph_list=graphs, coloring_seeds=coloring_seeds)


def build_construction(kind: str, size: int) -> EdgeColoring:
    if kind == "sierpinski":
        return sierpinski_coloring(BitstringFamily.full(size))
    return forest_partition_coloring(size)


def execute_certify(inp: dict, tr) -> dict:
    out = {"decide": [], "repeat": [], "constructions": [], "random": []}
    graphs = inp["graph_list"]
    for g in graphs:
        with tr.span("graphs.decide", "graphs"):
            out["decide"].append(attempt(is_kappa_connected, g, 2))
    for g in graphs[: inp["repeat"]]:
        with tr.span("graphs.decide_repeat", "graphs"):
            out["repeat"].append(attempt(is_kappa_connected, g, 3))
    for kind, size, kappa, m, mode in inp["constructions"]:
        with tr.span("colorings.build_s", "colorings"):
            c, err = attempt(build_construction, kind, size)
        witness = None
        if c is not None:
            with tr.span(f"search.arrow_s:{tag(c.n, m, kappa, c.k)}", "search"):
                witness, err = attempt(arrow_check, c, kappa, m, mode)
        out["constructions"].append((c, witness, err))
    n, k, kappa, m = RANDOM_COLORING
    for s in inp["coloring_seeds"]:
        with tr.span("colorings.build_s", "colorings"):
            c, err = attempt(random_coloring, n, k, s)
        witness = None
        if c is not None:
            with tr.span(f"search.arrow_s:{tag(n, m, kappa, k)}", "search"):
                witness, err = attempt(arrow_check, c, kappa, m)
        out["random"].append((c, witness, err))
    return out


def check_certify(inp: dict, out: dict, chk: Checker) -> dict:
    graphs = inp["graph_list"]
    brute = [chk.brute(g) for g in graphs]
    answers = []
    for kappa, key in ((2, "decide"), (3, "repeat")):
        for g, value, (res, err) in zip(graphs, brute, out[key]):
            want = value >= kappa
            chk.op(f"decide kappa={kappa}", res is not None and res[0] == want,
                   f"{err or res[0]} on n={g.n} edges={sorted(g.edges)}, brute {want}")
            answers.append(None if res is None else res[0])
    fixed = {"decisions": len(answers), "constructions": []}
    for (kind, size, kappa, m, mode), (c, witness, err) in zip(inp["constructions"], out["constructions"]):
        chk.op(f"arrow {kind}{size} ({kappa},{m}) {mode}", err is None and witness is None,
               f"{err or witness}")
        fixed["constructions"].append(None if err else witness is None)
    n, k, kappa, m = RANDOM_COLORING
    witnesses = []
    for c, witness, err in out["random"]:
        if err is not None:
            ok = False
        elif witness is None:
            ok = chk.avoids(c, kappa, m)
        else:
            ok = chk.witness_ok(c, kappa, m, witness)
        chk.op("arrow random", ok, f"{err or witness}")
        witnesses.append(None if witness is None else [witness.color, list(witness.vertices)])
    return {"fixed": fixed, "seeded": {"answers": digest(answers), "witnesses": witnesses}}


WORKLOADS = {
    "search_panel": (prepare_search_panel, execute_search_panel, check_search_panel),
    "cnf_roundtrip": (prepare_cnf_roundtrip, execute_cnf_roundtrip, check_cnf_roundtrip),
    "certify": (prepare_certify, execute_certify, check_certify),
}


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass


def layer_metrics(spans: list[dict], oracle_s: list[float]) -> dict:
    """Per-layer values from the spans of one pass.  A span named
    "<layer>.<metric>_s[:<instance>]" adds its duration to "<layer>.<metric>_s"
    and "<layer>.<metric>_s.<instance>"; counts recorded on it add up the
    same way.  Layers a workload does not call read 0."""
    m: dict = defaultdict(float)
    decide, repeat = [], []
    for s in spans:
        dur = s["end"] - s["start"]
        base, _, inst = s["name"].partition(":")
        if base == "graphs.decide":
            decide.append(dur)
            continue
        if base == "graphs.decide_repeat":
            repeat.append(dur)
            continue
        items = [(base, dur)] + list(s["counts"].items())
        for key, value in items:
            m[key] += value
            if inst:
                m[f"{key}.{inst}"] += value
    for layer, seconds in self_times(spans).items():
        m[f"{layer}.self_s"] = seconds
    if m["search.nodes"]:
        m["search.prune_ratio"] = m["search.prunes"] / m["search.nodes"]
    if m["search.backtrack_s"]:
        m["search.nodes_per_s"] = m["search.nodes"] / m["search.backtrack_s"]
    if m["satbridge.emit_s"]:
        m["satbridge.clauses_per_s"] = m["satbridge.clauses"] / m["satbridge.emit_s"]
    for key in [k for k in m if k.startswith("search.parallel_s.")]:
        inst = key.rsplit("parallel_s.", 1)[1]
        if m[f"search.twin_nodes.{inst}"]:
            m[f"search.parallel_speedup.{inst}"] = m[f"search.twin_s.{inst}"] / m[key]
            m[f"search.parallel_node_ratio.{inst}"] = (
                m[f"search.parallel_nodes.{inst}"] / m[f"search.twin_nodes.{inst}"])
    if decide:
        m["graphs.decide_s"] = sum(decide)
        m["graphs.decide_p50_us"] = statistics.median(decide) * 1e6
        m["graphs.decide_p99_us"] = statistics.quantiles(decide, n=100)[98] * 1e6
    if repeat:
        m["graphs.decide_repeat_us"] = statistics.median(repeat) * 1e6
    if oracle_s:
        m["graphs.oracle_us"] = statistics.median(oracle_s) * 1e6
    return dict(m)
