"""Command-line surface tying the workbench together, with an append-only
JSON-lines result store of run manifests.

Exit codes: 0 success, 1 failed verification, 2 input error, 3 budget
exhausted / unknown outcome.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .colorings import (
    BitstringFamily,
    blowup_coloring,
    format_coloring_text,
    forest_partition_coloring,
    mine_delta_system,
    parse_coloring_text,
    parse_family_text,
    parse_set_family_text,
    random_coloring,
    sierpinski_coloring,
)
from .graphs import (
    InputFormatError,
    is_kappa_connected,
    parse_graph_text,
    vertex_connectivity,
)
from .satbridge import (
    NoModel,
    decode_model,
    emit_cnf,
    forbidden_list_hash,
    parse_dimacs,
    parse_model_text,
    to_dimacs,
    violated_clause,
)
from .search import (
    UNKNOWN,
    arrow_check,
    exists_avoiding_coloring,
    minimal_connected_graphs,
    ramsey_number,
)

DEFAULT_SEED = 20181215
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
BUDGET_HELP = "node budget, at least 0; a search that exceeds it is unknown (exit 3)"
SEARCH_HELP = (
    "one table lookup per completed m-set, in a table of colors^C(m,2) "
    "entries, made for all the m-sets an edge completes at once; more than 2^24 "
    "entries (m=7 with colors >= 3, m=6 with colors >= 4, m=5 with "
    "colors >= 6, m=4 with colors >= 17), m=2 with more than 65,536 colors "
    "or m > 7 is refused with exit 2"
)


def _strip_volatile(value):
    """Drop wall-clock fields so the digest is replay-stable."""
    if isinstance(value, dict):
        return {k: _strip_volatile(v) for k, v in value.items() if k != "wall_time"}
    if isinstance(value, list):
        return [_strip_volatile(v) for v in value]
    return value


def outcome_digest(outcome) -> str:
    import hashlib  # here, so that importing the CLI loads no OpenSSL

    blob = json.dumps(_strip_volatile(outcome), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def append_manifest(store_path, command, params, wall_time, outcome):
    manifest = {
        "command": command,
        "params": params,
        "tool_version": __version__,
        "wall_time": wall_time,
        "outcome": outcome,
        "digest": outcome_digest(outcome),
    }
    _write(store_path, json.dumps(manifest, sort_keys=True) + "\n", "a")
    return manifest


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror}") from None


def _write(path, text, mode="w"):
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror}") from None


def _emit(text, out_path):
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_connectivity(args):
    g = parse_graph_text(_read(args.graph_file))
    if args.kappa is not None:
        ok, verdict = is_kappa_connected(g, args.kappa)
        print("true" if ok else "false")
        if verdict.kind == "separated":
            print(f"separator: {sorted(verdict.separator)}")
        elif verdict.paths:
            print(f"pair: {verdict.pair}")
            for path in verdict.paths:
                print("path: " + " ".join(map(str, path)))
        outcome = {
            "kappa": args.kappa,
            "answer": ok,
            "separator": sorted(verdict.separator),
            "paths": [list(p) for p in verdict.paths],
        }
    else:
        kappa = vertex_connectivity(g) if g.n > 0 else 0
        connected = kappa >= 1 or g.n <= 1
        print(f"connected: {connected}")
        print(f"vertex_connectivity: {kappa}")
        outcome = {"connected": connected, "vertex_connectivity": kappa}
    return outcome, EXIT_OK


def cmd_arrow(args):
    c = parse_coloring_text(_read(args.coloring_file))
    mode = "atLeast" if args.at_least else "exact"
    witness = arrow_check(c, args.kappa, args.m, mode)
    if witness is None:
        print("none")
        outcome = {"witness": None}
    else:
        print(f"color {witness.color} on vertices {list(witness.vertices)}")
        outcome = {
            "witness": {"color": witness.color, "vertices": list(witness.vertices)}
        }
    outcome.update({"kappa": args.kappa, "m": args.m, "mode": mode})
    return outcome, EXIT_OK


def cmd_search(args):
    result = exists_avoiding_coloring(
        args.n, args.m, args.kappa, args.colors, node_budget=args.budget,
    )
    outcome = result.to_json_dict()
    outcome["tool_version"] = __version__
    outcome["seed"] = args.seed
    print(json.dumps(outcome, sort_keys=True, indent=2))
    return outcome, EXIT_UNKNOWN if result.kind == UNKNOWN else EXIT_OK


def cmd_number(args):
    result = ramsey_number(
        args.m, args.kappa, args.colors, args.nmax,
        node_budget=args.budget,
    )
    if result.status == "determined":
        print(result.value)
    elif result.status == "open":
        print(f"> {args.nmax}")
    else:
        print("unknown (budget exhausted)")
    outcome = result.to_json_dict()
    return outcome, EXIT_UNKNOWN if result.status == UNKNOWN else EXIT_OK


def cmd_coloring(args):
    if args.kind == "sierpinski":
        if args.family:
            family = parse_family_text(_read(args.family))
        elif args.length is not None:
            family = BitstringFamily.full(args.length)
        else:
            raise InputFormatError("sierpinski needs --family or --length")
        c = sierpinski_coloring(family)
    elif args.kind == "forest":
        if args.n is None:
            raise InputFormatError("forest needs --n")
        c = forest_partition_coloring(args.n)
    elif args.kind == "blowup":
        if not (args.base and args.blocks):
            raise InputFormatError("blowup needs --base and --blocks")
        base = parse_coloring_text(_read(args.base))
        try:
            blocks = [int(b) for b in args.blocks.split(",")]
        except ValueError:
            raise InputFormatError("--blocks must be comma-separated integers") from None
        c = blowup_coloring(base, blocks, args.inner_color)
    else:  # random
        if args.n is None or args.colors is None:
            raise InputFormatError("random needs --n and --colors")
        c = random_coloring(args.n, args.colors, args.seed)
    _emit(format_coloring_text(c), args.out)
    outcome = {"kind": args.kind, "n": c.n, "k": c.k, "colors": list(c.colors)}
    return outcome, EXIT_OK


def cmd_cnf(args):
    inst = emit_cnf(args.n, args.m, args.kappa, args.colors)
    _emit(to_dimacs(inst), args.out)
    outcome = {
        "n": args.n, "m": args.m, "kappa": args.kappa, "k": args.colors,
        "num_vars": inst.num_vars, "num_clauses": len(inst.clauses),
        "forbidden_hash": inst.forbidden_hash,
    }
    return outcome, EXIT_OK


def cmd_verify_model(args):
    inst = parse_dimacs(_read(args.cnf_file))
    params = {"n": inst.n, "m": inst.m, "kappa": inst.kappa, "k": inst.k}
    expected = forbidden_list_hash(minimal_connected_graphs(inst.m, inst.kappa))
    if inst.forbidden_hash != expected:
        print(f"instance forbidden-list hash {inst.forbidden_hash} is not {expected}")
        outcome = {"params": params, "valid": False,
                   "forbidden_hash": inst.forbidden_hash, "expected_hash": expected}
        return outcome, EXIT_FAILED
    try:
        literals = parse_model_text(_read(args.model_file))
    except NoModel as exc:
        print(f"no model: {exc}")
        return {"params": params, "valid": False, "solver_status": exc.status}, EXIT_FAILED
    try:
        coloring = decode_model(inst, literals)
    except ValueError as exc:
        print(f"invalid model: {exc}")
        return {"params": params, "valid": False, "error": str(exc)}, EXIT_FAILED
    witness = arrow_check(coloring, inst.kappa, inst.m, "exact")
    if witness is not None:
        print(
            f"model decodes, but color {witness.color} on {list(witness.vertices)} "
            "is a monochromatic well-connected set"
        )
        outcome = {
            "params": params,
            "valid": False,
            "witness": {"color": witness.color, "vertices": list(witness.vertices)},
        }
        return outcome, EXIT_FAILED
    clause = violated_clause(inst, coloring)
    if clause is not None:
        print(f"model decodes to an avoiding coloring, but violates clause {list(clause)}")
        return {"params": params, "valid": False, "violated_clause": list(clause)}, EXIT_FAILED
    print("model decodes to an avoiding coloring")
    return {"params": params, "valid": True}, EXIT_OK


def cmd_delta_mine(args):
    family, n = parse_set_family_text(_read(args.family_file))
    report = mine_delta_system(family, n, args.size)
    if report is None:
        print("none")
        return {"B": None}, EXIT_OK
    print(f"B = {list(report.B)}")
    outcome = {
        "B": list(report.B),
        "row_roots": {str(a): sorted(r) if r is not None else None
                      for a, r in report.row_roots.items()},
        "col_roots": {str(b): sorted(r) if r is not None else None
                      for b, r in report.col_roots.items()},
        "union_root": sorted(report.union_root),
        "root_sizes_uniform": report.root_sizes_uniform,
    }
    print(json.dumps(outcome, sort_keys=True, indent=2))
    return outcome, EXIT_OK


def _required_ints(p, *names):
    """Add a required int option --name for each name, in order."""
    for name in names:
        p.add_argument(f"--{name}", type=int, required=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on the first call and reused by every
    later one in the process; nothing builds it at import."""
    parser = argparse.ArgumentParser(
        prog="hcramsey",
        description="Finite workbench for connected Ramsey relations.",
    )
    parser.add_argument("--store", default="results.jsonl",
                        help="append-only JSON-lines manifest store")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("connectivity", help="connectivity of a graph file")
    p.add_argument("graph_file")
    p.add_argument("--kappa", type=int)
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("arrow", help="arrow relation on a coloring file")
    p.add_argument("coloring_file")
    _required_ints(p, "kappa", "m")
    p.add_argument("--at-least", action="store_true")
    p.set_defaults(func=cmd_arrow)

    p = sub.add_parser("search", help="search for an avoiding coloring",
                       description="Search for an avoiding coloring: " + SEARCH_HELP + ".")
    _required_ints(p, "n", "m", "kappa", "colors")
    p.add_argument("--budget", type=int, help=BUDGET_HELP)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("number", help="finite connected Ramsey number",
                       description="Least n whose every coloring has a monochromatic "
                       "kappa-connected m-set, by one search over K_nmax that reads off "
                       "each n when it first colors all of K_n; each n's node and prune "
                       "counts are those of a search of K_n alone, and its wall_time "
                       "runs from the start of the search to that n's decision: "
                       + SEARCH_HELP + ".")
    _required_ints(p, "m", "kappa", "colors", "nmax")
    p.add_argument("--budget", type=int, help=BUDGET_HELP)
    p.set_defaults(func=cmd_number)

    p = sub.add_parser("coloring", help="emit a coloring file")
    p.add_argument("kind", choices=["sierpinski", "forest", "blowup", "random"])
    p.add_argument("--n", type=int)
    p.add_argument("--colors", type=int)
    p.add_argument("--length", type=int, help="bitstring length for sierpinski")
    p.add_argument("--family", help="bitstring family file for sierpinski")
    p.add_argument("--base", help="base coloring file for blowup")
    p.add_argument("--blocks", help="comma-separated block sizes for blowup")
    p.add_argument("--inner-color", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_coloring)

    p = sub.add_parser("cnf", help="emit a DIMACS CNF avoidance instance")
    _required_ints(p, "n", "m", "kappa", "colors")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cnf)

    p = sub.add_parser("verify-model", help="check a solver model against a CNF")
    p.add_argument("cnf_file")
    p.add_argument("model_file")
    p.set_defaults(func=cmd_verify_model)

    p = sub.add_parser("delta-mine", help="mine a two-dimensional sunflower")
    p.add_argument("family_file")
    _required_ints(p, "size")
    p.set_defaults(func=cmd_delta_mine)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        outcome, code = args.func(args)
        wall_time = time.perf_counter() - start
        params = {
            key: value
            for key, value in vars(args).items()
            if key not in ("func", "store", "command") and value is not None
        }
        append_manifest(args.store, args.command, params, wall_time, outcome)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
