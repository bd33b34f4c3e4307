"""CNF export of avoidance instances and verification of solver models
against the native semantics.

The encoding is one-hot: variable (edge, color) is true iff the edge gets
that color.  An instance is satisfiable iff an avoiding coloring exists.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, replace

from . import __version__ as _version
from .graphs import EdgeColoring, InputFormatError, all_pairs, pair_index
from .search import AVOIDING, ForbiddenList, exists_avoiding_coloring, minimal_connected_graphs

CLAUSE_LIMIT = 5_000_000
ENUMERATION_LIMIT = 1 << 16


def forbidden_list_hash(fl: ForbiddenList) -> str:
    payload = repr((fl.m, fl.kappa, tuple(sorted(fl.masks)))).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class CnfInstance:
    n: int
    m: int
    kappa: int
    k: int
    num_vars: int
    clauses: tuple
    forbidden_hash: str

    def var(self, edge_idx: int, color: int) -> int:
        """Dense 1-based variable index for (edge, color); edges in
        lexicographic pair order."""
        if not 0 <= color < self.k:
            raise ValueError(f"color {color} out of range")
        return edge_idx * self.k + color + 1


def emit_cnf(n: int, m: int, kappa: int, k: int) -> CnfInstance:
    """One-hot edge-color variables; per edge an at-least-one clause plus
    pairwise at-most-one clauses; per size-m subset, color, and labeled
    edge-minimal kappa-connected graph on it, a clause forbidding the
    monochromatic copy.  Duplicate clauses are removed and the final order
    is sorted, so identical parameters give byte-identical DIMACS output."""
    # The guard keeps the m! factor of its original placement count, so the
    # refused instances stay the same: (9, 6, 1, 2) and (8, 6, 3, 2) are
    # refused only because of it.  The factors without the forbidden list
    # are checked first, so a hopeless instance never builds its table.
    estimate = math.comb(n, m) * k * math.factorial(m)
    if estimate > CLAUSE_LIMIT:
        raise ValueError(f"size limit: more than {estimate} candidate clauses")
    fl = minimal_connected_graphs(m, kappa)
    estimate *= len(fl.masks)
    if estimate > CLAUSE_LIMIT:
        raise ValueError(f"size limit: about {estimate} candidate clauses")

    nedges = n * (n - 1) // 2
    inst = CnfInstance(n, m, kappa, k, nedges * k, (), forbidden_list_hash(fl))
    clauses = set()
    for e in range(nedges):
        clauses.add(tuple(inst.var(e, i) for i in range(k)))
        for i, j in itertools.combinations(range(k), 2):
            clauses.add(tuple(sorted((-inst.var(e, i), -inst.var(e, j)))))
    local_pairs = all_pairs(m)
    for subset in itertools.combinations(range(n), m):
        idxs = [pair_index(n, subset[a], subset[b]) for a, b in local_pairs]
        for fm in fl.masks:
            edges = [e for bit, e in enumerate(idxs) if fm >> bit & 1]
            for i in range(k):
                clauses.add(tuple(sorted(-inst.var(e, i) for e in edges)))
    return replace(inst, clauses=tuple(sorted(clauses)))


def to_dimacs(inst: CnfInstance) -> str:
    lines = [
        f"c hcramsey avoidance instance version={_version}",
        f"c n={inst.n} m={inst.m} kappa={inst.kappa} k={inst.k} forbidden={inst.forbidden_hash}",
        f"p cnf {inst.num_vars} {len(inst.clauses)}",
    ]
    lines.extend(" ".join(str(l) for l in clause) + " 0" for clause in inst.clauses)
    return "\n".join(lines) + "\n"


def parse_dimacs_provenance(text: str) -> dict:
    """Recover (n, m, kappa, k) from the provenance comment line."""
    for line in text.splitlines():
        if line.startswith("c ") and "kappa=" in line:
            fields = dict(
                part.split("=", 1) for part in line[2:].split() if "=" in part
            )
            try:
                return {
                    "n": int(fields["n"]),
                    "m": int(fields["m"]),
                    "kappa": int(fields["kappa"]),
                    "k": int(fields["k"]),
                }
            except (KeyError, ValueError):
                raise InputFormatError("malformed provenance comment") from None
    raise InputFormatError("no provenance comment found")


def parse_model_text(text: str) -> list[int]:
    """Whitespace-separated literal list (solver v-line format); 'v'/'s'
    prefixes are skipped and a terminating 0 ends the list."""
    literals = []
    for token in text.split():
        if token in ("v", "s") or token.upper() in ("SAT", "SATISFIABLE"):
            continue
        try:
            lit = int(token)
        except ValueError:
            raise InputFormatError(f"bad literal {token!r}") from None
        if lit == 0:
            break
        literals.append(lit)
    return literals


def decode_model(inst: CnfInstance, literals) -> EdgeColoring:
    """Read the unique coloring off a total one-hot assignment."""
    assignment = {}
    for lit in literals:
        var = abs(lit)
        if not 1 <= var <= inst.num_vars:
            raise ValueError(f"literal {lit} references no variable")
        assignment[var] = lit > 0
    if len(assignment) < inst.num_vars:
        raise ValueError("assignment not total over instance variables")
    colors = []
    nedges = inst.n * (inst.n - 1) // 2
    for e in range(nedges):
        true_colors = [i for i in range(inst.k) if assignment[inst.var(e, i)]]
        if len(true_colors) != 1:
            raise ValueError("malformed model")
        colors.append(true_colors[0])
    return EdgeColoring(inst.n, inst.k, tuple(colors))


def coloring_to_literals(inst: CnfInstance, c: EdgeColoring) -> list[int]:
    nedges = inst.n * (inst.n - 1) // 2
    lits = []
    for e in range(nedges):
        for i in range(inst.k):
            var = inst.var(e, i)
            lits.append(var if c.colors[e] == i else -var)
    return lits


def assignment_satisfies(inst: CnfInstance, c: EdgeColoring) -> bool:
    """Whether the one-hot assignment of a coloring satisfies every clause."""

    def lit_true(lit):
        var = abs(lit) - 1
        e, i = divmod(var, inst.k)
        value = c.colors[e] == i
        return value if lit > 0 else not value

    return all(any(lit_true(l) for l in clause) for clause in inst.clauses)


def cnf_satisfiable_by_enumeration(inst: CnfInstance):
    """Decide satisfiability by sweeping all colorings (every satisfying
    assignment is one-hot, so this is exhaustive); None if too large."""
    nedges = inst.n * (inst.n - 1) // 2
    if inst.k**nedges > ENUMERATION_LIMIT:
        return None
    for colors in itertools.product(range(inst.k), repeat=nedges):
        c = EdgeColoring(inst.n, inst.k, colors)
        if assignment_satisfies(inst, c):
            return True
    return False


def verify_cnf_equivalence(grid) -> list[dict]:
    """For each (n, m, kappa, k): CNF satisfiability (by internal
    enumeration when small, else by checking the native search's coloring
    against the clauses) must match the native search verdict."""
    reports = []
    for n, m, kappa, k in grid:
        inst = emit_cnf(n, m, kappa, k)
        native = exists_avoiding_coloring(n, m, kappa, k)
        native_sat = native.kind == AVOIDING
        cnf_sat = cnf_satisfiable_by_enumeration(inst)
        if cnf_sat is None and native_sat:
            cnf_sat = assignment_satisfies(inst, native.coloring)
        reports.append(
            {
                "params": {"n": n, "m": m, "kappa": kappa, "k": k},
                "native_avoiding": native_sat,
                "cnf_satisfiable": cnf_sat,
                "match": cnf_sat is not None and cnf_sat == native_sat,
            }
        )
    return reports
