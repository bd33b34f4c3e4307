"""CNF export of avoidance instances and verification of solver models
against the native semantics.

The encoding is one-hot: variable (edge, color) is true iff the edge gets
that color.  An instance is satisfiable iff an avoiding coloring exists.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import NamedTuple

from . import __version__ as _version
from .graphs import EdgeColoring, InputFormatError, pair_rows
from .search import (
    AVOIDING,
    ForbiddenList,
    enumerate_all_colorings,
    exists_avoiding_coloring,
    minimal_connected_graphs,
)

CLAUSE_LIMIT = 5_000_000


def forbidden_list_hash(fl: ForbiddenList) -> str:
    import hashlib  # here, so that importing hcramsey loads no OpenSSL

    payload = repr((fl.m, fl.kappa, fl.masks)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


class CnfInstance(NamedTuple):
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
    monochromatic copy.  Literal (edge e, color i) is e*k + i + 1; every
    clause is built sorted and the list is sorted once, so identical
    parameters give byte-identical DIMACS output.  No clause repeats: a
    forbidden graph spans its m vertices.  A negative n raises ValueError,
    and so do more than CLAUSE_LIMIT one-hot clauses, checked before any
    table is built, or forbidden clauses (see the guards below).

    Each subset's negated literals for all k colors stand in one list of k
    blocks of C(m,2), color i's block at offset i*C(m,2), each block in
    pair_rows order, so it descends.  Each (forbidden graph, color) pair
    gets one getter (_clause_getter) that reads its edges from its color's
    block, last to first, so each forbidden clause is one getter call that
    returns it sorted."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if m < 2 or kappa < 1 or k < 1:
        raise ValueError("need m >= 2, kappa >= 1, k >= 1")
    # One at-least-one and C(k,2) at-most-one clauses per edge, counted
    # apart from the forbidden clauses below, whose guard sees none of them.
    onehot = math.comb(n, 2) * (1 + math.comb(k, 2))
    if onehot > CLAUSE_LIMIT:
        raise ValueError(f"size limit: {onehot} one-hot clauses, more than {CLAUSE_LIMIT}")
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
    clauses = []
    for base in range(1, nedges * k + 1, k):
        clauses.append(tuple(range(base, base + k)))
        clauses.extend((-base - j, -base - i) for i, j in itertools.combinations(range(k), 2))
    block = math.comb(m, 2)
    getters = [_clause_getter(fm, i * block) for i in range(k) for fm in fl.masks]
    row = pair_rows(n)
    for subset in itertools.combinations(range(n), m):
        negs = [-(row[u] + v) * k - 1 for u, v in itertools.combinations(subset, 2)]
        lits = [lit - i for i in range(k) for lit in negs]
        clauses.extend([get(lits) for get in getters])
    clauses.sort()
    return CnfInstance(n, m, kappa, k, nedges * k, tuple(clauses), forbidden_list_hash(fl))


def _clause_getter(fm: int, offset: int):
    """A callable taking a subset's literal list (blocks of one literal per
    pair, in pair_rows order, one block per color) to the tuple of the
    literals of mask fm's edges in the block that starts at offset, last
    edge first.  A one-edge mask (m = 2) gets a one-tuple: itemgetter of a
    single index returns the bare item."""
    bits = [offset + i for i in range(fm.bit_length()) if fm >> i & 1][::-1]
    if len(bits) == 1:
        (bit,) = bits
        return lambda lits: (lits[bit],)
    return operator.itemgetter(*bits)


def to_dimacs(inst: CnfInstance) -> str:
    """DIMACS text: two provenance comments, the 'p cnf' line, then one
    line per clause, its literals and a closing 0, written with one format
    string per clause length."""
    lines = [
        f"c hcramsey avoidance instance version={_version}",
        f"c n={inst.n} m={inst.m} kappa={inst.kappa} k={inst.k} forbidden={inst.forbidden_hash}",
        f"p cnf {inst.num_vars} {len(inst.clauses)}",
    ]
    formats = {size: "%d " * size + "0" for size in set(map(len, inst.clauses))}
    lines.extend([formats[len(clause)] % clause for clause in inst.clauses])
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfInstance:
    """Inverse of to_dimacs: the instance, with its clauses in file order,
    read back from DIMACS text in one pass."""
    provenance, header, literals = None, None, []
    for i, line in enumerate(text.splitlines(), 1):
        if line[:1] == "c":
            if provenance is None and line.startswith("c ") and "kappa=" in line:
                provenance = dict(part.split("=", 1) for part in line[2:].split() if "=" in part)
        elif line[:1] == "p":
            if header is not None:
                raise InputFormatError(f"line {i}: second 'p' line")
            header = line.split()
        else:
            try:
                literals.extend(map(int, line.split()))
            except ValueError:
                raise InputFormatError(f"line {i}: literals must be integers") from None
    if provenance is None:
        raise InputFormatError("no provenance comment found")
    try:
        n, m, kappa, k = (int(provenance[key]) for key in ("n", "m", "kappa", "k"))
    except (KeyError, ValueError):
        raise InputFormatError("malformed provenance comment") from None
    for key, value in zip(("n", "m", "kappa", "k"), (n, m, kappa, k)):
        if value < 0:
            raise InputFormatError(f"provenance {key}={value} is negative")
    if "forbidden" not in provenance:
        raise InputFormatError("provenance comment has no forbidden= hash")
    if header is None or len(header) != 4 or header[:2] != ["p", "cnf"]:
        raise InputFormatError("expected one 'p cnf <vars> <clauses>' line")
    try:
        num_vars, num_clauses = int(header[2]), int(header[3])
    except ValueError:
        raise InputFormatError("'p cnf' counts must be integers") from None
    if num_vars != n * (n - 1) // 2 * k:
        raise InputFormatError(f"{num_vars} variables declared, n={n} k={k} needs "
                               f"{n * (n - 1) // 2 * k}")
    clauses, clause = [], []
    for lit in literals:
        if lit == 0:
            clauses.append(tuple(clause))
            clause = []
        elif abs(lit) > num_vars:
            raise InputFormatError(f"literal {lit} references no variable")
        else:
            clause.append(lit)
    if clause:
        raise InputFormatError("last clause is not terminated by 0")
    if len(clauses) != num_clauses:
        raise InputFormatError(f"{num_clauses} clauses declared, {len(clauses)} found")
    return CnfInstance(n, m, kappa, k, num_vars, tuple(clauses), provenance["forbidden"])


# Solver answers: SAT competition 's' lines, and MiniSat's bare first line.
_ANSWERS = {
    "SATISFIABLE": True, "SAT": True,
    "UNSATISFIABLE": False, "UNSAT": False, "UNKNOWN": False, "INDET": False,
}


class NoModel(Exception):
    """A solver transcript whose answer is not satisfiable; `status` is
    that answer, such as UNSATISFIABLE or UNKNOWN."""

    def __init__(self, status: str, line: int):
        super().__init__(f"line {line}: solver answered {status}")
        self.status = status


def parse_model_text(text: str) -> list[int]:
    """The literals of a solver transcript, read line by line: 'c' lines
    are comments, an 's' line (or MiniSat's bare SAT/UNSAT line) gives the
    solver's answer, and the literals stand on 'v' lines (or lines with no
    prefix) up to a terminating 0.  An answer such as UNSATISFIABLE or
    UNKNOWN raises NoModel; every error names its line."""
    literals = []
    for i, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "s" or (len(fields) == 1 and fields[0] in _ANSWERS):
            status = " ".join(fields[1:]) if fields[0] == "s" else fields[0]
            if status not in _ANSWERS:
                raise InputFormatError(f"line {i}: unknown solver answer {status!r}")
            if not _ANSWERS[status]:
                raise NoModel(status, i)
            continue
        for token in fields[fields[0] == "v":]:
            try:
                lit = int(token)
            except ValueError:
                raise InputFormatError(f"line {i}: bad literal {token!r}") from None
            if lit == 0:
                return literals
            literals.append(lit)
    return literals


def decode_model(inst: CnfInstance, literals) -> EdgeColoring:
    """Read the unique coloring off a total one-hot assignment; a literal
    that contradicts an earlier one raises ValueError."""
    assignment = {}
    for lit in literals:
        var = abs(lit)
        if not 1 <= var <= inst.num_vars:
            raise ValueError(f"literal {lit} references no variable")
        if assignment.get(var, lit > 0) != (lit > 0):
            raise ValueError(f"literal {lit} contradicts literal {-lit}")
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


def violated_clause(inst: CnfInstance, c: EdgeColoring):
    """First clause the one-hot assignment of a coloring falsifies, or None:
    the first clause that shares no literal with coloring_to_literals."""
    true = set(coloring_to_literals(inst, c))
    return next((cl for cl in inst.clauses if true.isdisjoint(cl)), None)


def cnf_satisfiable_by_enumeration(inst: CnfInstance):
    """Decide satisfiability by sweeping all colorings (every satisfying
    assignment is one-hot, so this is exhaustive); None if too large."""
    try:
        colorings = enumerate_all_colorings(inst.n, inst.k)
    except ValueError:
        return None
    return any(violated_clause(inst, c) is None for c in colorings)


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
            cnf_sat = violated_clause(inst, native.coloring) is None
        reports.append(
            {
                "params": {"n": n, "m": m, "kappa": kappa, "k": k},
                "native_avoiding": native_sat,
                "cnf_satisfiable": cnf_sat,
                "match": cnf_sat is not None and cnf_sat == native_sat,
            }
        )
    return reports
