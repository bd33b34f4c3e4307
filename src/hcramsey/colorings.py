"""Explicit edge colorings at desk scale and checkers for the structural
properties that make them avoid large well-connected monochromatic pieces."""

from __future__ import annotations

import itertools
import random
from typing import Mapping, NamedTuple

from .graphs import (
    EdgeColoring,
    InputFormatError,
    _adj_masks,
    all_pairs,
    induced_color_graph,
    read_records,
)

DELTA_MINER_SIZE_LIMIT = 10


class _BitstringFamilyFields(NamedTuple):
    length: int
    strings: tuple


class BitstringFamily(_BitstringFamilyFields):
    """Pairwise-distinct binary strings of one length; the index order
    stands in for the enumeration order of the family and need not be
    lexicographic."""

    __slots__ = ()

    def __new__(cls, length, strings):
        if length < 0:
            raise ValueError(f"need length >= 0, got {length}")
        strings = tuple(strings)
        for s in strings:
            if len(s) != length or any(ch not in "01" for ch in s):
                raise ValueError(f"bad bitstring {s!r} for length {length}")
        if len(set(strings)) != len(strings):
            raise ValueError("duplicate strings in family")
        return tuple.__new__(cls, (length, strings))

    @classmethod
    def _make(cls, fields) -> "BitstringFamily":
        """_replace builds through here, so it checks like the constructor."""
        return cls(*fields)

    @classmethod
    def full(cls, length) -> "BitstringFamily":
        """All 2^length strings in binary counting order; full(0) is ("",).
        The constructor refuses a negative length."""
        strings = itertools.product("01", repeat=max(length, 0))
        return cls(length, tuple(map("".join, strings)))

    def size(self) -> int:
        return len(self.strings)


def first_difference(a: str, b: str) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    raise ValueError("strings are equal")


def sierpinski_coloring(family: BitstringFamily) -> EdgeColoring:
    """Color a pair by the first position where its two strings differ,
    together with the lower-indexed string's bit there, flattened as
    2*position + bit.  Color space: 2*length."""
    n = family.size()
    colors = []
    for a, b in all_pairs(n):
        d = first_difference(family.strings[a], family.strings[b])
        bit = int(family.strings[a][d])
        colors.append(2 * d + bit)
    return EdgeColoring(n, 2 * family.length, tuple(colors))


def forest_partition_coloring(n: int) -> EdgeColoring:
    """Partition the edges of K_n (n even) into n/2 spanning paths.

    Class i is the zig-zag path i, i+1, i-1, i+2, i-2, ... (mod n), whose
    consecutive pairs sum to 2i+1 and 2i (mod n) in turn; so the pair
    {a, b} gets color ((a + b) mod n) // 2, the n/2 translates partition
    the edge set, and every color class is a tree on n vertices.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"need an even n >= 2, got n={n}")
    return EdgeColoring(n, n // 2, tuple((a + b) % n // 2 for a, b in all_pairs(n)))


def blowup_coloring(base: EdgeColoring, block_sizes, inner_color: int) -> EdgeColoring:
    """Replace each base vertex by a block; cross-block pairs inherit the
    base color of their block pair, within-block pairs get inner_color
    (the lift leaves these undefined, so the choice is explicit)."""
    block_sizes = tuple(block_sizes)
    if len(block_sizes) != base.n:
        raise ValueError("need one block size per base vertex")
    if any(s < 1 for s in block_sizes):
        raise ValueError("block sizes must be positive")
    if not 0 <= inner_color < base.k:
        raise ValueError(f"inner color {inner_color} out of range for k={base.k}")
    block_of = []
    for idx, size in enumerate(block_sizes):
        block_of.extend([idx] * size)
    total = len(block_of)
    colors = []
    for u, v in all_pairs(total):
        bu, bv = block_of[u], block_of[v]
        colors.append(inner_color if bu == bv else base.color_of(bu, bv))
    return EdgeColoring(total, base.k, tuple(colors))


def random_coloring(n: int, k: int, seed) -> EdgeColoring:
    """Uniform independent colors from a seeded generator; same seed,
    same coloring."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    rng = random.Random(seed)
    return EdgeColoring(n, k, tuple(rng.randrange(k) for _ in all_pairs(n)))


# ---------------------------------------------------------------------------
# Subadditivity, tree orders, and path confinement


class SubadditivityViolation(NamedTuple):
    triple: tuple  # (alpha, beta, gamma)
    inequality: int  # 1 or 2


def subadditivity_violation(c: EdgeColoring):
    """Lexicographically first triple violating either
    (1) c(a,b) <= max(c(a,g), c(b,g)) or
    (2) c(a,g) <= max(c(a,b), c(b,g)),
    or None if both hold everywhere."""
    for a, b, g in itertools.combinations(range(c.n), 3):
        cab, cag, cbg = c.color_of(a, b), c.color_of(a, g), c.color_of(b, g)
        if cab > max(cag, cbg):
            return SubadditivityViolation((a, b, g), 1)
        if cag > max(cab, cbg):
            return SubadditivityViolation((a, b, g), 2)
    return None


def is_subadditive(c: EdgeColoring) -> bool:
    return subadditivity_violation(c) is None


class TreeOrder(NamedTuple):
    relation: frozenset  # pairs (a, b) with a < b and c(a, b) <= xi
    valid: bool  # strict predecessors of each vertex are linearly ordered


def tree_order(c: EdgeColoring, xi: int) -> TreeOrder:
    """The relation {(a, b) : a < b and c(a, b) <= xi}, together with the
    check that each vertex's predecessors form a chain."""
    if not is_subadditive(c):
        raise ValueError("not subadditive")
    pairs = [p for p, col in zip(all_pairs(c.n), c.colors) if col <= xi]
    relation = frozenset(pairs)
    preds = [[] for _ in range(c.n)]
    for a, b in pairs:
        preds[b].append(a)
    valid = all(pair in relation for p in preds for pair in itertools.combinations(p, 2))
    return TreeOrder(relation, valid)


class ConfinementCounterexample(NamedTuple):
    alpha: int
    beta: int
    path: tuple
    max_color: int


def path_confinement_counterexample(c: EdgeColoring):
    """Search any coloring for a path a = v0, ..., vj+1 = b whose internal
    vertices all exceed a and whose max edge color is below c(a, b).
    Returns None when every such path is confined (as in the subadditive
    case), else the first counterexample found.

    Works by raising a color threshold and BFS-ing the subgraph of edges
    with color <= threshold among vertices >= a; a reached b with c(a, b)
    above the threshold is a counterexample.  Reachability only grows with
    the threshold, so such a b is found at the first threshold reaching it.
    The threshold runs over the colors in use only: between two used
    colors the BFS reaches the same vertices, so a counterexample at
    threshold xi is one at the largest used color at or below xi, which
    comes first.
    """
    for a in range(c.n):
        for xi in sorted(set(c.colors)):
            parent = {a: None}
            queue = [a]
            for v in queue:
                for w in range(a, c.n):
                    if w not in parent and c.color_of(v, w) <= xi:
                        parent[w] = v
                        queue.append(w)
            for b in range(a + 1, c.n):
                if b in parent and c.color_of(a, b) > xi:
                    path = [b]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return ConfinementCounterexample(a, b, tuple(reversed(path)), xi)
    return None


def path_confinement_check(c: EdgeColoring) -> bool:
    if not is_subadditive(c):
        raise ValueError("not subadditive")
    return path_confinement_counterexample(c) is None


def common_neighbor_certify(c: EdgeColoring, vertices, i: int, kappa: int) -> bool:
    """Sufficient condition for the color-i graph on the given set to be
    kappa-connected: every pair has >= kappa common color-i neighbors
    inside the set."""
    g = induced_color_graph(c, i, vertices).graph
    if g.n < 2:
        raise ValueError("need at least 2 vertices")
    adj = _adj_masks(g.n, g.mask)
    pairs = itertools.combinations(range(g.n), 2)
    return all((adj[a] & adj[b]).bit_count() >= kappa for a, b in pairs)


# ---------------------------------------------------------------------------
# Two-dimensional Delta-system miner


class DeltaSystemReport(NamedTuple):
    """Witness that an index set B exhibits the row/column sunflower
    structure.  Roots are None where the witnessing family has fewer than
    two members (any root works there; such roots are treated as empty in
    the union and residue computations)."""

    B: tuple
    row_roots: Mapping  # alpha -> frozenset | None
    col_roots: Mapping  # beta -> frozenset | None
    union_root: frozenset  # root of the family {row_root | col_root}
    root_sizes_uniform: bool  # reported, not required


def _indexed_delta_root(sets):
    """Common pairwise intersection of an indexed family of >= 2 sets, or
    None if the intersections disagree.  Equal members intersect to
    themselves (multiset reading)."""
    root = sets[0] & sets[1]
    for x, y in itertools.combinations(sets, 2):
        if x & y != root:
            return None
    return root


def _line_roots(lines):
    """Root of each (key, sets) line of at least two sets, None for a
    shorter line; None overall when a line forms no sunflower.

    The determined roots of B's rows (or columns) need no test of their
    own: when every row and column is a sunflower, they form one.  An
    element x of two row roots R_i, R_j (i < j) lies in F(i, b) and
    F(j, b) for each b > j, so in that column's root and in every F(a, b)
    with b > j; taking b among the last two members puts x in every
    determined row root.  Columns likewise, with the first two members.
    """
    roots = {}
    for key, sets in lines:
        roots[key] = _indexed_delta_root(sets) if len(sets) >= 2 else None
        if len(sets) >= 2 and roots[key] is None:
            return None
    return roots


def _check_delta_candidate(family, members: tuple):
    """Verify the four sunflower conditions on the index set `members`;
    returns a DeltaSystemReport or None."""
    row_roots = _line_roots((a, [family[(a, b)] for b in members if b > a]) for a in members)
    if row_roots is None:
        return None
    col_roots = _line_roots((b, [family[(a, b)] for a in members if a < b]) for b in members)
    if col_roots is None:
        return None

    unions = [
        (row_roots[a] or frozenset()) | (col_roots[a] or frozenset()) for a in members
    ]
    union_root = _indexed_delta_root(unions) if len(unions) >= 2 else unions[0]
    if union_root is None:
        return None

    residues = [
        family[(a, b)] - ((row_roots[a] or frozenset()) | (col_roots[b] or frozenset()))
        for a, b in itertools.combinations(members, 2)
    ]
    # Pairwise disjoint exactly when no member is counted twice.
    if sum(map(len, residues)) != len(frozenset().union(*residues)):
        return None

    uniform = all(
        len({len(r) for r in roots.values() if r is not None}) <= 1
        for roots in (row_roots, col_roots)
    )
    return DeltaSystemReport(
        B=members,
        row_roots=row_roots,
        col_roots=col_roots,
        union_root=union_root,
        root_sizes_uniform=uniform,
    )


def mine_delta_system(family, n: int, target_size: int):
    """First (in lexicographic subset order) index set B of the target size
    whose rows and columns of the pair-indexed family form sunflowers with
    compatible roots and pairwise disjoint residues; None on exhaustion.

    `family` maps pairs (alpha, beta), alpha < beta < n, to finite sets.
    """
    if n > DELTA_MINER_SIZE_LIMIT:
        raise ValueError("miner size limit")
    if target_size < 1:
        raise ValueError("target size must be positive")
    fam = {pair: frozenset(members) for pair, members in family.items()}
    for pair in all_pairs(n):
        if pair not in fam:
            raise ValueError(f"family missing pair {pair}")
    for members in itertools.combinations(range(n), target_size):
        report = _check_delta_candidate(fam, members)
        if report is not None:
            return report
    return None


# ---------------------------------------------------------------------------
# Text formats


def format_coloring_text(c: EdgeColoring) -> str:
    """Header "n k", then one line "u v color" per pair in lexicographic
    pair order."""
    lines = [f"{c.n} {c.k}"]
    lines.extend(f"{u} {v} {col}" for (u, v), col in zip(all_pairs(c.n), c.colors))
    return "\n".join(lines) + "\n"


def parse_coloring_text(text: str) -> EdgeColoring:
    (n, k), records = read_records(text, "n k", "u v color")
    npairs = n * (n - 1) // 2
    if len(records) != npairs:
        raise InputFormatError(f"expected {npairs} pair lines, found {len(records)}")
    colors = []
    for (i, (u, v, col)), pair in zip(records, itertools.combinations(range(n), 2)):
        if (u, v) != pair:
            raise InputFormatError(f"line {i}: expected pair {pair}, got ({u}, {v})")
        if not 0 <= col < k:
            raise InputFormatError(f"line {i}: color {col} out of range")
        colors.append(col)
    return EdgeColoring(n, k, tuple(colors))


def format_family_text(family: BitstringFamily) -> str:
    """Header "lambda mu", then mu lines of 0/1 strings in index order."""
    lines = [f"{family.length} {family.size()}"]
    lines.extend(family.strings)
    return "\n".join(lines) + "\n"


def parse_family_text(text: str) -> BitstringFamily:
    (length, mu), records = read_records(text, "lambda mu")
    if len(records) != mu:
        raise InputFormatError(f"expected {mu} strings, found {len(records)}")
    first_line = {}
    for i, s in records:
        if len(s) != length or s.strip("01"):
            raise InputFormatError(f"line {i}: bad bitstring {s!r} for length {length}")
        if first_line.setdefault(s, i) != i:
            raise InputFormatError(f"line {i}: duplicate of line {first_line[s]}")
    return BitstringFamily(length, tuple(first_line))


def format_set_family_text(family, n: int) -> str:
    """Header "n", then one line "alpha beta e1 e2 ..." per pair."""
    lines = [str(n)]
    for a, b in all_pairs(n):
        members = " ".join(str(x) for x in sorted(family[(a, b)]))
        lines.append(f"{a} {b} {members}".rstrip())
    return "\n".join(lines) + "\n"


def parse_set_family_text(text: str):
    """Returns (family dict, n) for the delta-system miner.  The pairs are
    in range and distinct, so their count proves that none is missing."""
    (n,), records = read_records(text, "n", "alpha beta members...")
    npairs = n * (n - 1) // 2
    if len(records) != npairs:
        raise InputFormatError(f"expected {npairs} pair lines, found {len(records)}")
    family = {}
    for i, (a, b, *members) in records:
        if not 0 <= a < b < n:
            raise InputFormatError(f"line {i}: pair ({a}, {b}) out of range")
        if (a, b) in family:
            raise InputFormatError(f"line {i}: duplicate pair ({a}, {b})")
        family[(a, b)] = frozenset(members)
    return family, n
