"""Deciding the finite arrow relation on concrete colorings, searching for
avoiding colorings, and computing finite connected Ramsey numbers."""

from __future__ import annotations

import itertools
import math
import sys
import time
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .graphs import (
    TABLE_VERTEX_LIMIT,
    ConnectivityVerdict,
    EdgeColoring,
    _sums,
    all_pairs,
    connectivity_table,
    is_kappa_connected_mask,
)

ENUMERATION_LIMIT = 1 << 16  # most colorings k^C(n,2) one enumeration may yield
PATTERN_LIMIT = 1 << 24  # most entries k^C(m,2) one pattern table may hold

AVOIDING = "avoiding"
EXHAUSTED = "exhausted"
UNKNOWN = "unknown"

class ArrowWitness(NamedTuple):
    """A color and a vertex set whose induced color graph is
    kappa-connected, plus the connectivity certificate."""

    color: int
    vertices: tuple
    verdict: ConnectivityVerdict


class ForbiddenList(NamedTuple):
    """All edge-minimal kappa-connected graphs on m labeled vertices.

    A graph on m vertices is kappa-connected iff it contains a member as a
    spanning subgraph; masks index edges in lexicographic pair order.
    """

    m: int
    kappa: int
    masks: tuple


class SearchStats(NamedTuple):
    nodes: int = 0
    forbidden_prunes: int = 0
    wall_time: float = 0.0


class SearchOutcome(NamedTuple):
    n: int
    m: int
    kappa: int
    k: int
    kind: str  # avoiding | exhausted | unknown
    coloring: EdgeColoring | None
    stats: SearchStats

    def to_json_dict(self) -> dict:
        return {
            "params": {"n": self.n, "m": self.m, "kappa": self.kappa, "k": self.k},
            "result": self.kind,
            "coloring": list(self.coloring.colors) if self.coloring else None,
            "stats": {
                "nodes": self.stats.nodes,
                "forbidden_prunes": self.stats.forbidden_prunes,
                "wall_time": self.stats.wall_time,
            },
            # One process always; written so manifest digests stay the same,
            # and ignored by from_json_dict.
            "workers": 1,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SearchOutcome":
        p = data["params"]
        coloring = None
        if data.get("coloring") is not None:
            coloring = EdgeColoring(p["n"], p["k"], tuple(data["coloring"]))
        stats = SearchStats(**data["stats"])
        return cls(p["n"], p["m"], p["kappa"], p["k"], data["result"], coloring, stats)


# ---------------------------------------------------------------------------
# Forbidden-list enumeration


@lru_cache(maxsize=None)
def minimal_connected_graphs(m: int, kappa: int) -> ForbiddenList:
    """Edge-minimal kappa-connected graphs on m labeled vertices, from
    the connectivity table of all 2^C(m,2) labeled graphs, masks ascending.

    The table is monotone: adding an edge never lowers an entry.  So a
    graph is edge-minimal exactly when it meets the threshold and none of
    its one-edge deletions does, and every mask is tested at once.  The
    table, read as 0/1 bytes (entry >= min(kappa, m)), is cut into rows of
    2^low entries, low = min(10, C(m,2)), each one Python int (byte j of
    row r is mask r * 2^low + j).  below marks the masks with a deletion
    that meets the threshold: for a low edge bit i, the row shifted up by
    2^i bytes, kept where bit i is set by a selector with byte 1 at those
    offsets; for a high bit of r, row r ^ bit.  The minimal masks are the
    nonzero bytes of row & ~below, found with bytes.find.
    """
    flags = connectivity_table(m).translate(bytes(x >= min(kappa, m) for x in range(256)))
    low = min(10, m * (m - 1) // 2)
    width = 1 << low
    # selectors[i]: byte 1 at the offsets j < width with bit i set.
    selectors = [
        int.from_bytes((bytes(1 << i) + b"\x01" * (1 << i)) * (width >> i + 1), "little")
        for i in range(low)
    ]
    rows = [
        int.from_bytes(flags[start:start + width], "little")
        for start in range(0, len(flags), width)
    ]
    highs = [1 << h for h in range((len(rows) - 1).bit_length())]
    masks = []
    for r, row in enumerate(rows):
        if not row:
            continue
        below = 0
        for i, selector in enumerate(selectors):
            below |= row << (8 << i) & selector
        for bit in highs:
            if r & bit:
                below |= rows[r ^ bit]
        minimal = (row & ~below).to_bytes(width, "little")
        base, j = r * width, minimal.find(1)
        while j >= 0:
            masks.append(base + j)
            j = minimal.find(1, j + 1)
    return ForbiddenList(m, kappa, tuple(masks))


# ---------------------------------------------------------------------------
# Arrow relation on a concrete coloring


def arrow_check(c: EdgeColoring, kappa: int, m: int, mode: str = "exact"):
    """First witness (subsets lexicographic, colors ascending) of a
    monochromatic kappa-connected subgraph of the stated size, or None
    (always when m > n: no m-set exists).

    "exact" looks only at size-m sets; "atLeast" sweeps sizes m..n.  A
    kappa-connected graph on s vertices is complete (degree s-1) or has
    minimum degree >= kappa, so only a color class in which every vertex
    has need = min(kappa, s-1) neighbours inside the set gets a
    connectivity decision; on at most kappa+1 vertices the bound is exact
    (only complete classes pass).  _passing_sets lists exactly those
    (set, color) pairs, in the order above, so the witness, its verdict
    and the sequence of is_kappa_connected_mask calls are those of a scan
    of every subset.  A negative kappa raises ValueError.

    The coloring is read once, into per-color neighbour masks: bit v of
    nbrs[xi][u] is set exactly when the pair (u, v) has color xi.  Each
    listed class goes to the flow certificate as its edge mask, read off
    nbrs[xi]: bit i is the i-th pair of S in lexicographic order, the
    mask a read of c.colors would give.  Only color 0 and the colors the
    coloring holds get masks.  An unused color's class is empty: with
    need >= 1 its core is empty and it is never listed, and with need = 0
    every class passes, so color 0, listed first, is the witness.

    Each color's search starts from its need-core in K_n: what is left
    after repeatedly deleting vertices with fewer than need neighbours of
    that color.  A witness in color xi on S has minimum degree need inside
    S, so S lies in xi's need-core.  need never drops as the size grows,
    so no core grows, and the sweep stops at the first size above every
    core.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if kappa < 0:
        raise ValueError(f"need kappa >= 0, got kappa={kappa}")
    if mode not in ("exact", "atLeast"):
        raise ValueError(f"unknown mode {mode!r}")
    n, colors = c.n, c.colors
    if m > n:
        return None
    # nbrs[xi][v]: the vertices joined to v in color xi, as a bitmask.
    nbrs = {xi: [0] * n for xi in sorted({0, *colors}) if xi < c.k}
    for (u, v), xi in zip(itertools.combinations(range(n), 2), colors):
        nbrs[xi][u] |= 1 << v
        nbrs[xi][v] |= 1 << u
    sizes = [m] if mode == "exact" else range(m, n + 1)
    core_need = None
    for size in sizes:
        need = min(kappa, size - 1)
        if need != core_need:
            core_need, cores = need, {xi: _core(adj, n, need) for xi, adj in nbrs.items()}
        if all(core.bit_count() < size for core in cores.values()):
            break
        for subset, xi in _passing_sets(nbrs, cores, size, need):
            adj = nbrs[xi]
            pairs = itertools.combinations(subset, 2)
            mask = sum(1 << i for i, (u, v) in enumerate(pairs) if adj[u] >> v & 1)
            ok, verdict = is_kappa_connected_mask(size, mask, kappa)
            if ok:
                return ArrowWitness(xi, subset, verdict)
    return None


def _core(adj, n, need):
    """The need-core of the graph whose vertex v has neighbour mask
    adj[v], as a vertex mask: peeled with a worklist of the vertices whose
    degree fell below need."""
    deg = [a.bit_count() for a in adj]
    low = [v for v in range(n) if deg[v] < need]
    core = (1 << n) - 1 - sum(1 << v for v in low)
    while low:
        rest = adj[low.pop()] & core
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            deg[u] -= 1
            if deg[u] < need:
                core ^= bit
                low.append(u)
    return core


def _passing_sets(nbrs, cores, size, need):
    """Every (S, xi), S a size-set and xi a color with minimum degree
    >= need inside S: sets in lexicographic order, colors ascending within
    a set.  nbrs[xi][v] is v's neighbour mask in color xi, and color xi
    draws S from cores[xi].

    One depth-first search that picks vertices ascending, so sets come in
    lexicographic order.  At a prefix P with r picks still to make, each
    color in play keeps its candidates, the vertices above P that may be
    picked next, and at[j], the vertices with at least j neighbours in P
    (j = 1..need; at[0] is every vertex, as -1).  Every u in P has
    deg_P(u) >= need - r, since only the r picks to come can add to it.
    The candidates are cut to:
      - the vertices w with deg_P(w) >= need - r + 1: after w come only
        r - 1 picks;
      - the neighbours of each tight u in P, one with deg_P(u) exactly
        need - r: each pick to come must add to it.
    Picking a candidate keeps the bound, w's own included, so a set
    completed this way passes, and no cut drops a vertex that a passing
    completion of P picks next.  A color with fewer candidates than picks
    left drops out, and a prefix with no color in play is not extended.
    After picking w, at[t] with t = need - r + 2 is the next bound; the
    newly tight are w, if it is not in at[t], and the u in P with exactly
    t - 1 neighbours in P that w does not join.  Those tight before stay
    tight, and the candidates are already cut to their neighbours.

    alive and children keep colors ascending, so the flattened stream
    lists sets in lexicographic order with colors ascending within a set.
    """
    root = [(xi, core, [-1] + [0] * need)
            for xi, core in cores.items() if core.bit_count() >= size]
    todo = 0
    for _, core, _ in root:
        todo |= core
    # stack[d]: for the prefix of length d, the colors in play, the
    # vertices still to try as its next pick, the picks left after that
    # one, the prefix as a vertex mask and the prefix as a tuple.
    stack = [[root, todo, size - 1, 0, ()]]
    while stack:
        frame = stack[-1]
        alive, todo, left, pmask, prefix = frame
        if not todo:
            stack.pop()
            continue
        bit = todo & -todo
        frame[1] = todo ^ bit
        w = bit.bit_length() - 1
        if not left:
            for xi, cand, _ in alive:
                if cand & bit:
                    yield (*prefix, w), xi
            continue
        t = need - left + 1  # a candidate after w needs t neighbours in P + w
        after = -(bit << 1)
        children, todo = [], 0
        for xi, cand, at in alive:
            if not cand & bit:
                continue
            adj = nbrs[xi][w]
            cand &= after
            if t > 0:
                keep = at[t] | at[t - 1] & adj
                cand &= keep
                if not keep & bit:  # w is tight
                    cand &= adj
                tight = pmask & ~keep & at[t - 1]  # the u in P newly tight
                while tight:
                    low = tight & -tight
                    tight ^= low
                    cand &= nbrs[xi][low.bit_length() - 1]
            if cand.bit_count() >= left:
                if left > 1:  # the next pick is not the last: at moves on
                    at = [-1] + [a | b & adj for a, b in zip(at[1:], at)]
                children.append((xi, cand, at))
                todo |= cand
        if children:
            stack.append([children, todo, left - 1, pmask | bit, (*prefix, w)])


# ---------------------------------------------------------------------------
# Backtracking search for avoiding colorings


@lru_cache(maxsize=4)
def pattern_table(m: int, threshold: int, k: int) -> tuple:
    """The table bad, as k bytes columns: bad[p] = 1 if the coloring of
    K_m's pairs coded by p has a color class whose connectivity_table(m)
    entry is >= threshold, else 0.  Digit j of p in base k (weight k**j)
    is the color of the j-th pair in lexicographic order, which is bit j
    of that color's edge mask.  Column c holds the W = k**(C(m,2)-1)
    entries whose top digit, the last pair's color, is c: bad[p] is
    column p // W at p % W.  The cache keeps the four tables used last;
    the largest, m = 6 with k = 3, holds 3**15 bytes (14.3 MB).

    Built by rows: p = ph * k**low + pl, and color c's mask is hc | lc,
    with hc from the high digits ph and lc < 2**low from the low digits pl.
    Per color c, a byte pattern lists lc for every pl: lc is the sum over
    j < low of 2**j for each digit d_j of pl equal to c, one term per
    digit, so graphs._sums lists it in pl's order (digit 0 varies
    fastest).  bytes.translate of that pattern through the table window
    at hc gives color c's row, and the rows of the colors in ph are OR-ed
    as integers.  A color absent from ph reads the window at 0.  Those
    rows, OR-ed over all colors once, go into every row: for a color in ph
    they add nothing, since an entry never drops when edges are added.
    The top digit is ph's, so each column is one block of consecutive
    rows.
    """
    npairs = m * (m - 1) // 2
    table = connectivity_table(m).translate(bytes(x >= threshold for x in range(256)))
    low = min(8, npairs // 2)  # lc < 2**low must fit a byte
    size, width = k**low, 1 << low
    pad = bytes(256 - width)
    patterns = [bytes(_sums([[(d == c) << j for d in range(k)] for j in range(low)]))
                for c in range(k)]
    alone = table[:width] + pad
    any_low = 0
    for pattern in patterns:
        any_low |= int.from_bytes(pattern.translate(alone), "little")
    rows = []
    for ph in range(k ** (npairs - low)):
        high, rest = {}, ph
        for j in range(low, npairs):
            rest, c = divmod(rest, k)
            high[c] = high.get(c, 0) | 1 << j
        row = any_low
        for c, hc in high.items():
            window = table[hc:hc + width] + pad
            row |= int.from_bytes(patterns[c].translate(window), "little")
        rows.append(row.to_bytes(size, "little"))
    block = len(rows) // k
    return tuple(b"".join(rows[c * block:(c + 1) * block]) for c in range(k))


def _backtrack(n, m, kappa, k, node_budget, prefix=(), start=None, vertex=True):
    """Depth-first search over the k-colorings of K_n, one colex position
    per step of a loop; `prefix` pins the colors of the first positions, a
    seed from which the search extends a coloring fixed in advance.

    Colex order sorts pairs by (max, min), so (a, b) sits at position
    b(b-1)/2 + a and the m-sets completed by assigning it are exactly
    R + {a, b} for the (m-2)-sets R of {0..a-1}.  The first C(j,2)
    positions are the edges of K_j and complete exactly K_j's m-sets, so
    until the loop first reaches position C(j,2) it visits the nodes, in
    the order, that a search of K_j alone would visit.  For each j from
    `start` (default n) up to n it therefore reads off K_j's outcome:
    avoiding when the loop first reaches C(j,2), else exhausted when the
    loop ends or unknown when the node budget runs out.  A generator: it
    yields one SearchOutcome per j from start as it reads it off, in
    increasing j, and stops after n or after the first j that is not
    avoiding; each one's stats.wall_time is the time from the first next()
    to that j's decision.  With start=None the first outcome is K_n's, and
    the last one always has the largest j.

    It is the search's one guarded entry.  Before any table is built it
    refuses, with ValueError and in this order:
      - n < 0, only with start=None (exists_avoiding_coloring's n);
      - node_budget < 0;
      - m < 2, kappa < 1 or k < 1;
      - m > TABLE_VERTEX_LIMIT, with "size limit";
      - a pattern table of more than PATTERN_LIMIT entries, "size limit";
      - columns shorter than 256 bytes (W < 256), padded to 256 bytes
        each below, when k of them would take more than 2^24 bytes, with
        "size limit".  That is only m = 2 with more than 65,536 colors:
        any other (m, k) that PATTERN_LIMIT admits with W < 256 has
        k <= 15.  The bound is a fixed 2^24 bytes, apart from
        PATTERN_LIMIT, which counts entries;
      - start > n (ramsey_number's n_max < m), after the table checks, so
        a size limit is named before n_max.
    A generator runs nothing before its first next(), and both public
    wrappers take that at once, so the checks still run before any table;
    a direct caller gets the same guards.

    The loop has two parts.  Reach runs at position 0 and after each color
    that passes.  The first time it gets to a position, which happens once
    per position and in order, it reads off every K_j now colored (K_0 and
    K_1 as well) while the position is the goal C(j,2), kept in a local and
    moved on by j as j grows; then it steps the pair on from the last and
    stores the position's record: the pair (a, b), the step that adds
    vertex x-1 to the row vector ending there (x = a, or b-1 at a = 0),
    a's inner parts, the cells' length in bytes and the row vectors it
    steps from and into.  Every
    reach, the first included, then does only the work that depends on the
    colors placed before the position: it steps one row vector by the color
    just placed, rebuilds x's inner parts at a = 0, builds the cells and
    their test, computes the colors to try and the floor, and stores the
    test, the limit and the colors used before, for the try part to take up
    again when it backs up to the position.  Try counts one node per color
    and checks every set the pair completes, in every color, not only the
    new edge's: a pass goes on to reach the next position, and when the
    colors run out it backs up a position.

    The cells.  The pair (a, b) is the last of each set it completes in
    lexicographic order, so it is the top digit of the set's pattern (see
    pattern_table): the set is bad under col iff byte rest of column col,
    with W = k^(C(m,2)-1) and rest < W the set's other digits.  The
    position keeps one cell per R, in colex order, holding rest, and a node
    prunes iff `1 in test(tables[col])`, tables[col] being column col as
    pattern_table returns it: test is the cells' bytes.translate when
    W <= 256 (columns padded to 256 bytes), else an operator.itemgetter of
    the 2- or 4-byte cell values.  Every node reads all of a position's
    cells, so no set is listed, and there is no move-to-front step: which
    set prunes a node never mattered.

    Why the weights split exactly.  In an m-set s_0 < ... < s_{m-1}, the
    pair (s_i, s_t) is the (i*m - i(i+1)/2 + t - i - 1)-th in lexicographic
    order, so its weight is k^(t-1) * h(i), h(i) = k^(i*m - i(i+1)/2 - i).
    So rest is the part inside R + {a} (a has rank m-2) plus k^(m-2) times
    row b's part, sum_i color(r_i, b) * h(i).  Each part is a vector of
    cells in one int, `size` bytes a cell, cell R at offset rank(R) * size;
    a cell holds part of one rest, below W, so it never carries.  rows[pos]
    holds row b's vectors over the j-subsets of {0..a-1}, j = 0..m-2.  The
    j-subsets of {0..a} are those of {0..a-1}, then each (j-1)-subset plus
    a, so the vector at (a+1, b) is the one at (a, b) or-ed with the
    (j-1)-th plus color(a, b) * h(j-1) in every cell, shifted past C(a, j)
    cells: one step from the previous position and the color just placed.
    Vertex x's parts inside R + {x}, x of rank j, are rebuilt when reach
    gets to (0, x+1), when all of {0..x} is colored: the j-subsets with
    maximum y < x hold y's (j-1)-th parts, concatenated over y, plus
    k^(j-1) times row x's vector.  The cells are a's (m-2)-th part plus
    k^(m-2) * rows[pos][m-2], rebuilt each time reach gets to the position.

    Colors start at 0 and go up to one past the colors used before, so each
    new color first appears in order (first use).  With `vertex`, each
    position also has a floor, the least color sb_l allows there: row i of
    the color matrix is lexicographically at most row i+1, columns read in
    increasing order, leaving out columns i and i+1.  Of the two entries
    compared in a column, row i+1's comes later in colex order, so sb_l is
    exactly a lower bound at each position.  At (a, b), the entry of
    row b in column a is bounded by row b-1's when a+1 < b and rows b-1 and
    b agree on the columns before a (`same`), and the entry of row a in
    column b by row a-1's when rows a-1 and a agree on every column before
    b but a-1 and a (`tied`).  Each flag is one comparison on an earlier
    position's flag.  Colors below the floor are never tried, so they are
    neither nodes nor prunes, and a range the floor empties (only under a
    prefix) backs up without a node.  See exists_avoiding_coloring for why
    this is sound.  vertex=False uses first use alone, the search without
    vertex reduction that tests check this one against.
    """
    if start is None and n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"need node_budget >= 0, got node_budget={node_budget}")
    if m < 2 or kappa < 1 or k < 1:
        raise ValueError("need m >= 2, kappa >= 1, k >= 1")
    if m > TABLE_VERTEX_LIMIT:
        raise ValueError(f"size limit: connectivity tables cover m <= {TABLE_VERTEX_LIMIT}")
    npairs = m * (m - 1) // 2
    if k**npairs > PATTERN_LIMIT:
        raise ValueError(
            f"size limit: the pattern table would hold {k}^{npairs} entries, "
            f"more than 2^24"
        )
    span = k ** (npairs - 1)  # W, the values a cell can hold
    if span < 256 and k << 8 > 1 << 24:
        raise ValueError(f"size limit: {k} pattern columns padded to 256 bytes exceed 2^24 bytes")
    if start is not None and start > n:
        raise ValueError("need n_max >= m")
    t0 = time.perf_counter()
    j = n if start is None else start
    goal = j * (j - 1) // 2  # the position at which K_j is read off, C(j, 2)
    # No budget: an int bound no search reaches, so each node compares two ints.
    budget = sys.maxsize if node_budget is None else node_budget
    size = 1 if span <= 1 << 8 else 2 if span <= 1 << 16 else 4
    bits, fmt = 8 * size, "H" if size == 2 else "I"
    # Columns shorter than 256 bytes are padded for bytes.translate; ljust
    # leaves a longer column as it is.
    tables = [col.ljust(256, b"\0") for col in pattern_table(m, min(kappa, m), k)]
    h = [k ** (i * m - i * (i + 1) // 2 - i) for i in range(m - 2)]
    top, ranks, order = k ** (m - 2), range(1, m - 1), sys.byteorder
    # Per vertex x: steps[x] = (shift, add), for j in ranks, steps a vector
    # over the subsets of {0..x-1} to {0..x}: the j-th part moves up by
    # shift[j] = C(x, j) cells, and color(x, b) * add[j] adds h(j-1) to
    # each of the C(x, j-1) cells of the (j-1)-th.  inner[x]: x's parts
    # inside R + {x}; outer[x]: the concatenated inner parts of the
    # vertices below x.
    steps, inner, outer = [], [], []
    # One entry per position reached, for pair (a, b).  recs[pos]: (a, b,
    # steps[x - 1], inner[a], the bytes of C(a, m-2) cells, rows[pos - 1],
    # the row stepped into), written when the loop first reaches pos; x =
    # a or b-1, and the row stepped into is rows[pos] when a > 0, else a
    # list of its own that x's inner parts are rebuilt from.  rows[pos]:
    # row b's vectors over {0..a-1}, the zero vector at a = 0.
    # colors[pos]: the color that passed at pos last.  state[pos]: (test,
    # stop, seen), the cells' test, one past the last color to try and the
    # colors used before pos, written at each reach.  same[pos]: rows b-1
    # and b agree on the columns before a.  tied[pos]: rows a-1 and a agree
    # on the columns before b other than a-1 and a.
    recs, rows, colors, state, same, tied = [], [], [], [], [], []
    nodes = prunes = pos = seen = 0
    pinned = len(prefix)
    u, v = -1, 1  # pair at the newest position; the loop first reaches positions in order
    kind = None
    while kind is None:
        # Reach pos, with `seen` colors used before it.
        if pos == len(recs):
            # The goal lies ahead of every position reached before, so it is
            # met only here.
            while pos == goal:
                coloring = tuple(colors[b * (b - 1) // 2 + a] for a, b in all_pairs(j))
                stats = SearchStats(nodes, prunes, time.perf_counter() - t0)
                yield SearchOutcome(j, m, kappa, k, AVOIDING, EdgeColoring(j, k, coloring), stats)
                if j == n:
                    return
                goal += j
                j += 1
            u, v = (u + 1, v) if u + 1 < v else (0, v + 1)
            if u == 0:  # vertex v-1 is new
                x = v - 1
                steps.append((
                    [bits * math.comb(x, i) for i in range(m - 1)],
                    [0] + [h[i - 1] * ((1 << bits * math.comb(x, i - 1)) - 1)
                           // ((1 << bits) - 1) for i in ranks],
                ))
                inner.append([0] * (m - 1))
                outer.append([0] * (m - 1))
            rows.append([0] * (m - 1))
            recs.append((u, v, steps[u - 1 if u else v - 2], inner[u],
                         math.comb(u, m - 2) * size, rows[pos - 1],
                         rows[pos] if u else [0] * (m - 1)))
            colors.append(0)
            state.append(None)
            same.append(True)
            tied.append(False)
        a, b, (shift, add), part, nb, prev, row = recs[pos]
        # Step the vector before pos by the color just placed: row b's over
        # {0..a-1}, or at a = 0, row x's over {0..x-1}, x = b-1.  (Position 0
        # steps rows[0], the zero vector, into a row nothing reads.)
        c = colors[pos - 1]
        for i in ranks:
            row[i] = prev[i] | (prev[i - 1] + c * add[i]) << shift[i]
        if a:
            cells = (part[-1] + top * row[-1]).to_bytes(nb, order)
        else:
            if pos:  # all of {0..x} is colored: rebuild x's inner parts, x = b-1
                last, below, new, whole = inner[b - 2], outer[b - 2], inner[b - 1], outer[b - 1]
                for i in ranks:
                    whole[i] = below[i] | last[i - 1] << shift[i]
                    new[i] = whole[i] + k ** (i - 1) * row[i]
            cells = bytes(nb)  # inner[0] is zero, and so is rows[pos] at a = 0
        if size == 1:
            test = cells.translate
        else:
            values = memoryview(cells).cast(fmt).tolist()
            # A getter of one index returns a bare value; add an empty slice.
            test = (itemgetter(*values) if len(values) > 1
                    else itemgetter(slice(0, 0), *values))
        if pos < pinned:
            col = prefix[pos]
            stop = col + 1
        else:
            col = 0
            stop = seen + 1 if seen < k else k
        if vertex:
            s = True  # same[pos], always True at a = 0
            if a:
                s = same[pos - 1] and colors[pos - b] == c
                same[pos] = s
                if a + 1 == b:
                    t = same[pos - b]
                else:
                    t = tied[pos - b + 1] and colors[pos - b] == colors[pos - b + 1]
                tied[pos] = t
                if t and c > col:
                    col = c
            if s and a + 1 < b and colors[pos - b + 1] > col:
                col = colors[pos - b + 1]
        state[pos] = (test, stop, seen)
        # Try the colors at pos from col, backing up a position when they
        # run out.
        while True:
            if col >= stop:
                if pos == 0:
                    kind = EXHAUSTED
                    break
                pos -= 1
                test, stop, seen = state[pos]
                col = colors[pos] + 1
                continue
            nodes += 1
            if nodes > budget:
                kind = UNKNOWN
                break
            if 1 in test(tables[col]):
                prunes += 1
                col += 1
            else:
                colors[pos] = col
                if col >= seen:
                    seen = col + 1
                pos += 1
                break
    stats = SearchStats(nodes, prunes, time.perf_counter() - t0)
    yield SearchOutcome(j, m, kappa, k, kind, None, stats)


def exists_avoiding_coloring(
    n: int,
    m: int,
    kappa: int,
    k: int,
    node_budget: int | None = None,
    workers: int = 1,
    *,
    _vertex: bool = True,
) -> SearchOutcome:
    """Backtracking search over k-colorings of K_n for one lacking a
    monochromatic kappa-connected m-set.

    Each m-set completed by an assignment is checked by one lookup in
    pattern_table(m, min(kappa, m), k): the set's coloring read as a
    base-k number, its top digit the color of the edge just assigned,
    which picks the column, and its other digits the offset.  The sets an
    edge completes are looked up in that column all at once, through cells
    that hold each set's offset, built each time the search reaches the
    edge (see _backtrack).
    A search whose table would hold more than
    PATTERN_LIMIT = 2^24 entries (k^C(m,2); m=7 with k >= 3, m=6 with
    k >= 4, m=5 with k >= 6, m=4 with k >= 17), m = 2 with more than
    65,536 colors (k columns padded to 256 bytes each), m > 7, n < 0 or
    node_budget < 0 raises ValueError before any table is built; for
    n <= 1 there is no edge to color, and K_n is avoiding after 0 nodes.
    The loop makes these refusals, in _backtrack's order (n first), at the
    first next(), which this function takes at once; with start=None the
    first outcome the loop yields is K_n's, the one returned here.

    Symmetry breaking (see _backtrack) is first use plus the sb_l floor
    (the private _vertex=False drops the floor), and it is sound.  Relabeling
    the vertices and permuting the colors map avoiding colorings to avoiding
    ones.  Read a coloring x as its colors in colex order and compare such
    sequences lexicographically.  First use holds exactly when x <= tau x
    for every color permutation tau (value precedence).  sb_l holds exactly
    when x <= x o (i i+1) for every i: the swap moves only the pairs {i, j}
    and {i+1, j}, and the first of them in colex order that differs is row
    i's entry in the first column where rows i and i+1 differ.  Both are
    lex-leader constraints under one order, so the lex-least coloring of
    each orbit under relabeling and recoloring satisfies both, and it is
    avoiding when the orbit is.  So the search finds an avoiding coloring
    exactly when one exists; vertex reduction alone would be sound for the
    same reason but prunes less.

    A node budget turns nontermination risk into an explicit "unknown"
    outcome.  `workers` is accepted and ignored: every search runs in one
    process.  It stays only because bench/workloads.py still passes
    workers=2, and goes with the benchmark change that retires that
    `parallel` entry (ROADMAP items 4 and 8).
    """
    return next(_backtrack(n, m, kappa, k, node_budget, vertex=_vertex))


class RamseyResult(NamedTuple):
    m: int
    kappa: int
    k: int
    n_max: int
    value: int | None  # least n with no avoiding coloring; None if > n_max
    status: str  # determined | open | unknown
    outcomes: dict

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "m": self.m, "kappa": self.kappa, "k": self.k, "n_max": self.n_max,
            },
            "value": self.value,
            "status": self.status,
            "outcomes": {str(n): o.to_json_dict() for n, o in self.outcomes.items()},
        }


def ramsey_number(
    m: int,
    kappa: int,
    k: int,
    n_max: int,
    node_budget: int | None = None,
    *,
    _vertex: bool = True,
) -> RamseyResult:
    """Least n <= n_max such that every k-coloring of K_n has a
    monochromatic kappa-connected m-set, with per-n search outcomes;
    status "open" means every n <= n_max still admits an avoiding
    coloring.

    This is one search over K_n_max (see _backtrack): n's outcome
    is read off when that search first colors all of K_n, and the smallest
    n it never completes is exhausted, or unknown if the node budget runs
    out first.  Each n's kind, coloring, node and prune counts equal those
    of exists_avoiding_coloring(n, ...) run alone, under the same budget;
    the nodes of smaller n are counted again in each larger n, as a search
    of that n alone visits them too.  Each n's stats.wall_time is the time
    from the start of the search to that n's decision, so it never
    decreases with n.

    The loop makes the refusals (see _backtrack): those of
    exists_avoiding_coloring other than n < 0, then n_max < m after the
    table checks, so a size limit is named before n_max.  The dict below
    reads the stream at once, so they run before any table is built.  The
    loop yields in increasing n, so the largest key is its last outcome.

    `_vertex` is exists_avoiding_coloring's, and the sweep holds either
    way: first use and the sb_l floor at a position of K_n read only the
    positions before it, so inside K_n they prune exactly as in a search of
    K_n alone.
    """
    searched = _backtrack(n_max, m, kappa, k, node_budget, start=m, vertex=_vertex)
    outcomes = {o.n: o for o in searched}
    last = outcomes[max(outcomes)]
    if last.kind == EXHAUSTED:
        return RamseyResult(m, kappa, k, n_max, last.n, "determined", outcomes)
    if last.kind == UNKNOWN:
        return RamseyResult(m, kappa, k, n_max, None, UNKNOWN, outcomes)
    return RamseyResult(m, kappa, k, n_max, None, "open", outcomes)


def enumerate_all_colorings(n: int, k: int):
    """Every k-coloring of K_n, for completeness cross-checks; raises
    ValueError, before yielding any, when there are more than
    ENUMERATION_LIMIT."""
    nedges = n * (n - 1) // 2
    if k**nedges > ENUMERATION_LIMIT:
        raise ValueError("enumeration size limit")
    return (EdgeColoring(n, k, colors) for colors in itertools.product(range(k), repeat=nedges))
