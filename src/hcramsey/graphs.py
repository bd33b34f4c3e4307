"""Finite graphs with deletion-semantics connectivity and certified verdicts.

Connectivity here follows the deletion convention: a graph is
kappa-connected when removing any fewer than kappa vertices leaves a
connected graph, and graphs on 0 or 1 vertices (including the empty
graph) count as connected.  Under this convention a complete graph is
kappa-connected for every kappa.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

CONNECTED = "connected"
SEPARATED = "separated"

ORACLE_SIZE_LIMIT = 12
# At most 7: connectivity_table packs two entries (each <= m) into one
# byte key with 3 bits each (see _fold).
TABLE_VERTEX_LIMIT = 7
CERTIFICATE_CACHE_SIZE = 2048
# Most vertices one certified decision takes: the flow's residual holds
# each vin(v) row as 1 << n + v, about n^2 bits however sparse the graph.
CERTIFICATE_VERTEX_LIMIT = 1 << 14


class InputFormatError(ValueError):
    """Malformed text input; message carries a line/field diagnostic."""


def read_records(text: str, header: str, record: str | None = None):
    """The header values and the (line number, fields) records of a text
    input.  Blank lines are skipped; line numbers count every line.

    The first nonblank line holds the nonnegative integers named by
    `header` (such as "n k"), each later line the integers named by
    `record` (such as "u v color"), where a last name ending in "..."
    stands for any number of further integers.  With record=None each
    record is its stripped line, unconverted.
    """

    def integers(i, line, names):
        fields, need = line.split(), names.split()
        more = need[-1].endswith("...")
        if len(fields) < len(need) - more or (len(fields) > len(need) and not more):
            raise InputFormatError(f"line {i}: expected '{names}'")
        try:
            return tuple(map(int, fields))
        except ValueError:
            raise InputFormatError(f"line {i}: '{names}' must be integers") from None

    lines = [(i, s) for i, line in enumerate(text.splitlines(), 1) if (s := line.strip())]
    if not lines:
        raise InputFormatError(f"line 1: missing '{header}' header")
    (i, line), body = lines[0], lines[1:]
    values = integers(i, line, header)
    if min(values) < 0:
        raise InputFormatError(f"line {i}: '{header}' must be nonnegative")
    if record is None:
        return values, body
    return values, [(i, integers(i, line, record)) for i, line in body]


def pair_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def all_pairs(n: int) -> list[tuple[int, int]]:
    """Unordered pairs over {0..n-1} in lexicographic order."""
    return list(itertools.combinations(range(n), 2))


def pair_index(n: int, u: int, v: int) -> int:
    """Position of the pair (u, v), u < v, in lexicographic pair order."""
    if not 0 <= u < v < n:
        raise ValueError(f"bad pair ({u}, {v}) for n={n}")
    return u * (n - 1) - u * (u - 1) // 2 + (v - u - 1)


def pair_rows(n: int) -> list[int]:
    """Row offsets of lexicographic pair order: the pair (u, v), u < v, sits
    at row[u] + v.  The one reader of a sorted subset's pairs, whose i-th
    pair is bit i of its edge mask (the connectivity-table layout)."""
    return [u * (2 * n - u - 3) // 2 - 1 for u in range(n - 1)]


def star_masks(n: int) -> list[int]:
    """star_masks(n)[v] = edge mask (lexicographic pair order) of the pairs
    at vertex v."""
    pairs = all_pairs(n)
    return [sum(1 << i for i, p in enumerate(pairs) if v in p) for v in range(n)]


def _bits_mask(bits) -> int:
    """The int whose set bits are `bits`, built in one buffer the size of
    the result: ORing bits into a growing int takes quadratic time."""
    buf = bytearray(max(bits, default=-1) // 8 + 1)
    for i in bits:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _mask_pairs(n: int, mask: int):
    """The pairs (u, v), u < v, of an edge mask in lexicographic order,
    read one row at a time: row u holds the pairs (u, v) as bit v - u - 1."""
    for u in range(n - 1):
        if not mask:
            return
        row = mask & (1 << n - u - 1) - 1
        mask >>= n - u - 1
        while row:
            bit = row & -row
            row ^= bit
            yield u, u + bit.bit_length()


class _GraphFields(NamedTuple):
    n: int
    mask: int


class Graph(_GraphFields):
    """Simple undirected graph on vertices 0..n-1, held as its edge mask:
    bit i is set when the i-th pair in lexicographic order is an edge."""

    __slots__ = ()

    def __new__(cls, n, edges):
        if n < 0:
            raise ValueError("negative vertex count")
        # pair_index refuses a pair unless 0 <= u < v < n.
        return tuple.__new__(cls, (n, _bits_mask([pair_index(n, u, v) for u, v in edges])))

    @classmethod
    def _make(cls, fields) -> "Graph":
        """The graph (n, mask); _replace builds through here, so it refuses
        what from_mask refuses."""
        return cls.from_mask(*fields)

    def __reduce__(self):  # copy and pickle: the constructor takes edges
        return self.from_mask, tuple(self)

    @classmethod
    def from_edges(cls, n, edges) -> "Graph":
        return cls(n, (pair_key(u, v) for u, v in edges))

    @classmethod
    def from_mask(cls, n, mask) -> "Graph":
        """The graph on n vertices whose edges are the set bits of mask."""
        if n < 0:
            raise ValueError("negative vertex count")
        if mask < 0 or mask.bit_length() > n * (n - 1) // 2:
            raise ValueError(f"bad edge mask {mask} for n={n}")
        return tuple.__new__(cls, (n, mask))

    @classmethod
    def complete(cls, n) -> "Graph":
        return cls.from_mask(n, (1 << n * (n - 1) // 2) - 1)

    @classmethod
    def path(cls, n) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @property
    def edges(self) -> frozenset:
        return frozenset(_mask_pairs(self.n, self.mask))

    def is_complete(self) -> bool:
        return self.mask.bit_count() == self.n * (self.n - 1) // 2


class ConnectivityVerdict(NamedTuple):
    """Menger-style certificate: disjoint paths for a distinguished pair,
    or a separating vertex set."""

    kind: str
    pair: tuple | None = None
    paths: tuple = ()
    separator: frozenset = frozenset()


class _EdgeColoringFields(NamedTuple):
    n: int
    k: int
    colors: tuple


class EdgeColoring(_EdgeColoringFields):
    """Total color assignment on unordered pairs of {0..n-1} into k colors.

    Colors are stored as a flat tuple in lexicographic pair order.
    """

    __slots__ = ()

    def __new__(cls, n, k, colors):
        if n < 0:
            raise ValueError("negative vertex count")
        if k < 0:
            raise ValueError("negative color count")
        colors = tuple(colors)
        npairs = n * (n - 1) // 2
        if len(colors) != npairs:
            raise ValueError(f"expected {npairs} colors for n={n}, got {len(colors)}")
        for c in colors:
            if not 0 <= c < k:
                raise ValueError(f"color {c} out of range for k={k}")
        return tuple.__new__(cls, (n, k, colors))

    @classmethod
    def _make(cls, fields) -> "EdgeColoring":
        """As Graph._make: _replace checks like the constructor."""
        return cls(*fields)

    @classmethod
    def constant(cls, n, k, color=0) -> "EdgeColoring":
        return cls(n, k, tuple([color] * (n * (n - 1) // 2)))

    def color_of(self, u, v) -> int:
        u, v = pair_key(u, v)
        return self.colors[pair_index(self.n, u, v)]


class InducedSubgraph(NamedTuple):
    graph: Graph
    labels: tuple  # labels[i] = original vertex of local vertex i


# ---------------------------------------------------------------------------
# Connectivity


def is_connected(g: Graph) -> bool:
    """True iff g has at most one connected component (n <= 1 is connected)."""
    full = (1 << g.n) - 1
    return _mask_component(_adj_masks(g.n, g.mask), full) == full


def _short_paths(adj: list[int], s: int, t: int, cap: int):
    """(count, common, matched): internally disjoint s-t paths of length
    2 and 3 for a nonadjacent pair, in the order the flow's BFS finds them.

    `common` is the vertex mask of the common neighbours c (paths s-c-t).
    `matched` lists the (a, b) of paths s-a-b-t, as one-bit vertex masks:
    each a in N(s) - N(t) in ascending order takes the least b still free
    in N(t) - N(s).  The matching stops once the two give `cap` paths.
    """
    ns, nt = adj[s], adj[t]
    common = ns & nt
    found = common.bit_count()
    left, right = ns & ~nt, nt & ~ns
    matched = []
    while left and found < cap:
        bit = left & -left
        left ^= bit
        ends = adj[bit.bit_length() - 1] & right
        if ends:
            end = ends & -ends
            right ^= end
            matched.append((bit, end))
            found += 1
    return found, common, matched


def _max_disjoint_paths(adj: list[int], s: int, t: int, cap: int, short):
    """Max internally vertex-disjoint s-t paths for a nonadjacent pair of
    the graph whose neighbour masks are `adj`.

    Unit-capacity flow on the vertex-split digraph in block layout,
    vin(v) = v and vout(v) = n + v: the arc out of vin(v) is its vertex
    arc to vout(v), and the arcs out of vout(v) are v's neighbour mask.
    Returns (value, paths, separator) where paths are vertex tuples and
    the separator is a minimum vertex cut disjoint from {s, t}.  Once the
    flow reaches `cap` it returns (cap, (), frozenset()) at once: the
    caller only needs to know the value is not below it.  `short` is
    _short_paths(adj, s, t, cap).  A nonadjacent pair has at most n - 2
    internally disjoint paths, each with an inner vertex of its own, so a
    cap of n - 1 is never reached: the matching, the flow and the result
    are then the uncapped ones.

    The flow augments along the first shortest residual path its BFS
    finds, taking nodes lowest first.  Its first rounds are applied
    without a BFS: the paths of _short_paths, in that order.  While a
    common neighbour c is unsaturated, the sink vin(t) is 3 arcs from the
    source, reached first through the lowest such c; a saturated c leaves
    vin(c) only an arc back to the source.  Then the sink is 5 arcs away.
    The nodes 2 arcs away are vout(a) for the unsaturated a in N(s), in
    ascending order, so the first vin(b) with b free in N(t) - N(s) to
    enter the queue is the least b of the least a that has one.  The
    other nodes 4 arcs away have no arc to vin(t): vout(y) for y outside
    N(t), and vout(a) of a saturated a, reached back through vin(b).  So
    the residual after the seed is the residual after those rounds, and
    the later rounds, the paths and the separator are unchanged.

    Every arc joins a vin to a vout, so the nodes a BFS layer adds are
    all of one kind, and within a kind the blocks keep the order of the
    interleaved numbering vin(v) = 2v, vout(v) = 2v + 1.  So the queue
    and the parents, and with them the value, paths and separator, are
    those of the same flow numbered interleaved, as the tests' BFS-only
    oracle flow is.

    The residual starts as the block layout itself, with no fix-up at s
    or t.  Every BFS stops as soon as it sees the sink, so vin(t) is never
    expanded, and the path read-off skips t: its arcs out are never read.
    The one arc out of vin(s) goes to vout(s), the source, which every BFS
    has seen already, so reaching vin(s) adds no node and no parent, and s
    never enters the cut.
    """
    flow, common, matched = short
    if flow >= cap:
        return cap, (), frozenset()
    n = len(adj)
    src, snk = n + s, t
    # res[a] = bitmask of nodes b with residual capacity on a->b.  Each
    # vin(v) has one unit out, s and t are nonadjacent and nothing enters
    # vout(t), so an edge arc carries 0 or 1 unit: its forward residual
    # never closes and its reverse arc is open iff it carries flow.  An
    # augmenting step a->b therefore flips a vertex arc (|a - b| = n),
    # opens b->a on a forward edge arc (a >= n, a vout) and closes a->b
    # on a reverse edge arc (a < n, a vin).
    # The seed: a saturated v keeps one arc out of vin(v), back to its
    # predecessor, and opens vout(v) -> vin(v).
    res = [1 << n + v for v in range(n)] + adj
    while common:
        c = common & -common
        common ^= c
        v = c.bit_length() - 1
        res[v] = 1 << src
        res[n + v] |= c
    for a, b in matched:
        u, v = a.bit_length() - 1, b.bit_length() - 1
        res[u] = 1 << src
        res[n + u] |= a
        res[v] = a << n
        res[n + v] |= b
    parent = [0] * (2 * n)
    while True:
        # Queue order, lowest node first: certificates are deterministic.
        seen = 1 << src
        queue = [src]
        for a in queue:
            new = res[a] & ~seen
            seen |= new
            while new:
                bit = new & -new
                new ^= bit
                b = bit.bit_length() - 1
                parent[b] = a
                queue.append(b)
            if seen >> snk & 1:
                break
        if not seen >> snk & 1:
            break
        b = snk
        while b != src:
            a = parent[b]
            if abs(a - b) == n:
                res[a] ^= 1 << b
                res[b] |= 1 << a
            elif a >= n:
                res[b] |= 1 << a
            else:
                res[a] ^= 1 << b
            b = a
        flow += 1
        if flow == cap:
            return flow, (), frozenset()

    # Minimum vertex cut from the reach of the final, failing BFS: the
    # vertices whose vin it reached and whose vout it did not.  Neither s
    # (vout(s) is the source) nor t (vin(t) was not reached) is among them.
    cut = seen & ~(seen >> n)
    separator = frozenset(v for v in range(n) if cut >> v & 1)

    # A vertex v on a flow path has its vertex arc closed and exactly one
    # open reverse edge arc, back to its predecessor on the path.
    nxt = [t] * n
    starts = []
    for v in range(n):
        back = res[v] & ~(1 << n + v)
        if v != s and v != t and back:
            u = back.bit_length() - 1 - n
            if u == s:
                starts.append(v)
            else:
                nxt[u] = v
    paths = []
    for v in starts:
        path = [s, v]
        while v != t:
            v = nxt[v]
            path.append(v)
        paths.append(tuple(path))
    return len(starts), tuple(paths), separator


@lru_cache(maxsize=CERTIFICATE_CACHE_SIZE)
def _connectivity_certificate(n: int, mask: int):
    """(kappa, pair, paths, separator) for the incomplete graph on n >= 2
    vertices with edge mask `mask`; the minimizing nonadjacent pair (a zero
    bit of mask) is the lexicographically least one, so the first pair with
    no path ends the scan.

    The best value b starts at n - 1, which no nonadjacent pair reaches:
    each of its internally disjoint paths needs an inner vertex of its
    own, so it has at most n - 2.  So s >= b does not hold while b is
    n - 1, and the first pair always replaces it, with the result of its
    uncapped flow.
    A pair replaces the best only with a strictly smaller value, so work
    that cannot show one is skipped:
      - Even's stop: the scan ends at the first pair (s, t) with s >= b,
        the best value.  A smaller value has a separator S with |S| < b;
        one of 0..b-1 lies outside S and is cut by S from some vertex, and
        that pair, scanned already with a cap of at least b, would have
        replaced the best.
      - Length-3 bound: the common neighbours of s and t, plus a greedy
        matching of edges ab from N(s) - N(t) into N(t) - N(s), give
        internally disjoint paths s-c-t and s-a-b-t (_short_paths), so a
        pair with at least b of them is passed over without a flow.  The
        flow of any other pair starts from the same paths, handed to it
        rather than found again.
      - Any other pair's flow stops once it reaches b.
    A pair of smaller value runs its flow in full, so the pair, paths and
    separator returned are those of the scan without the skips.

    The mask is decoded once into neighbour masks, one row at a time, each
    row shifted off once: row u holds the pairs (u, v), v > u, as bit v,
    and joins adj[u] whole.  Testing bit i of the mask for each pair would
    shift the whole mask C(n, 2) times.

    n above CERTIFICATE_VERTEX_LIMIT raises ValueError ("size limit")
    before any work: the flow's residual holds each vin(v) row as
    1 << n + v, so even an edgeless graph costs about n^2 bits."""
    if n > CERTIFICATE_VERTEX_LIMIT:
        raise ValueError(f"size limit: certified decisions cover n <= {CERTIFICATE_VERTEX_LIMIT}")
    full = 1 << n
    adj, rest = [0] * n, mask
    for u in range(n - 1):
        row = (rest & (1 << n - u - 1) - 1) << u + 1
        rest >>= n - u - 1
        adj[u] |= row
        while row:
            bit = row & -row
            row ^= bit
            adj[bit.bit_length() - 1] |= 1 << u
    best = (n - 1, None, (), frozenset())
    for s in range(n - 1):
        gaps = ~adj[s] & full - (2 << s)
        while gaps:
            bit = gaps & -gaps
            gaps ^= bit
            t = bit.bit_length() - 1
            cap = best[0]
            if s >= cap:
                return best
            short = _short_paths(adj, s, t, cap)
            if short[0] >= cap:
                continue
            value, paths, separator = _max_disjoint_paths(adj, s, t, cap, short)
            if value == cap:
                continue
            best = (value, (s, t), paths, separator)
            if value == 0:
                return best
    assert best[1] is not None
    return best


def vertex_connectivity(g: Graph) -> int:
    """Classical kappa(g): min over nonadjacent pairs of the max number of
    internally disjoint paths; n-1 for complete graphs, 0 if disconnected.
    An incomplete graph on more than CERTIFICATE_VERTEX_LIMIT vertices
    raises ValueError."""
    if g.n == 0:
        raise ValueError("empty graph")
    if g.is_complete():
        return g.n - 1
    return _connectivity_certificate(g.n, g.mask)[0]


def is_kappa_connected(g: Graph, kappa: int):
    """Deletion-semantics kappa-connectivity with a certificate; a negative
    kappa raises ValueError."""
    if kappa < 0:
        raise ValueError(f"need kappa >= 0, got kappa={kappa}")
    return is_kappa_connected_mask(g.n, g.mask, kappa)


def is_kappa_connected_mask(n: int, mask: int, kappa: int):
    """(answer, verdict) for the graph on n vertices with edge mask `mask`.
    Complete graphs (and n <= 1) are kappa-connected for every kappa;
    otherwise the answer is vertex_connectivity >= kappa.  Completeness
    is a bit count, as in Graph.is_complete: for a mask of at most C(n,2)
    bits, which every caller passes, it is all C(n,2) bits set, and no
    int of C(n,2) bits is built to compare with.  An incomplete graph on
    more than CERTIFICATE_VERTEX_LIMIT vertices raises ValueError."""
    if mask.bit_count() == n * (n - 1) // 2:
        return True, ConnectivityVerdict(CONNECTED)
    value, pair, paths, separator = _connectivity_certificate(n, mask)
    if value >= kappa:
        return True, ConnectivityVerdict(CONNECTED, pair=pair, paths=paths)
    return False, ConnectivityVerdict(SEPARATED, pair=pair, separator=separator)


def is_highly_connected(g: Graph) -> bool:
    """kappa-connected for kappa = |V|.  On a finite graph that is
    completeness: deleting all but a nonadjacent pair (fewer than |V|
    vertices) disconnects an incomplete graph."""
    return g.is_complete()


# ---------------------------------------------------------------------------
# Brute-force oracle (bitmask internals for speed)


def _adj_masks(n: int, mask: int) -> list[int]:
    """adj[v] = vertex mask of v's neighbours in the graph on n vertices
    with edge mask `mask`."""
    adj = [0] * n
    for u, v in _mask_pairs(n, mask):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _mask_component(adj: list[int], remaining: int) -> int:
    """Vertex mask of the component of the lowest vertex of `remaining` in
    the graph induced on `remaining`; 0 when `remaining` is empty."""
    seen = frontier = remaining & -remaining
    while frontier:
        nxt = 0
        f = frontier
        while f:
            bit = f & -f
            f ^= bit
            nxt |= adj[bit.bit_length() - 1]
        nxt &= remaining & ~seen
        seen |= nxt
        frontier = nxt
    return seen


@lru_cache(maxsize=None)
def _deletion_sets(n: int) -> tuple:
    """(size, remaining vertex mask) for every deletion set on n vertices,
    by increasing size."""
    full = (1 << n) - 1
    return tuple(
        (size, full & ~sum(1 << v for v in subset))
        for size in range(n + 1)
        for subset in itertools.combinations(range(n), size)
    )


def brute_force_kappa(g: Graph) -> int:
    """Largest kappa such that deleting every vertex set of size < kappa
    leaves a connected graph, by literal enumeration of deletion sets.
    Returns n for complete graphs (deletion semantics)."""
    if g.n > ORACLE_SIZE_LIMIT:
        raise ValueError("oracle size limit")
    adj = _adj_masks(g.n, g.mask)
    for size, remaining in _deletion_sets(g.n):
        if _mask_component(adj, remaining) != remaining:
            return size
    return g.n


def _sums(choices) -> list:
    """Every sum of one value from each entry of choices, with the first
    entry varying fastest: the sum at index i takes value i % len(c0) of
    the first entry c0, and so on, as bit 0 of a mask or digit 0 of a
    base-k code varies fastest.  No choices give [0]."""
    sums = [0]
    for choice in choices:
        sums = [s + c for c in choice for s in sums]
    return sums


def _fold(a: bytes, b: bytes, table: bytes) -> bytes:
    """table[8 * a[i] + b[i]] for every i; every entry must be below 8, so
    that one integer shift and add build all the byte keys at once."""
    keys = (int.from_bytes(a, "little") << 3) + int.from_bytes(b, "little")
    return keys.to_bytes(len(a), "little").translate(table)


_PLUS_ONE = bytes(range(1, 256)) + bytes(1)
_MIN = bytes(min(x >> 3, x & 7) for x in range(256))
_MAX = bytes(max(x >> 3, x & 7) for x in range(256))
# Key 8 * max + min: the min where the max is at least 2, else 0.
_GATE = bytes(x & 7 if x >> 3 >= 2 else 0 for x in range(256))
assert TABLE_VERTEX_LIMIT < 8, "_fold keys hold table entries below 8 only"


@lru_cache(maxsize=None)
def connectivity_table(m: int) -> bytes:
    """table[mask] = deletion-semantics kappa of the graph G on m vertices
    whose edge set is `mask` (bit i is the i-th pair in lexicographic
    order).  A graph is kappa-connected iff its entry is >= min(kappa, m).

    Built by recursion from the (m-1) table T', so brute_force_kappa stays
    an independent check of it.  For m >= 2:
      - G is connected iff some vertex v with an edge in G has
        T'[G - v] >= 1;
      - a connected G has value 1 + min over v of T'[G - v] (a least
        separator of G less one vertex v separates G - v, and a separator
        of G - v plus v separates G); for the complete graph that is m.
    So with f_v = 1 + T'[G - v] if v has an edge in G, else 0, the entry
    is min f_v where max f_v >= 2, and 0 elsewhere.

    Deleting v and renumbering the vertices above it keeps the order of
    the other pairs, so bit j of `mask`, for j outside v's star, lands at
    bit j minus the number of star bits below j in the mask of G - v, and
    star bits are dropped.  Packing a mask is therefore a sum of one
    offset per bit, and the low bits' sum and the high bits' sum add.  Per
    v, _sums lists the packed low 7 bits as a byte pattern (bytes.translate
    over a window of T') and the packed high bits as the window starts, in
    the masks' order, since bit 0 varies fastest.  The window's width is
    max(pattern) + 1 = 2**(low bits outside the star).
    """
    if m > TABLE_VERTEX_LIMIT:
        raise ValueError(f"enumeration size limit: tables cover m <= {TABLE_VERTEX_LIMIT}")
    if m <= 1:
        return bytes([m])
    raised = connectivity_table(m - 1).translate(_PLUS_ONE)
    npairs = m * (m - 1) // 2
    low_bits = min(7, npairs)
    least = most = None
    for star in star_masks(m):
        moves = [(0, 0 if star >> j & 1 else 1 << j - (star & (1 << j) - 1).bit_count())
                 for j in range(npairs)]
        pattern = bytes(_sums(moves[:low_bits]))
        width = max(pattern) + 1
        # The window is at most 128 bytes, so byte 255 reads the zero
        # padding: f_v = 0 where neither the low nor the high bits hold an
        # edge at v.
        no_edge = bytes(p if x & star else 255 for x, p in enumerate(pattern))
        pad = bytes(256 - width)
        high_star = star >> low_bits
        f = b"".join([
            (pattern if high & high_star else no_edge).translate(
                raised[start:start + width] + pad
            )
            for high, start in enumerate(_sums(moves[low_bits:]))
        ])
        if least is None:
            least = most = f
        else:
            least, most = _fold(least, f, _MIN), _fold(most, f, _MAX)
    return _fold(most, least, _GATE)


def is_forest(g: Graph) -> bool:
    """True iff g is acyclic: |E| = n - #components."""
    adj = _adj_masks(g.n, g.mask)
    components = 0
    left = (1 << g.n) - 1
    while left:
        left &= ~_mask_component(adj, left)
        components += 1
    return g.mask.bit_count() == g.n - components


def induced_color_graph(c: EdgeColoring, xi: int, vertices) -> InducedSubgraph:
    """Graph on the given vertex set (relabeled order-preservingly) whose
    edges are exactly the pairs of color xi; the relabeling is returned."""
    labels = tuple(sorted(set(vertices)))
    if labels and not (0 <= labels[0] and labels[-1] < c.n):
        raise ValueError(f"vertex set {labels} out of range for n={c.n}")
    if not 0 <= xi < c.k:
        raise ValueError(f"color {xi} out of range for k={c.k}")
    row, pairs = pair_rows(c.n), itertools.combinations(labels, 2)
    mask = sum(1 << i for i, (u, v) in enumerate(pairs) if c.colors[row[u] + v] == xi)
    return InducedSubgraph(Graph.from_mask(len(labels), mask), labels)


# ---------------------------------------------------------------------------
# Graph text format: first line "n m", then m lines "u v" with u < v.


def format_graph_text(g: Graph) -> str:
    lines = [f"{g.n} {g.mask.bit_count()}"]
    lines.extend(f"{u} {v}" for u, v in _mask_pairs(g.n, g.mask))
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    """The graph of a text in the format above.  The cost is O(edges)
    plus the mask (one bit per pair up to the last edge's): each edge's
    bit is one pair_index lookup, and no per-vertex table is built.  A
    header above CERTIFICATE_VERTEX_LIMIT vertices with some edges but not
    all C(n,2) raises ValueError ("size limit") before any mask is built:
    no certified decision accepts that graph."""
    (n, m), records = read_records(text, "n m", "u v")
    if n > CERTIFICATE_VERTEX_LIMIT and 0 < m < n * (n - 1) // 2:
        raise ValueError(f"size limit: {n} vertices with {m} edges; certified decisions "
                         f"cover n <= {CERTIFICATE_VERTEX_LIMIT} unless no or all pairs are edges")
    if len(records) != m:
        raise InputFormatError(f"expected {m} edge lines, found {len(records)}")
    bits = set()
    for i, (u, v) in records:
        if not 0 <= u < v < n:
            raise InputFormatError(f"line {i}: edge ({u}, {v}) out of range")
        bit = pair_index(n, u, v)
        if bit in bits:
            raise InputFormatError(f"line {i}: duplicate edge ({u}, {v})")
        bits.add(bit)
    return Graph.from_mask(n, _bits_mask(bits))
