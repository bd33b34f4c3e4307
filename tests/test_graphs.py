import hashlib
import itertools
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings

import hcramsey.graphs as graphs_module

from hcramsey.graphs import (
    CERTIFICATE_CACHE_SIZE,
    EdgeColoring,
    Graph,
    InputFormatError,
    all_pairs,
    brute_force_kappa,
    connectivity_table,
    format_graph_text,
    induced_color_graph,
    is_connected,
    is_forest,
    is_highly_connected,
    is_kappa_connected,
    _connectivity_certificate,
    _sums,
    pair_index,
    pair_rows,
    parse_graph_text,
    star_masks,
    vertex_connectivity,
)

from conftest import (
    coloring_from_map,
    graph_strategy,
    graphs_on,
    mask_strategy,
    random_graph,
)


class TestEdgeMask:
    @pytest.mark.parametrize("n", range(6))
    def test_every_graph_has_its_lex_mask_and_round_trips(self, n):
        # Graphs built from edge sets, by size, not from masks: bit i of the
        # mask is set exactly when the i-th lexicographic pair is an input
        # edge, the derived edge set is the input, and _adj_masks matches a
        # neighbour table built here from the input pairs.
        pairs = all_pairs(n)
        masks = set()
        for size in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, size):
                g = Graph(n, frozenset(edges))
                assert [g.mask >> i & 1 for i in range(len(pairs))] == [
                    p in edges for p in pairs
                ]
                assert g.mask >> len(pairs) == 0
                assert g.edges == frozenset(edges)
                adj = [0] * n
                for u, v in edges:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                assert graphs_module._adj_masks(n, g.mask) == adj
                assert Graph.from_mask(n, g.mask) == g
                masks.add(g.mask)
        assert len(masks) == 1 << len(pairs)

    def test_equality_and_repr_come_from_n_and_mask(self):
        g = Graph.path(3)
        assert repr(g) == "Graph(n=3, mask=5)"
        assert g == Graph(3, frozenset({(1, 2), (0, 1)}))
        assert g != Graph(4, frozenset({(1, 2), (0, 1)}))

    def test_a_large_edgeless_graph_builds_no_pair_sized_buffer(self):
        # C(10**5, 2) bits would be 625 MB: both builders stay at mask 0.
        assert Graph(10**5, ()).mask == 0
        assert parse_graph_text("100000 0\n").mask == 0
        assert Graph.from_mask(10**5, 0).edges == frozenset()

    def test_parsing_an_edgeless_header_costs_no_per_vertex_table(self):
        # A per-vertex table of 300,000 ints traces about 12 MB; 10**6
        # vertices would cost over 100 MB of resident memory under tracing
        # wherever such a table is built.
        tracemalloc.start()
        try:
            g = parse_graph_text("300000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n, g.mask) == (300_000, 0)
        assert peak < 1 << 20

    def test_one_high_edge_above_the_vertex_limit_is_refused_before_its_mask(self):
        # Its mask would be C(20000, 2) bits, about 25 MB, and no certified
        # decision accepts the graph.
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="size limit"):
                parse_graph_text("20000 1\n19998 19999\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.5
        assert peak < 1 << 20

    def test_one_edge_at_the_vertex_limit_still_parses(self):
        g = parse_graph_text("16384 1\n0 1\n")
        assert (g.n, g.mask) == (2**14, 1)

    def test_from_mask_rejects_bits_beyond_the_pairs(self):
        with pytest.raises(ValueError, match="bad edge mask"):
            Graph.from_mask(3, 1 << 3)
        with pytest.raises(ValueError, match="bad edge mask"):
            Graph.from_mask(3, -1)


@pytest.mark.parametrize("n", range(13))
def test_pair_rows_read_the_pair_index(n):
    row = pair_rows(n)
    assert len(row) == max(n - 1, 0)
    for u, v in all_pairs(n):
        assert row[u] + v == pair_index(n, u, v)


def test_pair_rows_read_the_pair_index_at_large_n():
    n = 10**5
    row = pair_rows(n)
    assert len(row) == n - 1
    for u in (0, 1, n // 2, n - 2):
        assert row[u] + u + 1 == pair_index(n, u, u + 1)
        assert row[u] + n - 1 == pair_index(n, u, n - 1)


@pytest.mark.parametrize("n, edges, message", [
    (-1, [], "negative vertex count"),
    (3, [(0, 3)], re.escape("bad pair (0, 3) for n=3")),
    (3, [(2, 1)], re.escape("bad pair (2, 1) for n=3")),
])
def test_graph_refusals(n, edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, frozenset(edges))
    if not edges:
        with pytest.raises(ValueError, match=message):
            Graph.from_mask(n, 0)


def test_cycle_needs_three_vertices():
    with pytest.raises(ValueError, match="cycle needs at least 3 vertices"):
        Graph.cycle(2)


def test_edge_coloring_refuses_a_wrong_color_count_or_a_color_beyond_k():
    with pytest.raises(ValueError, match="expected 3 colors for n=3, got 2"):
        EdgeColoring(3, 2, (0, 1))
    with pytest.raises(ValueError, match="color 2 out of range for k=2"):
        EdgeColoring(3, 2, (0, 2, 1))


def test_edge_coloring_refuses_a_negative_vertex_count():
    # C(-1, 2) = 1, so a one-color tuple used to pass the length check.
    with pytest.raises(ValueError, match="negative vertex count"):
        EdgeColoring(-1, 2, (0,))


def test_edge_coloring_refuses_a_negative_color_count():
    # No pairs to color, so no color was checked against k.
    with pytest.raises(ValueError, match="negative color count"):
        EdgeColoring.constant(1, -3)


class TestIsConnected:
    def test_path(self):
        assert is_connected(Graph.path(3))

    def test_two_isolated_vertices(self):
        assert not is_connected(Graph(2, frozenset()))

    def test_empty_graph_convention(self):
        assert is_connected(Graph(0, frozenset()))

    def test_single_vertex(self):
        assert is_connected(Graph(1, frozenset()))


class TestVertexConnectivity:
    def test_complete_convention(self):
        assert vertex_connectivity(Graph.complete(4)) == 3

    def test_cycle(self):
        assert vertex_connectivity(Graph.cycle(5)) == 2

    def test_path(self):
        assert vertex_connectivity(Graph.path(4)) == 1

    def test_disconnected(self):
        assert vertex_connectivity(Graph(3, frozenset({(0, 1)}))) == 0

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError, match="empty graph"):
            vertex_connectivity(Graph(0, frozenset()))

    @pytest.mark.parametrize("decide", [
        vertex_connectivity, lambda g: is_kappa_connected(g, 1),
    ])
    def test_certified_decisions_refuse_above_the_vertex_limit(self, decide):
        # The residual holds about n^2 bits even for an edgeless graph, so
        # certified decisions stop at n = 2^14.
        g = Graph(2**14 + 1, ())
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="size limit"):
                decide(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_the_vertex_limit_is_decided(self):
        assert vertex_connectivity(Graph(2**14, ())) == 0


class TestKappaConnected:
    def test_complete_any_kappa(self):
        assert is_kappa_connected(Graph.complete(4), 4)[0]
        assert is_kappa_connected(Graph.complete(4), 100)[0]

    def test_cycle4(self):
        assert is_kappa_connected(Graph.cycle(4), 2)[0]
        ok, verdict = is_kappa_connected(Graph.cycle(4), 3)
        assert not ok
        assert len(verdict.separator) == 2
        # opposite vertices separate C4
        assert verdict.separator in ({1, 3}, {0, 2})

    def test_k4_minus_edge(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        ok, verdict = is_kappa_connected(g, 4)
        assert not ok
        assert verdict.separator == frozenset({0, 1})

    def test_kappa_zero_always_true(self):
        assert is_kappa_connected(Graph(2, frozenset()), 0)[0]

    @pytest.mark.parametrize("g", [Graph(2, frozenset()), Graph.complete(3)])
    def test_negative_kappa_is_refused(self, g):
        with pytest.raises(ValueError, match=re.escape("need kappa >= 0, got kappa=-1")):
            is_kappa_connected(g, -1)


class TestHighlyConnected:
    def test_complete(self):
        assert is_highly_connected(Graph.complete(5))

    def test_cycle(self):
        assert not is_highly_connected(Graph.cycle(5))

    def test_single_vertex(self):
        assert is_highly_connected(Graph(1, frozenset()))


class TestBruteForceKappa:
    def test_k3(self):
        assert brute_force_kappa(Graph.complete(3)) == 3

    def test_c4(self):
        assert brute_force_kappa(Graph.cycle(4)) == 2

    def test_disconnected(self):
        assert brute_force_kappa(Graph(2, frozenset())) == 0

    def test_size_limit(self):
        with pytest.raises(ValueError, match="oracle size limit"):
            brute_force_kappa(Graph(13, frozenset()))


class TestInducedColorGraph:
    def test_constant_coloring_full(self):
        c = EdgeColoring.constant(4, 2, 0)
        sub = induced_color_graph(c, 0, range(4))
        assert sub.graph == Graph.complete(4)
        assert sub.labels == (0, 1, 2, 3)

    def test_constant_coloring_other_color(self):
        c = EdgeColoring.constant(4, 2, 0)
        assert induced_color_graph(c, 1, range(4)).graph.edges == frozenset()

    def test_relabeling(self):
        c = coloring_from_map(3, 2, {(0, 1): 0, (0, 2): 0, (1, 2): 1})
        sub = induced_color_graph(c, 0, {0, 1, 2})
        assert sub.graph == Graph.from_edges(3, [(0, 1), (0, 2)])  # path 1-0-2

    def test_relabeling_preserves_order(self):
        c = EdgeColoring.constant(5, 1, 0)
        sub = induced_color_graph(c, 0, {4, 1, 3})
        assert sub.labels == (1, 3, 4)
        assert sub.graph == Graph.complete(3)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_subset_matches_color_of(self, n):
        rng = random.Random(n)
        c = EdgeColoring(n, 3, tuple(rng.randrange(3) for _ in all_pairs(n)))
        for size in range(n + 1):
            for labels in itertools.combinations(range(n), size):
                for xi in range(3):
                    sub = induced_color_graph(c, xi, labels)
                    assert sub.labels == labels
                    assert sub.graph.edges == {
                        (i, j) for i, j in all_pairs(size)
                        if c.color_of(labels[i], labels[j]) == xi
                    }

    def test_out_of_range(self):
        c = EdgeColoring.constant(3, 1, 0)
        with pytest.raises(ValueError):
            induced_color_graph(c, 0, {0, 5})
        with pytest.raises(ValueError):
            induced_color_graph(c, 2, {0, 1})


class TestIsForest:
    def test_path(self):
        assert is_forest(Graph.path(5))

    def test_triangle(self):
        assert not is_forest(Graph.cycle(3))

    def test_empty(self):
        assert is_forest(Graph(0, frozenset()))

    def test_disjoint_trees(self):
        assert is_forest(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)]))


class TestOracleAgreement:
    """is_kappa_connected against the literal deletion-set oracle."""

    @pytest.mark.parametrize("n", range(6))
    def test_exhaustive_small(self, n):
        for g in graphs_on(n):
            bfk = brute_force_kappa(g)
            for kappa in range(n + 1):
                assert is_kappa_connected(g, kappa)[0] == (kappa <= bfk)

    def test_randomized_n7(self):
        rng = random.Random(7071)
        for _ in range(120):
            g = random_graph(7, rng, p=rng.choice([0.3, 0.5, 0.8]))
            bfk = brute_force_kappa(g)
            for kappa in range(8):
                assert is_kappa_connected(g, kappa)[0] == (kappa <= bfk)

    def test_incomplete_classical_equality(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_graph(rng.randrange(2, 11), rng)
            if not g.is_complete():
                assert vertex_connectivity(g) == brute_force_kappa(g)


class TestConnectivityTable:
    """The table is built by recursion on m; the deletion-set oracle is
    separate code, so comparing the two checks the recursion."""

    @pytest.mark.parametrize("m", range(7))
    def test_every_mask_matches_brute_force_oracle(self, m):
        table = connectivity_table(m)
        assert len(table) == 1 << m * (m - 1) // 2
        for mask, g in enumerate(graphs_on(m)):
            assert table[mask] == brute_force_kappa(g), (m, mask)

    def test_sums_take_one_value_per_entry_first_entry_fastest(self):
        # Both table builders rely on this order: bit 0 of a mask and
        # digit 0 of a base-k code vary fastest.
        assert _sums([]) == [0]
        rng = random.Random(32)
        for _ in range(300):
            choices = [[rng.randrange(-3, 20) for _ in range(rng.randint(1, 4))]
                       for _ in range(rng.randint(0, 6))]
            want = [sum(t) for t in itertools.product(*reversed(choices))]
            assert _sums(choices) == want, choices


def _arcs(n, mask):
    """The vertex-split digraph of the graph on n vertices with edge mask
    `mask`, interleaved: vin(v) = 2v, vout(v) = 2v + 1.  _max_disjoint_paths
    numbers its nodes in blocks instead, so the oracle flow below shares
    neither numbering nor decoder with it."""
    arcs = [2 << a if a % 2 == 0 else 0 for a in range(2 * n)]
    for i, (u, v) in enumerate(all_pairs(n)):
        if mask >> i & 1:
            arcs[2 * u + 1] |= 1 << 2 * v
            arcs[2 * v + 1] |= 1 << 2 * u
    return arcs


def _bfs_only_flow(arcs, s, t, cap=None):
    """_max_disjoint_paths as it was before its seed of short paths: every
    augmenting path comes from a BFS.  The oracle of the seeded flow."""
    n = len(arcs) // 2
    # res[a] = bitmask of nodes b with residual capacity on a->b.  Each
    # vin(v) has one unit out, s and t are nonadjacent and nothing enters
    # vout(t), so an edge arc carries 0 or 1 unit: its forward residual
    # never closes and its reverse arc is open iff it carries flow.  An
    # augmenting step a->b therefore flips a vertex arc (a>>1 == b>>1),
    # opens b->a on a forward edge arc (a odd) and closes a->b on a
    # reverse edge arc (a even).
    res = arcs.copy()
    res[2 * s] = res[2 * t] = 0
    src, snk = 2 * s + 1, 2 * t
    parent = [0] * (2 * n)
    flow = 0
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
            if a >> 1 == b >> 1:
                res[a] ^= 1 << b
                res[b] |= 1 << a
            elif a & 1:
                res[b] |= 1 << a
            else:
                res[a] ^= 1 << b
            b = a
        flow += 1
        if flow == cap:
            return flow, (), frozenset()

    # Minimum vertex cut from the reach of the final, failing BFS.
    separator = frozenset(
        v for v in range(n)
        if v != s and v != t and seen >> 2 * v & 1 and not seen >> 2 * v + 1 & 1
    )

    # A vertex v on a flow path has its vertex arc closed and exactly one
    # open reverse edge arc, back to its predecessor on the path.
    nxt = [t] * n
    starts = []
    for v in range(n):
        back = res[2 * v] & ~(2 << 2 * v)
        if v != s and v != t and back:
            u = (back.bit_length() - 1) >> 1
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


class TestCertificates:
    def test_certificate_digest_is_stable(self):
        # Pins value, minimizing pair, path order and separator of the flow
        # certificate, not just the connectivity value.
        graphs = [g for n in range(2, 6) for g in graphs_on(n) if not g.is_complete()]
        rng = random.Random(2018)
        for _ in range(200):
            g = random_graph(
                rng.choice([7, 8, 9, 10]), rng, p=rng.choice([0.3, 0.5, 0.7, 0.9])
            )
            if not g.is_complete():
                graphs.append(g)
        assert len(graphs) == 1290
        h = hashlib.sha256()
        for g in graphs:
            value, pair, paths, separator = _connectivity_certificate(g.n, g.mask)
            h.update(repr((value, pair, paths, tuple(sorted(separator)))).encode())
        assert h.hexdigest()[:12] == "9371c408799f"

    def test_cache_is_bounded(self):
        graphs = (g for g in graphs_on(6) if not g.is_complete())
        for _, g in zip(range(CERTIFICATE_CACHE_SIZE + 100), graphs):
            _connectivity_certificate(g.n, g.mask)
        info = _connectivity_certificate.cache_info()
        assert info.maxsize == CERTIFICATE_CACHE_SIZE
        assert info.currsize == CERTIFICATE_CACHE_SIZE

    @pytest.fixture
    def flow_calls(self, monkeypatch):
        """The (s, t) of every _max_disjoint_paths call, from a cold cache."""
        calls = []
        flow = graphs_module._max_disjoint_paths

        def counting(*args):
            calls.append(args[1:3])
            return flow(*args)

        monkeypatch.setattr(graphs_module, "_max_disjoint_paths", counting)
        _connectivity_certificate.cache_clear()
        return calls

    def test_a_pair_with_no_path_ends_the_scan(self, flow_calls):
        # The lexicographically first pair of value 0 is the certificate, so
        # the edgeless graph on 50 vertices needs one flow, not C(50, 2).
        assert vertex_connectivity(Graph(50, frozenset())) == 0
        assert flow_calls == [(0, 1)]
        assert _connectivity_certificate(50, 0)[:2] == (0, (0, 1))

    def test_common_neighbours_skip_the_flow(self, flow_calls):
        # The octahedron K_6 - {01, 23, 45}: (0, 1) has 4 disjoint paths,
        # and (2, 3) and (4, 5) have 4 common neighbours each, so neither
        # can go lower and neither runs a flow.
        g = Graph.from_edges(6, set(all_pairs(6)) - {(0, 1), (2, 3), (4, 5)})
        value, pair, paths, separator = _connectivity_certificate(g.n, g.mask)
        assert (value, pair) == (4, (0, 1))
        assert sorted(p[1] for p in paths) == [2, 3, 4, 5]
        assert separator == frozenset({2, 3, 4, 5})
        assert flow_calls == [(0, 1)]

    def test_length_three_paths_skip_the_flow(self, flow_calls):
        # The cube Q3 (labels joined when they differ in one bit) has
        # connectivity 3.  (0, 7) has no common neighbour, but the edges
        # 1-3, 2-6 and 4-5 give three disjoint paths of length 3, as many
        # as the best value, so it runs no flow.
        g = Graph.from_edges(8, [(u, u ^ 1 << i) for u in range(8) for i in range(3)])
        assert (0, 7) not in g.edges
        certificate = _connectivity_certificate(g.n, g.mask)
        assert (0, 7) not in flow_calls
        assert certificate[:2] == (3, (0, 3))
        assert certificate == self._uncapped_certificate(g.n, g.mask)

    def test_even_stop_ends_the_scan_at_the_best_value(self, flow_calls):
        # The path 0-1-...-7 has connectivity 1, found at (0, 2).  A
        # smaller value would show up at a pair (0, t), so no pair (s, t)
        # with s >= 1 runs a flow; (1, 4), (1, 5), ... each ran one before
        # the stop.  (0, 3) has the length-3 path 0-1-2-3.
        g = Graph.path(8)
        certificate = _connectivity_certificate(g.n, g.mask)
        assert [s for s, _ in flow_calls] == [0] * 5
        assert flow_calls == [(0, 2), (0, 4), (0, 5), (0, 6), (0, 7)]
        assert certificate[:2] == (1, (0, 2))
        assert certificate == self._uncapped_certificate(g.n, g.mask)

    def test_every_flow_is_capped_and_handed_its_short_paths(self, monkeypatch):
        # One call shape: the first pair's cap is n - 1, which no
        # nonadjacent pair reaches, and every flow is handed the short
        # paths its caller found, fewer than the cap.
        calls = []
        flow = graphs_module._max_disjoint_paths

        def recording(*args):
            calls.append(args)
            return flow(*args)

        monkeypatch.setattr(graphs_module, "_max_disjoint_paths", recording)
        graphs = [g for n in range(2, 6) for g in graphs_on(n) if not g.is_complete()]
        rng = random.Random(31)
        for _ in range(200):
            g = random_graph(rng.randrange(7, 13), rng, p=rng.choice([0.3, 0.5, 0.7, 0.9]))
            if not g.is_complete():
                graphs.append(g)
        for g in graphs:
            calls.clear()
            _connectivity_certificate.cache_clear()
            _connectivity_certificate(g.n, g.mask)
            assert calls, (g.n, g.mask)
            for adj, s, t, cap, short in calls:
                assert adj == graphs_module._adj_masks(g.n, g.mask)
                assert type(cap) is int and cap <= g.n - 1, (g.n, g.mask, s, t, cap)
                assert short == graphs_module._short_paths(adj, s, t, cap)
                assert short[0] < cap

    @staticmethod
    def _uncapped_certificate(n, mask):
        """The full flow of each nonadjacent pair in lexicographic order,
        keeping the first of least value; value 0 can not be beaten.  The
        flows are _bfs_only_flow's, so the seeded flow is checked too."""
        arcs = _arcs(n, mask)
        best = None
        for i, (s, t) in enumerate(all_pairs(n)):
            if not mask >> i & 1:
                value, paths, separator = _bfs_only_flow(arcs, s, t)
                if best is None or value < best[0]:
                    best = (value, (s, t), paths, separator)
                if value == 0:
                    break
        return best

    def test_seeded_flow_matches_the_bfs_only_flow(self):
        # The seed replaces the first BFS rounds, so every value, path,
        # separator and early return at a cap is the BFS-only flow's.
        cases = [(n, mask) for n in range(2, 6) for mask in range(1 << n * (n - 1) // 2)]
        rng = random.Random(2025)
        for _ in range(300):
            g = random_graph(rng.randrange(7, 13), rng, p=rng.choice([0.3, 0.5, 0.7, 0.9]))
            cases.append((g.n, g.mask))
        for n, mask in cases:
            arcs, adj = _arcs(n, mask), [0] * n
            for i, (u, v) in enumerate(all_pairs(n)):
                if mask >> i & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            for i, (s, t) in enumerate(all_pairs(n)):
                if not mask >> i & 1:
                    # A cap of n - 1 is never reached: the uncapped oracle.
                    for cap in (None, 1, 2, 3, 4, 5):
                        c = n - 1 if cap is None else cap
                        short = graphs_module._short_paths(adj, s, t, c)
                        assert graphs_module._max_disjoint_paths(
                            adj, s, t, c, short
                        ) == _bfs_only_flow(arcs, s, t, cap), (n, mask, s, t, cap)

    def test_k400_minus_a_perfect_matching(self):
        # 398 common neighbours seed the flow of (0, 1) and skip every
        # later pair (2i, 2i + 1) until Even's stop; reading the mask by
        # rows keeps the 79,600-bit mask from being shifted once per pair.
        n = 400
        g = Graph.from_edges(n, set(all_pairs(n)) - {(u, u + 1) for u in range(0, n, 2)})
        value, pair, paths, separator = _connectivity_certificate(g.n, g.mask)
        assert (value, pair) == (398, (0, 1))
        assert paths == tuple((0, c, 1) for c in range(2, n))
        assert separator == frozenset(range(2, n))
        assert vertex_connectivity(g) == 398

    def test_skips_keep_the_uncapped_certificate(self):
        cases = [(n, mask) for n in range(2, 7) for mask in range((1 << n * (n - 1) // 2) - 1)]
        rng = random.Random(1907)
        for _ in range(300):
            g = random_graph(rng.randrange(7, 11), rng, p=rng.choice([0.3, 0.5, 0.7, 0.9]))
            if not g.is_complete():
                cases.append((g.n, g.mask))
        for n, mask in cases:
            assert _connectivity_certificate(n, mask) == self._uncapped_certificate(n, mask), (n, mask)

    def test_scan_rules_keep_the_uncapped_certificate_on_11_and_12_vertices(self):
        # Larger graphs than the test above, where Even's stop and the
        # length-3 bound pass over most pairs.
        rng = random.Random(2021)
        for _ in range(200):
            g = random_graph(rng.randrange(11, 13), rng, p=rng.choice([0.4, 0.6, 0.8, 0.9]))
            if not g.is_complete():
                assert _connectivity_certificate(g.n, g.mask) == self._uncapped_certificate(
                    g.n, g.mask
                ), (g.n, g.mask)


@given(graph_strategy(max_n=7))
@settings(max_examples=150, deadline=None)
def test_monotone_in_kappa(g):
    for kappa in range(g.n + 1):
        if is_kappa_connected(g, kappa)[0]:
            for smaller in range(kappa):
                assert is_kappa_connected(g, smaller)[0]


def _check_verdict(g, kappa):
    """is_kappa_connected(g, kappa) against the definitions: at least kappa
    internally disjoint s-t paths along edges of g, or fewer than kappa
    vertices, missing s and t, whose removal leaves s and t in different
    components."""
    ok, verdict = is_kappa_connected(g, kappa)
    if ok and verdict.pair is not None:
        s, t = verdict.pair
        assert len(verdict.paths) >= kappa
        internal = []
        for path in verdict.paths:
            assert path[0] == s and path[-1] == t
            for a, b in zip(path, path[1:]):
                assert (min(a, b), max(a, b)) in g.edges
            internal.append(set(path[1:-1]))
        for i, a in enumerate(internal):
            for b in internal[i + 1:]:
                assert not a & b
    if not ok:
        s, t = verdict.pair
        assert s not in verdict.separator and t not in verdict.separator
        assert len(verdict.separator) < kappa
        kept = [v for v in range(g.n) if v not in verdict.separator]
        remap = {v: i for i, v in enumerate(kept)}
        left = [(u, v) for u, v in g.edges if u in remap and v in remap]
        residual = Graph(len(kept), frozenset((remap[u], remap[v]) for u, v in left))
        assert not is_connected(residual)
        assert residual.n >= 2
        reach = {s}
        for _ in kept:
            reach |= {v for u, v in left if u in reach} | {u for u, v in left if v in reach}
        assert t not in reach


@given(graph_strategy(min_n=2, max_n=7))
@settings(max_examples=150, deadline=None)
def test_verdict_certificates(g):
    for kappa in range(g.n + 1):
        _check_verdict(g, kappa)


def test_verdict_certificates_on_8_to_12_vertices():
    rng = random.Random(812)
    for _ in range(150):
        g = random_graph(rng.randrange(8, 13), rng, p=rng.choice([0.3, 0.5, 0.7, 0.9]))
        for kappa in range(g.n + 1):
            _check_verdict(g, kappa)


@given(mask_strategy(min_n=2, max_n=7))
@settings(max_examples=150, deadline=None)
def test_min_degree_bound(n_mask):
    n, mask = n_mask
    g = Graph.from_mask(n, mask)
    if g.is_complete():
        return
    kappa = vertex_connectivity(g)
    if kappa > 0:
        assert min((mask & star).bit_count() for star in star_masks(n)) >= kappa


@given(graph_strategy(max_n=6))
@settings(max_examples=100, deadline=None)
def test_highly_connected_iff_complete(g):
    assert is_highly_connected(g) == (brute_force_kappa(g) >= g.n)


class TestGraphTextFormat:
    def test_round_trip(self):
        g = Graph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
        assert parse_graph_text(format_graph_text(g)) == g

    @given(graph_strategy(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, g):
        assert parse_graph_text(format_graph_text(g)) == g

    @pytest.mark.parametrize(
        "text",
        ["", "3\n", "3 1\n", "3 1\n0 5\n", "3 1\nx y\n", "2 2\n0 1\n0 1\n"],
    )
    def test_malformed(self, text):
        with pytest.raises(InputFormatError):
            parse_graph_text(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 2\n\n\n0 1\n1 x\n", "line 5: 'u v' must be integers"),
            ("\n\n3 2 1\n0 1\n1 2\n", "line 3: expected 'n m'"),
            ("3 2\n0 1\n\n0 1\n", "line 4: duplicate edge (0, 1)"),
            ("3 1\n\n2 1\n", "line 3: edge (2, 1) out of range"),
            # The first bad line in file order is named.
            ("4 3\n0 1\n0 1\n2 9\n", "line 3: duplicate edge (0, 1)"),
            ("4 3\n0 1\n2 9\n0 1\n", "line 3: edge (2, 9) out of range"),
        ],
    )
    def test_error_names_the_line_of_the_text(self, text, message):
        with pytest.raises(InputFormatError, match=re.escape(message)):
            parse_graph_text(text)

    def test_edges_are_written_in_mask_order(self):
        g = Graph.from_edges(4, [(2, 3), (1, 0), (0, 3), (1, 2)])
        assert format_graph_text(g) == "4 4\n0 1\n0 3\n1 2\n2 3\n"
