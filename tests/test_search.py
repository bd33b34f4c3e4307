import hashlib
import inspect
import json
import itertools
import random
import re
import sys
import tracemalloc

import pytest

import hcramsey.search as search_module
from hcramsey.colorings import (
    BitstringFamily,
    forest_partition_coloring,
    random_coloring,
    sierpinski_coloring,
)
from hcramsey.graphs import (
    EdgeColoring,
    Graph,
    all_pairs,
    brute_force_kappa,
    connectivity_table,
    induced_color_graph,
    is_kappa_connected,
    is_kappa_connected_mask,
    star_masks,
)
from hcramsey.search import (
    AVOIDING,
    ENUMERATION_LIMIT,
    EXHAUSTED,
    PATTERN_LIMIT,
    UNKNOWN,
    SearchOutcome,
    _backtrack,
    arrow_check,
    enumerate_all_colorings,
    exists_avoiding_coloring,
    minimal_connected_graphs,
    pattern_table,
    ramsey_number,
)

from conftest import graphs_on, two_pentagons_coloring


def spans_member(fl, mask):
    """Whether the graph of mask contains a member of fl as a spanning
    subgraph."""
    return any(fm & mask == fm for fm in fl.masks)


def per_mask_minimal(m, kappa):
    """The edge-minimal masks found one mask at a time: a mask whose table
    entry meets min(kappa, m) and none of whose one-edge deletions does."""
    table = connectivity_table(m)
    threshold = min(kappa, m)
    masks = []
    for mask, value in enumerate(table):
        if value < threshold:
            continue
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            if table[mask ^ bit] >= threshold:
                break
        else:
            masks.append(mask)
    return masks


class TestMinimalConnectedGraphs:
    def test_3_2_is_triangle(self):
        fl = minimal_connected_graphs(3, 2)
        assert [Graph.from_mask(3, fm) for fm in fl.masks] == [Graph.complete(3)]

    def test_4_2_is_the_three_labeled_4cycles(self):
        fl = minimal_connected_graphs(4, 2)
        assert len(fl.masks) == 3
        for fm in fl.masks:
            assert fm.bit_count() == 4
            assert all((fm & star).bit_count() == 2 for star in star_masks(4))

    def test_3_1_is_the_three_paths(self):
        fl = minimal_connected_graphs(3, 1)
        assert len(fl.masks) == 3
        assert all(fm.bit_count() == 2 for fm in fl.masks)

    def test_kappa_equals_m_gives_complete(self):
        for m in (3, 4, 5):
            fl = minimal_connected_graphs(m, m)
            assert [Graph.from_mask(m, fm) for fm in fl.masks] == [Graph.complete(m)]

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_spanning_trees_are_cayley_counted(self, m):
        # The edge-minimal connected graphs are the spanning trees:
        # m^(m-2) of them on m labeled vertices (Cayley).
        assert len(minimal_connected_graphs(m, 1).masks) == m ** (m - 2)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="enumeration size limit"):
            minimal_connected_graphs(8, 2)

    @pytest.mark.parametrize("m", range(7))
    def test_matches_the_per_mask_scan(self, m):
        for kappa in range(1, m + 2):
            masks = minimal_connected_graphs(m, kappa).masks
            assert list(masks) == per_mask_minimal(m, kappa), (m, kappa)

    def test_m7_lists(self):
        # m <= 6 ascend as the per-mask scan does; m = 7 is too slow for it.
        for kappa in range(1, 9):
            masks = minimal_connected_graphs(7, kappa).masks
            assert all(a < b for a, b in zip(masks, masks[1:])), kappa
        assert len(minimal_connected_graphs(7, 2).masks) == 3951
        assert minimal_connected_graphs(7, 7).masks == ((1 << 21) - 1,)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_spanning_iff_connected_exhaustive(self, m):
        for kappa in range(1, m + 1):
            fl = minimal_connected_graphs(m, kappa)
            for mask, g in enumerate(graphs_on(m)):
                assert spans_member(fl, mask) == is_kappa_connected(g, kappa)[0]

    def test_spanning_iff_connected_sampled_m6(self):
        rng = random.Random(606)
        masks = [rng.randrange(1 << 15) for _ in range(300)]
        for kappa in range(1, 7):
            fl = minimal_connected_graphs(6, kappa)
            for mask in masks:
                g = Graph.from_mask(6, mask)
                assert spans_member(fl, mask) == is_kappa_connected(g, kappa)[0]

    def test_members_are_minimal(self):
        fl = minimal_connected_graphs(5, 2)
        for fm in fl.masks:
            assert is_kappa_connected(Graph.from_mask(5, fm), 2)[0]
            rest = fm
            while rest:
                bit = rest & -rest
                rest ^= bit
                assert not is_kappa_connected(Graph.from_mask(5, fm ^ bit), 2)[0]


class TestArrowCheck:
    def test_constant_coloring_complete_witness(self):
        c = EdgeColoring.constant(6, 2, 0)
        w = arrow_check(c, 6, 6)
        assert w is not None
        assert w.color == 0 and w.vertices == (0, 1, 2, 3, 4, 5)

    def test_forest_partition_has_no_witness(self):
        assert arrow_check(forest_partition_coloring(6), 2, 3) is None

    def test_two_pentagons_triangle_free(self):
        assert arrow_check(two_pentagons_coloring(), 3, 3) is None

    def test_at_least_mode_sweeps_sizes(self):
        c = EdgeColoring.constant(5, 1, 0)
        w = arrow_check(c, 1, 3, mode="atLeast")
        assert w is not None and len(w.vertices) == 3

    def test_bad_m(self):
        with pytest.raises(ValueError, match="need m >= 1, got m=0"):
            arrow_check(EdgeColoring.constant(3, 1, 0), 1, 0)
        # No 4-set exists in K_3, so there is no witness.
        assert arrow_check(EdgeColoring.constant(3, 1, 0), 1, 4) is None
        assert arrow_check(EdgeColoring.constant(3, 1, 0), 1, 4, "atLeast") is None

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="unknown mode 'atMost'"):
            arrow_check(EdgeColoring.constant(3, 1, 0), 1, 3, "atMost")

    def test_negative_kappa_is_refused(self):
        # Refused even where no m-set exists, before any subset is read.
        for m in (3, 4):
            with pytest.raises(ValueError, match=re.escape("need kappa >= 0, got kappa=-2")):
                arrow_check(EdgeColoring.constant(3, 1, 0), -2, m)
        assert arrow_check(EdgeColoring.constant(3, 2, 1), 0, 3).color == 0

    def test_witness_reverified_by_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            n, k = rng.randrange(4, 7), rng.randrange(1, 3)
            kappa, m = rng.randrange(1, 4), rng.randrange(2, 5)
            if m > n:
                continue
            c = EdgeColoring(n, k, tuple(rng.randrange(k) for _ in all_pairs(n)))
            w = arrow_check(c, kappa, m)
            if w is not None:
                sub = induced_color_graph(c, w.color, w.vertices)
                g = sub.graph
                assert brute_force_kappa(g) >= kappa or g.is_complete()

    def test_monotone_in_kappa(self):
        rng = random.Random(6)
        for _ in range(20):
            c = EdgeColoring(5, 2, tuple(rng.randrange(2) for _ in all_pairs(5)))
            w = arrow_check(c, 2, 3)
            if w is not None:
                for smaller in (1, 2):
                    sub = induced_color_graph(c, w.color, w.vertices)
                    assert is_kappa_connected(sub.graph, smaller)[0]
                assert arrow_check(c, 1, 3) is not None


def _arrow_grid():
    """Seeded colorings x kappa 1..4 x every m x both modes: covers sets of
    at most kappa+1 vertices and kappa > m."""
    rng = random.Random(2019)
    for seed in range(60):
        n, k = rng.randrange(2, 8), rng.randrange(1, 4)
        c = random_coloring(n, k, seed)
        for kappa in range(1, 5):
            for m in range(1, n + 1):
                for mode in ("exact", "atLeast"):
                    yield c, kappa, m, mode


def _brute_first_witness(c, kappa, m, mode):
    """(color, subset) of the first monochromatic set, in arrow_check's
    order, whose color class the deletion oracle rates >= min(kappa, size);
    the class is read pair by pair with color_of."""
    sizes = [m] if mode == "exact" else range(m, c.n + 1)
    for size in sizes:
        local = all_pairs(size)
        for subset in itertools.combinations(range(c.n), size):
            for xi in range(c.k):
                g = Graph.from_edges(size, [
                    (i, j) for i, j in local if c.color_of(subset[i], subset[j]) == xi
                ])
                if brute_force_kappa(g) >= min(kappa, size):
                    return xi, subset
    return None


def test_arrow_check_matches_brute_first_witness():
    small = beyond_m = 0
    for c, kappa, m, mode in _arrow_grid():
        w = arrow_check(c, kappa, m, mode)
        found = None if w is None else (w.color, w.vertices)
        assert found == _brute_first_witness(c, kappa, m, mode), (c, kappa, m, mode)
        small += w is not None and len(w.vertices) <= kappa + 1
        beyond_m += kappa > m
    assert small and beyond_m


def _many_color_cases():
    """Colorings with more colors than _arrow_grid's k <= 3, where most
    color classes on a small set have too few edges to pass."""
    colorings = [sierpinski_coloring(BitstringFamily.full(3))]
    colorings += [random_coloring(9, 6, seed) for seed in range(3)]
    for c in colorings:
        for kappa in range(1, 4):
            for m in range(2, 5):
                for mode in ("exact", "atLeast"):
                    yield c, kappa, m, mode


def test_arrow_check_with_many_colors_matches_brute_first_witness():
    sierpinski = next(_many_color_cases())[0]
    assert (sierpinski.n, sierpinski.k) == (8, 6)
    missing = 0
    for c, kappa, m, mode in _many_color_cases():
        w = arrow_check(c, kappa, m, mode)
        found = None if w is None else (w.color, w.vertices)
        assert found == _brute_first_witness(c, kappa, m, mode), (c, kappa, m, mode)
        missing += w is None
    assert missing


def _assert_matches_brute(c, kappa, m):
    """arrow_check agrees with _brute_first_witness in both modes; returns
    the exact-mode witness."""
    found = {}
    for mode in ("exact", "atLeast"):
        w = arrow_check(c, kappa, m, mode)
        found[mode] = w
        got = None if w is None else (w.color, w.vertices)
        assert got == _brute_first_witness(c, kappa, m, mode), (c, kappa, m, mode)
    return found["exact"]


class TestArrowCheckLiveSet:
    """arrow_check enumerates only vertices in some color's degree core;
    each case is one where that live set is empty, full or in between."""

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_forest_colorings_have_an_empty_live_set(self, n, monkeypatch):
        # Every color class is a tree, whose 2-core is empty.
        c = forest_partition_coloring(n)
        calls = []
        monkeypatch.setattr(search_module, "_passing_sets", lambda *args: calls.append(args))
        for mode in ("exact", "atLeast"):
            assert arrow_check(c, 2, 3, mode) is None
        assert calls == []
        monkeypatch.undo()
        _assert_matches_brute(c, 2, 3)

    def test_kappa_zero_keeps_every_vertex_and_empty_classes(self):
        # Color 1 is never used, yet its empty class on one vertex, or on
        # a pair that color 0 joins, is 0-connected.
        c = EdgeColoring.constant(5, 2, 0)
        for m in (1, 2, 3):
            w = _assert_matches_brute(c, 0, m)
            assert (w.color, w.vertices) == (0, tuple(range(m)))
        c = EdgeColoring.constant(4, 2, 1)
        assert _assert_matches_brute(c, 0, 2).color == 0
        for seed in range(10):
            c = random_coloring(6, 3, seed)
            for m in (1, 2, 4, 6):
                assert _assert_matches_brute(c, 0, m) is not None

    def test_complete_witness_classes(self):
        # kappa >= m - 1 asks for need = m - 1: a monochromatic K_m.
        found = 0
        for seed in range(8):
            c = random_coloring(8, 2, seed)
            for kappa, m in ((2, 3), (3, 4), (7, 4)):
                w = _assert_matches_brute(c, kappa, m)
                if w is not None:
                    sub = induced_color_graph(c, w.color, w.vertices).graph
                    assert sub.is_complete()
                    found += len(w.vertices) == 4
        assert found

    def test_random_two_and_three_colorings(self):
        rng = random.Random(21)
        for _ in range(40):
            n, k = rng.randrange(3, 10), rng.choice([2, 3])
            c = random_coloring(n, k, rng.randrange(1 << 30))
            _assert_matches_brute(c, rng.randrange(1, 4), rng.randrange(2, min(n, 5) + 1))

    def test_forest_on_200_vertices_decides_nothing(self, monkeypatch):
        # Each stand-in counts its call and raises, so that a sweep over
        # the subsets of K_200 fails at once instead of running on.
        calls = []

        def counted(name):
            def stand_in(*args):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return stand_in

        for name in ("_passing_sets", "is_kappa_connected_mask"):
            monkeypatch.setattr(search_module, name, counted(name))
        assert arrow_check(forest_partition_coloring(200), 2, 3, "atLeast") is None
        assert calls == []


def _scan_first_witness(c, kappa, m, mode, decide):
    """The subset scan arrow_check replaced, kept as separate code: every
    size-set of the live vertices (those in some color's min(kappa,
    size-1)-core) in lexicographic order, its colors read into one edge
    mask each, a class kept only when it has enough edges and every
    vertex has enough neighbours in it, then decide(size, mask, kappa)
    per kept class, colors ascending.  Returns (color, subset, verdict)
    of the first class decide accepts, or None.

    Only color 0 and the colors in use are scanned.  An unused color's
    class is empty: with need >= 1 it never passes, and with need = 0
    every class passes, so color 0, scanned first, is the witness."""
    n, colors = c.n, c.colors
    if m > n:
        return None
    index = {p: i for i, p in enumerate(all_pairs(n))}
    palette = sorted({0, *colors} & set(range(c.k)))
    nbrs = {xi: [0] * n for xi in palette}
    for (u, v), xi in zip(all_pairs(n), colors):
        nbrs[xi][u] |= 1 << v
        nbrs[xi][v] |= 1 << u
    sizes = [m] if mode == "exact" else range(m, n + 1)
    for size in sizes:
        need = min(kappa, size - 1)
        live = set()
        for adj in nbrs.values():
            core = set(range(n))
            while True:
                low = {v for v in core if sum(adj[v] >> u & 1 for u in core) < need}
                if not low:
                    break
                core -= low
            live |= core
        if size > len(live):
            break
        least = (need * size + 1) // 2
        stars = star_masks(size)
        for subset in itertools.combinations(sorted(live), size):
            masks = dict.fromkeys(palette, 0)
            for i, (u, v) in enumerate(itertools.combinations(subset, 2)):
                masks[colors[index[u, v]]] |= 1 << i
            for xi, mask in masks.items():
                if mask.bit_count() < least:
                    continue
                if any((mask & star).bit_count() < need for star in stars):
                    continue
                ok, verdict = decide(size, mask, kappa)
                if ok:
                    return xi, subset, verdict
    return None


def _recorder(calls, decide=is_kappa_connected_mask):
    """decide, logging the arguments of every call."""
    def logged(*args):
        calls.append(args)
        return decide(*args)
    return logged


def _refuse(*args):
    return False, None


def _assert_matches_scan(c, kappa, m, mode, monkeypatch, decide=is_kappa_connected_mask):
    """arrow_check's witness, verdict and decide calls equal the scan's;
    returns the witness and the calls."""
    got, want = [], []
    monkeypatch.setattr(search_module, "is_kappa_connected_mask", _recorder(got, decide))
    w = arrow_check(c, kappa, m, mode)
    monkeypatch.undo()
    found = None if w is None else (w.color, w.vertices, w.verdict)
    assert found == _scan_first_witness(c, kappa, m, mode, _recorder(want, decide)), (
        c, kappa, m, mode)
    assert got == want, (c, kappa, m, mode)
    return w, got


def test_arrow_check_matches_the_subset_scan(monkeypatch):
    rng = random.Random(2718)
    refused = witnesses = misses = leaves = 0
    for _ in range(1500):
        n, k = rng.randrange(1, 12), rng.randrange(1, 5)
        c = EdgeColoring(n, k, tuple(rng.randrange(k) for _ in all_pairs(n)))
        m = rng.randrange(1, 8)
        kappa = rng.randrange(m + 1)
        for mode in ("exact", "atLeast"):
            w, calls = _assert_matches_scan(c, kappa, m, mode, monkeypatch)
            refused += sum(not is_kappa_connected_mask(*args)[0] for args in calls)
            witnesses += w is not None
            misses += w is None
        # With every class turned down, both list every class that passes
        # the degree bound.
        leaves += len(_assert_matches_scan(c, kappa, m, "exact", monkeypatch, _refuse)[1])
    assert refused > 20 and witnesses > 1000 and misses > 1000 and leaves > 50000


def test_arrow_check_ignores_unused_colors_in_the_header(monkeypatch):
    # The same pairs under headers of 3, 4 and 10**4 colors give the same
    # witnesses, and the header's unused colors get no core.
    core = search_module._core
    for seed in range(12):
        n = 5 + seed % 3
        colors = random_coloring(n, 3, seed).colors
        found, cores = {}, {}
        for k in (3, 4, 10**4):
            calls = []
            monkeypatch.setattr(search_module, "_core", lambda *a: calls.append(a) or core(*a))
            found[k] = [
                arrow_check(EdgeColoring(n, k, colors), kappa, m, mode)
                for kappa in range(4)
                for m in range(1, n + 1)
                for mode in ("exact", "atLeast")
            ]
            monkeypatch.undo()
            cores[k] = len(calls)
        assert found[3] == found[4] == found[10**4], seed
        assert cores[3] == cores[4] == cores[10**4] > 0, (seed, cores)
        assert found[3][0].color == 0  # kappa 0, a 1-set: color 0 first
    # With no colors at all there is no color 0 either.
    assert arrow_check(EdgeColoring(1, 0, ()), 0, 1) is None


def _paley_17():
    """Pairs whose difference is a nonzero square mod 17 get color 0."""
    squares = {x * x % 17 for x in range(1, 17)}
    return EdgeColoring(17, 2, tuple(int((b - a) % 17 not in squares) for a, b in all_pairs(17)))


def _greenwood_gleason():
    """K_16 on GF(16) = GF(2)[x] / (x^4 + x + 1): the pair {a, b} gets the
    discrete log of a + b (base x) mod 3."""
    log, power = {}, 1
    for e in range(15):
        log[power] = e
        power <<= 1
        if power & 16:
            power ^= 0b10011
    return EdgeColoring(16, 3, tuple(log[a ^ b] % 3 for a, b in all_pairs(16)))


def _circulant(n, k, diff_colors):
    """The pair {a, b} gets diff_colors[d - 1], d = min(|a-b|, n-|a-b|)."""
    return EdgeColoring(n, k, tuple(
        diff_colors[min(b - a, n - b + a) - 1] for a, b in all_pairs(n)
    ))


@pytest.mark.parametrize("c, kappa, m", [
    # R(4,4) = 18: Paley(17) has no monochromatic K_4.
    (_paley_17(), 3, 4),
    # R(3,3,3) = 17: neither has a monochromatic triangle.
    (_greenwood_gleason(), 2, 3),
    (_circulant(14, 3, (0, 1, 1, 0, 2, 2, 0)), 2, 3),
], ids=["paley17", "greenwood-gleason16", "circulant14"])
def test_structured_colorings_avoid(c, kappa, m, monkeypatch):
    w, _ = _assert_matches_scan(c, kappa, m, "exact", monkeypatch)
    assert w is None
    # Larger sets have more room: each has a kappa-connected class on
    # m + 1 vertices.
    w, _ = _assert_matches_scan(c, kappa, m, "atLeast", monkeypatch)
    assert len(w.vertices) == m + 1


def test_arrow_check_witness_digest_is_stable():
    # Pins witness color, vertex set and certificate over the grid.
    h = hashlib.sha256()
    for c, kappa, m, mode in _arrow_grid():
        w = arrow_check(c, kappa, m, mode)
        h.update(repr(None if w is None else (w.color, w.vertices, w.verdict)).encode())
    assert h.hexdigest()[:12] == "e6709b7dca74"


class TestExistsAvoidingColoring:
    def test_n5_triangle_avoider_exists(self):
        out = exists_avoiding_coloring(5, 3, 3, 2)
        assert out.kind == AVOIDING
        assert arrow_check(out.coloring, 3, 3) is None

    def test_n6_exhausted(self):
        out = exists_avoiding_coloring(6, 3, 3, 2)
        assert out.kind == EXHAUSTED
        assert out.coloring is None

    def test_single_coloring_of_k3_connected(self):
        assert exists_avoiding_coloring(3, 3, 1, 1).kind == EXHAUSTED

    def test_budget_gives_unknown(self):
        out = exists_avoiding_coloring(6, 3, 3, 2, node_budget=3)
        assert out.kind == UNKNOWN

    def test_completeness_small_grid(self):
        # spot sample; the full n <= 5 grid runs in the acceptance suite
        for n, m, kappa, k in [(4, 3, 2, 2), (4, 4, 1, 2), (5, 3, 3, 2), (3, 2, 1, 2)]:
            literal = any(
                arrow_check(c, kappa, m) is None
                for c in enumerate_all_colorings(n, k)
            )
            for vertex in (True, False):
                out = exists_avoiding_coloring(n, m, kappa, k, _vertex=vertex)
                assert (out.kind == AVOIDING) == literal, vertex

    def test_hierarchy_witness_reuse(self):
        # n = 6 proves the highly-connected arrow at m = 3; the same
        # exhaustion must hold for every kappa <= 3
        for kappa in (1, 2, 3):
            assert exists_avoiding_coloring(6, 3, kappa, 2).kind == EXHAUSTED

    @pytest.mark.parametrize("records", [
        lambda: [exists_avoiding_coloring(5, 3, 3, 2)],
        lambda: [exists_avoiding_coloring(6, 3, 3, 2)],
        lambda: [exists_avoiding_coloring(6, 3, 3, 2, node_budget=3)],
        lambda: [POOL_RECORD],
        lambda: list(ramsey_number(3, 2, 3, 14, node_budget=3_000).outcomes.values()),
    ], ids=["avoiding", "exhausted", "unknown", "workers-2", "sweep"])
    def test_outcome_json_round_trip(self, records):
        # A manifest line must give back the record it was written from.  A
        # line the process pool wrote still loads, and writes back as the
        # one process that searches now.
        for out in records():
            if isinstance(out, dict):
                loaded = SearchOutcome.from_json_dict(out)
                assert loaded.to_json_dict() == {**out, "workers": 1}
                continue
            data = json.loads(json.dumps(out.to_json_dict()))
            assert SearchOutcome.from_json_dict(data) == out


# exists_avoiding_coloring(6, 3, 3, 2, workers=2) as the process pool wrote
# it: two prefixes, each counting the shared first node.
POOL_RECORD = {
    "params": {"n": 6, "m": 3, "kappa": 3, "k": 2},
    "result": "exhausted",
    "coloring": None,
    "stats": {"nodes": 54, "forbidden_prunes": 20, "wall_time": 0.036357750999741256},
    "workers": 2,
}


# (n, m, kappa, k) -> (kind, nodes, forbidden_prunes).  Any way of checking
# the m-sets completed at a position must reproduce these exactly; checking
# only the newly assigned edge's color changes every row but (6, 3, 3, 2).
PINNED_SEARCH_COUNTS = {
    (6, 3, 3, 2): (EXHAUSTED, 325, 163),
    (6, 3, 1, 2): (EXHAUSTED, 7, 4),
    (7, 4, 2, 2): (EXHAUSTED, 1675, 838),
    (7, 5, 1, 2): (EXHAUSTED, 1023, 512),
    (8, 5, 1, 3): (AVOIDING, 1102, 723),
    (7, 6, 2, 2): (AVOIDING, 92, 40),
}


@pytest.mark.parametrize("params", sorted(PINNED_SEARCH_COUNTS))
def test_pinned_search_counts(params):
    out = exists_avoiding_coloring(*params, _vertex=False)
    assert (out.kind, out.stats.nodes, out.stats.forbidden_prunes) == (
        PINNED_SEARCH_COUNTS[params]
    )
    if out.kind == AVOIDING:
        n, m, kappa, k = params
        assert arrow_check(out.coloring, kappa, m) is None


# The same rows and more with the vertex floor, as the search runs by default.
PINNED_SEARCH_COUNTS_FLOOR = {
    (6, 3, 3, 2): (EXHAUSTED, 53, 20),
    (6, 3, 1, 2): (EXHAUSTED, 6, 3),
    (7, 4, 2, 2): (EXHAUSTED, 102, 36),
    (7, 5, 1, 2): (EXHAUSTED, 135, 45),
    (8, 5, 1, 3): (AVOIDING, 129, 56),
    (7, 6, 2, 2): (AVOIDING, 45, 10),
    (7, 5, 2, 2): (EXHAUSTED, 465, 161),
    (6, 6, 1, 2): (EXHAUSTED, 897, 324),
    (8, 6, 2, 2): (EXHAUSTED, 3084, 1136),
    (9, 5, 1, 3): (EXHAUSTED, 12252, 6897),
    (10, 4, 2, 3): (AVOIDING, 14412, 9417),
}


@pytest.mark.parametrize("params", sorted(PINNED_SEARCH_COUNTS_FLOOR))
def test_pinned_search_counts_with_the_floor(params):
    out = exists_avoiding_coloring(*params)
    assert (out.kind, out.stats.nodes, out.stats.forbidden_prunes) == (
        PINNED_SEARCH_COUNTS_FLOOR[params]
    )
    if out.kind == AVOIDING:
        n, m, kappa, k = params
        assert arrow_check(out.coloring, kappa, m) is None


# (n, m, kappa, k, budget) -> (kind, nodes, forbidden_prunes), pinned from
# the search that read each completed m-set's pattern with a Horner loop.
# They reach positions far from 0, where a position completes hundreds of
# m-sets, with cells 2 bytes wide (m=5), 1 byte (m=4) and 4 bytes (m=7).
PINNED_BUDGET_COUNTS = {
    (20, 5, 4, 2, 20_000): (UNKNOWN, 20_001, 8_032),
    (30, 4, 3, 2, 20_000): (UNKNOWN, 20_001, 9_113),
    (10, 7, 2, 2, 3_000): (UNKNOWN, 3_001, 1_145),
}


@pytest.mark.parametrize("params", sorted(PINNED_BUDGET_COUNTS))
def test_pinned_budgeted_counts_far_from_the_first_position(params):
    out = exists_avoiding_coloring(*params[:4], node_budget=params[4])
    assert (out.kind, out.stats.nodes, out.stats.forbidden_prunes) == (
        PINNED_BUDGET_COUNTS[params]
    )


def _first_completing_bad_set(c, m, kappa):
    """The first colex position of c whose pair completes an m-set with a
    kappa-connected color class, or None.  Each class of each set is
    decided by the flow certificate, without pattern_table."""
    row = _rows(c)
    pos = 0
    for b in range(c.n):
        for a in range(b):
            for rest in itertools.combinations(range(a), m - 2):
                masks = [0] * c.k
                for i, (x, y) in enumerate(itertools.combinations(rest + (a, b), 2)):
                    masks[row[x][y]] |= 1 << i
                if any(is_kappa_connected_mask(m, mask, kappa)[0] for mask in masks):
                    return pos
            pos += 1
    return None


# Every (m, k) with m 2..7 and k 1..4 that PATTERN_LIMIT admits.  A cell is
# 1 byte for k^(C(m,2)-1) <= 2^8, as at (3, 3) and (4, 3); 2 bytes up to
# 2^16, as at (5, 2), (5, 3) and (6, 2); else 4, as at (7, 2) and (5, 4).
ORACLE_CASES = [(m, k) for m in range(2, 8) for k in range(1, 5)
                if k ** (m * (m - 1) // 2) <= PATTERN_LIMIT]


@pytest.mark.parametrize("m, k", ORACLE_CASES)
def test_search_prunes_at_the_first_position_the_oracle_finds(m, k):
    # A prefix of every position pins one coloring, and vertex=False asks
    # nothing more of it, so the search tries one color per position and
    # stops at the first that completes a bad m-set.
    rng = random.Random(1814 * m + k)
    try:
        for kappa in range(1, m + 1):
            for _ in range(5):
                n = rng.randint(max(m - 1, 1), 11)
                c = EdgeColoring(n, k, tuple(rng.randrange(k) for _ in all_pairs(n)))
                (out,) = _backtrack(n, m, kappa, k, None, prefix=_colex(c), vertex=False)
                first = _first_completing_bad_set(c, m, kappa)
                if first is None:
                    want = (AVOIDING, n * (n - 1) // 2, 0)
                else:
                    want = (EXHAUSTED, first + 1, 1)
                assert (out.kind, out.stats.nodes, out.stats.forbidden_prunes) == want, (
                    n, kappa, c.colors)
    finally:
        if k ** (m * (m - 1) // 2) > 1 << 20:  # (6, 3) tables are 14 MB each
            pattern_table.cache_clear()


def _rows(c):
    """The color matrix of c, with None on the diagonal."""
    row = [[None] * c.n for _ in range(c.n)]
    for (a, b), color in zip(all_pairs(c.n), c.colors):
        row[a][b] = row[b][a] = color
    return row


def _colex(c):
    """The colors of c in colex pair order, the order the search assigns."""
    row = _rows(c)
    return tuple(row[a][b] for b in range(c.n) for a in range(b))


def _first_use(seq):
    """Whether each color of seq first appears after every smaller one."""
    seen = 0
    for color in seq:
        if color > seen:
            return False
        seen = max(seen, color + 1)
    return True


def _rows_ordered(c):
    """sb_l, checked from the rows themselves: row i of the color matrix is
    lexicographically at most row i+1, leaving out columns i and i+1."""
    row = _rows(c)
    for i in range(c.n - 1):
        rest = [j for j in range(c.n) if j not in (i, i + 1)]
        if [row[i][j] for j in rest] > [row[i + 1][j] for j in rest]:
            return False
    return True


def _breaks_symmetry(c, vertex=True):
    """Whether c satisfies first use, in colex order, and, with `vertex`, sb_l."""
    return _first_use(_colex(c)) and (not vertex or _rows_ordered(c))


def _colorings_breaking_symmetry(n, k, vertex):
    """Every k-coloring of K_n that breaks symmetry, in the order of their
    colex color sequences."""
    lex = {p: e for e, p in enumerate(all_pairs(n))}
    colex = [lex[a, b] for b in range(n) for a in range(b)]
    for seq in itertools.product(range(k), repeat=len(colex)):
        if not _first_use(seq):
            continue
        colors = [0] * len(seq)
        for e, color in zip(colex, seq):
            colors[e] = color
        c = EdgeColoring(n, k, tuple(colors))
        if not vertex or _rows_ordered(c):
            yield c


@pytest.mark.parametrize("n, k", [(4, 2), (4, 3), (5, 2)])
def test_floor_admits_exactly_the_colorings_with_ordered_rows(n, k):
    # With m = n + 1 no m-set is ever completed, and a prefix of every
    # position pins one coloring (first use is not asked of a prefix), so
    # the search reaches K_n exactly when the floor admits each color.
    for c in enumerate_all_colorings(n, k):
        (out,) = _backtrack(n, n + 1, 1, k, None, prefix=_colex(c))
        assert out.kind == (AVOIDING if _rows_ordered(c) else EXHAUSTED), c
        assert out.coloring in (None, c)


@pytest.mark.parametrize("n, k", [(4, 2), (4, 3), (5, 2), (6, 2)])
def test_lex_least_coloring_of_each_orbit_breaks_both_symmetries(n, k):
    # Why the search is sound: first use and sb_l are lex-leader constraints
    # under the one order of colex color sequences, so the least coloring
    # of every orbit under relabeling and recoloring satisfies both.
    pairs = all_pairs(n)
    index = {p: e for e, p in enumerate(pairs)}
    relabels = [[index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
                for perm in itertools.permutations(range(n))]
    recolors = list(itertools.permutations(range(k)))
    done = set()
    orbits = 0
    for c in enumerate_all_colorings(n, k):
        if c.colors in done:
            continue
        orbit = {tuple(recolor[c.colors[e]] for e in relabel)
                 for relabel in relabels for recolor in recolors}
        done |= orbit
        least = min((EdgeColoring(n, k, colors) for colors in orbit), key=_colex)
        assert _breaks_symmetry(least), least
        orbits += 1
    assert len(done) == k ** len(pairs) and orbits > 1


@pytest.mark.parametrize("n, k, vertex", [
    (4, 2, True), (5, 2, True), (6, 2, True), (4, 3, True), (5, 3, True),
    (4, 2, False), (5, 2, False), (4, 3, False),
])
def test_search_finds_the_least_avoiding_coloring_that_breaks_symmetry(n, k, vertex):
    # The loop tries colors upward in colex order and prunes only m-sets
    # that no completion can save, so its coloring is the least avoiding one
    # that breaks symmetry, and it is exhausted when there is none.  The
    # colorings that break symmetry are found here by comparing rows, not
    # by the search's floor.
    kept = list(_colorings_breaking_symmetry(n, k, vertex))
    for m in range(3, n + 1):
        for kappa in range(1, m):
            want = next((c for c in kept if arrow_check(c, kappa, m) is None), None)
            out = exists_avoiding_coloring(n, m, kappa, k, _vertex=vertex)
            assert out.coloring == want, (m, kappa)
            assert out.kind == (EXHAUSTED if want is None else AVOIDING)


@pytest.mark.parametrize("m, kappa, k, n_max, value, nodes", [
    # R_1(m; 2) = m: a graph or its complement is connected.
    (3, 1, 2, 3, 3, 6),
    (4, 1, 2, 4, 4, 28),
    (5, 1, 2, 5, 5, 135),
    (6, 1, 2, 6, 6, 897),
    # R_1(3; 3) = 5, R_1(4; 3) = 6 and R_1(5; 3) = 9 (Gyarfas 1977).
    (3, 1, 3, 5, 5, 28),
    (4, 1, 3, 6, 6, 426),
    (5, 1, 3, 9, 9, 12252),
    # R(3, 3) = 6: on three vertices, 2- and 3-connected mean a triangle.
    (3, 2, 2, 6, 6, 53),
    (3, 3, 2, 6, 6, 53),
    # No literature value; the seed's unbudgeted search gave 7.
    (5, 2, 2, 7, 7, 465),
])
def test_literature_panel(m, kappa, k, n_max, value, nodes):
    # Unbudgeted, in the default mode; each takes at most about 0.02 s.
    result = ramsey_number(m, kappa, k, n_max)
    assert (result.status, result.value) == ("determined", value)
    assert result.outcomes[value].stats.nodes == nodes
    for n in range(m, value):
        c = result.outcomes[n].coloring
        assert arrow_check(c, kappa, m) is None


def _pattern_value(table, m, k, p):
    """Largest connectivity_table entry over the color classes of the
    coloring coded by p: digit j of p in base k is the color of pair j.
    A color that codes no pair has the empty class, whose entry is 0."""
    masks = {}
    for j in range(m * (m - 1) // 2):
        p, color = divmod(p, k)
        masks[color] = masks.get(color, 0) | 1 << j
    return max(table[mask] for mask in masks.values())


def _small_pattern_cases():
    """(m, k) with k^C(m,2) <= 3^10; for m = 2 only k <= 64, since the m = 2
    tables hold k entries each and k would run to 3^10."""
    for m in range(2, 8):
        k = 1
        while k ** (m * (m - 1) // 2) <= 3**10 and (m > 2 or k <= 64):
            yield m, k
            k += 1


@pytest.mark.parametrize("m", range(2, 8))
def test_pattern_table_matches_decoded_masks(m):
    table = connectivity_table(m)
    assert table[0] == 0
    for mm, k in _small_pattern_cases():
        if mm != m:
            continue
        values = [_pattern_value(table, m, k, p) for p in range(k ** (m * (m - 1) // 2))]
        for kappa in range(1, m + 1):
            want = bytes(value >= kappa for value in values)
            cols = pattern_table(m, kappa, k)
            assert len(cols) == k, (m, kappa, k)
            assert {len(col) for col in cols} == {len(want) // k}, (m, kappa, k)
            assert b"".join(cols) == want, (m, kappa, k)


# sha256 prefixes of b"".join(pattern_table(m, 2, k)) for the tables too
# large to check whole against the decoder.
SAMPLED_TABLE_DIGESTS = {(6, 3): "5bc26038fa6d0224", (7, 2): "9551dedf8718b324"}


@pytest.mark.parametrize("m, k", SAMPLED_TABLE_DIGESTS)
def test_pattern_table_sampled(m, k):
    table = connectivity_table(m)
    cols = pattern_table(m, 2, k)
    width = k ** (m * (m - 1) // 2 - 1)
    assert [len(col) for col in cols] == [width] * k
    rng = random.Random(8 * m + k)
    for _ in range(2000):
        p = rng.randrange(width * k)
        assert cols[p // width][p % width] == (_pattern_value(table, m, k, p) >= 2), p
    assert hashlib.sha256(b"".join(cols)).hexdigest()[:16] == SAMPLED_TABLE_DIGESTS[m, k]


def test_pattern_table_cache_holds_a_bounded_number_of_tables():
    # Searches of more distinct (m, min(kappa, m), k) than the bound keep
    # only the last tables built.
    bound = pattern_table.cache_info().maxsize
    assert bound is not None
    pattern_table.cache_clear()
    params = [(m, kappa, k) for m in (3, 4) for kappa in (1, 2, 3) for k in (1, 2)]
    assert len({(m, min(kappa, m), k) for m, kappa, k in params}) > bound
    for m, kappa, k in params:
        exists_avoiding_coloring(m + 1, m, kappa, k)
    info = pattern_table.cache_info()
    assert info.currsize == bound
    assert info.misses == len(params)


def _refused_before_any_table(match, *args, search=exists_avoiding_coloring, **kwargs):
    before = connectivity_table.cache_info(), pattern_table.cache_info()
    with pytest.raises(ValueError, match=match):
        search(*args, **kwargs)
    after = connectivity_table.cache_info(), pattern_table.cache_info()
    assert [(c.hits, c.misses) for c in after] == [(c.hits, c.misses) for c in before]


@pytest.mark.parametrize("m, k", [(7, 3), (6, 4), (5, 6), (4, 17)])
def test_pattern_limit_refuses_before_building_a_table(m, k):
    assert k ** (m * (m - 1) // 2) > PATTERN_LIMIT
    assert (k - 1) ** (m * (m - 1) // 2) <= PATTERN_LIMIT
    _refused_before_any_table("size limit", m + 1, m, 1, k)


def test_m_above_the_table_limit_refuses_before_building_a_table():
    # One color gives a one-entry pattern table, within PATTERN_LIMIT, but
    # no connectivity table covers m = 8.
    _refused_before_any_table("size limit: connectivity tables cover m <= 7", 9, 8, 1, 1)


@pytest.mark.parametrize("args, match", [
    ((5, 4, 2, 17), "size limit: the pattern table"),
    ((9, 8, 1, 1), "connectivity tables cover m <= 7"),
    ((3, 2, 1, 65537), "size limit"),
])
def test_the_loop_called_directly_refuses_before_building_a_table(args, match):
    # The loop makes the search's checks itself, so a caller that skips
    # both wrappers gets the same refusals.
    assert inspect.isgeneratorfunction(_backtrack)
    _refused_before_any_table(match, *args, search=lambda *a: list(_backtrack(*a, None)))


def test_padded_columns_are_bounded_at_m_2():
    # At m = 2 each column is one byte, padded to 256 for bytes.translate:
    # 65,536 colors pad to 2^24 bytes and are searched, one more is refused.
    out = exists_avoiding_coloring(3, 2, 1, 65536)
    assert (out.kind, out.stats.nodes) == (EXHAUSTED, 1)
    _refused_before_any_table("size limit", 3, 2, 1, 65537)


@pytest.mark.parametrize("m, kappa, k, match", [
    (7, 1, 3, "size limit: the pattern table"),
    (4, 1, 17, "size limit: the pattern table"),
    (8, 1, 1, "size limit: connectivity tables cover m <= 7"),
])
def test_ramsey_number_refuses_before_building_a_table(m, kappa, k, match):
    _refused_before_any_table(match, m, kappa, k, m + 2, search=ramsey_number)


@pytest.mark.parametrize("search, args", [
    (exists_avoiding_coloring, (6, 3, 3, 2)),
    (ramsey_number, (3, 3, 2, 6)),
])
def test_negative_budget_is_refused_before_building_a_table(search, args):
    # Unchecked, -5 read as "unknown after 1 node".
    _refused_before_any_table("need node_budget >= 0", *args, node_budget=-5, search=search)


def test_zero_budget_is_unknown_after_one_node():
    out = exists_avoiding_coloring(6, 3, 3, 2, node_budget=0)
    assert (out.kind, out.stats.nodes) == (UNKNOWN, 1)
    result = ramsey_number(3, 3, 2, 6, node_budget=0)
    assert (result.status, list(result.outcomes)) == (UNKNOWN, [3])


# (n, m, kappa, k, workers) -> (kind, nodes, forbidden_prunes) of each prefix
# that the first-use split for `workers` processes gave, searched as a seed.
# The split extended every prefix one edge, in every color first use
# allows, until there were at least `workers` of them.
PINNED_PREFIX_COUNTS = {
    (6, 6, 1, 2, 2): {
        (0, 0): (EXHAUSTED, 16384, 8192),
        (0, 1): (EXHAUSTED, 16384, 8192),
    },
    (7, 4, 2, 2, 3): {
        (0, 0, 0): (EXHAUSTED, 261, 130),
        (0, 0, 1): (EXHAUSTED, 473, 236),
        (0, 1, 0): (EXHAUSTED, 473, 236),
        (0, 1, 1): (EXHAUSTED, 473, 236),
    },
    (8, 5, 1, 3, 2): {
        (0, 0): (AVOIDING, 1102, 723),
        (0, 1): (AVOIDING, 1231, 810),
    },
}


# The same with the vertex floor.  A prefix the floor rules out at its last position
# ends after the nodes of the positions before it: in (0, 1, 0), pair (1, 2)
# is below (0, 2), so row 0 exceeds row 1 in column 2, the first compared.
PINNED_PREFIX_COUNTS_FLOOR = {
    (6, 6, 1, 2, 2): {
        (0, 0): (EXHAUSTED, 847, 313),
        (0, 1): (EXHAUSTED, 51, 11),
    },
    (7, 4, 2, 2, 3): {
        (0, 0, 0): (EXHAUSTED, 47, 17),
        (0, 0, 1): (EXHAUSTED, 51, 17),
        (0, 1, 0): (EXHAUSTED, 2, 0),
        (0, 1, 1): (EXHAUSTED, 7, 2),
    },
    (8, 5, 1, 3, 2): {
        (0, 0): (AVOIDING, 129, 56),
        (0, 1): (EXHAUSTED, 3624, 2037),
    },
}


def _prefix_counts(n, m, kappa, k, prefixes, vertex):
    got = {}
    for prefix in prefixes:
        (out,) = _backtrack(n, m, kappa, k, None, prefix=prefix, vertex=vertex)
        got[prefix] = (out.kind, out.stats.nodes, out.stats.forbidden_prunes)
        if out.kind == AVOIDING:
            assert arrow_check(out.coloring, kappa, m) is None
    return got


@pytest.mark.parametrize("n, m, kappa, k, workers", sorted(PINNED_PREFIX_COUNTS))
def test_prefix_counts_searched_in_process(n, m, kappa, k, workers):
    want = PINNED_PREFIX_COUNTS[n, m, kappa, k, workers]
    assert _prefix_counts(n, m, kappa, k, want, False) == want


@pytest.mark.parametrize("n, m, kappa, k, workers", sorted(PINNED_PREFIX_COUNTS_FLOOR))
def test_prefix_counts_searched_in_process_with_the_floor(n, m, kappa, k, workers):
    want = PINNED_PREFIX_COUNTS_FLOOR[n, m, kappa, k, workers]
    assert _prefix_counts(n, m, kappa, k, want, True) == want


def test_every_j_is_read_off_at_one_site():
    # K_0 and K_1 are read off at position 0 before any node, and every
    # later K_j when the loop first colors all its edges.
    got = [(o.n, o.kind, o.stats.nodes, o.stats.forbidden_prunes)
           for o in _backtrack(7, 3, 3, 2, None, start=0, vertex=False)]
    assert got == [
        (0, AVOIDING, 0, 0),
        (1, AVOIDING, 0, 0),
        (2, AVOIDING, 1, 0),
        (3, AVOIDING, 4, 1),
        (4, AVOIDING, 12, 4),
        (5, AVOIDING, 47, 21),
        (6, EXHAUSTED, 325, 163),
    ]
    got = [(o.n, o.kind, o.stats.nodes, o.stats.forbidden_prunes)
           for o in _backtrack(7, 3, 3, 2, None, start=0)]
    assert got == [
        (0, AVOIDING, 0, 0),
        (1, AVOIDING, 0, 0),
        (2, AVOIDING, 1, 0),
        (3, AVOIDING, 4, 1),
        (4, AVOIDING, 10, 2),
        (5, AVOIDING, 29, 9),
        (6, EXHAUSTED, 53, 20),
    ]


def test_negative_n_is_refused_before_building_a_table():
    # C(-3, 2) = 6: without the check the search colored six bogus edges.
    _refused_before_any_table("need n >= 0", -3, 2, 1, 2)


@pytest.mark.parametrize("n", [0, 1])
def test_edgeless_n_is_avoiding_without_a_node(n):
    out = exists_avoiding_coloring(n, 3, 2, 2)
    assert (out.kind, out.stats.nodes, out.stats.forbidden_prunes) == (AVOIDING, 0, 0)
    assert out.coloring == EdgeColoring(n, 2, ())


def test_pattern_limit_admits_a_table_of_exactly_the_limit(monkeypatch):
    monkeypatch.setattr(search_module, "PATTERN_LIMIT", 3**6)
    assert exists_avoiding_coloring(4, 4, 2, 3).kind == AVOIDING
    with pytest.raises(ValueError, match="size limit"):
        exists_avoiding_coloring(4, 4, 2, 4)


def test_completion_index_is_built_as_the_search_reaches_it():
    # Cells are built only for the positions reached, and an 11-node search
    # reaches only the first few edges; listing all C(26, 6) = 230,230
    # completed m-sets up front took about 60 MB.
    tracemalloc.start()
    try:
        out = exists_avoiding_coloring(26, 6, 1, 2, node_budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.kind, out.stats.nodes) == (UNKNOWN, 11)
    assert peak < 2_000_000


def _status_and_value(result):
    return result.status, result.value


@pytest.mark.parametrize("search, expected", [
    (lambda: exists_avoiding_coloring(2000, 3, 2, 2, node_budget=10).kind, UNKNOWN),
    (lambda: _status_and_value(ramsey_number(3, 2, 2, 2000, node_budget=10)),
     (UNKNOWN, None)),
    (lambda: exists_avoiding_coloring(2000, 3, 2, 2).kind, EXHAUSTED),
    (lambda: _status_and_value(ramsey_number(3, 2, 2, 2000)), ("determined", 6)),
], ids=["exists_avoiding_coloring", "ramsey_number",
        "exists_avoiding_coloring-unbudgeted", "ramsey_number-unbudgeted"])
def test_budgeted_search_memory_follows_its_budget(search, expected):
    # K_2000 has 1,999,000 pairs; sorting them all and keeping five lists
    # of that length took hundreds of MB before an 11-node search stopped,
    # and lists sized by the budget still took 76 MiB for an unbudgeted
    # search that is settled inside K_6.
    tracemalloc.start()
    try:
        got = search()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 1 << 20


def _panel_counts_digest(vertex, panel=(
    (3, 3, 2, 6, None), (5, 2, 2, 9, None), (6, 1, 2, 8, None), (3, 2, 3, 14, 3_000),
)):
    """(kind, nodes, prunes, coloring) of every n searched by a panel of
    (m, kappa, k, n_max, budget) ramsey_number calls, hashed, and each
    call's last (n, kind, nodes, prunes)."""
    h, last = hashlib.sha256(), []
    for m, kappa, k, n_max, budget in panel:
        result = ramsey_number(m, kappa, k, n_max, node_budget=budget, _vertex=vertex)
        for n, o in sorted(result.outcomes.items()):
            colors = None if o.coloring is None else o.coloring.colors
            row = (m, kappa, k, n, o.kind, o.stats.nodes, o.stats.forbidden_prunes, colors)
            h.update(repr(row).encode())
        last.append(row[3:7])
    return h.hexdigest()[:16], last


def test_panel_counts_digest():
    # Pinned without the vertex floor from the search that checked each m-set by one
    # connectivity-table lookup per color: a change to how m-sets are
    # checked, or to the order they are read in, must keep it byte-identical.
    assert _panel_counts_digest(False)[0] == "65ab8300a6cde6e9"


def test_panel_counts_digest_with_the_floor():
    assert _panel_counts_digest(True)[0] == "7efa2d80e0660ca5"


def test_bench_panel_sweeps_are_pinned():
    # The budgeted sweeps the benchmark's search panel times, with the
    # floor, at the budgets it runs them: each ends unknown.
    digest, last = _panel_counts_digest(True, panel=(
        (3, 2, 3, 14, 60_000), (4, 2, 3, 12, 42_000), (5, 1, 3, 9, 4_000),
    ))
    assert last == [
        (12, UNKNOWN, 60001, 38760), (11, UNKNOWN, 42001, 27297), (9, UNKNOWN, 4001, 2246),
    ]
    assert digest == "85e4b0b100851ab9"


def test_a_range_the_floor_empties_backs_up_without_a_node():
    # Under the prefix (1, 0), pair (0, 2) has floor 1 (rows 1 and 2 agree
    # on the no columns before column 0, so row 1's entry there, color 1,
    # bounds row 2's) but its pinned color is 0: the range is empty, the
    # loop backs up to (0, 1), whose one color is spent, and ends after the
    # single node at position 0.  Without the floor, color 0 is tried there.
    got = [(o.n, o.kind, o.stats.nodes, o.stats.forbidden_prunes)
           for o in _backtrack(4, 3, 2, 2, None, prefix=(1, 0))]
    assert got == [(4, EXHAUSTED, 1, 0)]
    got = [(o.n, o.kind, o.stats.nodes, o.stats.forbidden_prunes)
           for o in _backtrack(4, 3, 2, 2, None, prefix=(1, 0), vertex=False)]
    assert got == [(4, AVOIDING, 7, 1)]


# (m, kappa, k, n_max, budget): unknown in the middle of a sweep and at its
# first n, exhausted, open, n_max == m, one color, and kappa > m.
SWEEP_GRID = [
    (3, 2, 3, 14, 3_000),
    (3, 3, 2, 6, 3),
    (4, 2, 3, 12, 42_000),
    (5, 2, 2, 9, None),
    (3, 3, 2, 6, None),
    (3, 2, 3, 10, None),
    (4, 1, 2, 4, None),
    (5, 2, 2, 5, None),
    (3, 1, 1, 5, None),
    (3, 5, 2, 6, None),
    (4, 6, 3, 6, 500),
]


@pytest.mark.parametrize("m, kappa, k, n_max, budget", SWEEP_GRID)
def test_sweep_matches_a_search_per_n(m, kappa, k, n_max, budget):
    # One search over K_n_max reads off each n; a search of K_n alone, under
    # the same budget, with or without the vertex floor, must report the same kind, counts and
    # coloring.
    for vertex in (True, False):
        result = ramsey_number(m, kappa, k, n_max, node_budget=budget, _vertex=vertex)
        last = max(result.outcomes)
        assert sorted(result.outcomes) == list(range(m, last + 1))
        for n, o in result.outcomes.items():
            alone = exists_avoiding_coloring(
                n, m, kappa, k, node_budget=budget, _vertex=vertex,
            )
            assert (o.kind, o.stats.nodes, o.stats.forbidden_prunes, o.coloring) == (
                alone.kind, alone.stats.nodes, alone.stats.forbidden_prunes, alone.coloring
            ), (vertex, n)
            assert o.kind == (AVOIDING if n < last else result.outcomes[last].kind)
        walls = [result.outcomes[n].stats.wall_time for n in sorted(result.outcomes)]
        assert walls == sorted(walls)


@pytest.mark.parametrize("m, kappa, k, n_max, budget", SWEEP_GRID)
def test_floor_agrees_with_first_use_alone_wherever_both_resolve(m, kappa, k, n_max, budget):
    # The vertex floor may only move the frontier; every n that both
    # searches resolve has one kind, and every avoiding coloring found with
    # the floor avoids and satisfies first use and sb_l.
    floor = ramsey_number(m, kappa, k, n_max, node_budget=budget)
    alone = ramsey_number(m, kappa, k, n_max, node_budget=budget, _vertex=False)
    for n in floor.outcomes.keys() & alone.outcomes.keys():
        kinds = floor.outcomes[n].kind, alone.outcomes[n].kind
        assert UNKNOWN in kinds or kinds[0] == kinds[1], n
    for o in floor.outcomes.values():
        if o.kind == AVOIDING:
            assert arrow_check(o.coloring, kappa, m) is None
            assert _breaks_symmetry(o.coloring), o.coloring


def test_search_depth_does_not_grow_with_n():
    # One loop step per colex position: a search 45 positions deep runs
    # within a few frames of its caller.
    ramsey_number(3, 2, 3, 5)  # builds the tables first
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)
    try:
        result = ramsey_number(3, 2, 3, 10)
    finally:
        sys.setrecursionlimit(limit)
    assert result.outcomes[10].kind == AVOIDING


class TestRamseyNumber:
    def test_triangle_two_colors(self):
        r = ramsey_number(3, 3, 2, 6)
        assert r.value == 6 and r.status == "determined"
        assert r.outcomes[5].kind == AVOIDING
        assert r.outcomes[6].kind == EXHAUSTED

    def test_two_connected_triple_same_value(self):
        assert ramsey_number(3, 2, 2, 6).value == 6

    def test_connected_quadruple(self):
        assert ramsey_number(4, 1, 2, 4).value == 4

    def test_open_below_threshold(self):
        r = ramsey_number(3, 3, 2, 5)
        assert r.value is None and r.status == "open"

    def test_unknown_on_budget(self):
        r = ramsey_number(3, 3, 2, 6, node_budget=3)
        assert r.status == UNKNOWN

    def test_nmax_too_small(self):
        with pytest.raises(ValueError, match="need n_max >= m"):
            ramsey_number(4, 1, 2, 3)
        with pytest.raises(ValueError, match="need n_max >= m"):
            ramsey_number(4, 1, 2, -1)


def test_enumeration_limit_counts_colorings():
    # 3^21 colorings of K_7; the limit is on k^C(n,2), not on n.
    with pytest.raises(ValueError, match="enumeration size limit"):
        next(enumerate_all_colorings(7, 3))
    with pytest.raises(ValueError, match="enumeration size limit"):
        next(enumerate_all_colorings(2, ENUMERATION_LIMIT + 1))
    assert next(enumerate_all_colorings(2, ENUMERATION_LIMIT)).colors == (0,)
    assert next(enumerate_all_colorings(6, 2)).colors == (0,) * 15
