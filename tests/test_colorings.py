import hashlib
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings

import hcramsey.colorings as colorings_module

from hcramsey.colorings import (
    BitstringFamily,
    _indexed_delta_root,
    _line_roots,
    blowup_coloring,
    common_neighbor_certify,
    first_difference,
    forest_partition_coloring,
    format_coloring_text,
    format_family_text,
    format_set_family_text,
    is_subadditive,
    mine_delta_system,
    parse_coloring_text,
    parse_family_text,
    parse_set_family_text,
    path_confinement_check,
    path_confinement_counterexample,
    random_coloring,
    sierpinski_coloring,
    subadditivity_violation,
    tree_order,
)
from hcramsey.graphs import EdgeColoring, Graph, InputFormatError, all_pairs, is_forest, is_kappa_connected, induced_color_graph
from hcramsey.search import arrow_check

from conftest import (
    coloring_from_map,
    coloring_strategy,
    monotone_coloring,
    sample_subadditive,
)

PLANTED_BAD = EdgeColoring(3, 2, (1, 0, 0))  # c(0,1)=1 > max(c(0,2), c(1,2))


def shuffled_family(length, seed):
    rng = random.Random(seed)
    strings = list(BitstringFamily.full(length).strings)
    rng.shuffle(strings)
    return BitstringFamily(length, tuple(strings))


class TestSierpinskiColoring:
    def test_flat_color_examples(self):
        fam = BitstringFamily(2, ("00", "01", "10", "11"))
        c = sierpinski_coloring(fam)
        assert c.color_of(0, 1) == 2  # differ at 1, bit 0
        assert c.color_of(0, 2) == 0  # differ at 0, bit 0

    def test_single_position(self):
        c = sierpinski_coloring(BitstringFamily(1, ("0", "1")))
        assert c.color_of(0, 1) == 0

    def test_duplicate_strings_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BitstringFamily(2, ("00", "00"))

    @pytest.mark.parametrize("bad", ["1", "12"])
    def test_bad_string_rejected(self, bad):
        with pytest.raises(ValueError, match=f"bad bitstring '{bad}' for length 2"):
            BitstringFamily(2, ("01", bad))

    def test_full_of_length_zero_is_the_empty_string(self):
        # format(0, "00b") is "0", so full(0) used to raise.
        assert BitstringFamily.full(0).strings == ("",)

    def test_full_of_negative_length_names_the_length(self):
        # itertools.product said "repeat argument cannot be negative".
        with pytest.raises(ValueError, match=r"^need length >= 0, got -1$"):
            BitstringFamily.full(-1)

    @pytest.mark.parametrize("length", range(1, 6))
    def test_full_is_binary_counting_order(self, length):
        assert BitstringFamily.full(length).strings == tuple(
            format(i, f"0{length}b") for i in range(2**length)
        )

    def test_negative_length_refused(self):
        with pytest.raises(ValueError, match=r"^need length >= 0, got -1$"):
            BitstringFamily(-1, ())

    def test_triangle_free_full_families(self):
        # On 3 vertices, 2-connected means a triangle.
        assert arrow_check(sierpinski_coloring(BitstringFamily.full(2)), 2, 3) is None
        assert arrow_check(sierpinski_coloring(BitstringFamily.full(3)), 2, 3) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_triangle_free_random_orders(self, seed):
        assert arrow_check(sierpinski_coloring(shuffled_family(3, seed)), 2, 3) is None

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_no_monochromatic_triangle_any_color(self, length):
        # exhaustive triple scan over the full family (n up to 16)
        fam = shuffled_family(length, length * 31)
        c = sierpinski_coloring(fam)
        for a, b, g in itertools.combinations(range(c.n), 3):
            assert not (c.color_of(a, b) == c.color_of(a, g) == c.color_of(b, g))

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_two_smallest_first_differences_agree(self, length):
        # ultrametric-style: among the three pairwise first-difference
        # positions of a triple, the minimum is attained at least twice
        fam = shuffled_family(length, length)
        for a, b, g in itertools.combinations(range(fam.size()), 3):
            ds = sorted(
                first_difference(fam.strings[x], fam.strings[y])
                for x, y in ((a, b), (a, g), (b, g))
            )
            assert ds[0] == ds[1]

    def test_first_difference_refuses_equal_strings(self):
        assert first_difference("0110", "0100") == 2
        with pytest.raises(ValueError, match="strings are equal"):
            first_difference("0110", "0110")


class TestForestPartition:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_classes_partition_into_spanning_paths(self, n):
        c = forest_partition_coloring(n)
        assert c.k == n // 2
        total = 0
        for xi in range(c.k):
            cls = induced_color_graph(c, xi, range(n)).graph
            assert is_forest(cls)
            assert len(cls.edges) == n - 1
            total += len(cls.edges)
        assert total == n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_class_i_is_the_zig_zag_path_from_i(self, n):
        # Path i walks i, i+1, i-1, i+2, i-2, ... (mod n).
        c = forest_partition_coloring(n)
        for i in range(n // 2):
            walk, step = [i], 1
            while len(walk) < n:
                walk.append((i + step) % n)
                step = -step if step > 0 else 1 - step
            assert sorted(walk) == list(range(n))
            assert {c.color_of(a, b) for a, b in zip(walk, walk[1:])} == {i}

    def test_odd_rejected(self):
        with pytest.raises(ValueError, match="even"):
            forest_partition_coloring(5)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_refusal_names_the_rule_and_n(self, n):
        # 0 is even but has no spanning path to partition into.
        with pytest.raises(ValueError, match=f"^need an even n >= 2, got n={n}$"):
            forest_partition_coloring(n)

    @pytest.mark.parametrize("n", [4, 6])
    def test_no_two_connected_triple(self, n):
        assert arrow_check(forest_partition_coloring(n), 2, 3) is None


class TestBlowup:
    @pytest.mark.parametrize("blocks, inner, message", [
        ((1, 1, 1), 0, "need one block size per base vertex"),
        ((1, 0), 0, "block sizes must be positive"),
        ((1, 1), 2, "inner color 2 out of range for k=2"),
    ])
    def test_refusals(self, blocks, inner, message):
        with pytest.raises(ValueError, match=message):
            blowup_coloring(EdgeColoring(2, 2, (1,)), blocks, inner)

    def test_single_edge_base(self):
        base = EdgeColoring(2, 7, (5,))
        c = blowup_coloring(base, (2, 2), 0)
        assert c.color_of(0, 1) == 0 and c.color_of(2, 3) == 0
        for u in (0, 1):
            for v in (2, 3):
                assert c.color_of(u, v) == 5

    def test_identity_blocks(self):
        base = EdgeColoring(3, 4, (1, 2, 3))
        assert blowup_coloring(base, (1, 1, 1), 0) == base

    def test_uniform_color(self):
        base = EdgeColoring(2, 2, (1,))
        c = blowup_coloring(base, (3, 1), 1)
        assert all(col == 1 for col in c.colors)

    @given(coloring_strategy(min_n=2, max_n=4, max_k=3))
    @settings(max_examples=40, deadline=None)
    def test_cross_block_colors_match_base(self, base):
        rng = random.Random(repr(base.colors))
        sizes = [rng.randrange(1, 3) for _ in range(base.n)]
        c = blowup_coloring(base, sizes, 0)
        block_of = []
        for idx, size in enumerate(sizes):
            block_of.extend([idx] * size)
        for u, v in all_pairs(c.n):
            if block_of[u] != block_of[v]:
                assert c.color_of(u, v) == base.color_of(block_of[u], block_of[v])


class TestSubadditivity:
    def test_monotone_family(self):
        c = monotone_coloring(5, random.Random(1))
        assert is_subadditive(c)

    def test_constant(self):
        assert is_subadditive(EdgeColoring.constant(5, 3, 1))

    def test_planted_violation(self):
        v = subadditivity_violation(PLANTED_BAD)
        assert v.triple == (0, 1, 2) and v.inequality == 1

    def test_second_inequality(self):
        c = EdgeColoring(3, 2, (0, 1, 0))  # c(0,2)=1 > max(c(0,1), c(1,2))
        v = subadditivity_violation(c)
        assert v.triple == (0, 1, 2) and v.inequality == 2


class TestTreeOrder:
    def test_constant_gives_total_order(self):
        c = EdgeColoring.constant(4, 1, 0)
        to = tree_order(c, 0)
        assert to.valid
        assert to.relation == frozenset(all_pairs(4))

    def test_top_color_gives_full_order(self):
        c = monotone_coloring(6, random.Random(3))
        to = tree_order(c, c.k - 1)
        assert to.valid and to.relation == frozenset(all_pairs(6))

    def test_monotone_cut(self):
        f = list(range(5))  # c(a, b) = b
        c = coloring_from_map(5, 5, {(a, b): f[b] for a, b in all_pairs(5)})
        to = tree_order(c, 2)
        assert to.valid
        assert to.relation == frozenset((a, b) for a, b in all_pairs(5) if b <= 2)

    def test_guard(self):
        with pytest.raises(ValueError, match="not subadditive"):
            tree_order(PLANTED_BAD, 0)


class TestPathConfinement:
    def test_monotone(self):
        assert path_confinement_check(monotone_coloring(6, random.Random(5)))

    def test_constant(self):
        assert path_confinement_check(EdgeColoring.constant(6, 2, 1))

    def test_guard(self):
        with pytest.raises(ValueError, match="not subadditive"):
            path_confinement_check(PLANTED_BAD)

    def test_planted_counterexample_past_guard(self):
        ce = path_confinement_counterexample(PLANTED_BAD)
        assert ce.path == (0, 2, 1)
        assert ce.max_color == 0

    def test_unused_colors_in_the_header_change_nothing(self):
        rng = random.Random(33)
        for seed in range(120):
            n, k = rng.randrange(2, 7), rng.randrange(1, 4)
            c = random_coloring(n, k, seed)
            want = path_confinement_counterexample(c)
            for pad in (3, 50):
                padded = EdgeColoring(n, k + pad, c.colors)
                assert path_confinement_counterexample(padded) == want, (c, pad)

    def test_declared_palette_costs_no_color_reads(self, monkeypatch):
        counts = {}
        for k in (1, 10**4):
            calls = []
            color_of = EdgeColoring.color_of
            monkeypatch.setattr(EdgeColoring, "color_of",
                                lambda self, u, v: calls.append(1) or color_of(self, u, v))
            assert path_confinement_check(EdgeColoring.constant(6, k, 0))
            monkeypatch.undo()
            counts[k] = len(calls)
        assert counts[1] == counts[10**4] > 0

    def test_sampled_subadditive(self):
        rng = random.Random(17)
        for _ in range(15):
            c = sample_subadditive(rng.randrange(3, 6), rng.randrange(2, 4), rng)
            assert path_confinement_check(c)
            for xi in range(c.k):
                assert tree_order(c, xi).valid


class TestCommonNeighborCertify:
    def test_constant_coloring(self):
        c = EdgeColoring.constant(5, 1, 0)
        assert common_neighbor_certify(c, range(5), 0, 3)

    def test_counting_limit(self):
        c = EdgeColoring.constant(3, 1, 0)
        assert not common_neighbor_certify(c, range(3), 0, 2)

    def test_sufficiency_only_on_c4(self):
        # color 0 realizes C4: adjacent pairs share no common 0-neighbor,
        # so the certificate fails even though C4 is 2-connected
        cycle = {(0, 1), (1, 2), (2, 3), (0, 3)}
        c = coloring_from_map(
            4, 2, {p: (0 if p in cycle else 1) for p in all_pairs(4)}
        )
        assert not common_neighbor_certify(c, range(4), 0, 1)
        assert is_kappa_connected(induced_color_graph(c, 0, range(4)).graph, 2)[0]

    def test_too_small(self):
        with pytest.raises(ValueError):
            common_neighbor_certify(EdgeColoring.constant(3, 1, 0), [0], 0, 1)

    def test_certificate_implies_connectivity(self):
        rng = random.Random(41)
        for _ in range(40):
            n, k = rng.randrange(4, 8), rng.randrange(1, 4)
            c = random_coloring(n, k, rng.random())
            vs = tuple(sorted(rng.sample(range(n), rng.randrange(2, n + 1))))
            i, kappa = rng.randrange(k), rng.randrange(1, 4)
            if common_neighbor_certify(c, vs, i, kappa):
                sub = induced_color_graph(c, i, vs)
                assert is_kappa_connected(sub.graph, kappa)[0]


class TestRandomColoring:
    def test_single_color(self):
        assert random_coloring(4, 1, 7) == EdgeColoring.constant(4, 1, 0)

    def test_deterministic_per_seed(self):
        assert random_coloring(5, 2, 42) == random_coloring(5, 2, 42)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            random_coloring(0, 2, 1)


class TestDeltaMiner:
    def test_pairs_family(self):
        family = {(a, b): {a, b} for a, b in all_pairs(5)}
        report = mine_delta_system(family, 5, 5)
        assert report.B == (0, 1, 2, 3, 4)
        assert report.row_roots[0] == frozenset({0})
        assert report.col_roots[4] == frozenset({4})

    def test_constant_family(self):
        family = {p: {9} for p in all_pairs(4)}
        report = mine_delta_system(family, 4, 4)
        assert report.B == (0, 1, 2, 3)
        assert report.union_root == frozenset({9})
        assert report.root_sizes_uniform

    def test_colliding_residues(self):
        family = {(0, 1): {0, 1}, (0, 2): {0, 7}, (1, 2): {1, 7}}
        assert mine_delta_system(family, 3, 3) is None

    def test_smaller_target_found_lexicographically_first(self):
        # Pairwise-disjoint sets: every size-3 subset qualifies (all roots
        # empty, residues are the sets themselves), so the miner must pick
        # the lexicographically first one.
        family = {p: {10 * i} for i, p in enumerate(all_pairs(4))}
        report = mine_delta_system(family, 4, 3)
        assert report.B == (0, 1, 2)
        assert report.union_root == frozenset()

    def test_pairs_family_has_no_size_3_subsystem(self):
        # Inside a 3-element index set the middle row and column each have a
        # single member, so their roots are undetermined (treated as empty)
        # and both off-diagonal residues contain the middle index.
        family = {(a, b): {a, b} for a, b in all_pairs(4)}
        assert mine_delta_system(family, 4, 3) is None

    @staticmethod
    def _lines(n, sets):
        fam = {p: frozenset(sets.get(p, ())) for p in all_pairs(n)}
        rows = [(a, [fam[(a, b)] for b in range(a + 1, n)]) for a in range(n)]
        cols = [(b, [fam[(a, b)] for a in range(b)]) for b in range(n)]
        return fam, rows, cols

    @pytest.mark.parametrize("rule, sets", [
        ("row", {(0, 2): {1}, (0, 3): {1}, (1, 2): {1}}),  # row 0: {}, {1}, {1}
        ("column", {(0, 3): {1}, (1, 2): {1}, (1, 3): {1}}),  # column 3: {1}, {1}, {}
        ("union", {(0, 2): {0}, (1, 2): {0}, (1, 3): {0}}),  # unions {}, {0}, {0}, {}
    ])
    def test_each_rule_rejects_its_family(self, rule, sets):
        # On B = range(4) each family passes every earlier rule.
        fam, rows, cols = self._lines(4, sets)
        assert (_line_roots(rows) is None) == (rule == "row")
        if rule != "row":
            assert (_line_roots(cols) is None) == (rule == "column")
        assert mine_delta_system(fam, 4, 4) is None

    def test_determined_row_roots_must_form_a_sunflower(self):
        # Rows 0, 1, 2 are sunflowers with roots {9}, {9}, {}, and {9} & {9}
        # differs from {9} & {}; three rows of 2 or more sets need n >= 5.
        # Column 3, {9}, {9}, {}, is no sunflower, so the miner rejects B.
        fam, rows, _ = self._lines(5, {p: {9} for p in all_pairs(5) if p[0] < 2})
        assert [_indexed_delta_root(sets) for _, sets in rows[:3]] == [{9}, {9}, set()]
        assert mine_delta_system(fam, 5, 5) is None

    @staticmethod
    def _line_roots_with_determined_rule(lines):
        """_line_roots as it was with a test of the determined roots: they
        too must form a sunflower."""
        roots = {}
        for key, sets in lines:
            roots[key] = _indexed_delta_root(sets) if len(sets) >= 2 else None
            if len(sets) >= 2 and roots[key] is None:
                return None
        determined = [r for r in roots.values() if r is not None]
        if len(determined) >= 2 and _indexed_delta_root(determined) is None:
            return None
        return roots

    def test_the_determined_roots_rule_never_changes_the_answer(self, monkeypatch):
        # Seeded families with a per-row and per-column root plus noise, so
        # that many index sets pass the line tests; the miner must answer
        # the same with and without the rule.
        rng = random.Random(41)
        cases = []
        for _ in range(1500):
            n = rng.randint(4, 6)
            row = [set(rng.sample(range(4), rng.randint(0, 2))) for _ in range(n)]
            col = [set(rng.sample(range(4), rng.randint(0, 2))) for _ in range(n)]
            noise = lambda: {rng.randrange(4, 12)} if rng.random() < 0.7 else set()
            fam = {(a, b): row[a] | col[b] | noise() for a, b in all_pairs(n)}
            cases.append((fam, n, rng.randint(3, n)))
        got = [mine_delta_system(*case) for case in cases]
        fired = 0

        def with_rule(lines):
            nonlocal fired
            lines = list(lines)
            roots = self._line_roots_with_determined_rule(lines)
            fired += roots is None and _line_roots(lines) is not None
            return roots

        monkeypatch.setattr(colorings_module, "_line_roots", with_rule)
        assert [mine_delta_system(*case) for case in cases] == got
        assert sum(r is not None for r in got) > 100
        assert fired > 0  # the rule rejects rows that a column test then rejects

    def test_target_size_must_be_positive(self):
        with pytest.raises(ValueError, match="target size must be positive"):
            mine_delta_system({}, 3, 0)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="miner size limit"):
            mine_delta_system({}, 11, 2)

    def test_missing_pair(self):
        with pytest.raises(ValueError, match="missing pair"):
            mine_delta_system({(0, 1): {1}}, 3, 2)


def _checker_outputs():
    """The structural checkers' answers on seeded inputs: most random
    colorings are not subadditive, so counterexample paths are exercised;
    the Delta-system families are those of TestDeltaMiner."""
    rng = random.Random(1814)
    for n in range(3, 9):
        for k in range(1, 4):
            for seed in range(10):
                c = random_coloring(n, k, seed)
                vs = tuple(sorted(rng.sample(range(n), rng.randrange(2, n + 1))))
                i, kappa = rng.randrange(k), rng.randrange(1, 4)
                yield (
                    subadditivity_violation(c),
                    path_confinement_counterexample(c),
                    common_neighbor_certify(c, vs, i, kappa),
                )
    for n in range(3, 7):
        for c in (monotone_coloring(n, rng), sample_subadditive(n, rng.randrange(2, 4), rng)):
            for xi in range(c.k):
                order = tree_order(c, xi)
                yield sorted(order.relation), order.valid

    def roots(r):
        return {key: None if s is None else sorted(s) for key, s in r.items()}

    for family, n, size in [
        ({(a, b): {a, b} for a, b in all_pairs(5)}, 5, 5),
        ({p: {9} for p in all_pairs(4)}, 4, 4),
        ({(0, 1): {0, 1}, (0, 2): {0, 7}, (1, 2): {1, 7}}, 3, 3),
        ({p: {10 * i} for i, p in enumerate(all_pairs(4))}, 4, 3),
        ({(a, b): {a, b} for a, b in all_pairs(4)}, 4, 3),
    ]:
        r = mine_delta_system(family, n, size)
        yield r and (
            r.B, roots(r.row_roots), roots(r.col_roots), sorted(r.union_root),
            r.root_sizes_uniform,
        )


def test_checker_outputs_are_pinned():
    outputs = list(_checker_outputs())
    assert len(outputs) == 215
    assert sum(out[1] is not None for out in outputs[:180]) == 100
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "30ce6c161ed99dc1ed0e2e388be5aa884ab8ee46b019b2700c617259d82e2296"


class TestColoringTextFormat:
    @given(coloring_strategy(max_n=6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, c):
        assert parse_coloring_text(format_coloring_text(c)) == c

    def test_family_round_trip(self):
        fam = shuffled_family(3, 11)
        assert parse_family_text(format_family_text(fam)) == fam

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_set_family_round_trip(self, n):
        rng = random.Random(n)
        fam = {pair: frozenset(rng.sample(range(9), rng.randrange(4))) for pair in all_pairs(n)}
        assert parse_set_family_text(format_set_family_text(fam, n)) == (fam, n)


class TestMalformedText:
    # Each message names the line of the text it quotes; the last case of
    # each format puts blank lines before the bad line.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: missing 'n k' header"),
            ("3\n", "line 1: expected 'n k'"),
            ("3 x\n", "line 1: 'n k' must be integers"),
            ("-1 2\n0 1 0\n", "line 1: 'n k' must be nonnegative"),
            ("2 2\n", "expected 1 pair lines, found 0"),
            ("2 2\n0 1\n", "line 2: expected 'u v color'"),
            ("2 2\n0 1 0 1\n", "line 2: expected 'u v color'"),
            ("2 2\n0 1 x\n", "line 2: 'u v color' must be integers"),
            ("2 2\n0 1 2\n", "line 2: color 2 out of range"),
            ("3 2\n0 1 0\n0 1 0\n1 2 0\n", "line 3: expected pair (0, 2), got (0, 1)"),
            ("\n3 2\n\n0 1 0\n\n0 2 1\n\n1 2 -1\n", "line 8: color -1 out of range"),
        ],
    )
    def test_coloring(self, text, message):
        with pytest.raises(InputFormatError, match=re.escape(message)):
            parse_coloring_text(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: missing 'lambda mu' header"),
            ("2\n", "line 1: expected 'lambda mu'"),
            ("2 two\n", "line 1: 'lambda mu' must be integers"),
            ("2 -1\n", "line 1: 'lambda mu' must be nonnegative"),
            ("2 2\n01\n", "expected 2 strings, found 1"),
            ("2 1\n012\n", "line 2: bad bitstring '012' for length 2"),
            ("2 1\n0x\n", "line 2: bad bitstring '0x' for length 2"),
            ("2 2\n01\n01\n", "line 3: duplicate of line 2"),
            ("\n\n2 2\n\n10\n\n\n10\n", "line 8: duplicate of line 5"),
        ],
    )
    def test_family(self, text, message):
        with pytest.raises(InputFormatError, match=re.escape(message)):
            parse_family_text(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: missing 'n' header"),
            ("3 1\n", "line 1: expected 'n'"),
            ("x\n", "line 1: 'n' must be integers"),
            ("3\n0 1\n0 2\n", "expected 3 pair lines, found 2"),
            ("3\n0 1\n0 2\n1\n", "line 4: expected 'alpha beta members...'"),
            ("3\n0 1\n0 2 y\n1 2\n", "line 3: 'alpha beta members...' must be integers"),
            ("3\n0 1\n0 3\n1 2\n", "line 3: pair (0, 3) out of range"),
            ("3\n0 1\n2 1\n1 2\n", "line 3: pair (2, 1) out of range"),
            ("3\n0 1 5\n0 1 6\n1 2\n", "line 3: duplicate pair (0, 1)"),
            ("3\n\n0 1 5\n\n\n0 2 x\n1 2\n", "line 6: 'alpha beta members...' must be integers"),
        ],
    )
    def test_set_family(self, text, message):
        with pytest.raises(InputFormatError, match=re.escape(message)):
            parse_set_family_text(text)

    @pytest.mark.parametrize(
        "parse, text",
        [(parse_coloring_text, "1500 2\n0 1 0\n"), (parse_set_family_text, "1500\n0 1\n")],
    )
    def test_record_count_checked_before_any_pair_list(self, parse, text):
        # 1,124,250 pairs would take tens of MB as a list of tuples.
        tracemalloc.start()
        try:
            with pytest.raises(InputFormatError, match="expected 1124250 pair lines, found 1"):
                parse(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
