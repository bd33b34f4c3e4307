"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time

from hcramsey.colorings import (
    BitstringFamily,
    common_neighbor_certify,
    forest_partition_coloring,
    is_subadditive,
    mine_delta_system,
    path_confinement_check,
    random_coloring,
    sierpinski_coloring,
    subadditivity_violation,
    tree_order,
)
from hcramsey.graphs import (
    EdgeColoring,
    Graph,
    all_pairs,
    brute_force_kappa,
    induced_color_graph,
    is_forest,
    is_highly_connected,
    is_kappa_connected,
)
from hcramsey.satbridge import cnf_satisfiable_by_enumeration, emit_cnf, verify_cnf_equivalence
from hcramsey.search import (
    AVOIDING,
    EXHAUSTED,
    arrow_check,
    enumerate_all_colorings,
    exists_avoiding_coloring,
    ramsey_number,
)

from conftest import graphs_on, monotone_coloring, random_graph, sample_subadditive


def test_criterion_1_finite_collapse():
    start = time.perf_counter()
    r33 = ramsey_number(3, 3, 2, 6)
    assert r33.value == 6
    assert r33.outcomes[5].kind == AVOIDING
    assert arrow_check(r33.outcomes[5].coloring, 3, 3) is None
    assert r33.outcomes[6].kind == EXHAUSTED
    r32 = ramsey_number(3, 2, 2, 6)
    assert r32.value == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"ACCEPTANCE 1 PASS: finite collapse R(3;2)=6 at both kappa=3 and "
          f"kappa=2 ({elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence():
    checked = 0
    for n in range(7):
        for g in graphs_on(n):
            bfk = brute_force_kappa(g)
            for kappa in range(n + 1):
                assert is_kappa_connected(g, kappa)[0] == (kappa <= bfk)
            checked += 1
    rng = random.Random(20260826)
    for _ in range(500):
        n = rng.choice([7, 8])
        g = random_graph(n, rng, p=rng.choice([0.2, 0.4, 0.6, 0.8]))
        bfk = brute_force_kappa(g)
        for kappa in range(n + 1):
            assert is_kappa_connected(g, kappa)[0] == (kappa <= bfk)
        checked += 1
    print(f"ACCEPTANCE 2 PASS: oracle equivalence on {checked} graphs, "
          "zero disagreements")


def test_criterion_3_highly_connected_iff_complete():
    checked = 0
    for n in range(7):
        for g in graphs_on(n):
            assert is_highly_connected(g) == (brute_force_kappa(g) >= g.n)
            checked += 1
    print(f"ACCEPTANCE 3 PASS: highly connected iff complete on all "
          f"{checked} graphs with n <= 6")


def test_criterion_4_sierpinski_shadow():
    cases = 0
    for length in (2, 3):
        full = list(BitstringFamily.full(length).strings)
        orders = [tuple(full)]
        rng = random.Random(length * 1000)
        for _ in range(20):
            shuffled = full[:]
            rng.shuffle(shuffled)
            orders.append(tuple(shuffled))
        for strings in orders:
            fam = BitstringFamily(length, strings)
            assert arrow_check(sierpinski_coloring(fam), 3, 3, "exact") is None
            cases += 1
    print(f"ACCEPTANCE 4 PASS: first-difference coloring triangle-free and "
          f"witness-free in {cases} cases")


def test_criterion_5_forest_partition_shadow():
    for n in (4, 6, 8):
        c = forest_partition_coloring(n)
        assert c.k == n // 2
        seen = set()
        for xi in range(c.k):
            cls = induced_color_graph(c, xi, range(n)).graph
            assert is_forest(cls)
            assert not seen & cls.edges
            seen |= cls.edges
        assert seen == set(all_pairs(n))
        assert arrow_check(c, 2, 3) is None
    print("ACCEPTANCE 5 PASS: spanning-path partitions for n in {4, 6, 8}, "
          "no 2-connected monochromatic triple")


def test_criterion_6_subadditive_confinement():
    rng = random.Random(1206)
    colorings = []
    for _ in range(120):
        colorings.append(monotone_coloring(rng.randrange(3, 9), rng))
    for _ in range(80):
        colorings.append(sample_subadditive(rng.randrange(3, 6), rng.randrange(2, 4), rng))
    for c in colorings:
        assert is_subadditive(c)
        for xi in range(c.k):
            assert tree_order(c, xi).valid
        assert path_confinement_check(c)
    planted = EdgeColoring(3, 2, (1, 0, 0))
    violation = subadditivity_violation(planted)
    assert violation.triple == (0, 1, 2) and violation.inequality == 1
    print(f"ACCEPTANCE 6 PASS: {len(colorings)} subadditive colorings confine "
          "paths and order trees; planted violation rejected at (0, 1, 2)")


def test_criterion_7_common_neighbor_certificate():
    rng = random.Random(707)
    positives = 0
    for trial in range(100):
        n = rng.randrange(4, 9)
        k = rng.randrange(1, 4)
        c = random_coloring(n, k, trial)
        vertices = tuple(sorted(rng.sample(range(n), rng.randrange(2, n + 1))))
        i = rng.randrange(k)
        kappa = rng.randrange(1, 4)
        if common_neighbor_certify(c, vertices, i, kappa):
            positives += 1
            sub = induced_color_graph(c, i, vertices)
            assert is_kappa_connected(sub.graph, kappa)[0]
    assert positives > 0  # the implication was actually exercised
    print(f"ACCEPTANCE 7 PASS: certificate implied connectivity in all "
          f"{positives} positive cases out of 100 colorings")


def test_criterion_8_search_completeness():
    points = 0
    for n in range(2, 6):
        for k in (1, 2):
            for m in range(2, n + 1):
                for kappa in range(1, m + 1):
                    literal = any(
                        arrow_check(c, kappa, m) is None
                        for c in enumerate_all_colorings(n, k)
                    )
                    for vertex in (True, False):
                        native = exists_avoiding_coloring(n, m, kappa, k, _vertex=vertex)
                        assert (native.kind == AVOIDING) == literal, vertex
                    points += 1
    print(f"ACCEPTANCE 8 PASS: search matches literal enumeration at all "
          f"{points} grid points, with and without vertex symmetry breaking")


def test_criterion_9_cnf_cross_check():
    grid = [
        (n, 3, kappa, k)
        for n in (3, 4, 5)
        for kappa in (1, 2, 3)
        for k in (1, 2)
    ]
    reports = verify_cnf_equivalence(grid)
    assert all(r["match"] for r in reports)
    assert cnf_satisfiable_by_enumeration(emit_cnf(5, 3, 3, 2)) is True
    assert cnf_satisfiable_by_enumeration(emit_cnf(6, 3, 3, 2)) is False
    print(f"ACCEPTANCE 9 PASS: CNF equivalence on {len(reports)} grid points; "
          "n=5 satisfiable, n=6 unsatisfiable")


def _reverify_delta_report(family, report):
    """Independent re-check of the sunflower conditions, written from the
    definitions rather than the miner's code path."""
    members = report.B
    fam = {p: frozenset(s) for p, s in family.items()}
    for a in members:
        row = [fam[(a, b)] for b in members if b > a]
        if len(row) >= 2:
            root = report.row_roots[a]
            assert all(x & y == root for x, y in itertools.combinations(row, 2))
    for b in members:
        col = [fam[(a, b)] for a in members if a < b]
        if len(col) >= 2:
            root = report.col_roots[b]
            assert all(x & y == root for x, y in itertools.combinations(col, 2))
    unions = [
        (report.row_roots[a] or frozenset()) | (report.col_roots[a] or frozenset())
        for a in members
    ]
    for x, y in itertools.combinations(unions, 2):
        assert x & y == report.union_root
    residues = [
        fam[(a, b)]
        - ((report.row_roots[a] or frozenset()) | (report.col_roots[b] or frozenset()))
        for a, b in itertools.combinations(members, 2)
    ]
    for x, y in itertools.combinations(residues, 2):
        assert not x & y


def test_criterion_10_delta_system_miner():
    pairs_family = {(a, b): {a, b} for a, b in all_pairs(5)}
    report = mine_delta_system(pairs_family, 5, 5)
    assert report is not None and report.B == (0, 1, 2, 3, 4)
    _reverify_delta_report(pairs_family, report)

    constant_family = {p: {9} for p in all_pairs(4)}
    report2 = mine_delta_system(constant_family, 4, 4)
    assert report2 is not None and report2.B == (0, 1, 2, 3)
    _reverify_delta_report(constant_family, report2)
    print("ACCEPTANCE 10 PASS: sunflower miner returns full-size reports that "
          "re-verify independently")
