"""Reference values the benchmark checks program outputs against.

Two kinds, kept apart:

* literature values, which hold for any correct implementation;
* seed values, measured on the first benchmarked revision, for outputs the
  project promises to keep byte-identical (clause sets, DIMACS text,
  forbidden-list sizes) or exact (verdicts of unbudgeted searches).

Search node and prune counts are deliberately absent: a correct change
(symmetry breaking, early stop) may lower them.  They are checked for
repeatability between passes instead.
"""

REFERENCE = {
    # Least n with no avoiding coloring, keyed by (m, kappa, k).
    # kappa >= m - 1 is the classical Ramsey number (Radziszowski, "Small
    # Ramsey Numbers", EJC DS1): R(3,3) = 6, R(3,3,3) = 17.  kappa = 1,
    # k = 2: R1(m;2) = m, since a graph or its complement is connected.
    # kappa = 1, k = 3: R1(5;3) = 9 (Gyarfas 1977).
    "ramsey": {
        (3, 3, 2): 6,
        (3, 2, 3): 17,
        (5, 1, 3): 9,
        (6, 1, 2): 6,
        (4, 1, 2): 4,
        # Seed value from an unbudgeted exhaustive search; no literature
        # value exists for kappa = 2 at m = 5.
        (5, 2, 2): 7,
    },
    # |minimal_connected_graphs(6, kappa)| for kappa = 1..5.
    "forbidden_graphs": {
        (6, 1): 1296,
        (6, 2): 255,
        (6, 3): 142,
        (6, 4): 15,
        (6, 5): 1,
    },
    # (clause count, sha256 prefix of to_dimacs) keyed by (n, m, kappa, k).
    "cnf": {
        (8, 5, 2, 2): (2520, "a2d7f7632856"),
        (12, 4, 2, 3): (4719, "6376987bc101"),
        (14, 3, 2, 3): (1456, "9771484971b1"),
        (10, 4, 2, 3): (2070, "cac8edea13b0"),
    },
    # `hcramsey number --m 4 --kappa 2 --colors 2 --nmax 7` prints this.
    "cli_number": "6",
}

# An avoiding 3-coloring of K_10 for (m, kappa) = (4, 2), in lexicographic
# pair order: the coloring exists_avoiding_coloring(10, 4, 2, 3) returned
# on the first benchmarked revision.  It is an input to `verify-model`,
# checked independently by the benchmark before it is trusted.
GOOD_MODEL_10_4_2_3 = (
    0, 0, 0, 0, 0, 1, 1, 2, 2, 0, 1, 1, 1, 0, 2, 1, 2, 1, 2, 2, 1, 0, 2,
    1, 0, 1, 2, 2, 2, 1, 2, 1, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 0, 0, 0,
)
