import itertools
import random

from hypothesis import strategies as st

from hcramsey.graphs import EdgeColoring, Graph, all_pairs


def graphs_on(n):
    """Every labeled graph on n vertices, in mask order."""
    for mask in range(1 << n * (n - 1) // 2):
        yield Graph.from_mask(n, mask)


def random_graph(n, rng: random.Random, p=0.5) -> Graph:
    return Graph(n, frozenset(pair for pair in all_pairs(n) if rng.random() < p))


@st.composite
def mask_strategy(draw, min_n=0, max_n=7):
    """(n, edge mask) of a graph on n vertices."""
    n = draw(st.integers(min_n, max_n))
    return n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))


def graph_strategy(min_n=0, max_n=7):
    return mask_strategy(min_n, max_n).map(lambda nm: Graph.from_mask(*nm))


@st.composite
def coloring_strategy(draw, min_n=1, max_n=7, max_k=4):
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, max_k))
    colors = draw(
        st.lists(
            st.integers(0, k - 1),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    return EdgeColoring(n, k, tuple(colors))


def coloring_from_map(n, k, mapping) -> EdgeColoring:
    """The k-coloring of K_n giving each pair (a, b), a < b, mapping[(a, b)]."""
    return EdgeColoring(n, k, tuple(mapping[p] for p in all_pairs(n)))


def monotone_coloring(n, rng: random.Random, max_color=None) -> EdgeColoring:
    """c(a, b) = f(b) for a nondecreasing f; always subadditive."""
    k = max_color if max_color is not None else n
    f = sorted(rng.randrange(k) for _ in range(n))
    mapping = {(a, b): f[b] for a, b in all_pairs(n)}
    return coloring_from_map(n, k, mapping)


def sample_subadditive(n, k, rng: random.Random, max_tries=20000) -> EdgeColoring:
    """Rejection-sample a subadditive coloring."""
    from hcramsey.colorings import is_subadditive

    for _ in range(max_tries):
        c = EdgeColoring(n, k, tuple(rng.randrange(k) for _ in all_pairs(n)))
        if is_subadditive(c):
            return c
    raise AssertionError("rejection sampling failed")


def two_pentagons_coloring() -> EdgeColoring:
    """The classical triangle-free 2-coloring of K5: a 5-cycle and its
    complement."""
    cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    mapping = {p: (0 if p in cycle else 1) for p in all_pairs(5)}
    return coloring_from_map(5, 2, mapping)
