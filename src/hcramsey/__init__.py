"""Finite-scale workbench for connected Ramsey relations: explicit edge
colorings, certified connectivity, symmetry-reduced exhaustive search, and
a CNF export path."""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    ConnectivityVerdict,
    EdgeColoring,
    Graph,
    InducedSubgraph,
    InputFormatError,
    brute_force_kappa,
    induced_color_graph,
    is_connected,
    is_forest,
    is_highly_connected,
    is_kappa_connected,
    vertex_connectivity,
)
from .colorings import (  # noqa: F401
    BitstringFamily,
    DeltaSystemReport,
    blowup_coloring,
    common_neighbor_certify,
    forest_partition_coloring,
    is_subadditive,
    mine_delta_system,
    path_confinement_check,
    path_confinement_counterexample,
    random_coloring,
    sierpinski_coloring,
    subadditivity_violation,
    tree_order,
)
from .search import (  # noqa: F401
    ArrowWitness,
    ForbiddenList,
    RamseyResult,
    SearchOutcome,
    arrow_check,
    exists_avoiding_coloring,
    minimal_connected_graphs,
    ramsey_number,
)
from .satbridge import (  # noqa: F401
    CnfInstance,
    decode_model,
    emit_cnf,
    to_dimacs,
    verify_cnf_equivalence,
)
