"""Random-walk functionals on weighted graphs and extremal tree verification.

Three mutually verifying computation routes for the average hitting
time and Kemeny's constant (exact linear algebra, spanning-forest
formulas, Laplacian spectra), plus edge-transfer partial orders,
exhaustive extremal scans over weighted-tree families, homomorphism
dominance checks, and a reproducible Monte Carlo walker.
"""

from .errors import (
    ConsistencyError,
    DisconnectedError,
    GraphError,
    NotATreeError,
    TwgParseError,
)
from .extremal import (
    FamilyReport,
    PathSearchResult,
    best_path_assignment,
    extremal_scan,
    is_polarized,
    path_kappa_objective,
    polarized_paths,
    star_of,
    tree_family,
    weight_multiset,
)
from .graphs import (
    WeightedGraph,
    canonical_form,
    cycle_graph,
    complete_graph,
    enumerate_free_trees,
    format_twg,
    parse_twg,
    path_graph,
    star_graph,
)
from .homorder import (
    HomDominanceReport,
    conjecture_scan,
    connected_graph_corpus,
    corpus_dominates,
    hom_count,
    hom_counts,
)
from .simulate import WalkEstimate, Xorshift64Star, estimate_hitting, mix64
from . import spectral  # the eigenvalue route: spectral.stats
from .transfers import (
    HasseDiagram,
    TransferMove,
    apply_move,
    build_hasse,
    hasse_to_dot,
    legal_moves,
    verify_monotonicity,
)
from .walks import hitting_matrix, stationary, transition_matrix, walk_stats

__all__ = [name for name in dir() if not name.startswith("_")]
