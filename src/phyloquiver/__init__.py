"""Phylogenetic analysis on finite quivers.

Quivers with descendant-to-ancestor edges, evolutions and the ancestor
preorder, heights and normality, universal evolutions, clades, E-sequences
with realization and reconstruction, and the contraction/drift towers of
finite ultrametric/metric spaces.
"""

from .errors import InputError, SizeGuardError, UndecidedError
from .quiver import (
    Condensation,
    Evolution,
    Quiver,
    ancestor_of,
    ancestors,
    concat,
    condense,
    descendants,
    induced_subquiver,
    isotypic,
    validate_evolution,
)
from .analysis import (
    AnalysisReport,
    analyze,
    critical_ancestors,
    critical_vertices,
    embeds_in,
    height,
    heights,
    is_monotonous,
    is_normal,
    is_phylogenetic_quiver,
    is_phylogenetic_vertex,
    is_primitive,
    monotonize,
    phylogenetic_core,
    phylogenetic_status,
    primitive_vertices,
    short_full_evolutions,
    universal_evolution,
    verify_universal_bounded,
)
from .clades import Clade, clade, clade_height, clade_report, is_regular
from .esequence import (
    ESequence,
    PrecRelation,
    build_forest,
    esequence_isomorphic,
    evolutionary_sequence,
    forest_distance,
    induce_prec,
    realize_esequence,
    reconstruct,
    terminal_ultrametric,
    validate_esequence,
    validate_prec,
)
from .metric import (
    FiniteMetricSpace,
    MapClassification,
    PointMap,
    Tower,
    balls,
    classify_map,
    is_isometric,
    is_trim,
    min_gap,
    n_nonzero,
    norm_total,
    quotient_u,
    quotient_v,
    to_fraction,
    tower_u,
    tower_v,
    underline_d,
    validate_space,
)

__all__ = [name for name in dir() if not name.startswith("_")]
