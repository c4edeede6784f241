"""Phylogenetic analysis on finite quivers.

Quivers with descendant-to-ancestor edges, evolutions and the ancestor
preorder, heights and normality, universal evolutions, clades, E-sequences
with realization and reconstruction, and the contraction/drift towers of
finite ultrametric/metric spaces.

Every public name is imported from its home module on first use, so
``import phyloquiver`` loads no layer and a program pays only for the
layers it touches.
"""

import sys as _sys

# Public names of each module.
_EXPORTS = {
    "errors": ("InputError", "SizeGuardError", "UndecidedError"),
    "quiver": ("Condensation", "Evolution", "Quiver", "ancestor_of", "ancestors",
               "concat", "condense", "descendants", "induced_subquiver",
               "isotypic", "validate_evolution"),
    "analysis": ("AnalysisReport", "analyze", "critical_ancestors",
                 "critical_vertices", "embeds_in", "height", "heights",
                 "is_monotonous", "is_normal", "is_phylogenetic_quiver",
                 "is_phylogenetic_vertex", "is_primitive", "monotonize",
                 "phylogenetic_core", "phylogenetic_status", "primitive_vertices",
                 "short_full_evolutions", "universal_evolution",
                 "verify_universal_bounded"),
    "clades": ("clade", "clade_height", "clade_report", "is_regular"),
    "esequence": ("ESequence", "PrecRelation", "build_forest",
                  "esequence_isomorphic", "evolutionary_sequence",
                  "forest_distance", "induce_prec", "realize_esequence",
                  "reconstruct", "terminal_ultrametric", "validate_esequence",
                  "validate_prec"),
    "metric": ("FiniteMetricSpace", "MapClassification", "PointMap", "Tower",
               "balls", "classify_map", "is_isometric", "is_trim", "min_gap",
               "n_nonzero", "norm_total", "quotient_u", "quotient_v",
               "to_fraction", "tower_u", "tower_v", "underline_d",
               "validate_space"),
}
# Home module of each public name; a module is its own home.
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Through __import__, as an import statement goes, so that -X importtime
    # reports the layer; importlib.import_module bypasses it.
    __import__(f"{__name__}.{home}")
    module = _sys.modules[f"{__name__}.{home}"]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
