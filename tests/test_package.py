"""The package's public surface: names re-exported lazily from their homes."""

from __future__ import annotations

import importlib

import pytest

import phyloquiver

# Every public name, with its home module; a module is its own home.
PUBLIC = {
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
NAMES = sorted([*PUBLIC, *(n for names in PUBLIC.values() for n in names)])


def test_all_lists_the_public_names():
    assert len(NAMES) == 73
    assert phyloquiver.__all__ == NAMES
    assert set(NAMES) <= set(dir(phyloquiver))


@pytest.mark.parametrize("home", sorted(PUBLIC))
def test_each_name_is_its_home_attribute(home):
    module = importlib.import_module(f"phyloquiver.{home}")
    assert getattr(phyloquiver, home) is module
    for name in PUBLIC[home]:
        assert getattr(phyloquiver, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from phyloquiver import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert all(namespace[n] is getattr(phyloquiver, n) for n in NAMES)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        phyloquiver.no_such_name
    assert not hasattr(phyloquiver, "Fraction")
