"""Clade sub-quivers, regular vertices, and clade-internal heights.

The clade of a vertex A is the sub-quiver induced on the descendants of A.
Its primitive vertices are precisely the host vertices isotypic to A, and
every vertex on a path to them, like every child of a descendant, is a
descendant. So the clade-internal heights h_A are a breadth-first search
from A's class along host in-edges, read off the host without building the
clade. For a regular apex in a phylogenetic quiver, h_A is also given by a
closed formula in terms of the host heights and the parental map;
:func:`clade_height` implements it, and :meth:`Clade.heights` keeps the
direct in-clade computation available as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analysis
from .errors import InputError
from .quiver import Quiver, ancestor_of, condense, descendants, induced_subquiver


@dataclass(frozen=True)
class Clade:
    """Induced sub-quiver on the descendants of ``apex``, sharing host ids."""

    host: Quiver
    apex: str
    quiver: Quiver

    @property
    def members(self) -> tuple[str, ...]:
        return self.quiver.vertices

    def heights(self) -> dict[str, int]:
        """Clade-internal heights h_A, computed inside the sub-quiver."""
        return analysis.heights(self.quiver)


def clade(quiver: Quiver, apex: str) -> Clade:
    return Clade(quiver, apex, induced_subquiver(quiver, descendants(quiver, apex)))


def is_regular(quiver: Quiver, apex: str) -> bool:
    """True when every descendant of ``apex`` of equal height has a direct
    edge to ``apex``. The apex itself is exempt: its zero-length chain needs
    no loop."""
    return _regular_over(quiver, apex, descendants(quiver, apex))


def _regular_over(quiver: Quiver, apex: str, members) -> bool:
    """:func:`is_regular` with the descendants of ``apex`` given."""
    h = analysis._height_table(quiver)
    return all(b == apex or h[b] != h[apex] or quiver.has_edge(b, apex)
               for b in members)


def clade_height(quiver: Quiver, apex: str, b: str) -> int:
    """Height of ``b`` inside the clade of ``apex`` via the parental-map
    formula: n - m when the (n-m)-fold parent of [b] is [apex], n - m + 1
    otherwise, where m, n are the host heights of apex and b.

    Requires a phylogenetic host and a regular apex (the second branch of
    the formula is unjustified otherwise); compute heights directly in
    ``clade(quiver, apex).quiver`` for irregular apexes.
    """
    from . import esequence

    quiver.check_vertex(apex)
    quiver.check_vertex(b)
    if not analysis.is_phylogenetic_quiver(quiver):
        raise InputError("clade_height requires a phylogenetic quiver")
    if not ancestor_of(quiver, apex, b):
        raise InputError(f"{b!r} is not a descendant of {apex!r}")
    if not is_regular(quiver, apex):
        raise InputError(
            f"{apex!r} is not regular; compute heights directly in the clade"
        )
    h = analysis._height_table(quiver)
    m, n = h[apex], h[b]
    seq = esequence.evolutionary_sequence(quiver)
    above = seq.parent_iter(esequence.class_label(quiver, b), n - m)
    return n - m + (above != esequence.class_label(quiver, apex))


def clade_report(quiver: Quiver, apex: str) -> dict:
    """JSON-ready clade summary: apex, members, h_A table, regular flag.

    h_A is the host BFS of the module notes, from the sorted members of the
    apex's class; its keys follow the order of the in-clade height BFS."""
    cond = condense(quiver)  # class_of rejects an unknown apex
    table = analysis._distances_to(quiver, cond.classes[cond.class_of(apex)])
    return {
        "apex": apex,
        "members": sorted(table),
        "regular": _regular_over(quiver, apex, table),
        "clade_heights": table,
    }
