"""Clades, regular vertices, and clade-internal heights.

The clade of a vertex A is the sub-quiver induced on the descendants of A.
Its primitive vertices are precisely the host vertices isotypic to A, and
every vertex on a path to them, like every child of a descendant, is a
descendant. So the descendants and the clade-internal heights h_A are one
breadth-first search from A's class along host in-edges, read off the host
with no clade and no reachability closure built. For a regular apex in a
phylogenetic quiver, h_A is also given by a closed formula in terms of the
host heights and the parental map, :func:`clade_height`; the direct
in-clade computation ``heights(clade(q, A))`` stays as an independent check.

Each apex's regular flag is kept on the quiver once asked, one bool per
apex; clade heights are not, since reports over a chain would keep
~n^2/2 of them.
"""

from __future__ import annotations

from . import analysis
from .errors import InputError
from .quiver import (
    Quiver,
    _distances_to,
    _edge_set,
    ancestor_of,
    condense,
    descendants,
    induced_subquiver,
    memo,
)


def clade(quiver: Quiver, apex: str) -> Quiver:
    """Sub-quiver induced on the descendants of ``apex``, sharing host ids."""
    return induced_subquiver(quiver, descendants(quiver, apex))


def is_regular(quiver: Quiver, apex: str) -> bool:
    """True when every descendant of ``apex`` of equal height has a direct
    edge to ``apex``. The apex itself is exempt: its zero-length chain needs
    no loop."""
    return _regular_over(quiver, apex)


@memo
def _regular(quiver: Quiver) -> dict[str, bool]:
    """Per apex asked, its :func:`is_regular` flag; filled by
    :func:`_regular_over`."""
    return {}


def _regular_over(quiver: Quiver, apex: str, members=None) -> bool:
    """:func:`is_regular`, judged once per apex over ``members``, the
    descendants of ``apex`` when the caller holds them."""
    table = _regular(quiver)
    if apex not in table:
        if members is None:
            members = descendants(quiver, apex)  # rejects an unknown apex
        h, edges = analysis._height_table(quiver), _edge_set(quiver)
        m = h[apex]
        table.setdefault(apex, all(b == apex or h[b] != m or (b, apex) in edges
                                   for b in members))
    return table[apex]


def clade_height(quiver: Quiver, apex: str, b: str) -> int:
    """Height of ``b`` inside the clade of ``apex`` via the parental-map
    formula: n - m when the (n-m)-fold parent of [b] is [apex], n - m + 1
    otherwise, where m, n are the host heights of apex and b.

    Requires a phylogenetic host and a regular apex (the second branch of
    the formula is unjustified otherwise); compute heights directly in
    ``clade(quiver, apex)`` for irregular apexes.
    """
    quiver.check_vertex(apex)
    quiver.check_vertex(b)
    up = analysis._normality(quiver)[2]
    if up is None:
        raise InputError("clade_height requires a phylogenetic quiver")
    if not ancestor_of(quiver, apex, b):
        raise InputError(f"{b!r} is not a descendant of {apex!r}")
    if not _regular_over(quiver, apex):
        raise InputError(
            f"{apex!r} is not regular; compute heights directly in the clade"
        )
    h, ci = analysis._height_table(quiver), condense(quiver).class_index
    m, n = h[apex], h[b]
    above = ci[b]
    for _ in range(n - m):
        above = up[above]
    return n - m + (above != ci[apex])


def clade_report(quiver: Quiver, apex: str) -> dict:
    """JSON-ready clade summary: apex, members, h_A table, regular flag.

    h_A is the host BFS of the module notes, from the sorted members of the
    apex's class; its keys follow the order of the in-clade height BFS."""
    cond = condense(quiver)  # class_of rejects an unknown apex
    table = _distances_to(quiver, cond.classes[cond.class_of(apex)])
    return {
        "apex": apex,
        "members": sorted(table),
        "regular": _regular_over(quiver, apex, table),
        "clade_heights": table,
    }
