"""Primitivity, heights, critical ancestors, normality, universal evolutions.

Height of a vertex X is the length of a shortest directed path from X to a
primitive vertex (a vertex all of whose ancestors are isotypic to it, i.e.
a sink class of the condensation). In a finite quiver every vertex reaches
some sink class, so heights are always finite.

A full evolution for X starts at a primitive vertex and terminates at X; a
short one has length h(X). X is phylogenetic when one of its full
evolutions embeds, as an isotypy-subsequence, in every full evolution for
X. On monotonous quivers (no edge drops height from tail to head) the
exact criterion is: phylogenetic iff every pair of equal-height critical
ancestors is isotypic. On non-monotonous quivers normality remains a
sufficient condition, and anything beyond it is reported as undecided
rather than guessed; :func:`verify_universal_bounded` offers an exact
check against all full evolutions up to a length bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .errors import InputError, SizeGuardError, UndecidedError
from .quiver import (
    Condensation,
    Evolution,
    Quiver,
    _adjacency,
    ancestors,
    condense,
    induced_subquiver,
    memo,
    validate_evolution,
)

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class VertexAnalysis:
    vertex: str
    height: int
    primitive: bool
    normal: bool
    phylogenetic: bool | None  # None = undecided


@dataclass(frozen=True)
class AnalysisReport:
    vertices: tuple[VertexAnalysis, ...]
    monotonous: bool
    phylogenetic_quiver: bool
    isotypy_class_count: int


@memo
def primitive_vertices(quiver: Quiver) -> frozenset[str]:
    """Vertices whose ancestors all lie in their own isotypy class: exactly
    the members of sink classes of the condensation."""
    cond = condense(quiver)
    non_sinks = {a for a, _ in cond.class_edges}
    out: set[str] = set()
    for i, cls in enumerate(cond.classes):
        if i not in non_sinks:
            out.update(cls)
    return frozenset(out)


def is_primitive(quiver: Quiver, v: str) -> bool:
    quiver.check_vertex(v)
    return v in primitive_vertices(quiver)


@memo
def _height_table(quiver: Quiver) -> dict[str, int]:
    prim = primitive_vertices(quiver)
    _, inn = _adjacency(quiver)
    table = {v: 0 for v in sorted(prim)}
    queue = deque(sorted(prim))
    while queue:
        u = queue.popleft()
        for w in inn[u]:  # w has an edge into u, so h(w) <= h(u) + 1
            if w not in table:
                table[w] = table[u] + 1
                queue.append(w)
    missing = set(quiver.vertices) - table.keys()
    if missing:  # impossible in a finite quiver; guards a broken invariant
        raise AssertionError(f"vertices without a primitive ancestor: {missing}")
    return table


def heights(quiver: Quiver) -> dict[str, int]:
    """Height of every vertex (shortest path to a primitive vertex)."""
    return dict(_height_table(quiver))


def height(quiver: Quiver, v: str) -> int:
    quiver.check_vertex(v)
    return _height_table(quiver)[v]


def is_monotonous(quiver: Quiver) -> bool:
    """True when no edge decreases height from tail to head."""
    h = _height_table(quiver)
    return all(h[tail] >= h[head] for tail, head in quiver.edges)


def monotonize(quiver: Quiver) -> Quiver:
    """Drop every degenerate edge (height of tail below height of head).

    Heights and the primitive set are unchanged by this: shortest paths to
    primitives descend by exactly one per step and never use a degenerate
    edge.
    """
    h = _height_table(quiver)
    return Quiver(
        quiver.vertices,
        tuple(e for e in quiver.edges if h[e[0]] >= h[e[1]]),
        quiver.labels,
    )


def critical_vertices(quiver: Quiver, evo: Evolution) -> list[int]:
    """Indices k of an evolution (A0, ..., Am) where the height steps up:
    h(A(k+1)) = h(Ak) + 1."""
    if evo.quiver != quiver:
        raise InputError("evolution belongs to a different quiver")
    h = _height_table(quiver)
    seq = evo.vertices
    return [k for k in range(len(seq) - 1) if h[seq[k + 1]] == h[seq[k]] + 1]


def critical_ancestors(quiver: Quiver, v: str) -> frozenset[str]:
    """Vertices at which some evolutionary history of ``v`` crosses into a
    higher level: A (distinct from ``v``) such that an edge A1 -> A exists
    with h(A1) = h(A) + 1 and A1 an ancestor of ``v``.

    ``v`` itself is never reported, even when a cycle through a higher
    vertex returns to it; with that convention the set matches the critical
    vertices of full evolutions on every monotonous quiver, where such
    cycles cannot occur.
    """
    return _critical_ancestors(quiver, v, False)


@memo
def _critical_ancestors(
    quiver: Quiver, v: str, include_self: bool
) -> frozenset[str]:
    quiver.check_vertex(v)
    h = _height_table(quiver)
    anc = ancestors(quiver, v)
    found: set[str] = set()
    for tail, head in set(quiver.edges):
        if tail in anc and h[tail] == h[head] + 1:
            if include_self or head != v:
                found.add(head)
    return frozenset(found)


def is_normal(quiver: Quiver, v: str) -> bool:
    """True when the critical ancestors of ``v``, grouped by height, are
    pairwise isotypic within each group."""
    return _grouped_isotypic(condense(quiver), _height_table(quiver),
                             critical_ancestors(quiver, v))


def _grouped_isotypic(
    cond: Condensation, h: dict[str, int], vertices: frozenset[str]
) -> bool:
    seen: dict[int, int] = {}
    for a in vertices:
        c = cond.class_index[a]
        if seen.setdefault(h[a], c) != c:
            return False
    return True


def _normal_self_inclusive(quiver: Quiver, v: str) -> bool:
    # Normality over the unrestricted critical-ancestor set (the vertex may
    # count as its own critical ancestor through a cycle). This is the
    # hypothesis the normal-implies-phylogenetic argument actually needs on
    # non-monotonous quivers; on monotonous ones the two notions coincide.
    return _grouped_isotypic(
        condense(quiver),
        _height_table(quiver),
        _critical_ancestors(quiver, v, True),
    )


def embeds_in(quiver: Quiver, alpha: Evolution, beta: Evolution) -> bool:
    """True when alpha's vertex sequence is an order-preserving subsequence
    of beta's up to isotypy. Greedy leftmost matching decides this."""
    if alpha.quiver != quiver or beta.quiver != quiver:
        raise InputError("evolutions belong to a different quiver")
    ci = condense(quiver).class_index
    pattern = [ci[x] for x in alpha.vertices]
    j = 0
    for w in beta.vertices:
        if j < len(pattern) and ci[w] == pattern[j]:
            j += 1
    return j == len(pattern)


def short_full_evolutions(quiver: Quiver, v: str) -> Iterator[Evolution]:
    """All full evolutions for ``v`` of minimal length h(v).

    These are exactly the reversed shortest paths from ``v`` to the
    primitive vertices; along each, heights descend by one per step.
    Parallel edges do not multiply the stream: one evolution is produced
    per vertex sequence.
    """
    quiver.check_vertex(v)
    h = _height_table(quiver)
    out, _ = _adjacency(quiver)

    def walk(u: str, acc: list[str]) -> Iterator[Evolution]:
        if h[u] == 0:
            yield validate_evolution(quiver, tuple(reversed(acc)))
            return
        for w in out[u]:
            if h[w] == h[u] - 1:
                acc.append(w)
                yield from walk(w, acc)
                acc.pop()

    yield from walk(v, [v])


def phylogenetic_status(quiver: Quiver, v: str) -> bool | None:
    """Whether ``v`` admits a universal evolution; None when undecidable.

    Monotonous quiver: decided exactly (phylogenetic iff normal). Otherwise
    only the sufficient direction is available: normal implies
    phylogenetic, and non-normal vertices come back as None.
    """
    quiver.check_vertex(v)
    if is_monotonous(quiver):
        return is_normal(quiver, v)
    if _normal_self_inclusive(quiver, v):
        return True
    return None


def is_phylogenetic_vertex(quiver: Quiver, v: str) -> bool:
    status = phylogenetic_status(quiver, v)
    if status is None:
        raise UndecidedError(
            "undecided: exact universality check unsupported for "
            "non-monotonous quivers"
        )
    return status


def universal_evolution(quiver: Quiver, v: str) -> Evolution | None:
    """A universal evolution for ``v``, or None when ``v`` is not
    phylogenetic.

    Every short full evolution of a phylogenetic vertex is universal; the
    lexicographically least vertex sequence is returned so the choice is
    deterministic.
    """
    status = phylogenetic_status(quiver, v)
    if status is None:
        raise UndecidedError(
            "undecided: exact universality check unsupported for "
            "non-monotonous quivers"
        )
    if not status:
        return None
    return min(short_full_evolutions(quiver, v), key=lambda e: e.vertices)


def verify_universal_bounded(
    quiver: Quiver,
    alpha: Evolution,
    max_length: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Does ``alpha`` embed in every full evolution for its terminal vertex
    of length at most ``max_length``?

    The space of bounded full evolutions is walked as a product of the
    quiver with the greedy matching state, which decides exactly the same
    predicate as listing every bounded evolution (greedy matching is
    deterministic per prefix) without writing the walks out. States visited
    are counted against ``node_budget``; exceeding it raises
    :class:`SizeGuardError`. A pass certifies universality only up to the
    bound.
    """
    if alpha.quiver != quiver:
        raise InputError("evolution belongs to a different quiver")
    prim = primitive_vertices(quiver)
    if alpha.initial not in prim:
        raise InputError(
            f"not a full evolution: initial vertex {alpha.initial!r} is not primitive"
        )
    if max_length < 0:
        raise InputError("max_length must be nonnegative")
    target = alpha.terminal
    ci = condense(quiver).class_index
    pattern = [ci[x] for x in alpha.vertices]
    need = len(pattern)
    _, inn = _adjacency(quiver)

    # Build candidate evolutions ancestor-first: start at a primitive and
    # extend by children. State = (vertex just consumed, greedy matches).
    dist: dict[tuple[str, int], int] = {}
    queue: deque[tuple[str, int]] = deque()
    for p in sorted(prim):
        j = 1 if ci[p] == pattern[0] else 0
        state = (p, j)
        if state not in dist:
            dist[state] = 0
            queue.append(state)
    while queue:
        v, j = queue.popleft()
        d = dist[(v, j)]
        if v == target and j < need:
            return False  # a length-d (<= max_length) full evolution avoids alpha
        if d >= max_length:
            continue
        for w in inn[v]:
            j2 = j + 1 if j < need and ci[w] == pattern[j] else j
            state = (w, j2)
            if state not in dist:
                if len(dist) >= node_budget:
                    raise SizeGuardError(
                        f"bounded universality check exceeded the node budget "
                        f"of {node_budget}"
                    )
                dist[state] = d + 1
                queue.append(state)
    return True


def phylogenetic_core(quiver: Quiver) -> Quiver:
    """Induced sub-quiver on the phylogenetic vertices of a monotonous
    quiver. Phylogeneticity is anti-hereditary there, so the core is
    ancestor-closed and itself a phylogenetic quiver."""
    if not is_monotonous(quiver):
        raise InputError("phylogenetic core requires a monotonous quiver")
    keep = [v for v in quiver.vertices if is_normal(quiver, v)]
    return induced_subquiver(quiver, keep)


def is_phylogenetic_quiver(quiver: Quiver) -> bool:
    """Monotonous and every vertex normal (heights are finite for free)."""
    return is_monotonous(quiver) and all(
        is_normal(quiver, v) for v in quiver.vertices
    )


def analyze(quiver: Quiver) -> AnalysisReport:
    """Per-vertex and quiver-level summary of the notions above."""
    h = _height_table(quiver)
    prim = primitive_vertices(quiver)
    rows = tuple(
        VertexAnalysis(
            vertex=v,
            height=h[v],
            primitive=v in prim,
            normal=is_normal(quiver, v),
            phylogenetic=phylogenetic_status(quiver, v),
        )
        for v in quiver.vertices
    )
    return AnalysisReport(
        vertices=rows,
        monotonous=is_monotonous(quiver),
        phylogenetic_quiver=is_phylogenetic_quiver(quiver),
        isotypy_class_count=len(condense(quiver).classes),
    )
