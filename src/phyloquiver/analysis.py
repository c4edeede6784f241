"""Primitivity, heights, critical ancestors, normality, universal evolutions.

Height of a vertex X is the length of a shortest directed path from X to a
primitive vertex (a vertex all of whose ancestors are isotypic to it, i.e.
a sink class of the condensation). In a finite quiver every vertex reaches
some sink class, so heights are always finite.

A full evolution for X starts at a primitive vertex and terminates at X; a
short one has length h(X). X is phylogenetic when one of its full
evolutions embeds, as an isotypy-subsequence, in every full evolution for
X. On monotonous quivers (no edge climbs in height from tail to head) the
exact criterion is: phylogenetic iff every pair of equal-height critical
ancestors is isotypic. On any other quiver normality still suffices, and a
vertex whose class reaches two sink classes is not phylogenetic. Where
these linear rules leave a vertex open, one pass over the condensation
(:func:`_guaranteed`) decides every vertex: the greatest fixed point of
the patterns each vertex's evolutions are sure to embed, iterated class by
class, parents first. :func:`verify_universal_bounded` checks any one
evolution directly, up to any length.

Normality is decided for every vertex at once, in one pass over the
condensation (:func:`_normality`), and :func:`universal_evolution` takes
the first item of a least-first walk over the short full evolutions, which
never backtracks, rather than searching all of them.

That pass judges, per isotypy class C, the set S_C of critical heads over
C's ancestor reach: C's own critical heads united with its parent classes'
sets, the closure :func:`~phyloquiver.quiver._class_reach` takes over the
class DAG. S_C is kept as two int bitsets, one bit per (height, class)
slot of its heads and one per height, and C is normal exactly when both
hold as many bits. A vertex ``v`` of C has critical ancestors S_C minus
``v``, which differ from S_C only when ``v`` is a critical head itself.
That takes an edge inside C whose tail lies one height above ``v``, which
a monotonous quiver cannot hold: its cycles stay at one height. Leaving
``v`` out touches only C's slot at height h(v), so ``v`` of an abnormal
class C is normal exactly when S_C holds one slot more than heights, the
height holding two slots is h(v), and ``v`` is C's only member in S_C
there. A class with an abnormal parent inherits that parent's clash, which
involves no slot of C, and so rescues no member by the same rule.

On a monotonous quiver the pass needs no bitsets. Heights never rise
along a path, so each parent class P of a class C of height m lies at
height m or m - 1 (an edge drops at most one height), and C is normal
exactly when every P is normal and C's drop parents and its equal-height
parents' parents are one class D. If C is normal, S_P lies in S_C for
every P, so those classes at height m - 1 coincide. If the rule holds,
S_C holds members of D at height m - 1 and S_D below, by induction down
the heights. D is C's parent in the E-sequence, and the quiver is
phylogenetic exactly when every class is normal.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain
from typing import Iterator

from .errors import Frozen, InputError, SizeGuardError
from .quiver import (
    Evolution,
    Quiver,
    _adjacency,
    _distances_to,
    _reached_classes,
    condense,
    induced_subquiver,
    memo,
)

# States the bounded universality check may visit.
_MAX_STATES = 2_000_000


class VertexAnalysis(Frozen):
    """One vertex's row of :func:`analyze`: its id, int height, status bools."""

    _fields = ("vertex", "height", "primitive", "normal", "phylogenetic")


class AnalysisReport(Frozen):
    """:func:`analyze`'s tuple of vertex rows, two bools and int class count."""

    _fields = ("vertices", "monotonous", "phylogenetic_quiver", "isotypy_class_count")


@memo
def primitive_vertices(quiver: Quiver) -> frozenset[str]:
    """Vertices whose ancestors all lie in their own isotypy class: exactly
    the members of sink classes of the condensation."""
    cond = condense(quiver)
    out: set[str] = set()
    for cls, parents in zip(cond.classes, cond.parents):
        if not parents:
            out.update(cls)
    return frozenset(out)


def is_primitive(quiver: Quiver, v: str) -> bool:
    quiver.check_vertex(v)
    return v in primitive_vertices(quiver)


@memo
def _height_table(quiver: Quiver) -> dict[str, int]:
    # every vertex reaches a sink class of the finite condensation
    return _distances_to(quiver, sorted(primitive_vertices(quiver)))


def heights(quiver: Quiver) -> dict[str, int]:
    """Height of every vertex (shortest path to a primitive vertex)."""
    return dict(_height_table(quiver))


def height(quiver: Quiver, v: str) -> int:
    quiver.check_vertex(v)
    return _height_table(quiver)[v]


@memo
def is_monotonous(quiver: Quiver) -> bool:
    """True when no edge climbs in height from tail to head: h(tail) >= h(head)."""
    h = _height_table(quiver)
    return all(h[tail] >= h[head] for tail, head in quiver.edges)


def monotonize(quiver: Quiver) -> Quiver:
    """Drop every degenerate edge (height of tail below height of head).

    Heights and the primitive set are unchanged by this: shortest paths to
    primitives descend by exactly one per step and never use a degenerate
    edge.
    """
    h = _height_table(quiver)
    return Quiver._trusted(vertices=quiver.vertices,
                           edges=tuple(e for e in quiver.edges if h[e[0]] >= h[e[1]]))


def critical_vertices(quiver: Quiver, evo: Evolution) -> list[int]:
    """Indices k of an evolution (A0, ..., Am) where the height steps up:
    h(A(k+1)) = h(Ak) + 1."""
    if evo.quiver != quiver:
        raise InputError("evolution belongs to a different quiver")
    h = _height_table(quiver)
    seq = evo.vertices
    return [k for k in range(len(seq) - 1) if h[seq[k + 1]] == h[seq[k]] + 1]


@memo
def critical_ancestors(quiver: Quiver, v: str) -> frozenset[str]:
    """Vertices at which some evolutionary history of ``v`` crosses into a
    higher level: A (distinct from ``v``) such that an edge A1 -> A exists
    with h(A1) = h(A) + 1 and A1 an ancestor of ``v``.

    ``v`` itself is never reported, even when a cycle through a higher
    vertex returns to it; with that convention the set matches the critical
    vertices of full evolutions on every monotonous quiver, where such
    cycles cannot occur.
    """
    heads, reached = _critical_heads(quiver), _reached_classes(quiver, v)
    # Copying a finished set sizes the frozenset's table to fit; building it
    # from a generator leaves it up to twice as large.
    return frozenset({x for j in reached for x in heads[j] if x != v})


@memo
def _critical_heads(quiver: Quiver) -> tuple[tuple[str, ...], ...]:
    """Per class id, the distinct heads of the edges (tail, head) with the
    tail in that class and h(tail) = h(head) + 1."""
    h, ci = _height_table(quiver), condense(quiver).class_index
    heads: list[dict[str, None]] = [{} for _ in condense(quiver).classes]
    for tail, head in quiver.edges:
        if h[tail] == h[head] + 1:
            heads[ci[tail]][head] = None
    return tuple(map(tuple, heads))


@memo
def _normality(quiver: Quiver) -> tuple[tuple[bool, ...], tuple[str | None, ...],
                                        tuple[int | None, ...] | None]:
    """Per class id, self-inclusive normality and the rescued member or
    None; then, when the quiver is phylogenetic, each class's parent class
    one height down (None at height 0), else None. One pass over the class
    order, parents first: the parental rule of the module docstring on a
    monotonous quiver, the slot rule on any other. A class's pair of
    bitsets is dropped once its last child class has read it, so a k-chain
    keeps O(k) bits live.
    """
    cond, h = condense(quiver), _height_table(quiver)
    n = len(cond.classes)
    normal = [True] * n
    if is_monotonous(quiver):
        ch = [h[cls[0]] for cls in cond.classes]
        up: list[int | None] = [None] * n
        for c in cond.order:
            for p in cond.parents[c]:
                d = up[p] if ch[p] == ch[c] else p
                if not normal[p] or up[c] not in (None, d):
                    normal[c] = False
                up[c] = d
        return tuple(normal), (None,) * n, tuple(up) if all(normal) else None
    ci, heads = cond.class_index, _critical_heads(quiver)
    slot_ids: dict[tuple[int, int], int] = {}
    at_height: dict[int, list[int]] = {}
    readers = [0] * n
    for parents in cond.parents:
        for p in parents:
            readers[p] += 1
    pairs: list[tuple[int, int] | None] = [None] * n
    rescued: list[str | None] = [None] * n
    for c in cond.order:
        slots = levels = 0
        for p in cond.parents[c]:
            slots |= pairs[p][0]
            levels |= pairs[p][1]
            readers[p] -= 1
            if not readers[p]:
                pairs[p] = None
        for x in heads[c]:
            slot = (h[x], ci[x])
            if slot not in slot_ids:
                slot_ids[slot] = len(slot_ids)
                at_height.setdefault(h[x], []).append(slot_ids[slot])
            slots |= 1 << slot_ids[slot]
            levels |= 1 << h[x]
        pairs[c] = slots, levels
        extra = slots.bit_count() - levels.bit_count()
        normal[c] = not extra
        if extra == 1:
            mine = [x for x in heads[c] if ci[x] == c and sum(
                slots >> i & 1 for i in at_height[h[x]]) == 2]
            if len(mine) == 1:
                rescued[c] = mine[0]
    return tuple(normal), tuple(rescued), None


def is_normal(quiver: Quiver, v: str) -> bool:
    """True when the critical ancestors of ``v``, grouped by height, are
    pairwise isotypic within each group.

    Decided per isotypy class C from S_C, the critical heads over C's
    ancestor reach: C is normal when S_C holds as many (height, class)
    slots as heights. Otherwise ``v`` is normal only off monotonous
    quivers, as the one member of C that S_C holds at the single height
    with two slots, so that leaving ``v`` out ends the clash.
    """
    normal, rescued, _ = _normality(quiver)
    c = condense(quiver).class_of(v)
    return normal[c] or rescued[c] == v


def _normal_self_inclusive(quiver: Quiver, v: str) -> bool:
    # Normality over the unrestricted critical-ancestor set (the vertex may
    # count as its own critical ancestor through a cycle). This is the
    # hypothesis the normal-implies-phylogenetic argument actually needs on
    # non-monotonous quivers; on monotonous ones the two notions coincide.
    return _normality(quiver)[0][condense(quiver).class_of(v)]


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
    """All full evolutions for ``v`` of minimal length h(v), least first.

    These are exactly the reversed shortest paths from ``v`` to the
    primitive vertices; along each, heights descend by one per step. The
    cone of ``v``, the vertices it reaches that way grouped by height, is
    built first. A depth-first walk then climbs from the cone's primitives,
    each step trying the children one height up in the cone. Every cone
    vertex lies on a descending path from ``v``, so the walk never enters a
    dead end. Candidates are tried in sorted order, so the ancestor-first
    vertex sequences come out in lexicographic order. Parallel edges do not
    multiply the stream: one evolution is produced per vertex sequence.
    """
    quiver.check_vertex(v)
    h = _height_table(quiver)
    out, inn = _adjacency(quiver)
    cone = [{v}]
    for k in range(h[v], 0, -1):
        cone.append({w for u in cone[-1] for w in out[u] if h[w] == k - 1})
    cone.reverse()  # cone[k] holds the reached vertices of height k
    path: list[str] = []
    stack = [iter(sorted(cone[0]))]  # stack[k] walks the candidates for path[k]
    while stack:
        u = next(stack[-1], None)
        if u is None:
            stack.pop()
            if path:
                path.pop()
        elif u == v:
            yield Evolution._trusted(quiver=quiver, vertices=(*path, v))
        else:
            stack.append(filter(cone[len(path) + 1].__contains__, inn[u]))
            path.append(u)


def phylogenetic_status(quiver: Quiver, v: str) -> bool:
    """Whether ``v`` admits a universal evolution, decided on any quiver.

    A read of :func:`_phylogenetic`, which holds every vertex; an unknown
    id raises :class:`InputError`. A universal evolution embeds in every
    short full evolution, so it is short and has their one class sequence:
    ``v`` is phylogenetic exactly when any short full evolution embeds in
    every full evolution. The table's first read decides that
    for every vertex at once, by linear rules and, where they leave a
    vertex open, by one pass over the condensation (:func:`_guaranteed`),
    so no read searches and none is refused.
    """
    if v not in (table := _phylogenetic(quiver)):
        quiver.check_vertex(v)  # the table holds every vertex: v is unknown
    return table[v]


is_phylogenetic_vertex = phylogenetic_status


@memo
def _phylogenetic(quiver: Quiver) -> dict[str, bool]:
    """Per vertex, :func:`phylogenetic_status`; total, and never written
    after it is stored. Linear rules come first. A normal vertex
    (self-inclusive) is phylogenetic, and on a monotonous quiver no other
    is. A vertex whose class reaches two sink classes is not, as an
    evolution from one never enters the other: ``sink`` holds per class id
    the one sink class it reaches, or -1, and is all -1 on a monotonous
    quiver. When a vertex is left open, :func:`_guaranteed` decides every
    vertex instead."""
    cond, normal = condense(quiver), _normality(quiver)[0]
    ci, sink = cond.class_index, [-1] * len(cond.classes)
    for c in () if is_monotonous(quiver) else cond.order:
        found = {sink[p] for p in cond.parents[c]} or {c}
        sink[c] = found.pop() if len(found) == 1 else -1
    status = {v: normal[ci[v]] for v in quiver.vertices
              if normal[ci[v]] or sink[ci[v]] < 0}
    return status if len(status) == len(quiver.vertices) else _guaranteed(quiver)


def _guaranteed(quiver: Quiver) -> dict[str, bool]:
    """Every vertex's status from one pass over the condensation.

    The α tree: π(v) is the first out-neighbour of ``v`` one height down in
    the sorted out adjacency (None, the root, at height 0), and α(v) is
    α(π(v)) followed by ``v``, a short full evolution; α(root) is empty.
    Each vertex's bit is its position in the height table, from 1; the
    root's is 0. Every short full evolution of a phylogenetic vertex is
    universal (:func:`phylogenetic_status`), so α(v) decides ``v`` whichever
    down-neighbour π picks.

    G(u), the guaranteed patterns of u, is the set of tree nodes x whose
    α(x) embeds, up to isotypy, in every full evolution ending at u. A
    vertex ``v`` is phylogenetic exactly when ``v`` is in G(v). Appending u
    to an evolution E maps its pattern set S to step(S) = S ∪ {x in u's
    class : π(x) ∈ S}, since α(x) embeds in E followed by u exactly when it
    embeds in E, or α(π(x)) does and u has x's class. The sets are
    prefix-closed, and on those step distributes over intersection, so the
    meet over all evolutions is the greatest fixed point of G(u) =
    step(⋂ G(u′) over u′ ∈ out[u]) (Kildall, POPL 1973; Kam & Ullman, Acta
    Informatica 1977), where a member of a sink class, in which its
    evolutions start, also meets {root}: a sink class takes step({root}),
    the class itself. Classes go in ``cond.order``, parents first, so a
    class meets final sets outside it and iterates its own from ⊤ (the int
    -1) until they are stable. A set is one int of bits, and a class's sets
    are dropped once it and its last child class have read them.

    Cost. The tree takes O(E). Inside a class C, step is inflationary, so
    G(u) is the meet over C's exits of step applied once per edge of a
    shortest path to them, reached after |C| rounds; one more finds them
    stable. A round costs an int AND per edge out of C and |C|² bit tests,
    each O(V / 64) words: O(Σ_C (|C| + 1)(E_C + |C|²) · V / 64) in all, and
    O(E · V / 64) when every class is one vertex.
    """
    cond, h, out = condense(quiver), _height_table(quiver), _adjacency(quiver)[0]
    bit = {v: i for i, v in enumerate(h, 1)}
    pi = {v: next((bit[w] for w in out[v] if h[w] == h[v] - 1), 0) for v in h}  # π's bit
    readers = Counter(chain(cond.order, *cond.parents))  # itself, then each child
    g: dict[str, int] = {}
    status: dict[str, bool] = {}
    for c in cond.order:
        members, start = cond.classes[c], -1 if cond.parents[c] else 1
        g.update(dict.fromkeys(members, -1))
        stable = False
        while not stable:
            stable = True
            for u in members:
                meet = start
                for w in out[u]:
                    meet &= g[w]
                meet |= sum(1 << bit[x] for x in members if meet >> pi[x] & 1)
                if meet != g[u]:
                    g[u], stable = meet, False
        status.update((v, bool(g[v] >> bit[v] & 1)) for v in members)
        for p in (c, *cond.parents[c]):
            readers[p] -= 1
            if not readers[p]:
                for x in cond.classes[p]:
                    del g[x]
    return status


def universal_evolution(quiver: Quiver, v: str) -> Evolution | None:
    """A universal evolution for ``v``, or None when ``v`` is not
    phylogenetic.

    Every short full evolution of a phylogenetic vertex is universal; the
    lexicographically least vertex sequence, the first one
    :func:`short_full_evolutions` yields, is returned so the choice is
    deterministic.
    """
    path = _universal_path(quiver, v)
    return None if path is None else Evolution._trusted(quiver=quiver, vertices=path)


@memo
def _universal_path(quiver: Quiver, v: str) -> tuple[str, ...] | None:
    """The vertices of :func:`universal_evolution`, or None; kept as ids,
    since a stored :class:`Evolution` would hold its own quiver. The status
    is a table read, so only a phylogenetic ``v`` lists its short full
    evolutions, and only the first."""
    status = phylogenetic_status(quiver, v)  # rejects an unknown v
    return next(short_full_evolutions(quiver, v)).vertices if status else None


def verify_universal_bounded(
    quiver: Quiver,
    alpha: Evolution,
    max_length: int,
) -> bool:
    """Does ``alpha`` embed in every full evolution for its terminal vertex
    of length at most ``max_length``?

    The space of bounded full evolutions is walked as a product of the
    quiver with the greedy matching state, which decides exactly the same
    predicate as listing every bounded evolution (greedy matching is
    deterministic per prefix) without writing the walks out. States visited
    are counted against ``_MAX_STATES``; exceeding it raises
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

    # Build candidate evolutions ancestor-first: one state per primitive,
    # then extend by children. State = (vertex just consumed, greedy matches).
    dist = {(p, int(ci[p] == pattern[0])): 0 for p in sorted(prim)}
    queue = deque(dist)
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
                if len(dist) >= _MAX_STATES:
                    raise SizeGuardError(
                        f"bounded universality check exceeded the node budget "
                        f"of {_MAX_STATES}"
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
    normal, ci = _normality(quiver)[0], condense(quiver).class_index
    keep = [v for v in quiver.vertices if normal[ci[v]]]
    return induced_subquiver(quiver, keep)


def is_phylogenetic_quiver(quiver: Quiver) -> bool:
    """Monotonous and every vertex normal, decided by the parental rule."""
    return _normality(quiver)[2] is not None


def analyze(quiver: Quiver) -> AnalysisReport:
    """Per-vertex and quiver-level summary of the notions above."""
    h = _height_table(quiver)
    prim = primitive_vertices(quiver)
    cond = condense(quiver)
    normal, rescued, up = _normality(quiver)
    rows = []
    for v in quiver.vertices:
        c = cond.class_index[v]
        rows.append(VertexAnalysis._trusted(
            vertex=v,
            height=h[v],
            primitive=v in prim,
            normal=normal[c] or rescued[c] == v,
            phylogenetic=phylogenetic_status(quiver, v),
        ))
    return AnalysisReport._trusted(
        vertices=tuple(rows),
        monotonous=is_monotonous(quiver),
        phylogenetic_quiver=up is not None,
        isotypy_class_count=len(cond.classes),
    )
