"""Finite quivers, evolutions, and the ancestor preorder.

A quiver is a finite directed multigraph. Edges are (tail, head) pairs and
point from a child to one of its parents, so walking forward along edges
from a vertex visits its ancestors. Loops and parallel edges are allowed;
parallel edges never influence reachability or anything derived from it.

An evolution is a directed path recorded ancestor-first: the sequence
(A0, A1, ..., Am) is valid when each step Ak -> A(k-1) is backed by an edge
with tail Ak and head A(k-1). A is an ancestor of B exactly when some
evolution runs from A to B, i.e. when A is reachable from B along edges.
Isotypy (mutual ancestry) partitions the vertices into the strongly
connected components. :func:`condense` records them once, with the class
DAG as each class's ``parents`` (the other classes its edges reach) and an
``order`` that lists every class after all of its parents; reachability,
primitivity, normality and the evolutionary sequence are walks over that
order. Ancestor reach is one Python int per class, a bitset over the class
ids, so an ancestry test is one bit test. Descendants are not stored: they
are the breadth-first search along in-edges that also gives heights.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Iterable, Mapping, Sequence

from .errors import Frozen, InputError


def memo(fn):
    """Store ``fn(value, *args)`` on the value itself, keyed by the
    function's name and its positional arguments.

    Any value serves: its ``_memo`` table is made on first read, so no
    constructor stores one. Results live and die with their value, and a
    lookup never hashes it. Keys are strings and argument values, so a
    warmed quiver still pickles. Two threads racing a first call both
    compute equal values; the first one stored is the one every caller
    gets. No stored value may hold the quiver, as an :class:`Evolution`
    does: that would tie the quiver to its own memo in a reference cycle,
    freed only by the cyclic collector. Store vertex ids and wrap them on
    the way out.
    """
    name = fn.__qualname__

    @functools.wraps(fn)
    def memoized(value, *args):
        key = (name, *args) if args else name
        try:
            return value._memo[key]
        except KeyError:
            table = value._memo
        except AttributeError:
            table = value.__dict__.setdefault("_memo", {})
        return table.setdefault(key, fn(value, *args))  # no lookup error chained

    return memoized


class Quiver(Frozen):
    """Immutable finite quiver over string vertex ids.

    ``edges[i] = (tail, head)`` reads "tail descends from head". A quiver
    is these two tuples, made of any iterables the constructor is given,
    and nothing else: two quivers are equal, and hash alike, exactly when
    their vertex and edge tuples are. Results derived from it go into a
    ``_memo`` table that :func:`memo` makes on first read; it is not a
    field, so it is never compared, hashed or shown.
    """

    _fields = ("vertices", "edges")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> None:
        self.__dict__.update(vertices=tuple(vertices), edges=tuple(map(tuple, edges)))
        if not self.vertices:
            raise InputError("a quiver needs at least one vertex")
        seen: set[str] = set()
        for v in self.vertices:
            if v in seen:
                raise InputError(f"duplicate vertex id {v!r}")
            seen.add(v)
        for tail, head in self.edges:
            if tail not in seen:
                raise InputError(f"edge ({tail!r}, {head!r}): unknown tail vertex")
            if head not in seen:
                raise InputError(f"edge ({tail!r}, {head!r}): unknown head vertex")

    def check_vertex(self, v: str) -> None:
        if v not in _adjacency(self)[0]:
            raise InputError(f"unknown vertex id {v!r}")

    def has_edge(self, tail: str, head: str) -> bool:
        return (tail, head) in _edge_set(self)

    def __repr__(self) -> str:  # a field-by-field repr would drown test output
        return f"Quiver({len(self.vertices)} vertices, {len(self.edges)} edges)"


class Condensation(Frozen):
    """Partition of a quiver into isotypy classes plus the class-level DAG.

    ``classes`` are the strongly connected components, each sorted, and the
    classes themselves sorted by their first member. ``parents[i]`` holds
    the sorted ids of the other classes that edges out of class ``i``
    reach, and ``order`` lists every class id after all of its parents
    (ancestors first).
    """

    _fields = ("classes", "class_index", "parents", "order")

    def class_of(self, v: str) -> int:
        try:
            return self.class_index[v]
        except KeyError:
            raise InputError(f"unknown vertex id {v!r}") from None


class Evolution(Frozen):
    """A validated directed path, listed ancestor-first.

    ``vertices = (A0, ..., Am)`` with initial vertex A0 and terminal vertex
    Am, each step A(k+1) -> Ak backed by an edge of ``quiver``; parallel
    edges do not tell evolutions apart. It stores ``vertices``, any
    iterable, as a tuple and checks every vertex and step.
    """

    _fields = ("quiver", "vertices")

    def __init__(self, quiver: Quiver, vertices: Iterable[str]) -> None:
        vertices = tuple(vertices)
        self.__dict__.update(quiver=quiver, vertices=vertices)
        if not vertices:
            raise InputError("an evolution contains at least one vertex")
        for v in vertices:
            quiver.check_vertex(v)
        edges = _edge_set(quiver)
        for k, (head, tail) in enumerate(zip(vertices, vertices[1:]), 1):
            if (tail, head) not in edges:
                raise InputError(f"step {k}: no edge from {tail!r} to {head!r}")

    @property
    def initial(self) -> str:
        return self.vertices[0]

    @property
    def terminal(self) -> str:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def __repr__(self) -> str:
        return "Evolution(" + " <- ".join(self.vertices) + ")"


def validate_evolution(quiver: Quiver, vertices: Iterable[str]) -> Evolution:
    """The :class:`Evolution` of ``vertices``, any iterable, checked."""
    return Evolution(quiver, vertices)


def concat(alpha: Evolution, beta: Evolution) -> Evolution:
    """Concatenate two evolutions; the terminal of ``alpha`` must be the
    initial vertex of ``beta``."""
    if alpha.quiver != beta.quiver:
        raise InputError("cannot concatenate evolutions from different quivers")
    if alpha.terminal != beta.initial:
        raise InputError(
            f"endpoint mismatch: {alpha.terminal!r} != {beta.initial!r}"
        )
    return Evolution._trusted(quiver=alpha.quiver,
                              vertices=alpha.vertices + beta.vertices[1:])


def ancestors(quiver: Quiver, v: str) -> frozenset[str]:
    """All vertices reachable from ``v`` along edges, ``v`` included."""
    classes = condense(quiver).classes
    return frozenset({x for j in _reached_classes(quiver, v) for x in classes[j]})


def descendants(quiver: Quiver, v: str) -> frozenset[str]:
    """All vertices from which ``v`` is reachable, ``v`` included, found by
    the in-edge search :func:`_distances_to` in linear memory."""
    quiver.check_vertex(v)
    return frozenset(_distances_to(quiver, (v,)))


def ancestor_of(quiver: Quiver, a: str, b: str) -> bool:
    """True when some evolution runs from ``a`` to ``b`` (a <= b); length 0
    counts, so every vertex is an ancestor of itself."""
    cond = condense(quiver)  # class_of rejects an unknown id
    reach = _class_reach(quiver)
    i, j = reach[cond.class_of(a)], reach[cond.class_of(b)]
    return i | j == j  # a's class lies in b's reach exactly when a's reach does


def isotypic(quiver: Quiver, a: str, b: str) -> bool:
    """True when ``a`` and ``b`` are mutually ancestral, i.e. share a
    strongly connected component."""
    cond = condense(quiver)  # class_of rejects an unknown id
    return cond.class_of(a) == cond.class_of(b)


@memo
def condense(quiver: Quiver) -> Condensation:
    """Strongly connected components and the acyclic class digraph."""
    out_adj, _ = _adjacency(quiver)
    comps = _tarjan(quiver.vertices, out_adj)
    # Classes are disjoint, so sorting them compares first members only.
    classes = tuple(sorted(map(tuple, map(sorted, comps))))
    class_index = {v: i for i, cls in enumerate(classes) for v in cls}
    parents: list[set[int]] = [set() for _ in classes]
    for tail, head in quiver.edges:
        a, b = class_index[tail], class_index[head]
        if a != b:
            parents[a].add(b)
    return Condensation._trusted(
        classes=classes,
        class_index=class_index,
        parents=tuple(tuple(sorted(p)) for p in parents),
        order=tuple(class_index[c[0]] for c in comps),  # Tarjan emits ancestors first
    )


def induced_subquiver(quiver: Quiver, keep: Iterable[str]) -> Quiver:
    """Sub-quiver on ``keep`` with every edge whose endpoints both survive.
    Vertex and edge order of the host is preserved."""
    kept = dict.fromkeys(keep)
    for v in kept:
        quiver.check_vertex(v)
    if not kept:
        raise InputError("induced sub-quiver needs at least one vertex")
    return Quiver._trusted(
        vertices=tuple(v for v in quiver.vertices if v in kept),
        edges=tuple(e for e in quiver.edges if e[0] in kept and e[1] in kept),
    )


# -- cached internals -------------------------------------------------------


@memo
def _edge_set(quiver: Quiver) -> frozenset[tuple[str, str]]:
    return frozenset(quiver.edges)


@memo
def _adjacency(
    quiver: Quiver,
) -> tuple[Mapping[str, tuple[str, ...]], Mapping[str, tuple[str, ...]]]:
    out: dict[str, set[str]] = {v: set() for v in quiver.vertices}
    inn: dict[str, set[str]] = {v: set() for v in quiver.vertices}
    for tail, head in quiver.edges:
        out[tail].add(head)
        inn[head].add(tail)
    return (
        {v: tuple(sorted(s)) for v, s in out.items()},
        {v: tuple(sorted(s)) for v, s in inn.items()},
    )


def _tarjan(
    vertices: tuple[str, ...], out: Mapping[str, tuple[str, ...]]
) -> list[list[str]]:
    """Iterative Tarjan SCC; components come out ancestors-first.

    ``low`` doubles as the visited set and the index counter. A vertex
    whose component is out gets a low-link above every index, so it never
    lowers another; taking low-links rather than indices from vertices
    still on the stack finds the same component roots.
    """
    low: dict[str, int] = {}
    stack: list[str] = []
    comps: list[list[str]] = []
    finished = len(vertices)
    for root in vertices:
        if root in low:
            continue
        low[root] = len(low)
        work = [(root, low[root], len(stack), iter(out[root]))]
        stack.append(root)
        while work:
            v, index, pos, it = work[-1]
            for w in it:
                if w not in low:
                    low[w] = len(low)
                    work.append((w, low[w], len(stack), iter(out[w])))
                    stack.append(w)
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == index:  # v is the root of its component
                    comp = stack[pos:]
                    del stack[pos:]
                    for w in comp:
                        low[w] = finished
                    comps.append(comp)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comps


@memo
def _class_reach(quiver: Quiver) -> tuple[int, ...]:
    """Ancestor closure of the class DAG as int bitsets: bit p of entry i
    is set when class ``cond.order[p]`` is reachable from class i along
    class edges. One pass over the class order: the closure over SCCs of
    Nuutila (1995). The order puts ancestors first, so a class's bits stop
    at its own position, and a k-chain holds ~k²/2 bits however its
    vertices are named."""
    cond = condense(quiver)
    down = [0] * len(cond.classes)
    for p, i in enumerate(cond.order):  # the parents of i are done
        bits = 1 << p
        for j in cond.parents[i]:
            bits |= down[j]
        down[i] = bits
    return tuple(down)


def _reached_classes(quiver: Quiver, v: str) -> list[int]:
    """Ids of the classes in the ancestor reach of ``v``'s class, from bin()."""
    cond = condense(quiver)
    digits = reversed(bin(_class_reach(quiver)[cond.class_of(v)]))
    return [i for i, d in zip(cond.order, digits) if d == "1"]


def _distances_to(quiver: Quiver, sources: Sequence[str]) -> dict[str, int]:
    """Distance to ``sources`` of each vertex reaching them; keys in BFS order."""
    _, inn = _adjacency(quiver)
    table = dict.fromkeys(sources, 0)
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for w in inn[u]:  # w has an edge into u: one step further at most
            if w not in table:
                table[w] = table[u] + 1
                queue.append(w)
    return table
