"""Deterministic fixtures and seeded random instances.

Every generator is a pure function of its parameters: the seeded ones
derive their RNG from a string key, so equal calls give byte-identical
structures. The truncation parameter of the set quivers bounds the
cardinalities represented; the infinite originals do not fit in memory.
"""

from __future__ import annotations

import random
from math import gcd
from typing import TYPE_CHECKING, Iterable

from . import analysis
from .errors import InputError, SizeGuardError
from .quiver import Quiver

if TYPE_CHECKING:
    from .esequence import ESequence
    from .metric import FiniteMetricSpace


_MAX_CELLS = 1_000_000


def _within_budget(cells: int, shape: str) -> None:
    """Refuse, before anything is drawn, more cells than ``_MAX_CELLS``: n²
    pairs for the vertex and point kinds, levels × width² for E-sequences."""
    if cells > _MAX_CELLS:
        raise SizeGuardError(f"{cells} cells ({shape}) exceed the budget of {_MAX_CELLS}")


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _names(prefix: str, n: int) -> list[str]:
    """``prefix`` and 0..n-1, zero-padded to one width so they sort by number."""
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}}" for i in range(n)]


def gen_map_quiver(n: int) -> Quiver:
    """Sets of cardinality 1..n with all maps: an edge for every ordered
    pair (a map between nonempty finite sets always exists), so every
    vertex is isotypic to every other and all are primitive."""
    if n < 1:
        raise InputError("n must be at least 1")
    _within_budget(n * n, f"{n} by {n} pairs")
    vertices = [str(k) for k in range(1, n + 1)]
    edges = [(a, b) for a in vertices for b in vertices]
    return Quiver(vertices, edges)


def gen_surjection_quiver(n: int) -> Quiver:
    """Sets of cardinality 1..n with surjections: an edge k -> j exactly
    when j <= k. Only the singleton is primitive; everything else has
    height one."""
    if n < 1:
        raise InputError("n must be at least 1")
    _within_budget(n * n, f"{n} by {n} pairs")
    vertices = [str(k) for k in range(1, n + 1)]
    edges = [(str(k), str(j)) for k in range(1, n + 1) for j in range(1, k + 1)]
    return Quiver(vertices, edges)


def gen_rooted_tree_quiver(
    tree_edges: Iterable[tuple[str, str]], root: str
) -> Quiver:
    """A rooted tree with every edge oriented toward the root, so the root
    is the unique primitive vertex and heights are path lengths to it."""
    undirected: dict[str, set[str]] = {root: set()}
    count = 0
    for a, b in tree_edges:
        if a == b:
            raise InputError(f"self-loop {a!r} is not a tree edge")
        undirected.setdefault(a, set()).add(b)
        undirected.setdefault(b, set()).add(a)
        count += 1
    if count != len(undirected) - 1:
        raise InputError("input is not a tree: edge count must be vertex count - 1")
    parent: dict[str, str] = {}  # one per vertex in a tree, whatever the walk order
    stack = [root]
    while stack:
        u = stack.pop()
        for w in undirected[u] - parent.keys() - {root}:
            parent[w] = u
            stack.append(w)
    if len(parent) + 1 != len(undirected):
        raise InputError("input is not a tree: not connected")
    vertices = sorted(undirected)
    edges = [(child, parent[child]) for child in vertices if child in parent]
    return Quiver(vertices, edges)


def gen_g3() -> Quiver:
    """Three vertices A, B, C with edges B->A, B->C, C->B: heights 0, 1, 2
    with B and C isotypic."""
    return Quiver(["A", "B", "C"], [("B", "A"), ("B", "C"), ("C", "B")])


def gen_abnormal() -> Quiver:
    """Two independent primitive roots below a common descendant R, whose
    equal-height critical ancestors are non-isotypic: R is not normal."""
    return Quiver(
        ["P1", "P2", "Q1", "Q2", "R"],
        [("Q1", "P1"), ("Q2", "P2"), ("R", "Q1"), ("R", "Q2")],
    )


def gen_nonmonotonous() -> Quiver:
    """Four-vertex chain with a shortcut: heights 0, 1, 2, 1 and the edge
    S->R climbs from height 1 to height 2."""
    return Quiver(
        ["P", "Q", "R", "S"],
        [("Q", "P"), ("R", "Q"), ("S", "R"), ("S", "P")],
    )


def gen_irregular() -> Quiver:
    """A phylogenetic quiver in which Q is irregular: R descends from Q at
    equal height through S but has no direct edge to Q."""
    return Quiver(
        ["P", "Q", "R", "S"],
        [("Q", "P"), ("S", "Q"), ("S", "P"), ("R", "S"), ("R", "P")],
    )


def gen_random_quiver(n: int, density: float = 0.3, seed: int = 0) -> Quiver:
    """Random quiver on n vertices: each ordered pair (loops included)
    becomes an edge with the given probability. One edge per pair; parallel
    edges add nothing to the theory."""
    if n < 1:
        raise InputError("n must be at least 1")
    if not 0 <= density <= 1:
        raise InputError("density must lie in [0, 1]")
    _within_budget(n * n, f"{n} by {n} pairs")
    rng = _rng("quiver", n, density, seed)
    vertices = _names("v", n)
    edges = [
        (a, b)
        for a in vertices
        for b in vertices
        if rng.random() < density
    ]
    return Quiver(vertices, edges)


def gen_random_monotonous(n: int, density: float = 0.3, seed: int = 0) -> Quiver:
    return analysis.monotonize(gen_random_quiver(n, density, seed))


def gen_random_phylogenetic(n: int, density: float = 0.3, seed: int = 0) -> Quiver:
    """Phylogenetic core of a random monotonous quiver. The core is never
    empty: primitive vertices are always normal."""
    return analysis.phylogenetic_core(gen_random_monotonous(n, density, seed))


def gen_random_ultrametric(n: int, depth: int = 3, seed: int = 0) -> FiniteMetricSpace:
    """Random ultrametric space built from a random hierarchy: distances at
    a split strictly exceed every distance below it, which is the
    ultrametric axiom by construction, so it is not checked. A random
    rational scale keeps the values off the integers often enough to matter."""
    from .metric import FiniteMetricSpace

    if n < 1:
        raise InputError("n must be at least 1")
    if depth < 1:
        raise InputError("depth must be at least 1")
    _within_budget(n * n, f"{n} by {n} distances")
    rng = _rng("ultrametric", n, depth, seed)
    scale, unit = rng.randint(1, 6), rng.randint(1, 4)  # distances in units of 1/unit
    # Entries 2 level * scale / c in units of c / (2 unit), c = gcd(scale,
    # unit): once some pair splits at level 1 their gcd with the unit is 2,
    # so _from_ints stores the rows as written.
    c = gcd(scale, unit)
    rows = [[0] * n for _ in range(n)]

    def split(block: list[int], level: int) -> None:
        if len(block) == 1:
            return
        if level == 1:
            parts = [[x] for x in block]
        else:
            k = rng.randint(2, min(len(block), 3))
            shuffled = block[:]
            rng.shuffle(shuffled)
            cuts = sorted(rng.sample(range(1, len(block)), k - 1))
            parts = [
                shuffled[i:j] for i, j in zip([0, *cuts], [*cuts, len(block)])
            ]
        value = 2 * level * scale // c
        for i, part in enumerate(parts):
            for other in parts[i + 1:]:
                for x in part:
                    for y in other:
                        rows[x][y] = rows[y][x] = value
        for part in parts:
            split(part, rng.randint(1, level - 1) if level > 1 else 1)

    split(list(range(n)), depth)
    return FiniteMetricSpace._from_ints(_names("p", n), 2 * unit // c, rows, True)


def gen_random_metric(n: int, seed: int = 0) -> FiniteMetricSpace:
    """Random rational metric space. Off-diagonal numerators are drawn
    from [12, 24] over one common denominator, so every triangle holds
    (24 <= 12 + 12) and the draw is stored unchecked; only its ultrametric
    flag is read off the rows."""
    from .metric import FiniteMetricSpace, _is_ultrametric

    if n < 1:
        raise InputError("n must be at least 1")
    _within_budget(n * n, f"{n} by {n} distances")
    rng = _rng("metric", n, seed)
    points = _names("p", n)
    den = rng.randint(1, 4)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = 2 * rng.randint(12, 24)  # in units of 1/(2 den)
    return FiniteMetricSpace._from_ints(points, 2 * den, rows, _is_ultrametric(rows))


def gen_random_esequence(
    levels: int = 4,
    width: int = 5,
    order_density: float = 0.3,
    seed: int = 0,
    *,
    single_root: bool = False,
    surjective: bool = False,
) -> ESequence:
    """Random E-sequence. Orders are drawn inside parental fibers along a
    random permutation, so comparable elements share a parent and
    antisymmetry holds by construction; the relation is stored transitively
    closed."""
    from .esequence import ESequence, _above

    if levels < 1:
        raise InputError("levels must be at least 1")
    if width < 1:
        raise InputError("width must be at least 1")
    if not 0 <= order_density <= 1:
        raise InputError("order_density must lie in [0, 1]")
    _within_budget(levels * width * width, f"{levels} levels of {width} by {width} pairs")
    rng = _rng("esequence", levels, width, order_density, seed,
               single_root, surjective)
    sizes = [1 if single_root else rng.randint(1, width)]
    for _ in range(1, levels):
        low = sizes[-1] if surjective else 1
        sizes.append(rng.randint(low, max(low, width)))
    names = [
        [f"n{m}x{i}" for i in range(size)] for m, size in enumerate(sizes)
    ]
    parent: dict[str, str] = {}
    for m in range(1, levels):
        prev, here = names[m - 1], names[m]
        if surjective:
            targets = prev + [rng.choice(prev) for _ in range(len(here) - len(prev))]
        else:
            targets = [rng.choice(prev) for _ in range(len(here))]
        rng.shuffle(targets)
        for x, p in zip(here, targets):
            parent[x] = p
    order: set[tuple[str, str]] = set()
    for m in range(1, levels):
        fibers: dict[str, list[str]] = {}
        for x in names[m]:
            fibers.setdefault(parent[x], []).append(x)
        for fiber in fibers.values():
            perm = fiber[:]
            rng.shuffle(perm)
            for i, a in enumerate(perm):
                for b in perm[i + 1:]:
                    if rng.random() < order_density:
                        order.add((a, b))
    return ESequence(names, parent, ((x, y) for x, ys in _above(order).items() for y in ys))
