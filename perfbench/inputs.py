"""Seeded input families for the benchmark.

Every function here is a pure function of its arguments: the random ones
take a ``random.Random`` the caller seeded, so one seed gives byte-identical
inputs. Inputs leave this module as plain JSON-ready objects or CSV text;
the library under test receives nothing else.

Besides the library's own ``gen_random_monotonous`` (used for random
monotonous quivers), this module builds the families that pin the
library's known blow-ups:

- the diamond ladder, whose top vertex has 2**rungs short full evolutions;
- deep chains, as quiver JSON and as E-sequence JSON;
- dense random quivers, sampled edge by edge;
- layered random monotonous quivers with fixed heights.

E-sequences are generated here with exact level widths, so an input's cost
depends on its declared size and not on the seed. Metric spaces are written
straight to CSV: the library's generators validate every space they build,
which would put an O(n^3) check per input into set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction


def ladder_quiver(rungs: int) -> dict:
    """Diamond ladder: junction j0 is the only primitive vertex; rung k is an
    isotypic pair a_k <-> b_k whose members both descend from j(k-1), and
    junction j_k descends from both. Every vertex is normal, and the top
    junction has one short full evolution per choice of a or b on each rung.
    """
    vertices = ["j0"]
    edges = []
    for k in range(1, rungs + 1):
        a, b, j, below = f"a{k}", f"b{k}", f"j{k}", f"j{k - 1}"
        vertices += [a, b, j]
        edges += [[a, b], [b, a], [a, below], [b, below], [j, a], [j, b]]
    return {"vertices": vertices, "edges": edges}


def chain_quiver(levels: int) -> dict:
    """Path c0 <- c1 <- ... of ``levels`` vertices; c0 is primitive."""
    vertices = [f"c{i}" for i in range(levels)]
    edges = [[vertices[i + 1], vertices[i]] for i in range(levels - 1)]
    return {"vertices": vertices, "edges": edges}


def chain_esequence(levels: int) -> dict:
    """E-sequence with one label per level and no order."""
    labels = [f"c{i}" for i in range(levels)]
    return {
        "levels": [[x] for x in labels],
        "parent": {labels[i + 1]: labels[i] for i in range(levels - 1)},
        "order": [],
    }


def dense_random_quiver(rng: random.Random, n: int, edges: int) -> dict:
    """``edges`` distinct non-loop edges drawn uniformly over n vertices.
    Not monotonous in general, and usually with large isotypy classes."""
    width = len(str(n - 1))
    vertices = [f"v{str(i).zfill(width)}" for i in range(n)]
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < edges:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            chosen.add((a, b))
    return {
        "vertices": vertices,
        "edges": [[vertices[a], vertices[b]] for a, b in sorted(chosen)],
    }


def layered_quiver(rng: random.Random, n: int, levels: int, edges: int) -> dict:
    """Random monotonous quiver whose heights are fixed in advance: n
    vertices in ``levels`` equal levels, every vertex above level 0 with an
    edge to a random vertex one level down, and random further edges, to
    the same level or one down, up to exactly ``edges``. Level 0 has no
    edges and no edge drops more than one level, so the height of a vertex
    is its level, and the cost of an input depends on its sizes rather
    than on the seed."""
    width = len(str(n - 1))
    vertices = [f"v{str(i).zfill(width)}" for i in range(n)]
    per = n // levels
    level = [min(i // per, levels - 1) for i in range(n)]
    members = [[i for i in range(n) if level[i] == h] for h in range(levels)]
    chosen = {(i, rng.choice(members[level[i] - 1])) for i in range(n) if level[i]}
    while len(chosen) < edges:  # level 0 keeps no edges: all primitive
        a = rng.randrange(len(members[0]), n)
        b = rng.choice(members[level[a] - rng.randint(0, 1)])
        if a != b:
            chosen.add((a, b))
    return {
        "vertices": vertices,
        "edges": [[vertices[a], vertices[b]] for a, b in sorted(chosen)],
    }


def random_monotonous_quiver(seed: int, n: int, edges_per_vertex: float) -> dict:
    """The library's random monotonous quiver with about
    ``edges_per_vertex * n`` edges before monotonization."""
    from phyloquiver import generators, serialize

    quiver = generators.gen_random_monotonous(n, edges_per_vertex / n, seed)
    return serialize.quiver_to_obj(quiver)


def random_esequence(
    rng: random.Random,
    widths: list[int],
    order_density: float,
) -> dict:
    """E-sequence with exactly ``widths[m]`` labels on level m.

    Where a level is at least as wide as the one below it, parents are
    surjective and parental fibres differ in size by at most one; otherwise
    each label picks its parent at random. Orders are drawn inside parental fibres along a random
    permutation and stored transitively closed, as the library's own
    generator does, so every output is a lawful E-sequence.
    """
    names = [[f"n{m}x{i}" for i in range(w)] for m, w in enumerate(widths)]
    parent: dict[str, str] = {}
    for m in range(1, len(widths)):
        prev, here = names[m - 1], names[m]
        if len(here) >= len(prev):  # surjective, fibre sizes within one
            targets = [prev[i % len(prev)] for i in range(len(here))]
        else:
            targets = [rng.choice(prev) for _ in here]
        rng.shuffle(targets)
        parent.update(zip(here, targets))
    order: list[list[str]] = []
    for m in range(1, len(widths)):
        fibres: dict[str, list[str]] = {}
        for x in names[m]:
            fibres.setdefault(parent[x], []).append(x)
        for fibre in fibres.values():
            rng.shuffle(fibre)
            # A pair (fibre[i], fibre[j]) with i < j is drawn independently;
            # closing along the permutation keeps the relation a strict order.
            below = {x: set() for x in fibre}
            for i in range(len(fibre) - 1, -1, -1):
                for j in range(i + 1, len(fibre)):
                    if rng.random() < order_density:
                        below[fibre[i]].add(fibre[j])
                        below[fibre[i]] |= below[fibre[j]]
            order += [[x, y] for x in fibre for y in sorted(below[x])]
    return {"levels": names, "parent": parent, "order": sorted(order)}


def _matrix_csv(points: list[str], dist: dict[tuple[int, int], Fraction]) -> str:
    rows = [",".join(points)]
    for i in range(len(points)):
        rows.append(",".join(
            str(dist.get((min(i, j), max(i, j)), 0)) if i != j else "0"
            for j in range(len(points))
        ))
    return "\n".join(rows) + "\n"


def ultrametric_csv(rng: random.Random, n: int, depth: int) -> str:
    """Distance-matrix CSV of a random ultrametric on n points.

    The points are shuffled into a balanced hierarchy: each block of the
    level-k partition splits into two halves at level k - 1, and points
    first separated at level k sit at distance k * scale. The shape depends
    only on (n, depth), so the cost of an input does not depend on the
    seed; the seed picks the points' places and the scale. The scale has
    denominator 4, which keeps every distance a proper rational.
    """
    points = [f"p{str(i).zfill(len(str(n - 1)))}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    scale = Fraction(rng.choice([1, 3, 5, 7]), 4)
    dist: dict[tuple[int, int], Fraction] = {}
    stack = [(order, depth)]
    while stack:
        block, level = stack.pop()
        if len(block) == 1:
            continue
        parts = [[x] for x in block] if level == 1 else \
            [block[:len(block) // 2], block[len(block) // 2:]]
        for k, part in enumerate(parts):
            for other in parts[k + 1:]:
                for x in part:
                    for y in other:
                        dist[(min(x, y), max(x, y))] = level * scale
        stack += [(part, level - 1) for part in parts]
    return _matrix_csv(points, dist)


def metric_csv(rng: random.Random, n: int) -> str:
    """Distance-matrix CSV of a random rational metric: every distance is
    an integer in [12, 24] over 3, so no triangle inequality can fail and
    the arithmetic cost does not depend on the seed."""
    points = [f"p{str(i).zfill(len(str(n - 1)))}" for i in range(n)]
    dist = {(i, j): Fraction(rng.randint(12, 24), 3)
            for i in range(n) for j in range(i + 1, n)}
    return _matrix_csv(points, dist)


def relabel_quiver(obj: dict, tag: str) -> dict:
    """Copy of a quiver object with ``tag`` prefixed to every vertex id. A
    common prefix keeps the sorted order of ids, so every answer is the
    same up to the prefix, while the library sees a quiver it never saw."""
    return {
        "vertices": [tag + v for v in obj["vertices"]],
        "edges": [[tag + t, tag + h] for t, h in obj["edges"]],
    }


def relabel_esequence(obj: dict, tag: str) -> dict:
    return {
        "levels": [[tag + x for x in level] for level in obj["levels"]],
        "parent": {tag + k: tag + v for k, v in obj["parent"].items()},
        "order": [[tag + x, tag + y] for x, y in obj["order"]],
    }
