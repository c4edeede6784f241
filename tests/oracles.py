"""Brute-force references, each read straight off its definition.

The one home of every reference the suite and ``scripts/random_audit.py``
check the library against, and of the seeded perturbations both draw
inputs with. The references deliberately avoid the library's own
algorithms: reachability by fixed-point iteration over the edge relation,
order closures by a search from every source, full evolutions by explicit
walk enumeration, embeddings by trying every index subsequence, phylogenetic
status over the written-out evolutions, axioms checked on every pair and
triple with Fraction distances, isomorphisms and isometries by trying every
bijection.

Imports only the standard library and ``phyloquiver``, so the audit runs
against an installed package with this directory on ``sys.path``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction

from phyloquiver.esequence import ESequence, PrecRelation
from phyloquiver.metric import FiniteMetricSpace
from phyloquiver.quiver import Quiver

# -- quivers -------------------------------------------------------------------


def brute_reach(quiver: Quiver) -> dict[str, set[str]]:
    """reach[v] = vertices reachable from v (v included), by iterating the
    one-step relation to a fixed point."""
    reach = {v: {v} for v in quiver.vertices}
    step = {v: set() for v in quiver.vertices}
    for tail, head in quiver.edges:
        step[tail].add(head)
    changed = True
    while changed:
        changed = False
        for v in quiver.vertices:
            grown = set(reach[v])
            for w in list(grown):
                grown |= step[w]
            if grown != reach[v]:
                reach[v] = grown
                changed = True
    return reach


def brute_primitives(quiver: Quiver) -> set[str]:
    reach = brute_reach(quiver)
    return {
        v for v in quiver.vertices
        if all(v in reach[w] for w in reach[v])
    }


def brute_heights(quiver: Quiver) -> dict[str, int]:
    """Height by enumerating walks of growing length until a primitive
    appears. Only for small quivers."""
    prim = brute_primitives(quiver)
    step = {v: set() for v in quiver.vertices}
    for tail, head in quiver.edges:
        step[tail].add(head)
    out = {}
    for v in quiver.vertices:
        frontier = {v}
        for length in range(len(quiver.vertices) + 1):
            if frontier & prim:
                out[v] = length
                break
            frontier = {w for u in frontier for w in step[u]}
        else:
            raise AssertionError(f"no primitive ancestor for {v}")
    return out


def brute_regular(quiver: Quiver) -> dict[str, bool]:
    """Per apex A, whether every descendant B != A of A's height has an
    edge B -> A; descendants from brute reach, heights from brute_heights."""
    reach, h = brute_reach(quiver), brute_heights(quiver)
    edges = set(quiver.edges)
    return {
        a: all(b == a or h[b] != h[a] or (b, a) in edges
               for b in quiver.vertices if a in reach[b])
        for a in quiver.vertices
    }


def brute_full_evolutions(quiver: Quiver, v: str, max_length: int):
    """All full evolutions for v of length <= max_length, as ancestor-first
    vertex tuples, by enumerating walks from v toward the primitives."""
    prim = brute_primitives(quiver)
    step = {u: set() for u in quiver.vertices}
    for tail, head in quiver.edges:
        step[tail].add(head)
    results = []

    def walk(u, acc):
        if u in prim:
            results.append(tuple(reversed(acc)))
        if len(acc) - 1 >= max_length:
            return
        for w in sorted(step[u]):
            acc.append(w)
            walk(w, acc)
            acc.pop()

    walk(v, [v])
    return results


def brute_embedding_exists(classes, alpha, beta) -> bool:
    """Try every strictly increasing index choice; ``classes`` maps a
    vertex to its isotypy class id."""
    m, n = len(alpha), len(beta)
    if m > n:
        return False
    for idx in itertools.combinations(range(n), m):
        if all(classes[alpha[k]] == classes[beta[r]] for k, r in zip(range(m), idx)):
            return True
    return False


def brute_status(quiver: Quiver, max_walks: int = 100_000) -> dict[str, bool]:
    """Per vertex v, whether some short full evolution embeds, up to
    isotypy, in every full evolution for v: the definition of phylogenetic.

    Full evolutions are written out, each vertex at most h(v) + 1 times. A
    shortest evolution that avoids a short α meets each vertex at most
    once per matched prefix of α, so no shorter list misses a verdict.
    Isotypy is mutual reach, and an embedding is a subsequence test on the
    class sequences. Exponential: past ``max_walks`` evolutions for one
    vertex it raises ``RuntimeError``."""
    reach, prim, h = brute_reach(quiver), brute_primitives(quiver), brute_heights(quiver)
    cls = {v: frozenset(x for x in reach[v] if v in reach[x]) for v in quiver.vertices}
    step = {v: set() for v in quiver.vertices}
    for tail, head in quiver.edges:
        step[tail].add(head)

    def embeds(alpha, beta):
        rest = iter(beta)
        return all(c in rest for c in alpha)

    status = {}
    for v in quiver.vertices:
        betas, walk, seen = [], [v], Counter([v])

        def grow(u):
            if u in prim:
                betas.append([cls[x] for x in reversed(walk)])
                if len(betas) > max_walks:
                    raise RuntimeError(f"more than {max_walks} full evolutions for {v!r}")
            for w in sorted(step[u]):
                if seen[w] <= h[v]:
                    seen[w] += 1
                    walk.append(w)
                    grow(w)
                    walk.pop()
                    seen[w] -= 1

        grow(v)
        shorts = [beta for beta in betas if len(beta) == h[v] + 1]
        status[v] = any(all(embeds(alpha, beta) for beta in betas) for alpha in shorts)
    return status


def brute_critical_ancestors(q, include_self):
    """Per vertex, its critical ancestors by definition, from brute reach
    and heights; ``include_self`` keeps a vertex that is its own."""
    reach, h = brute_reach(q), brute_heights(q)
    return {v: frozenset(
        head for tail, head in q.edges
        if tail in reach[v] and h[tail] == h[head] + 1 and (include_self or head != v)
    ) for v in q.vertices}


def grouped_isotypic(cond, h, vertices):
    """Normality by its definition: ``vertices`` grouped by height ``h``
    are pairwise isotypic (one class of ``cond`` per height)."""
    seen = {}
    for a in vertices:
        c = cond.class_index[a]
        if seen.setdefault(h[a], c) != c:
            return False
    return True


# -- validator messages --------------------------------------------------------


def one_per_pair(witnessed):
    """A brute-force message list, one message per witness, in the wording
    of the validators: one message per failing pair (and rule). Each item
    is (key, message), key None for a message that names no witness. Of
    each key the first message stays, in place, with the number of that
    key's messages appended; the later ones go."""
    count = Counter(key for key, _ in witnessed)
    seen = set()
    out = []
    for key, message in witnessed:
        if key is None:
            out.append(message)
        elif key not in seen:
            seen.add(key)
            out.append(f"{message} (witness 1 of {count[key]})")
    return out


# -- E-sequences ---------------------------------------------------------------


def brute_esequence_problems(seq):
    """The E-sequence axioms straight from their definitions: each order
    pair against level 0, its parents and its reverse, then against every
    third label for transitivity, worded once per failing pair."""
    order, lv = seq.order, seq.level_of
    out = []
    for x, y in sorted(order):
        if lv[x] == 0:
            out.append((None, f"order on level 0 must be trivial: {x!r} < {y!r}"))
        elif seq.parent[x] != seq.parent[y]:
            out.append((None, f"{x!r} < {y!r} but their parents differ "
                              f"({seq.parent[x]!r} vs {seq.parent[y]!r})"))
    for x, y in sorted(order):
        if x == y:
            out.append((None, f"order is not irreflexive: {x!r} < {x!r}"))
        elif (y, x) in order and x < y:
            out.append((None, f"order is not antisymmetric: {x!r} <> {y!r}"))
    for x, y in sorted(order):
        for z in sorted(seq.labels()):
            if z != x and (y, z) in order and (x, z) not in order:
                out.append(((x, y), f"order is not transitive: {x!r} < {y!r} < {z!r} "
                                    f"without {x!r} < {z!r}"))
    return one_per_pair(out)


def ref_validate_prec(sp, prec, n):
    """validate_prec read off its definition: rho as Fractions, every rule
    checked on every third point of every pair, then worded once per pair
    and rule. ``sp`` needs only ``points`` and ``distance``."""
    rho, pairs = sp.distance, prec.pairs
    values = sorted({rho(a, b) for a in sp.points for b in sp.points})
    bound = max(values) if n is None else Fraction(n)
    out = [f"distance value {v} outside 0..{bound}" for v in values
           if v.denominator != 1 or v < 0 or v > bound]
    out += [f"prec is not asymmetric on ({a!r}, {b!r})"
            for a, b in sorted(pairs) if (b, a) in pairs and (a, b) <= (b, a)]
    witnessed = [(None, v) for v in out]
    for a, b in sorted(pairs):
        d = rho(a, b)
        for c in sp.points:
            if a == b or c in (a, b):
                continue
            if rho(a, c) < d and (c, b) not in pairs:
                witnessed.append(((a, b, 1),
                                  f"{a!r} prec {b!r} and rho({a!r},{c!r}) < "
                                  f"rho({a!r},{b!r}) but not {c!r} prec {b!r}"))
            if rho(b, c) < d and (a, c) not in pairs:
                witnessed.append(((a, b, 2),
                                  f"{a!r} prec {b!r} and rho({b!r},{c!r}) < "
                                  f"rho({a!r},{b!r}) but not {a!r} prec {c!r}"))
            if (b, c) in pairs and d == rho(a, c) == rho(b, c) and (a, c) not in pairs:
                witnessed.append(((a, b, 3),
                                  f"{a!r} prec {b!r} prec {c!r} on an equilateral "
                                  f"triple but not {a!r} prec {c!r}"))
    return one_per_pair(witnessed)


def toggled_order(seq, rng, times):
    """``seq`` with ``times`` random pairs of its widest level toggled in its
    order: dropped from the closure, reversed, reflexive, across parents, or
    on level 0."""
    order = set(seq.order)
    level = max(seq.levels, key=len)
    for _ in range(times):
        order ^= {(rng.choice(level), rng.choice(level))}
    return ESequence(seq.levels, seq.parent, frozenset(order))


def one_pair_mutations(space, prec, rng):
    """``prec`` with one random pair dropped, if it has one, and with one
    pair of points it lacks added (reflexive and reversed pairs included)."""
    pairs = sorted(prec.pairs)
    absent = sorted(set(itertools.product(space.points, repeat=2)) - prec.pairs)
    out = [prec.pairs - {rng.choice(pairs)}] if pairs else []
    return [PrecRelation(p) for p in out + [prec.pairs | {rng.choice(absent)}]]


def brute_closure(
    pairs: Iterable[tuple[str, str]]
) -> frozenset[tuple[str, str]]:
    """Transitive closure of a relation as a set of pairs: a depth-first
    search from every source, which walks every successor list again."""
    succ: dict[str, set[str]] = {}
    for x, y in pairs:
        succ.setdefault(x, set()).add(y)
    closed: set[tuple[str, str]] = set()
    for x in succ:
        stack = list(succ[x])
        seen: set[str] = set()
        while stack:
            y = stack.pop()
            if y in seen:
                continue
            seen.add(y)
            closed.add((x, y))
            stack.extend(succ.get(y, ()))
    return frozenset(closed)


def sibling_groups(seq):
    groups = {}
    for x in seq.labels():
        groups.setdefault(seq.parent.get(x), []).append(x)
    return list(groups.values())


def toggle_pair(seq, rng):
    """``seq`` with one pair inside a sibling group added to or removed
    from its closed order."""
    groups = [g for g in sibling_groups(seq) if len(g) > 1]
    if not groups:
        return seq
    x, y = rng.sample(rng.choice(groups), 2)
    return ESequence(seq.levels, seq.parent, brute_closure(seq.order) ^ {(x, y)})


def relabeled(seq, rng):
    """A copy of ``seq`` under fresh labels, every level shuffled."""
    name = {x: f"z{x}" for x in seq.labels()}
    return ESequence(
        [rng.sample([name[x] for x in level], len(level)) for level in seq.levels],
        {name[x]: name[p] for x, p in seq.parent.items()},
        [(name[x], name[y]) for x, y in seq.order],
    )


def one_group(rng):
    """A root over one sibling group of 2-5 labels with 0-3 leaf children
    among them, ordered one of two ways. Either random pairs run from some
    siblings (the lows) to others (the highs), and siblings in no pair sit
    beside ordered ones with as many children; or every sibling is ordered,
    the first half each below two neighbours in the second, which makes
    twins, or blocks of equal-key classes in a zigzag of 2 lows and 3 highs."""
    group = [f"g{i}" for i in range(rng.randint(2, 5))]
    leaves = [f"c{i}" for i in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        ordered = rng.sample(group, rng.randint(2, len(group)))
        cut = rng.randint(1, len(ordered) - 1)
        order = [(a, b) for a in ordered[:cut] for b in ordered[cut:] if rng.random() < 0.6]
    else:
        lows, highs = group[:len(group) // 2], group[len(group) // 2:]
        order = [(a, highs[(i + j) % len(highs)]) for i, a in enumerate(lows) for j in (0, 1)]
    return ESequence(
        [["r"], group] + [leaves] * bool(leaves),
        {**dict.fromkeys(group, "r"), **{c: rng.choice(group) for c in leaves}},
        order,
    )


def brute_isomorphic(e1, e2):
    """Isomorphism by trying every level-wise bijection (small levels only)."""
    if [len(level) for level in e1.levels] != [len(level) for level in e2.levels]:
        return False
    o1, o2 = brute_closure(e1.order), brute_closure(e2.order)
    for choice in itertools.product(*map(itertools.permutations, e2.levels)):
        f = {x: y for l1, l2 in zip(e1.levels, choice) for x, y in zip(l1, l2)}
        if all(f[e1.parent[x]] == e2.parent[f[x]] for x in e1.parent) and all(
            ((x, y) in o1) == ((f[x], f[y]) in o2)
            for level in e1.levels for x in level for y in level
        ):
            return True
    return False


# -- metric spaces -------------------------------------------------------------


def ref_check(labels, rows):
    """(is_metric, is_ultrametric, problems) of a symmetric matrix of ints
    or Fractions straight from the axioms: diagonal, then pairs, then every
    triple (i, j, k), worded once per pair i <= j (the failure is symmetric
    in i and j)."""
    m, n = rows, len(rows)
    witnessed = [(None, f"nonzero diagonal at {labels[i]!r}") for i in range(n) if m[i][i]]
    witnessed += [(None, f"non-positive distance between {labels[i]!r} and {labels[j]!r}")
                  for i, j in itertools.combinations(range(n), 2) if m[i][j] <= 0]
    witnessed += [((i, j), f"triangle inequality fails on "
                           f"({labels[i]!r}, {labels[j]!r}, {labels[k]!r})")
                  for i, j, k in itertools.product(range(n), repeat=3)
                  if i <= j and m[i][j] > m[i][k] + m[j][k]]
    ok = not witnessed
    return ok, ok and brute_ultrametric(m), tuple(one_per_pair(witnessed))


def brute_ultrametric(m):
    """The strong triangle inequality and positivity of a symmetric
    Fraction matrix, straight from the axioms, over every (i, j, k)."""
    n = len(m)
    return (all(m[i][i] == 0 for i in range(n))
            and all(m[i][j] > 0 for i, j in itertools.combinations(range(n), 2))
            and all(m[i][j] <= max(m[i][k], m[j][k])
                    for i, j, k in itertools.product(range(n), repeat=3)))


def ref_underline_d(space):
    """Per point, the least half-deficit (d(x,y) + d(x,z) - d(y,z)) / 2 over
    distinct y, z avoiding it, from the Fraction distances."""
    pts = space.points
    if len(pts) == 1:
        return {pts[0]: Fraction(0)}
    if len(pts) == 2:
        return dict.fromkeys(pts, space.rows[0][1] / 2)
    d = space.distance
    return {
        x: min(
            d(x, y) + d(x, z) - d(y, z)
            for y, z in itertools.combinations([p for p in pts if p != x], 2)
        ) / 2
        for x in pts
    }


def ref_is_trim(space):
    """Every point lies between two others, from the Fraction distances."""
    pts = space.points
    d = space.distance
    return len(pts) == 1 or all(
        any(
            d(x, y) + d(x, z) == d(y, z)
            for y, z in itertools.combinations([p for p in pts if p != x], 2)
        )
        for x in pts
    )


def brute_isometric(a, b):
    """A distance-preserving bijection exists, by trying every permutation
    of the second space's points; each Fraction distance is first coded by
    its rank among the values of both spaces."""
    rank = {v: k for k, v in enumerate(set(itertools.chain(*a.rows, *b.rows)))}
    rows, other = ([[rank[v] for v in row] for row in m.rows] for m in (a, b))
    n = len(rows)
    return len(other) == n and any(
        all(rows[i][j] == other[p[i]][p[j]] for i in range(n) for j in range(i))
        for p in itertools.permutations(range(n))
    )


def shuffled(rows, rng, tag):
    """The space of ``rows`` under labels ``tag0``, ``tag1``, ... in a random order."""
    n = len(rows)
    perm = rng.sample(range(n), n)
    return FiniteMetricSpace(
        [f"{tag}{i}" for i in range(n)],
        [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)],
    )


def cycle_union(lengths, rng, tag):
    """Disjoint cycles as a graph metric (d = 1 on an edge, 2 elsewhere),
    shuffled: every row holds two 1s, so only the search tells them apart."""
    n = sum(lengths)
    rows = [[2 * (i != j) for j in range(n)] for i in range(n)]
    start = 0
    for k in lengths:
        for i in range(k):
            a, b = start + i, start + (i + 1) % k
            rows[a][b] = rows[b][a] = 1
        start += k
    return shuffled(rows, rng, tag)
