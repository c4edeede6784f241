#!/usr/bin/env python3
"""Seeded property sweeps beyond the pinned acceptance sizes.

Usage: python scripts/random_audit.py [--quivers N] [--spaces N] [--seq N]
                                      [--seed-base S] [--max-n N]

Reruns the heavy cross-checks (normality oracle agreement, short full
evolutions in strictly increasing order, universal evolutions against the
first of them, self-exclusive normality against each vertex's critical
ancestors, realization and reconstruction round trips, validate_prec on
one-pair mutations of each reconstructed relation and validate_esequence
on mutated orders against every third point, worded once per failing pair,
E-sequence isomorphism against relabelled copies and a brute-force search,
tower laws, every tower quotient re-validated, underline_d and is_trim
against their Fraction definitions, validate_space problems on non-metric
matrices against every triple, its ultrametric flag on perturbed
ultrametrics and on matrices of many ties against every triple, isometry
against every permutation, clade reports against the built clade, clade
formulas, analysis reports rendered by serialize.dumps against
json.dumps with ids holding a quote, a backslash, a NUL and non-ASCII
text) on as many fresh seeds as asked and prints a one-line verdict per
family.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import phyloquiver as pq
from phyloquiver import clades, generators as gen, serialize
from phyloquiver.analysis import _critical_ancestors, _normal_self_inclusive
from phyloquiver.metric import _MAX_COMPARED, _isometry


def audit_oracle(count, base, max_n):
    checked = 0
    for s in range(count):
        q = gen.gen_random_monotonous(2 + s % (max_n - 1), 0.15 + 0.03 * (s % 8),
                                      seed=base + s)
        bound = 2 * len(q.vertices)
        for v in q.vertices:
            want = pq.is_phylogenetic_vertex(q, v)
            got = all(pq.verify_universal_bounded(q, a, bound)
                      for a in pq.short_full_evolutions(q, v))
            assert want == got, (s, v)
            checked += 1
    print(f"oracle agreement          ok on {checked} vertices")


def audit_universal(count, base, max_n):
    checked = 0
    for s in range(count):
        make = gen.gen_random_monotonous if s % 2 else gen.gen_random_quiver
        q = make(2 + s % (max_n - 1), 0.15 + 0.05 * (s % 8), seed=base + s)
        for v in q.vertices:
            evos = list(pq.short_full_evolutions(q, v))
            assert all(a.vertices < b.vertices for a, b in zip(evos, evos[1:])), (s, v)
            if pq.phylogenetic_status(q, v):
                assert pq.universal_evolution(q, v) == evos[0], (s, v)
                checked += 1
    print(f"universal evolutions      ok on {checked} vertices")


def grouped_isotypic(q, vertices):
    """``vertices`` grouped by height fall in one isotypy class per height."""
    cond, h = pq.condense(q), pq.heights(q)
    seen = {}
    return all(seen.setdefault(h[a], cond.class_index[a]) == cond.class_index[a]
               for a in vertices)


def audit_self_exclusive(count, base, max_n):
    checked = rescued = 0
    for s in range(count):
        q = gen.gen_random_quiver(3 + s % (max_n - 2), 0.2 + 0.05 * (s % 6),
                                  seed=base + s)
        if pq.is_monotonous(q):
            continue
        rows = pq.analyze(q).vertices
        for v, row in zip(q.vertices, rows):
            want = grouped_isotypic(q, _critical_ancestors(q, v))
            assert pq.is_normal(q, v) == row.normal == want, (s, v)
            rescued += want and not _normal_self_inclusive(q, v)
            checked += 1
    print(f"self-exclusive normality  ok on {checked} vertices ({rescued} rescued)")


def brute_prec_problems(space, pairs):
    """Asymmetry and the three ball rules of validate_prec, checked on every
    ordered pair and every third point with Fraction distances, worded once
    per pair and rule."""
    rho = space.distance
    out = [(None, f"prec is not asymmetric on ({a!r}, {b!r})")
           for a, b in sorted(pairs) if a <= b and (b, a) in pairs]
    for a, b in sorted(pairs):
        d = rho(a, b)
        for c in space.points:
            if c in (a, b):
                continue
            if rho(a, c) < d and (c, b) not in pairs:
                out.append(((a, b, 1), f"{a!r} prec {b!r} and rho({a!r},{c!r}) < "
                                       f"rho({a!r},{b!r}) but not {c!r} prec {b!r}"))
            if rho(b, c) < d and (a, c) not in pairs:
                out.append(((a, b, 2), f"{a!r} prec {b!r} and rho({b!r},{c!r}) < "
                                       f"rho({a!r},{b!r}) but not {a!r} prec {c!r}"))
            if (b, c) in pairs and rho(a, c) == rho(b, c) == d and (a, c) not in pairs:
                out.append(((a, b, 3), f"{a!r} prec {b!r} prec {c!r} on an equilateral "
                                       f"triple but not {a!r} prec {c!r}"))
    return one_per_pair(out)


def audit_rendering(count, base, max_n):
    for s in range(count):
        make = gen.gen_random_monotonous if s % 2 else gen.gen_random_quiver
        q = make(2 + s % (max_n - 1), 0.15 + 0.05 * (s % 8), seed=base + s)
        name = {v: f'{v}"\\\x00é\U0001f600' for v in q.vertices}
        q = pq.Quiver.build(name.values(), [(name[t], name[h]) for t, h in q.edges])
        obj = serialize.report_to_obj(pq.analyze(q))
        want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert serialize.dumps(obj) == want, s
    print(f"report rendering          ok on {count} reports")


def audit_round_trips(count, base):
    rng = random.Random(base)
    mutated = 0
    for s in range(count):
        seq = gen.gen_random_esequence(1 + s % 5, 4 + s % 9, 0.35, seed=base + s)
        assert pq.esequence_isomorphic(
            pq.evolutionary_sequence(pq.realize_esequence(seq)), seq
        ), s
        seq = gen.gen_random_esequence(2 + s % 5, 3 + s % 6, 0.4, seed=base + s,
                                       single_root=True, surjective=True)
        n = seq.top
        space, prec = pq.terminal_ultrametric(seq, n), pq.induce_prec(seq, n)
        rebuilt = pq.reconstruct(space, prec, n)
        assert pq.esequence_isomorphic(rebuilt, seq), s
        # the terminal data come back exactly: points, rho pair by pair, prec
        again = pq.terminal_ultrametric(rebuilt, n)
        assert sorted(again.points) == sorted(space.points), s
        assert all(again.distance(a, b) == space.distance(a, b)
                   for a in space.points for b in space.points), s
        assert pq.induce_prec(rebuilt, n).pairs == prec.pairs, s
        # one pair dropped, one pair added: the block test against the brute one
        pairs = sorted(prec.pairs)
        absent = sorted(set(itertools.product(space.points, repeat=2)) - prec.pairs)
        mutations = [prec.pairs - {rng.choice(pairs)}] if pairs else []
        for rel in mutations + [prec.pairs | {rng.choice(absent)}]:
            got = pq.validate_prec(space, pq.PrecRelation(rel), n)
            assert got == brute_prec_problems(space, rel), s
            mutated += 1
    print(f"E-sequence round trips    ok on {count} realizations + {count} reconstructions")
    print(f"prec blocks               ok on {mutated} mutated relations")


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


def audit_esequence_axioms(count, base):
    rng = random.Random(base)
    unclosed = reversed_pairs = 0
    for s in range(count):
        seq = gen.gen_random_esequence(1 + s % 4, 4 + s % 6, 0.6, seed=base + s)
        # pairs of the widest level toggled: dropped from the closure,
        # reversed, reflexive, or across parents
        order = set(seq.order)
        level = max(seq.levels, key=len)
        for _ in range(2 + s % 4):
            order ^= {(rng.choice(level), rng.choice(level))}
        mutated = pq.ESequence(seq.levels, seq.parent, frozenset(order))
        got = pq.validate_esequence(mutated)
        assert got == brute_esequence_problems(mutated), s
        unclosed += any("transitive" in p for p in got)
        reversed_pairs += any("antisymmetric" in p for p in got)
    print(f"E-sequence axioms         ok on {count} mutated orders "
          f"({unclosed} unclosed, {reversed_pairs} not antisymmetric)")


def relabeled(seq, rng):
    """A copy of ``seq`` under fresh labels, every level shuffled."""
    name = {x: f"z{x}" for x in seq.labels()}
    return pq.ESequence.build(
        [rng.sample([name[x] for x in level], len(level)) for level in seq.levels],
        {name[x]: name[p] for x, p in seq.parent.items()},
        [(name[x], name[y]) for x, y in seq.order],
    )


def brute_isomorphic(e1, e2):
    """Isomorphism by trying every level-wise bijection (small levels only)."""
    if [len(level) for level in e1.levels] != [len(level) for level in e2.levels]:
        return False
    o1, o2 = e1.closed_order(), e2.closed_order()
    for choice in itertools.product(*map(itertools.permutations, e2.levels)):
        f = {x: y for l1, l2 in zip(e1.levels, choice) for x, y in zip(l1, l2)}
        if all(f[e1.parent[x]] == e2.parent[f[x]] for x in e1.parent) and all(
            ((x, y) in o1) == ((f[x], f[y]) in o2)
            for level in e1.levels for x in level for y in level
        ):
            return True
    return False


def audit_isomorphism(count, base):
    rng = random.Random(base)
    for s in range(count):
        seq = gen.gen_random_esequence(1 + s % 5, 4 + s % 9, 0.35, seed=base + s)
        assert pq.esequence_isomorphic(seq, relabeled(seq, rng)), s
        seq = gen.gen_random_esequence(1 + s % 3, 4, 0.5, seed=base + s)
        groups = {}
        for x in seq.labels():
            groups.setdefault(seq.parent.get(x), []).append(x)
        order = seq.closed_order()
        wide = [g for g in groups.values() if len(g) > 1]
        if wide:  # toggle one pair inside a sibling group
            order ^= {tuple(rng.sample(rng.choice(wide), 2))}
        other = relabeled(pq.ESequence(seq.levels, seq.parent, order), rng)
        assert pq.esequence_isomorphic(seq, other) == brute_isomorphic(seq, other), s
    print(f"isomorphism               ok on {count} relabelled copies + {count} perturbations")


def fraction_deficits(space):
    """Per point, every (d(x,y) + d(x,z) - d(y,z)) / 2 over distinct y, z
    avoiding x, straight from the Fraction distances."""
    d = space.distance
    return {
        x: [(d(x, y) + d(x, z) - d(y, z)) / 2
            for y, z in itertools.combinations([p for p in space.points if p != x], 2)]
        for x in space.points
    }


def revalidated(space):
    """``space`` rebuilt from its rows by the validating constructor, which
    must give back the same int rows and ultrametric flag."""
    again = pq.FiniteMetricSpace.build(space.points, space.rows)
    return again == space and again.is_ultrametric == space.is_ultrametric


def audit_towers(count, base, max_n):
    checked = quotients = 0
    for s in range(count):
        x = gen.gen_random_ultrametric(1 + s % max_n, depth=1 + s % 5, seed=base + s)
        t = pq.tower_u(x)
        assert len(t) == pq.n_nonzero(x), s
        y = gen.gen_random_metric(1 + s % max_n, seed=base + s)
        tv = pq.tower_v(y)
        assert pq.is_trim(tv.terminal), s
        assert all(pq.classify_map(m).is_drift for m in tv.maps), s
        for space in t.spaces[1:] + tv.spaces[1:]:
            assert revalidated(space), s
            quotients += 1
        for space in t.spaces + tv.spaces:
            ud = pq.underline_d(space)
            deficits = fraction_deficits(space)
            if len(space) == 1:
                assert ud == {space.points[0]: 0} and pq.is_trim(space), s
            elif len(space) == 2:
                half = space.rows[0][1] / 2
                assert ud == dict.fromkeys(space.points, half), s
                assert not pq.is_trim(space), s
            else:
                assert ud == {p: min(v) for p, v in deficits.items()}, s
                assert pq.is_trim(space) == all(0 in v for v in deficits.values()), s
            checked += 1
    print(f"towers                    ok on {count} ultrametric + {count} metric spaces")
    print(f"underline_d and is_trim   ok on {checked} tower spaces")
    print(f"trusted tower quotients   ok on {quotients} re-validated")


def one_per_pair(witnessed):
    """Brute-force messages, one per witness, in the wording of the
    validators: of each key (a failing pair, and rule) the first message
    stays, in place, with the number of that key's messages appended.
    ``witnessed`` holds (key, message) items, key None for a message that
    names no witness."""
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


def brute_problems(labels, m):
    """The metric-axiom failures of a symmetric Fraction matrix, straight
    from the axioms: diagonal, then pairs, then every triple (i, j, k),
    worded once per pair i <= j (the failure is symmetric in i and j)."""
    n = len(labels)
    out = [(None, f"nonzero diagonal at {labels[i]!r}") for i in range(n) if m[i][i]]
    out += [(None, f"non-positive distance between {labels[i]!r} and {labels[j]!r}")
            for i, j in itertools.combinations(range(n), 2) if m[i][j] <= 0]
    out += [((i, j), f"triangle inequality fails on "
                     f"({labels[i]!r}, {labels[j]!r}, {labels[k]!r})")
            for i, j, k in itertools.product(range(n), repeat=3)
            if m[i][j] > m[i][k] + m[j][k] and i <= j]
    return tuple(one_per_pair(out))


def audit_metric_problems(count, base):
    checked = 0
    for s in range(count):
        rng = random.Random(base + s)
        n = 1 + s % 12
        den = rng.choice((1, 2, 3))
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            m[i][j] = m[j][i] = Fraction(rng.randint(-1, 12), den)
        if rng.random() < 0.2:
            i = rng.randrange(n)
            m[i][i] = Fraction(rng.choice((-1, 1)), den)
        labels = [f"p{i}" for i in range(n)]
        want = brute_problems(labels, m)
        if not want:
            continue
        check = pq.validate_space(labels, m)
        assert not check.is_metric and check.problems == want, s
        checked += 1
    print(f"metric problems           ok on {checked} matrices")


def brute_ultrametric(m):
    """The strong triangle inequality and positivity of a symmetric
    Fraction matrix, straight from the axioms, over every (i, j, k)."""
    n = len(m)
    return (all(m[i][i] == 0 for i in range(n))
            and all(m[i][j] > 0 for i, j in itertools.combinations(range(n), 2))
            and all(m[i][j] <= max(m[i][k], m[j][k])
                    for i, j, k in itertools.product(range(n), repeat=3)))


def audit_ultrametric_test(count, base):
    checked = 0
    for s in range(count):
        rng = random.Random(base + s)
        n = 1 + s % 12
        # an ultrametric with one pair moved a small step up or down
        space = gen.gen_random_ultrametric(n, depth=1 + s % 4, seed=base + s)
        near = [list(row) for row in space.rows]
        if n > 1:
            i, j = rng.sample(range(n), 2)
            step = pq.min_gap(space) / rng.choice((1, 2, 3)) * rng.choice((-1, 1))
            if near[i][j] + step > 0:
                near[i][j] = near[j][i] = near[i][j] + step
        # a matrix of many ties: two or three values on a common denominator
        den = rng.choice((1, 2, 3))
        top = rng.choice((2, 2, 3))
        ties = [[Fraction(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            ties[i][j] = ties[j][i] = Fraction(rng.randint(1, top), den)
        for m in (near, ties):
            labels = [f"p{i}" for i in range(n)]
            assert pq.validate_space(labels, m).is_ultrametric == brute_ultrametric(m), s
            checked += 1
    print(f"ultrametric test          ok on {checked} matrices")


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
    return pq.FiniteMetricSpace.build(
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


def cycle_lengths(n, least=3):
    """Every multiset of cycle lengths of at least ``least`` summing to n."""
    if n == 0:
        yield ()
    for k in range(least, n + 1):
        for rest in cycle_lengths(n - k, k):
            yield (k, *rest)


def audit_isometry(count, base):
    rng = random.Random(base)
    checked = 0
    for s in range(count // 4):  # relabelled copies answer with a true isometry
        make = gen.gen_random_ultrametric if s % 2 else gen.gen_random_metric
        space = make(1 + s % 8, seed=base + s)
        copy = shuffled(space.rows, rng, "c")
        found = pq.is_isometric(space, copy)
        assert found is not None and brute_isometric(space, copy), s
        assert all(space.distance(x, y) == copy.distance(found[x], found[y])
                   for x in space.points for y in space.points), s
        checked += 1
    for n in range(3, 9):  # unions of cycles share every row multiset
        for p, q in itertools.combinations_with_replacement(cycle_lengths(n), 2):
            a, b = cycle_union(p, rng, "a"), cycle_union(q, rng, "b")
            want = brute_isometric(a, b)
            assert want == (p == q), (p, q)
            assert (pq.is_isometric(a, b) is not None) == want, (p, q)
            assert (pq.is_isometric(b, a) is not None) == want, (p, q)
            checked += 2
    worst = max(_isometry(cycle_union(p, rng, "a"), cycle_union((3, 3, 3, 3), rng, "b"))[1]
                for p in cycle_lengths(12))
    assert worst < _MAX_COMPARED, worst
    print(f"isometry                  ok on {checked} pairs; "
          f"12-point cycle unions compared at most {worst} of {_MAX_COMPARED}")


def audit_clades(count, base, max_n):
    pairs = reports = 0
    for s in range(count):
        q = gen.gen_random_phylogenetic(3 + s % (max_n - 2), 0.3, seed=base + s)
        for a in q.vertices:
            c = clades.clade(q, a)
            direct = c.heights()
            report = clades.clade_report(q, a)
            assert report["clade_heights"] == direct, (s, a)
            assert report["members"] == sorted(c.members), (s, a)
            reports += 1
            if not clades.is_regular(q, a):
                continue
            assert pq.is_phylogenetic_quiver(c.quiver), (s, a)
            for b in c.members:
                assert clades.clade_height(q, a, b) == direct[b], (s, a, b)
                pairs += 1
    print(f"clade reports             ok on {reports} apexes")
    print(f"clade formulas            ok on {pairs} apex/descendant pairs")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quivers", type=int, default=300)
    parser.add_argument("--spaces", type=int, default=200)
    parser.add_argument("--seq", type=int, default=150)
    parser.add_argument("--seed-base", type=int, default=10_000)
    parser.add_argument("--max-n", type=int, default=9)
    args = parser.parse_args()
    audit_oracle(args.quivers, args.seed_base, args.max_n)
    audit_universal(args.quivers, args.seed_base, args.max_n)
    audit_self_exclusive(args.quivers, args.seed_base, args.max_n)
    audit_rendering(args.quivers, args.seed_base, args.max_n)
    audit_round_trips(args.seq, args.seed_base)
    audit_esequence_axioms(args.seq, args.seed_base)
    audit_isomorphism(args.seq, args.seed_base)
    audit_towers(args.spaces, args.seed_base, args.max_n)
    audit_metric_problems(args.spaces, args.seed_base)
    audit_ultrametric_test(args.spaces, args.seed_base)
    audit_isometry(args.spaces, args.seed_base)
    audit_clades(args.quivers // 3, args.seed_base, args.max_n)


if __name__ == "__main__":
    main()
