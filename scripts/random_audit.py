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
E-sequence isomorphism against relabelled copies and a brute-force search
(on random sequences, and on one sibling group that mixes unordered
siblings, fixed classes and blocks of equal-key classes), tower laws,
every tower quotient re-validated, underline_d and is_trim against their
Fraction definitions, validate_space problems on non-metric matrices
against every triple, its ultrametric flag on perturbed ultrametrics and
on matrices of many ties against every triple, isometry against every
permutation, clade reports against the built clade, clade formulas,
analysis reports rendered by serialize.dumps against json.dumps with ids
holding a quote, a backslash, a NUL and non-ASCII text) on as many fresh
seeds as asked and prints a one-line verdict per family. The brute-force
references come from tests/oracles.py, which needs only the standard
library and an importable phyloquiver. The oracle family also checks
each quiver's phylogenetic verdict against its vertices' verdicts, and
each vertex's normality against its critical ancestors, as the
self-exclusive family does on the non-monotonous quivers. The exact status
family checks every vertex of a non-monotonous quiver against the oracle
"some short full evolution passes verify_universal_bounded at length
V·(h + 2)", and counts the non-normal vertices that the sink classes they
reach settle and those the guaranteed-pattern pass decides.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import phyloquiver as pq
from phyloquiver import clades, generators as gen, serialize
from phyloquiver.analysis import _normal_self_inclusive, critical_ancestors
from phyloquiver.metric import _MAX_COMPARED, _isometry

# the brute-force references are the test suite's own
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import (
    brute_esequence_problems,
    brute_isometric,
    brute_isomorphic,
    brute_primitives,
    brute_reach,
    brute_ultrametric,
    cycle_union,
    grouped_isotypic,
    one_group,
    one_pair_mutations,
    ref_check,
    ref_is_trim,
    ref_underline_d,
    ref_validate_prec,
    relabeled,
    shuffled,
    toggle_pair,
    toggled_order,
)


def audit_oracle(count, base, max_n):
    checked = 0
    for s in range(count):
        q = gen.gen_random_monotonous(2 + s % (max_n - 1), 0.15 + 0.03 * (s % 8),
                                      seed=base + s)
        bound = 2 * len(q.vertices)
        rows, cond, h = pq.analyze(q).vertices, pq.condense(q), pq.heights(q)
        verdicts = []
        for v, row in zip(q.vertices, rows):
            normal = grouped_isotypic(cond, h, critical_ancestors(q, v))
            assert pq.is_normal(q, v) == row.normal == normal, (s, v)
            want = pq.is_phylogenetic_vertex(q, v)
            got = all(pq.verify_universal_bounded(q, a, bound)
                      for a in pq.short_full_evolutions(q, v))
            assert want == got, (s, v)
            verdicts.append(got)
            checked += 1
        # a phylogenetic quiver: every vertex has a universal evolution
        assert pq.is_phylogenetic_quiver(q) == all(verdicts), s
    print(f"oracle agreement          ok on {checked} vertices")


def audit_exact_status(count, base, max_n):
    checked = by_sinks = by_pass = 0
    for s in range(count):
        q = gen.gen_random_quiver(2 + s % (max_n - 1), 0.2 + 0.05 * (s % 7), seed=base + s)
        if pq.is_monotonous(q):
            continue
        rows, ci, h = pq.analyze(q).vertices, pq.condense(q).class_index, pq.heights(q)
        reach, prim = brute_reach(q), brute_primitives(q)
        for v, row in zip(q.vertices, rows):
            bound = len(q.vertices) * (h[v] + 2)
            want = any(pq.verify_universal_bounded(q, a, bound)
                       for a in pq.short_full_evolutions(q, v))
            assert pq.phylogenetic_status(q, v) is row.phylogenetic is want, (s, v)
            checked += 1
            if _normal_self_inclusive(q, v):
                continue
            if len({ci[p] for p in reach[v] & prim}) > 1:
                assert not want, (s, v)
                by_sinks += 1
            else:
                by_pass += 1
    print(f"exact status              ok on {checked} vertices "
          f"({by_sinks} settled by sink classes, {by_pass} by the pass)")


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


def audit_self_exclusive(count, base, max_n):
    checked = rescued = 0
    for s in range(count):
        q = gen.gen_random_quiver(3 + s % (max_n - 2), 0.2 + 0.05 * (s % 6),
                                  seed=base + s)
        if pq.is_monotonous(q):
            continue
        rows = pq.analyze(q).vertices
        cond, h = pq.condense(q), pq.heights(q)
        for v, row in zip(q.vertices, rows):
            want = grouped_isotypic(cond, h, critical_ancestors(q, v))
            assert pq.is_normal(q, v) == row.normal == want, (s, v)
            rescued += want and not _normal_self_inclusive(q, v)
            checked += 1
    print(f"self-exclusive normality  ok on {checked} vertices ({rescued} rescued)")


def audit_rendering(count, base, max_n):
    for s in range(count):
        make = gen.gen_random_monotonous if s % 2 else gen.gen_random_quiver
        q = make(2 + s % (max_n - 1), 0.15 + 0.05 * (s % 8), seed=base + s)
        name = {v: f'{v}"\\\x00é\U0001f600' for v in q.vertices}
        q = pq.Quiver(name.values(), [(name[t], name[h]) for t, h in q.edges])
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
        for rel in one_pair_mutations(space, prec, rng):
            assert pq.validate_prec(space, rel, n) == ref_validate_prec(space, rel, n), s
            mutated += 1
    print(f"E-sequence round trips    ok on {count} realizations + {count} reconstructions")
    print(f"prec blocks               ok on {mutated} mutated relations")


def audit_esequence_axioms(count, base):
    rng = random.Random(base)
    unclosed = reversed_pairs = 0
    for s in range(count):
        seq = gen.gen_random_esequence(1 + s % 4, 4 + s % 6, 0.6, seed=base + s)
        mutated = toggled_order(seq, rng, 2 + s % 4)
        got = pq.validate_esequence(mutated)
        assert got == brute_esequence_problems(mutated), s
        unclosed += any("transitive" in p for p in got)
        reversed_pairs += any("antisymmetric" in p for p in got)
    print(f"E-sequence axioms         ok on {count} mutated orders "
          f"({unclosed} unclosed, {reversed_pairs} not antisymmetric)")


def audit_isomorphism(count, base):
    rng, groups = random.Random(base), random.Random(f"one-group {base}")
    for s in range(count):
        seq = gen.gen_random_esequence(1 + s % 5, 4 + s % 9, 0.35, seed=base + s)
        assert pq.esequence_isomorphic(seq, relabeled(seq, rng)), s
        seq = gen.gen_random_esequence(1 + s % 3, 4, 0.5, seed=base + s)
        other = relabeled(toggle_pair(seq, rng), rng)
        assert pq.esequence_isomorphic(seq, other) == brute_isomorphic(seq, other), s
        # one sibling group: no-search parts, fixed classes and the ordering search
        seq = one_group(groups)
        k = groups.randrange(3)  # a copy, a one-pair perturbation or a fresh group
        other = seq if k == 0 else toggle_pair(seq, groups) if k == 1 else one_group(groups)
        other = relabeled(other, groups)
        assert pq.esequence_isomorphic(seq, other) == brute_isomorphic(seq, other), s
    print(f"isomorphism               ok on {count} relabelled copies + {count} perturbations"
          f" + {count} one-group pairs")


def revalidated(space):
    """``space`` rebuilt from its rows by the validating constructor, which
    must give back the same int rows and ultrametric flag."""
    again = pq.FiniteMetricSpace(space.points, space.rows)
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
            assert pq.underline_d(space) == ref_underline_d(space), s
            assert pq.is_trim(space) == ref_is_trim(space), s
            checked += 1
    print(f"towers                    ok on {count} ultrametric + {count} metric spaces")
    print(f"underline_d and is_trim   ok on {checked} tower spaces")
    print(f"trusted tower quotients   ok on {quotients} re-validated")


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
        want = ref_check(labels, m)
        if want[0]:
            continue
        check = pq.validate_space(labels, m)
        assert (check.is_metric, check.is_ultrametric, check.problems) == want, s
        checked += 1
    print(f"metric problems           ok on {checked} matrices")


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
            direct = pq.heights(c)
            report = clades.clade_report(q, a)
            assert report["clade_heights"] == direct, (s, a)
            assert report["members"] == sorted(c.vertices), (s, a)
            reports += 1
            if not clades.is_regular(q, a):
                continue
            assert pq.is_phylogenetic_quiver(c), (s, a)
            for b in c.vertices:
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
    audit_exact_status(args.quivers, args.seed_base, args.max_n)
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
