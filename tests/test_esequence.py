"""E-sequences: axioms, realization, forests, terminal data, reconstruction."""

from __future__ import annotations

import functools
import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from phyloquiver import (
    ESequence,
    FiniteMetricSpace,
    InputError,
    PrecRelation,
    SizeGuardError,
    ancestor_of,
    build_forest,
    condense,
    esequence_isomorphic,
    evolutionary_sequence,
    forest_distance,
    heights,
    induce_prec,
    realize_esequence,
    reconstruct,
    terminal_ultrametric,
    universal_evolution,
    validate_esequence,
    validate_prec,
    validate_space,
)
from phyloquiver.esequence import _above, _part_form
from phyloquiver.generators import (
    gen_g3,
    gen_map_quiver,
    gen_random_esequence,
    gen_random_phylogenetic,
    gen_random_ultrametric,
    gen_rooted_tree_quiver,
    gen_surjection_quiver,
)

from oracles import (
    brute_closure,
    brute_esequence_problems,
    brute_isomorphic,
    one_group,
    one_pair_mutations,
    ref_validate_prec,
    relabeled,
    sibling_groups,
    toggle_pair,
    toggled_order,
)


@pytest.fixture
def two_fiber():
    """P0 = {r}, P1 = {a, b} with a < b, P2 = {a1, a2, b1}."""
    return ESequence(
        [["r"], ["a", "b"], ["a1", "a2", "b1"]],
        {"a": "r", "b": "r", "a1": "a", "a2": "a", "b1": "b"},
        [("a", "b")],
    )


class TestESequenceType:
    def test_structural_checks(self):
        with pytest.raises(InputError, match="duplicate"):
            ESequence([["a"], ["a"]], {"a": "a"})
        with pytest.raises(InputError, match="cover"):
            ESequence([["r"], ["x"]], {})
        with pytest.raises(InputError, match="one level below"):
            ESequence([["r"], ["x"], ["y"]], {"x": "r", "y": "r"})
        with pytest.raises(InputError, match="crosses levels"):
            ESequence([["r"], ["x"]], {"x": "r"}, [("r", "x")])

    def test_validate_flags_order_on_level_zero(self):
        seq = ESequence([["r", "s"]], {}, [("r", "s")])
        assert validate_esequence(seq) == [
            "order on level 0 must be trivial: 'r' < 's'"
        ]

    def test_validate_flags_parent_mismatch(self):
        seq = ESequence(
            [["r", "s"], ["x", "y"]], {"x": "r", "y": "s"}, [("x", "y")]
        )
        violations = validate_esequence(seq)
        assert len(violations) == 1 and "parents differ" in violations[0]

    def test_validate_flags_broken_order_axioms(self):
        base = [["r"], ["x", "y", "z"]]
        parent = {"x": "r", "y": "r", "z": "r"}
        refl = ESequence(base, parent, [("x", "x")])
        assert any("irreflexive" in v for v in validate_esequence(refl))
        sym = ESequence(base, parent, [("x", "y"), ("y", "x")])
        assert any("antisymmetric" in v for v in validate_esequence(sym))
        open_chain = ESequence(base, parent, [("x", "y"), ("y", "z")])
        assert any("transitive" in v for v in validate_esequence(open_chain))

    def test_generated_sequences_are_lawful(self):
        for s in range(30):
            seq = gen_random_esequence(1 + s % 5, 5, 0.4, seed=s)
            assert validate_esequence(seq) == []

    def test_unclosed_order_words_each_pair_once(self):
        # A x B and B x C among siblings, without A x C: every pair of A x B
        # lacks all of C, and names the least label of it
        k = 20
        a, b, c = ([f"{t}{i:02}" for i in range(k)] for t in "abc")
        kids = c + b + a  # positions in the level do not follow the labels
        seq = ESequence([["r"], kids], dict.fromkeys(kids, "r"),
                              [*itertools.product(a, b), *itertools.product(b, c)])
        assert validate_esequence(seq) == [
            f"order is not transitive: {x!r} < {y!r} < 'c00' without "
            f"{x!r} < 'c00' (witness 1 of {k})"
            for x, y in itertools.product(a, b)
        ]

    def test_at_most_three_messages_per_order_pair(self):
        # random relations inside levels: on level 0, across parents,
        # reflexive, reversed and unclosed pairs all occur
        worded = 0
        for s in range(60):
            seq = gen_random_esequence(1 + s % 4, 6 + s % 10, 0.5, seed=s)
            rng = random.Random(s)
            order = frozenset((x, y) for level in seq.levels for x in level
                              for y in level if rng.random() < 0.3)
            got = validate_esequence(ESequence(seq.levels, seq.parent, order))
            assert len(got) <= 3 * len(order), s
            worded += len(got)
        assert worded > 1000, worded

    def test_matches_axioms_on_mutated_orders(self):
        # random draws, then a wide closed total order (one level of 59
        # siblings, 1,711 pairs) where a label has dozens of successors
        rng = random.Random(24)
        kinds = dict.fromkeys(
            ("transitive", "antisymmetric", "irreflexive", "parents", "level 0"), 0)
        wide = evolutionary_sequence(gen_surjection_quiver(60))
        draws = [gen_random_esequence(1 + s % 4, 4 + s % 6, 0.6, seed=s) for s in range(40)]
        for s, seq in enumerate(draws + [wide] * 12):
            mutated = toggled_order(seq, rng, 2 + s % 4)
            got = validate_esequence(mutated)
            assert got == brute_esequence_problems(mutated), s
            for kind in kinds:
                kinds[kind] += any(kind in p for p in got)
        assert all(kinds.values()), kinds


def _relations(rng):
    """Seeded relations on string labels, each as a list of pairs: DAGs,
    2- to 5-cycles, self-pairs, closed total orders of up to 60 labels,
    disjoint chains, and the empty relation."""
    yield []
    for n in range(2, 13):  # DAGs along a random permutation
        names = rng.sample([f"d{i}" for i in range(n)], n)
        yield [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
               if rng.random() < 0.35]
    for k in range(2, 6):  # a k-cycle: alone, with a path in and out, into a 2-cycle
        ring = [f"c{i}" for i in range(k)]
        pairs = list(zip(ring, ring[1:] + ring[:1]))
        yield pairs
        yield pairs + [("t0", "t1"), ("t1", ring[0]), (ring[-1], "u0"), ("u0", "u1")]
        yield pairs + [("x", "y"), ("y", "x"), (ring[0], "x")]
    for n in (1, 3, 6):  # self-pairs, alone and on a chain
        names = [f"s{i}" for i in range(n)]
        yield [(a, a) for a in names]
        yield list(zip(names, names[1:])) + [(names[-1], names[-1])]
    for n in (2, 3, 10, 33, 60):  # closed total orders
        names = rng.sample([f"o{i}" for i in range(n)], n)
        yield [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    for lengths in ((2,), (4, 4), (2, 3, 5), (7, 1, 6)):  # disjoint chains
        yield [(f"h{c}x{i}", f"h{c}x{i + 1}") for c, k in enumerate(lengths)
               for i in range(k)]


class TestOrderClosure:
    """`_above` against the search from every source in ``oracles``."""

    def test_matches_the_search_from_every_source(self):
        rng = random.Random(46)
        for trial in range(20):
            for pairs in _relations(rng):
                # ties in out-degree follow insertion order: feed each twice
                for fed in (pairs, rng.sample(pairs, len(pairs))):
                    above = _above(fed)
                    got = {(x, y) for x, ys in above.items() for y in ys}
                    assert got == brute_closure(fed), (trial, fed)
                    assert above.keys() == {x for pair in fed for x in pair}, fed


class TestEvolutionarySequence:
    def test_surjection_quiver(self):
        seq = evolutionary_sequence(gen_surjection_quiver(5))
        assert seq.levels == (("1",), ("2", "3", "4", "5"))
        assert seq.parent == {k: "1" for k in ("2", "3", "4", "5")}
        assert seq.order == frozenset(
            (str(j), str(k)) for j in range(2, 6) for k in range(j + 1, 6)
        )

    def test_surjection_quiver_at_size(self):
        seq = evolutionary_sequence(gen_surjection_quiver(200))
        assert seq.order == {(str(j), str(k)) for j in range(2, 201)
                             for k in range(j + 1, 201)}

    def test_map_quiver_single_point(self):
        seq = evolutionary_sequence(gen_map_quiver(4))
        assert seq.levels == (("1",),)
        assert not seq.order and not seq.parent

    def test_single_vertex_quiver(self):
        from phyloquiver import Quiver

        seq = evolutionary_sequence(Quiver(["x"], []))
        assert seq.levels == (("x",),)

    def test_rejects_non_phylogenetic(self):
        with pytest.raises(InputError, match="phylogenetic"):
            evolutionary_sequence(gen_g3())

    def test_is_always_an_esequence(self):
        for s in range(40):
            q = gen_random_phylogenetic(3 + s % 7, 0.3, seed=s)
            assert validate_esequence(evolutionary_sequence(q)) == []


def evolutionary_sequence_by_scan(q):
    """The evolutionary sequence read off the definitions: parents by
    scanning every height-dropping edge, the order by ancestry between
    every pair of classes in a level."""
    cond, h = condense(q), heights(q)
    label = [cls[0] for cls in cond.classes]
    by_height = {}
    for x in label:
        by_height.setdefault(h[x], []).append(x)
    levels = tuple(tuple(sorted(by_height[m])) for m in range(len(by_height)))
    targets = {i: set() for i in range(len(label))}
    for tail, head in q.edges:
        if h[head] == h[tail] - 1:
            targets[cond.class_of(tail)].add(cond.class_of(head))
    parent = {}
    for i, x in enumerate(label):
        if h[x]:
            (p,) = targets[i]
            parent[x] = label[p]
    order = frozenset(
        (a, b) for level in levels[1:] for a in level for b in level
        if a != b and ancestor_of(q, a, b)
    )
    return ESequence(levels, parent, order)


class TestEvolutionarySequenceByScan:
    def assert_matches(self, q):
        seq, expected = evolutionary_sequence(q), evolutionary_sequence_by_scan(q)
        assert seq == expected
        assert list(seq.parent.items()) == list(expected.parent.items())

    def test_random_phylogenetic_quivers(self):
        for s in range(60):
            self.assert_matches(gen_random_phylogenetic(3 + s % 9, 0.3, seed=s))

    @pytest.mark.parametrize("single_root", [False, True])
    def test_realized_random_esequences(self, single_root):
        for s in range(40):
            seq = gen_random_esequence(1 + s % 6, 1 + s % 5, 0.5, seed=s,
                                       single_root=single_root)
            self.assert_matches(realize_esequence(seq))

    def test_surjection_and_map_fixtures(self):
        for n in range(1, 7):
            self.assert_matches(gen_surjection_quiver(n))
            self.assert_matches(gen_map_quiver(n))

    def test_deep_chain(self):
        labels = [f"c{i}" for i in range(3000)]
        seq = ESequence(
            [[x] for x in labels], {labels[i + 1]: labels[i] for i in range(2999)}
        )
        self.assert_matches(realize_esequence(seq))


class TestRealization:
    def test_chain(self):
        seq = ESequence([["r"], ["a"]], {"a": "r"})
        q = realize_esequence(seq)
        assert q.vertices == ("r", "a")
        assert q.edges == (("a", "r"),)

    def test_rejects_invalid(self):
        bad = ESequence([["r", "s"]], {}, [("r", "s")])
        with pytest.raises(InputError, match="not an E-sequence"):
            realize_esequence(bad)

    def test_universal_evolution_is_the_parent_chain(self, two_fiber):
        q = realize_esequence(two_fiber)
        assert universal_evolution(q, "a1").vertices == ("r", "a", "a1")
        assert universal_evolution(q, "b1").vertices == ("r", "b", "b1")

    def test_round_trip_surjection_quiver(self):
        seq = evolutionary_sequence(gen_surjection_quiver(5))
        again = evolutionary_sequence(realize_esequence(seq))
        assert esequence_isomorphic(seq, again)

    def test_round_trip_random(self):
        for s in range(40):
            seq = gen_random_esequence(1 + s % 5, 5, 0.4, seed=s)
            q = realize_esequence(seq)
            assert esequence_isomorphic(evolutionary_sequence(q), seq)


class TestForest:
    def test_distance_zero(self, two_fiber):
        f = build_forest(two_fiber)
        assert forest_distance(f, "a1", "a1") == 0

    def test_worked_fixture(self, two_fiber):
        f = build_forest(two_fiber)
        assert forest_distance(f, "a1", "a2") == 2
        assert forest_distance(f, "a1", "b1") == 4
        assert forest_distance(f, "a", "b1") == 3

    def test_siblings(self, two_fiber):
        f = build_forest(two_fiber)
        assert forest_distance(f, "a", "b") == 2

    def test_separate_trees_unreachable(self):
        seq = ESequence([["r", "s"], ["x", "y"]], {"x": "r", "y": "s"})
        f = build_forest(seq)
        assert forest_distance(f, "x", "y") is None
        assert forest_distance(f, "x", "r") == 1

    def test_unknown_label(self, two_fiber):
        with pytest.raises(InputError):
            forest_distance(build_forest(two_fiber), "a1", "zz")

    def test_every_component_has_one_root(self):
        for s in range(25):
            seq = gen_random_esequence(1 + s % 5, 4, 0.3, seed=s)
            f = build_forest(seq)
            for x in f.labels():
                chain = f.chain(x)
                assert chain[-1] in f.roots
                assert sum(1 for y in chain if y in f.roots) == 1

    def test_rooted_tree_forest_is_the_tree(self):
        # singleton isotypy classes and unique parents: the forest of a
        # rooted tree quiver is that tree again
        tree_edges = [("r", "x"), ("x", "y"), ("r", "z")]
        q = gen_rooted_tree_quiver(tree_edges, "r")
        f = build_forest(evolutionary_sequence(q))
        assert f.roots == ("r",)
        assert f.parent == {"x": "r", "y": "x", "z": "r"}

    def test_level_restriction_is_ultrametric(self):
        for s in range(25):
            seq = gen_random_esequence(2 + s % 4, 5, 0.3, seed=s, single_root=True)
            f = build_forest(seq)
            for level in seq.levels:
                rows = [
                    [Fraction(forest_distance(f, a, b)) for b in level]
                    for a in level
                ]
                assert validate_space(level, rows).is_ultrametric


class TestTerminalUltrametric:
    def test_worked_fixture(self, two_fiber):
        sp = terminal_ultrametric(two_fiber, 2)
        assert sp.distance("a1", "a2") == 1
        assert sp.distance("a1", "b1") == 2
        assert sp.is_ultrametric

    def test_half_of_forest_distance(self):
        for s in range(20):
            seq = gen_random_esequence(
                2 + s % 4, 5, 0.3, seed=s, single_root=True, surjective=True
            )
            n = seq.top
            sp = terminal_ultrametric(seq, n)
            f = build_forest(seq)
            for a in seq.levels[n]:
                for b in seq.levels[n]:
                    assert 2 * sp.distance(a, b) == forest_distance(f, a, b)

    def test_one_leaf_level(self):
        seq = ESequence([["r"], ["x"]], {"x": "r"})
        sp = terminal_ultrametric(seq, 1)
        assert sp.points == ("x",)

    def test_rejects_multiple_roots(self):
        seq = ESequence([["r", "s"], ["x", "y"]], {"x": "r", "y": "s"})
        with pytest.raises(InputError, match="card"):
            terminal_ultrametric(seq, 1)

    def test_rejects_non_surjective(self):
        seq = ESequence(
            [["r"], ["a", "b"], ["c"]], {"a": "r", "b": "r", "c": "a"}
        )
        with pytest.raises(InputError, match="surjective"):
            terminal_ultrametric(seq, 2)


def _deep_shapes(levels=300, width=40):
    """Two single-root sequences ``levels`` deep: ``width`` chains fanning
    out of the root, and ``width`` leaves fanning out under one chain, each
    fan with disjoint ordered pairs."""
    fan = [[f"c{j}x{m}" for j in range(width)] for m in range(1, levels)]
    root_fan = ESequence(
        [["r"]] + fan,
        {x: fan[m - 1][j] if m else "r"
         for m, level in enumerate(fan) for j, x in enumerate(level)},
        [(fan[0][j], fan[0][j + 1]) for j in range(0, width - 1, 2)],
    )
    stem = [f"k{m}" for m in range(levels - 1)]
    leaves = [f"leaf{j}" for j in range(width)]
    leaf_fan = ESequence(
        [[x] for x in stem] + [leaves],
        {**dict(zip(stem[1:], stem)), **dict.fromkeys(leaves, stem[-1])},
        [(leaves[j], leaves[j + 1]) for j in range(0, width - 1, 2)],
    )
    return root_fan, leaf_fan


def _terminal_cases():
    """(seq, n) for every level n of 240 random single-root surjective
    sequences, order pairs above n included, then the deep shapes at half
    depth and at the top."""
    params = [(1 + s % 5, 5, 0.4, s) for s in range(40)]
    params += [(1 + s % 6, 1 + s % 7, 0.1 * (s % 6), s) for s in range(40, 240)]
    for levels, width, density, s in params:
        seq = gen_random_esequence(levels, width, density, seed=s,
                                   single_root=True, surjective=True)
        for n in range(seq.top + 1):
            yield seq, n
    for seq in _deep_shapes():
        yield seq, seq.top // 2
        yield seq, seq.top


def terminal_data_by_walks(seq, n):
    """rho and prec on level n read off their definitions: the split depth
    k of a and b by walking both parent chains, and a prec b when a != b
    and p^(k-1)(a) < p^(k-1)(b) in the closed order."""
    order = brute_closure(seq.order)
    rho, prec = {}, set()
    for a, b in itertools.product(seq.levels[n], repeat=2):
        x, y, k = a, b, 0
        while x != y:
            x, y, k = seq.parent[x], seq.parent[y], k + 1
        rho[a, b] = k
        if k and (seq.chain(a)[k - 1], seq.chain(b)[k - 1]) in order:
            prec.add((a, b))
    return rho, frozenset(prec)


class TestPrec:
    def test_empty_orders_give_empty_prec(self):
        seq = ESequence(
            [["r"], ["a", "b"], ["a1", "b1"]],
            {"a": "r", "b": "r", "a1": "a", "b1": "b"},
        )
        assert induce_prec(seq, 2).pairs == frozenset()

    def test_worked_fixture(self, two_fiber):
        prec = induce_prec(two_fiber, 2)
        assert prec.pairs == {("a1", "b1"), ("a2", "b1")}

    def test_induced_relation_is_asymmetric_and_lawful(self):
        for s in range(25):
            seq = gen_random_esequence(
                2 + s % 4, 5, 0.5, seed=s, single_root=True, surjective=True
            )
            n = seq.top
            prec = induce_prec(seq, n)
            for a, b in prec.pairs:
                assert (b, a) not in prec.pairs
            assert validate_prec(terminal_ultrametric(seq, n), prec, n) == []

    def test_matches_parent_walk_reference(self):
        above = 0  # cases with order pairs above the terminal level
        for seq, n in _terminal_cases():
            rho, prec = terminal_data_by_walks(seq, n)
            space = terminal_ultrametric(seq, n)
            assert {ab: space.distance(*ab) for ab in rho} == rho, n
            assert induce_prec(seq, n).pairs == prec, n
            above += any(seq.level_of[x] > n for x, _ in seq.order)
        assert above > 100

    def test_validate_prec_counterexamples(self, two_fiber):
        sp = terminal_ultrametric(two_fiber, 2)
        sym = PrecRelation([("a1", "b1"), ("b1", "a1")])
        assert any("asymmetric" in v for v in validate_prec(sp, sym))
        # distances exceed the declared number of levels
        assert any(
            "outside" in v
            for v in validate_prec(sp, PrecRelation(()), n=1)
        )
        with pytest.raises(InputError, match="ultrametric"):
            validate_prec(
                __import__("phyloquiver").FiniteMetricSpace(
                    ["x", "y", "z"], [[0, 3, 4], [3, 0, 5], [4, 5, 0]]
                ),
                PrecRelation(()),
            )

    def test_validate_prec_ball_compatibility_rules(self, two_fiber):
        sp = terminal_ultrametric(two_fiber, 2)
        # a1 prec b1 without a2 prec b1 breaks rule (iii): rho(a1, a2) = 1
        # is below rho(a1, b1) = 2
        partial = PrecRelation([("a1", "b1")])
        assert any("prec" in v for v in validate_prec(sp, partial, 2))

    def test_validate_prec_matches_fraction_definition(self):
        # validate_prec compares the int rows; the reference compares rho
        found = 0
        for s in range(120):
            rng = random.Random(s)
            seq = gen_random_esequence(2 + s % 4, 3 + s % 5, 0.4, seed=s,
                                       single_root=True, surjective=True)
            sp = terminal_ultrametric(seq, seq.top)
            if s % 3 == 0:  # rational distances too
                sp = gen_random_ultrametric(len(sp), 1 + s % 4, seed=s)
            pairs = set(induce_prec(seq, seq.top).pairs)
            for _ in range(1 + s % 4):
                pairs ^= {(rng.choice(sp.points), rng.choice(sp.points))}
            prec = PrecRelation(frozenset(pairs) & frozenset(
                itertools.product(sp.points, repeat=2)))
            for n in (seq.top, seq.top - 1, None):
                want = ref_validate_prec(sp, prec, n)
                assert validate_prec(sp, prec, n) == want, (s, n)
                found += len(want)
        assert found > 300

    def test_validate_prec_matches_reference_on_one_pair_mutations(self):
        # lawful, one-pair-dropped and one-pair-added relations, on integer
        # and on rationally rescaled terminal ultrametrics
        kinds = {"lawful": 0, "broken": 0}
        for s in range(150):
            rng = random.Random(s)
            seq = gen_random_esequence(2 + s % 4, 3 + s % 6, 0.6, seed=s,
                                       single_root=True, surjective=True)
            n = seq.top
            sp, prec = terminal_ultrametric(seq, n), induce_prec(seq, n)
            if s % 3 == 0:
                factor = Fraction(1 + s % 5, 2 + s % 3)
                sp = FiniteMetricSpace(
                    sp.points, [[v * factor for v in row] for row in sp.rows])
            for rel in [prec, *one_pair_mutations(sp, prec, rng)]:
                want = ref_validate_prec(sp, rel, n)
                assert validate_prec(sp, rel, n) == want, s
                kinds["broken" if any(" prec " in v for v in want) else "lawful"] += 1
        assert sum(kinds.values()) >= 300
        assert min(kinds.values()) >= 100, kinds

    def test_sixty_point_mutations_match_reference(self):
        # one- and three-pair mutations of a large relation break many
        # pairs at once
        seq = gen_random_esequence(6, 60, 0.3, seed=0, single_root=True,
                                   surjective=True)
        n = seq.top
        sp, prec = terminal_ultrametric(seq, n), induce_prec(seq, n)
        assert len(sp) == 60 and len(prec.pairs) > 1000
        # the reference reads each distance many times: memoize the lookup
        memo = SimpleNamespace(points=sp.points, distance=functools.cache(sp.distance))
        rng = random.Random(0)
        every = list(itertools.product(sp.points, repeat=2))
        rels = one_pair_mutations(sp, prec, rng)
        rels += [PrecRelation(prec.pairs ^ set(rng.sample(every, 3))) for _ in range(2)]
        worded = 0
        for rel in rels:
            want = ref_validate_prec(memo, rel, n)
            assert validate_prec(sp, rel, n) == want
            assert want
            worded += len(want)
        assert worded > 50, worded

    def test_rule_messages_at_most_three_per_pair(self):
        # each ordered pair of distinct points kept with probability 1/2
        seq = gen_random_esequence(6, 40, 0.3, seed=1, single_root=True,
                                   surjective=True)
        sp = terminal_ultrametric(seq, seq.top)
        rng = random.Random(1)
        prec = PrecRelation(frozenset(
            p for p in itertools.permutations(sp.points, 2) if rng.random() < 0.5))
        got = validate_prec(sp, prec)
        rules = [v for v in got if v.endswith(")") and "(witness 1 of " in v]
        couples = [v for v in got if v.startswith("prec is not asymmetric")]
        assert len(rules) + len(couples) == len(got)
        assert len(sp) >= 30 and len(rules) > len(sp)
        assert len(got) <= 3 * len(prec.pairs)

    def test_symmetric_cycle_breaks_every_rule_of_every_pair(self):
        # p0..p4 pairwise at 2, each p_i at 1 from its own q_i; prec relates
        # neighbours on the cycle both ways: each ordered pair breaks rule 1
        # at q_i, rule 2 at q_(i+1) and rule 3 at p_(i+2), so the three rule
        # messages per pair are reached, and the asymmetry ones come on top
        m = 5
        pts = [f"p{i}" for i in range(m)] + [f"q{i}" for i in range(m)]
        rows = [[0 if x == y else 1 if x[1:] == y[1:] else 2 for y in pts]
                for x in pts]
        sp = FiniteMetricSpace(pts, rows)
        prec = PrecRelation(
            (f"p{i}", f"p{(i + d) % m}") for i in range(m) for d in (1, -1))
        got = validate_prec(sp, prec)
        assert len(got) == 3 * len(prec.pairs) + m
        assert got[m:m + 3] == [  # in the order of their points
            "'p0' prec 'p1' prec 'p2' on an equilateral triple "
            "but not 'p0' prec 'p2' (witness 1 of 1)",
            "'p0' prec 'p1' and rho('p0','q0') < rho('p0','p1') "
            "but not 'q0' prec 'p1' (witness 1 of 1)",
            "'p0' prec 'p1' and rho('p1','q1') < rho('p0','p1') "
            "but not 'p0' prec 'q1' (witness 1 of 1)",
        ]
        assert got == ref_validate_prec(sp, prec, None)

    def test_lawful_relations_have_no_violations(self):
        for s in range(60):
            seq = gen_random_esequence(2 + s % 4, 3 + s % 6, 0.6, seed=s,
                                       single_root=True, surjective=True)
            for n in range(seq.top + 1):
                sp = terminal_ultrametric(seq, n)
                assert validate_prec(sp, induce_prec(seq, n), n) == [], s

    def test_two_hundred_points(self):
        seq = gen_random_esequence(10, 200, 0.3, seed=1, single_root=True,
                                   surjective=True)
        n = seq.top
        sp, prec = terminal_ultrametric(seq, n), induce_prec(seq, n)
        assert len(sp) == 200 and len(prec.pairs) > 10_000
        assert validate_prec(sp, prec, n) == []
        assert esequence_isomorphic(reconstruct(sp, prec, n), seq)
        rng = random.Random(1)
        for rel in one_pair_mutations(sp, prec, rng):
            assert validate_prec(sp, rel, n) != []


class TestReconstruction:
    def test_worked_fixture_round_trip(self, two_fiber):
        sp = terminal_ultrametric(two_fiber, 2)
        prec = induce_prec(two_fiber, 2)
        rebuilt = reconstruct(sp, prec, 2)
        assert validate_esequence(rebuilt) == []
        assert esequence_isomorphic(rebuilt, two_fiber)

    def test_single_point_degenerate_chain(self):
        from phyloquiver import FiniteMetricSpace

        sp = FiniteMetricSpace(("x",), ((0,),))
        rebuilt = reconstruct(sp, PrecRelation(()), 3)
        assert [len(level) for level in rebuilt.levels] == [1, 1, 1, 1]

    def test_two_points_empty_prec(self):
        from phyloquiver import FiniteMetricSpace

        sp = FiniteMetricSpace(["x", "y"], [[0, 1], [1, 0]])
        rebuilt = reconstruct(sp, PrecRelation(()), 1)
        assert [len(level) for level in rebuilt.levels] == [1, 2]
        assert not rebuilt.order

    def test_rejects_non_integer_distances(self):
        from phyloquiver import FiniteMetricSpace

        sp = FiniteMetricSpace(
            ["x", "y"], [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]
        )
        with pytest.raises(InputError, match="integer"):
            reconstruct(sp, PrecRelation(()), 1)

    def test_rejects_point_labels_that_collide_with_ball_labels(self):
        from phyloquiver import FiniteMetricSpace

        # the radius-1 ball {a, b} of level 1 is named "1:a", a point's label
        sp = FiniteMetricSpace(
            ["a", "b", "1:a"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
        )
        with pytest.raises(InputError, match="^point labels collide with generated ball labels$"):
            reconstruct(sp, PrecRelation(()), 2)

    def test_refuses_more_labels_than_its_budget(self, monkeypatch):
        # one level per integer radius: 10**20 + 1 levels of two points, or a
        # billion of three, refused before the first level is built
        big = FiniteMetricSpace(["a", "b"], [[0, 10**20], [10**20, 0]])
        u3 = FiniteMetricSpace(["a", "b", "c"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        for space, n, labels in [(big, 10**20, 2 * 10**20 + 2), (u3, 10**9, 3 * 10**9 + 3)]:
            with pytest.raises(SizeGuardError, match=(
                f"^{labels} labels \\({n + 1} levels of {len(space)} points\\) "
                "exceed the budget of 1000000$"
            )):
                reconstruct(space, PrecRelation(()), n)
        # the earlier refusals keep their words, and the budget is inclusive
        half = FiniteMetricSpace(["a", "b"], [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
        with pytest.raises(InputError, match="is not an integer in 0..1000000000$"):
            reconstruct(half, PrecRelation(()), 10**9)
        monkeypatch.setattr("phyloquiver.esequence._MAX_LABELS", 9)
        assert len(reconstruct(u3, PrecRelation(()), 2).labels()) == 6
        with pytest.raises(SizeGuardError, match="^12 labels"):
            reconstruct(u3, PrecRelation(()), 3)

    def test_rejects_unlawful_prec(self, two_fiber):
        sp = terminal_ultrametric(two_fiber, 2)
        with pytest.raises(InputError, match="lawful"):
            reconstruct(sp, PrecRelation([("a1", "b1")]), 2)

    def test_random_round_trips(self):
        # the level-n terminal data come back exactly, and at the top level
        # the sequence itself up to isomorphism
        for seq, n in _terminal_cases():
            space, prec = terminal_ultrametric(seq, n), induce_prec(seq, n)
            rebuilt = reconstruct(space, prec, n)
            again = terminal_ultrametric(rebuilt, n)
            assert sorted(again.points) == sorted(space.points)
            assert all(again.distance(a, b) == space.distance(a, b)
                       for a in space.points for b in space.points)
            assert induce_prec(rebuilt, n).pairs == prec.pairs
            if n == seq.top:
                assert esequence_isomorphic(rebuilt, seq)


def _reparented(seq, rng):
    """``seq`` with one non-root label moved under a random parent, its
    order pairs dropped."""
    if seq.top == 0:
        return seq
    m = rng.randint(1, seq.top)
    x = rng.choice(seq.levels[m])
    parent = {**seq.parent, x: rng.choice(seq.levels[m - 1])}
    return ESequence(seq.levels, parent, [p for p in seq.order if x not in p])


def _with_cycle(seq, rng):
    """``seq`` with a reflexive pair, or a cycle of two or three labels,
    added inside one sibling group."""
    group = rng.choice(sibling_groups(seq))
    cycle = rng.sample(group, rng.randint(1, min(3, len(group))))
    return ESequence(seq.levels, seq.parent,
                     seq.order | set(zip(cycle, cycle[1:] + cycle[:1])))


class TestIsomorphism:
    def test_identity_and_relabeling(self, two_fiber):
        assert esequence_isomorphic(two_fiber, two_fiber)
        renamed = ESequence(
            [["R"], ["B", "A"], ["B1", "A2", "A1"]],
            {"A": "R", "B": "R", "A1": "A", "A2": "A", "B1": "B"},
            [("A", "B")],
        )
        assert esequence_isomorphic(two_fiber, renamed)

    def test_distinguishes_orders(self, two_fiber):
        unordered = ESequence(
            [["r"], ["a", "b"], ["a1", "a2", "b1"]],
            {"a": "r", "b": "r", "a1": "a", "a2": "a", "b1": "b"},
        )
        assert not esequence_isomorphic(two_fiber, unordered)

    def test_distinguishes_shapes(self, two_fiber):
        other = ESequence(
            [["r"], ["a", "b"], ["a1", "b1", "b2"]],
            {"a": "r", "b": "r", "a1": "a", "b1": "b", "b2": "b"},
            [("a", "b")],
        )
        assert not esequence_isomorphic(two_fiber, other)

    def test_level_count_and_sizes(self):
        one = ESequence([["r"]], {})
        two = ESequence([["r"], ["x"]], {"x": "r"})
        assert not esequence_isomorphic(one, two)

    def test_compares_transitive_closures(self):
        base = [["r"], ["x", "y", "z"]]
        parent = {"x": "r", "y": "r", "z": "r"}
        closed = ESequence(
            base, parent, [("x", "y"), ("y", "z"), ("x", "z")]
        )
        open_chain = ESequence(base, parent, [("x", "y"), ("y", "z")])
        assert esequence_isomorphic(closed, open_chain)

    def test_matches_brute_force_search(self):
        for s in range(30):
            e1 = gen_random_esequence(1 + s % 3, 4, 0.5, seed=s)
            e2 = gen_random_esequence(1 + (s + 1) % 3, 4, 0.5, seed=s + 100)
            assert esequence_isomorphic(e1, e2) == brute_isomorphic(e1, e2)
            assert esequence_isomorphic(e1, e1)

        # Copies, one-pair and re-parent perturbations, and reflexive or
        # cyclic orders inside one sibling group, each under fresh labels.
        rng = random.Random(2017)
        for s in range(200):
            e1 = gen_random_esequence(1 + s % 3, 4, 0.5, seed=1000 + s)
            cyclic = _with_cycle(e1, rng)
            for a, b in [
                (e1, e1),
                (e1, toggle_pair(e1, rng)),
                (e1, _reparented(e1, rng)),
                (e1, cyclic),
                (cyclic, _with_cycle(e1, rng)),
            ]:
                b = relabeled(b, rng)
                assert esequence_isomorphic(a, b) == brute_isomorphic(a, b), s

    def test_mixed_groups_match_brute_force(self, monkeypatch):
        # One sibling group under a root: unordered siblings beside ordered
        # ones of the same subtree, parts whose classes are all fixed, and
        # zigzags whose equal-key classes go through the ordering search.
        searched = []

        def recording(part, code, sides):
            form = _part_form(part, code, sides)
            if len(part) > 1:  # the form ends in a least adjacency tuple after a search
                searched.append(len(form) > 1 + 6 * form[0])
            return form

        monkeypatch.setattr("phyloquiver.esequence._part_form", recording)
        rng = random.Random(25)
        beside = 0
        for s in range(150):
            a = one_group(rng)
            ordered = {x for pair in a.order for x in pair}
            kids = {x: len(a.children(x)) for x in a.levels[1]}
            beside += any(kids[x] == kids[y] for x in kids.keys() - ordered for y in ordered)
            for b in (a, toggle_pair(a, rng), one_group(rng)):
                b = relabeled(b, rng)
                assert esequence_isomorphic(a, b) == brute_isomorphic(a, b), s
        assert beside >= 10 and searched.count(True) >= 10 and searched.count(False) >= 100

    def test_unordered_siblings_make_no_part_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr("phyloquiver.esequence._part_form",
                            lambda *args: calls.append(args))
        labels = [f"a{i}" for i in range(3000)]
        chain = ESequence([[x] for x in labels], dict(zip(labels[1:], labels)))
        roots = ESequence([[f"r{i}" for i in range(2000)]], {})
        rng = random.Random(6)
        assert esequence_isomorphic(chain, relabeled(chain, rng))
        assert esequence_isomorphic(roots, relabeled(roots, rng))
        assert calls == []

    def test_backtracks_past_color_refinement(self):
        # Two crowns on one level, four minimal and four maximal labels with
        # every label in two pairs: an 8-cycle and two 4-cycles. Every label
        # gets the same color, so only the search can tell them apart.
        def crown(pairs, tag, seed=None):
            lows = [f"{tag}a{i}" for i in range(4)]
            highs = [f"{tag}b{i}" for i in range(4)]
            level = lows + highs
            if seed is not None:
                # the level's list order is the order candidates are tried in
                random.Random(seed).shuffle(level)
            return ESequence(
                [level], {}, [(lows[i], highs[j]) for i, j in pairs]
            )

        cycle8 = [(i, j % 4) for i in range(4) for j in (i, i + 1)]
        cycles4 = [(i, j) for i in range(4) for j in range(4) if i // 2 == j // 2]
        assert not esequence_isomorphic(crown(cycle8, "x"), crown(cycles4, "y"))
        for s in range(20):
            assert esequence_isomorphic(crown(cycle8, "x"), crown(cycle8, "y", s))
            assert esequence_isomorphic(crown(cycles4, "x"), crown(cycles4, "y", s))
            assert not esequence_isomorphic(crown(cycles4, "x"), crown(cycle8, "y", s))

    def test_adjacency_tells_apart_equal_keys(self):
        # Leaves a1 < b1 and parents a2 < b2, or a leaf below a parent and a
        # parent below a leaf: same codes, counts and no twins either way.
        def seq(order):
            return ESequence(
                [["r"], ["a1", "a2", "b1", "b2"], ["ca", "cb"]],
                {"a1": "r", "a2": "r", "b1": "r", "b2": "r",
                 "ca": "a2", "cb": "b2"},
                order,
            )

        same = seq([("a1", "b1"), ("a2", "b2")])
        crossed = seq([("a1", "b2"), ("a2", "b1")])
        assert not esequence_isomorphic(same, crossed)
        assert esequence_isomorphic(crossed, relabeled(crossed, random.Random(0)))

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_crowns_beyond_the_budget_are_refused(self, n):
        def crown(pairs, tag):
            lows = [f"{tag}a{i}" for i in range(n)]
            highs = [f"{tag}b{i}" for i in range(n)]
            return ESequence(
                [lows + highs], {}, [(lows[i], highs[j]) for i, j in pairs]
            )

        half = n // 2
        cycle = [(i, j % n) for i in range(n) for j in (i, i + 1)]
        two_cycles = [(i, i // half * half + j % half)
                      for i in range(n) for j in (i, i + 1)]
        with pytest.raises(SizeGuardError):
            esequence_isomorphic(crown(cycle, "x"), crown(two_cycles, "y"))

    @pytest.mark.parametrize("n, pairs", [
        (10, [(2 * i, 2 * i + 1) for i in range(5)]),  # five disjoint pairs
        (12, [(3 * i + j, 3 * i + j + 1) for i in range(4) for j in (0, 1)]),
    ])
    def test_disjoint_parts_are_answered(self, n, pairs):
        # Each part is small, though the whole group has 5!^2 or 24^3
        # orderings of labels with equal keys.
        def group(pairs):
            xs = [f"x{i}" for i in range(n)]
            return ESequence([["r"], xs], dict.fromkeys(xs, "r"),
                                   [(xs[i], xs[j]) for i, j in pairs])

        rng = random.Random(n)
        seq = group(pairs)
        assert esequence_isomorphic(seq, relabeled(seq, rng))
        assert not esequence_isomorphic(seq, relabeled(group(pairs + [(0, 3)]), rng))

    def test_crown_above_a_long_chain(self):
        # The 290 chain labels are fixed by their keys; only the crown's
        # eight classes are ordered, so the call stays far from the budget.
        def group(tag, split):
            chain = [f"{tag}c{i}" for i in range(290)]
            lows = [f"{tag}a{i}" for i in range(4)]
            highs = [f"{tag}b{i}" for i in range(4)]
            pairs = list(zip(chain, chain[1:])) + [(chain[-1], x) for x in lows]
            pairs += [(lows[i], highs[i // 2 * 2 + (i + j) % 2 if split else (i + j) % 4])
                      for i in range(4) for j in (0, 1)]
            xs = chain + lows + highs
            return ESequence([["r"], xs], dict.fromkeys(xs, "r"), pairs)

        rng = random.Random(3)
        for split, expected in [(False, True), (True, False)]:
            other = relabeled(group("y", split), rng)
            start = time.perf_counter()
            assert esequence_isomorphic(group("x", False), other) is expected
            assert time.perf_counter() - start < 2.0

    def test_wide_draw_matches_its_reconstruction(self):
        # levels of 1, 474, 490 and 497 labels, 109,905 closed order pairs
        seq = gen_random_esequence(4, 500, 0.3, seed=1, single_root=True, surjective=True)
        n = seq.top
        rebuilt = reconstruct(terminal_ultrametric(seq, n), induce_prec(seq, n), n)
        assert esequence_isomorphic(seq, rebuilt)

    def test_twins_never_count_toward_the_budget(self):
        rng = random.Random(5)
        leaves = [f"x{i}" for i in range(12)]
        fibre = ESequence([["r"], leaves], dict.fromkeys(leaves, "r"))
        assert esequence_isomorphic(fibre, relabeled(fibre, rng))
        roots = ESequence([[f"r{i}" for i in range(50)]], {})
        assert esequence_isomorphic(roots, relabeled(roots, rng))

    def test_order_across_sibling_groups_is_not_an_esequence(self):
        seq = ESequence(
            [["r", "s"], ["x", "y"]], {"x": "r", "y": "s"}, [("x", "y")]
        )
        with pytest.raises(InputError, match="across sibling groups"):
            esequence_isomorphic(seq, seq)

    def test_crossing_pair_named_independent_of_hash_seed(self):
        # Every order pair crosses; the message names the least one.
        script = (
            "from phyloquiver import ESequence, InputError, esequence_isomorphic\n"
            "seq = ESequence([['r', 's'], ['x', 'y', 'z', 'w']],\n"
            "                      {'x': 'r', 'z': 'r', 'y': 's', 'w': 's'},\n"
            "                      [('x', 'y'), ('z', 'w'), ('x', 'w')])\n"
            "try:\n"
            "    esequence_isomorphic(seq, seq)\n"
            "except InputError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        messages = set()
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            messages.add(proc.stdout)
        assert messages == {"not an E-sequence: 'x' < 'w' across sibling groups\n"}

    def test_refused_part_independent_of_hash_seed(self):
        # One sibling group holds a 5-crown and a 6-crown, both over the
        # budget; the refusal counts the part holding the least label.
        script = (
            "from phyloquiver import ESequence, SizeGuardError, esequence_isomorphic\n"
            "def crown(n, lo, hi):\n"
            "    return [(f'{lo}{i}', f'{hi}{(i + j) % n}') for i in range(n) for j in (0, 1)]\n"
            "xs = [f'{t}{i}' for t, n in (('a', 5), ('b', 5), ('c', 6), ('d', 6))\n"
            "      for i in range(n)]\n"
            "seq = ESequence([['r'], xs], dict.fromkeys(xs, 'r'),\n"
            "                      crown(5, 'a', 'b') + crown(6, 'c', 'd'))\n"
            "try:\n"
            "    esequence_isomorphic(seq, seq)\n"
            "except SizeGuardError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        messages = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            messages.add(proc.stdout)
        assert messages == {"1440000 adjacency entries to compare in a sibling group "
                            "exceed the budget of 100000\n"}

    def test_deep_chain(self):
        def chain(n, tag):
            labels = [f"{tag}{i}" for i in range(n)]
            return ESequence(
                [[x] for x in labels],
                {labels[i + 1]: labels[i] for i in range(n - 1)},
            )

        assert esequence_isomorphic(chain(3000, "a"), chain(3000, "b"))
        assert not esequence_isomorphic(chain(3000, "a"), chain(2999, "b"))


def _chain_space():
    # a metric that is not an ultrametric: the path on three points
    return FiniteMetricSpace(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ESequence([], {}),
                 "an E-sequence needs at least one level", id="no-levels"),
    pytest.param(lambda: ESequence([["r"], []], {}),
                 "level 1 is empty", id="empty-level"),
    pytest.param(lambda: ESequence([["r"], ["a", "r"]], {"a": "r"}),
                 "duplicate label 'r'", id="duplicate-label"),
    pytest.param(lambda: ESequence([["r"], ["a", "b"]], {"a": "r"}),
                 "parent map must cover levels 1.. exactly", id="cover-missing"),
    pytest.param(lambda: ESequence([["r", "s"], ["a"]], {"a": "r", "s": "r"}),
                 "parent map must cover levels 1.. exactly", id="cover-level-0"),
    pytest.param(lambda: ESequence([["r"], ["a", "b"]], {"a": "r", "x": "r"}),
                 "parent map must cover levels 1.. exactly", id="cover-unknown"),
    pytest.param(lambda: ESequence([["r"], ["a"]], {"a": "x"}),
                 "parent of 'a' must sit one level below", id="parent-unknown"),
    pytest.param(lambda: ESequence([["r"], ["a"], ["b"]], {"a": "r", "b": "r"}),
                 "parent of 'b' must sit one level below", id="parent-two-down"),
    pytest.param(lambda: ESequence([["r"]], {}, [("r", "x")]),
                 "order pair ('r', 'x') references unknown labels", id="unknown-order"),
    pytest.param(lambda: ESequence([["r"], ["a"]], {"a": "r"}, [("a", "r")]),
                 "order pair ('a', 'r') crosses levels", id="crossing-order"),
    pytest.param(lambda: terminal_ultrametric(
        ESequence([["r"], ["a", "b"]], {"a": "r", "b": "r"}, [("a", "a")]), 1),
                 "not an E-sequence: order is not irreflexive: 'a' < 'a'", id="unlawful"),
    pytest.param(lambda: induce_prec(ESequence([["r"]], {}), 1),
                 "level 1 out of range 0..0", id="level-range"),
    pytest.param(lambda: validate_prec(
        gen_random_ultrametric(3, seed=0), PrecRelation(frozenset({("p0", "q")})), 1),
                 "prec pair ('p0', 'q') references unknown points", id="prec-unknown"),
    pytest.param(lambda: validate_prec(
        gen_random_ultrametric(3, seed=0), PrecRelation(frozenset()), -1),
                 "n must be nonnegative", id="prec-negative-n"),
    pytest.param(lambda: reconstruct(_chain_space(), PrecRelation(frozenset()), 1),
                 "reconstruction needs an ultrametric space", id="not-ultrametric"),
    pytest.param(lambda: reconstruct(
        gen_random_ultrametric(3, seed=0), PrecRelation(frozenset()), -1),
                 "n must be nonnegative", id="negative-n"),
])
def test_input_errors(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
