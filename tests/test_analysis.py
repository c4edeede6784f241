"""Heights, normality, universal evolutions, and the bounded oracle."""

from __future__ import annotations

import gc
import pickle
import random
import sys
import threading
import tracemalloc
import weakref

import pytest

from phyloquiver import (
    InputError,
    Quiver,
    SizeGuardError,
    analyze,
    condense,
    critical_ancestors,
    critical_vertices,
    embeds_in,
    evolutionary_sequence,
    height,
    heights,
    is_monotonous,
    is_normal,
    is_phylogenetic_quiver,
    is_phylogenetic_vertex,
    is_primitive,
    isotypic,
    monotonize,
    phylogenetic_core,
    phylogenetic_status,
    primitive_vertices,
    short_full_evolutions,
    universal_evolution,
    validate_evolution,
    verify_universal_bounded,
)
from phyloquiver.analysis import _critical_heads, _normal_self_inclusive, _phylogenetic
from phyloquiver.clades import clade_height, clade_report, is_regular
from phyloquiver.generators import (
    gen_abnormal,
    gen_g3,
    gen_map_quiver,
    gen_nonmonotonous,
    gen_random_monotonous,
    gen_random_phylogenetic,
    gen_random_quiver,
    gen_rooted_tree_quiver,
    gen_surjection_quiver,
)

from oracles import (
    brute_critical_ancestors,
    brute_embedding_exists,
    brute_full_evolutions,
    brute_heights,
    brute_primitives,
    grouped_isotypic,
)


def random_quivers(count, max_n=8, densities=(0.15, 0.25, 0.4)):
    for s in range(count):
        yield gen_random_quiver(2 + s % (max_n - 1), densities[s % len(densities)], seed=s)


def random_monotonous(count, max_n=8, densities=(0.15, 0.25, 0.4)):
    for s in range(count):
        yield gen_random_monotonous(2 + s % (max_n - 1), densities[s % len(densities)], seed=s)


class TestPrimitivity:
    def test_g3(self, g3):
        assert is_primitive(g3, "A")
        assert not is_primitive(g3, "B")

    def test_map_quiver_all_primitive(self):
        q = gen_map_quiver(3)
        assert primitive_vertices(q) == set(q.vertices)

    def test_surjection_quiver_card_one(self):
        s5 = gen_surjection_quiver(5)
        assert primitive_vertices(s5) == {"1"}

    def test_matches_brute(self):
        for q in random_quivers(40):
            assert primitive_vertices(q) == brute_primitives(q)

    def test_anti_hereditary(self):
        # every ancestor of a primitive vertex is primitive
        for q in random_quivers(40):
            from phyloquiver import ancestors

            for v in primitive_vertices(q):
                assert all(is_primitive(q, a) for a in ancestors(q, v))


class TestHeights:
    def test_g3(self, g3):
        assert heights(g3) == {"A": 0, "B": 1, "C": 2}

    def test_surjection_quiver(self):
        s5 = gen_surjection_quiver(5)
        assert height(s5, "1") == 0
        assert all(height(s5, str(k)) == 1 for k in range(2, 6))

    def test_height_zero_iff_primitive(self):
        for q in random_quivers(20):
            for v in q.vertices:
                assert (height(q, v) == 0) == is_primitive(q, v)

    def test_matches_brute(self):
        for q in random_quivers(40, max_n=7):
            assert heights(q) == brute_heights(q)

    def test_step_inequality(self):
        for q in random_quivers(40):
            h = heights(q)
            for tail, head in q.edges:
                assert h[tail] <= h[head] + 1

    def test_rooted_path_heights(self):
        q = gen_rooted_tree_quiver([("r", "x"), ("x", "y"), ("y", "z")], "r")
        assert heights(q) == {"r": 0, "x": 1, "y": 2, "z": 3}

    def test_rooted_star_heights(self):
        q = gen_rooted_tree_quiver([("c", "l1"), ("c", "l2"), ("c", "l3")], "c")
        assert heights(q) == {"c": 0, "l1": 1, "l2": 1, "l3": 1}


class TestMonotonicity:
    def test_g3_is_not_monotonous(self, g3):
        # edge B -> C climbs from height 1 to height 2
        assert not is_monotonous(g3)

    def test_rooted_tree_is_monotonous(self):
        q = gen_rooted_tree_quiver([("r", "x"), ("r", "y"), ("y", "z")], "r")
        assert is_monotonous(q)

    def test_nonmonotonous_fixture(self):
        q = gen_nonmonotonous()
        assert heights(q) == {"P": 0, "Q": 1, "R": 2, "S": 1}
        assert not is_monotonous(q)

    def test_monotonize_removes_climbing_edge(self):
        q = gen_nonmonotonous()
        m = monotonize(q)
        assert ("S", "R") not in m.edges
        assert is_monotonous(m)
        assert heights(m) == heights(q)
        assert primitive_vertices(m) == primitive_vertices(q)

    def test_monotonize_fixes_monotonous_quiver(self):
        q = gen_surjection_quiver(4)
        assert monotonize(q) == q

    def test_monotonize_preserves_heights_and_primitives(self):
        for q in random_quivers(40):
            m = monotonize(q)
            assert is_monotonous(m)
            assert heights(m) == heights(q)
            assert primitive_vertices(m) == primitive_vertices(q)

    def test_isotypic_vertices_equal_height_when_monotonous(self):
        for q in random_monotonous(40):
            h = heights(q)
            cond = condense(q)
            for cls in cond.classes:
                assert len({h[v] for v in cls}) == 1


class TestCriticalVertices:
    def test_g3_full_evolution(self, g3):
        evo = validate_evolution(g3, ["A", "B", "C"])
        assert critical_vertices(g3, evo) == [0, 1]

    def test_length_zero(self, g3):
        assert critical_vertices(g3, validate_evolution(g3, ["A"])) == []

    def test_count_in_monotonous_quivers(self):
        # any evolution from height r to height s has s - r critical
        # vertices, of heights r, r+1, ..., s-1
        rng = random.Random(7)
        sampled = 0
        for q in random_monotonous(60):
            h = heights(q)
            adj = {v: [w for w in q.vertices if q.has_edge(v, w)] for v in q.vertices}
            for _ in range(4):
                v = rng.choice(q.vertices)
                walk = [v]
                while adj[walk[-1]] and len(walk) < 7:
                    walk.append(rng.choice(adj[walk[-1]]))
                if len(walk) < 2:
                    continue
                evo = validate_evolution(q, tuple(reversed(walk)))
                r, s = h[evo.initial], h[evo.terminal]
                crit = critical_vertices(q, evo)
                assert len(crit) == s - r
                assert sorted(h[evo.vertices[k]] for k in crit) == list(range(r, s))
                sampled += 1
        assert sampled > 50


class TestCriticalAncestors:
    def test_g3_values(self, g3):
        assert critical_ancestors(g3, "B") == {"A"}
        assert critical_ancestors(g3, "C") == {"A", "B"}

    def test_primitive_has_none(self):
        for q in random_quivers(25):
            for v in primitive_vertices(q):
                assert critical_ancestors(q, v) == frozenset()

    def test_isotypy_invariance_on_monotonous(self):
        for q in random_monotonous(40):
            for a in q.vertices:
                for b in q.vertices:
                    if isotypic(q, a, b):
                        assert critical_ancestors(q, a) == critical_ancestors(q, b)

    def test_matches_critical_vertices_of_full_evolutions_when_monotonous(self):
        # the definitional route: collect critical vertices over every full
        # evolution terminating at v (bounded enumeration suffices: a
        # witness never needs more than one pass through each vertex)
        for q in random_monotonous(40, max_n=6):
            h = heights(q)
            for v in q.vertices:
                expected = set()
                for seq in brute_full_evolutions(q, v, len(q.vertices) + 1):
                    for k in range(len(seq) - 1):
                        if h[seq[k + 1]] == h[seq[k]] + 1:
                            expected.add(seq[k])
                assert critical_ancestors(q, v) == expected


class TestNormality:
    def test_g3_all_normal(self, g3):
        assert all(is_normal(g3, v) for v in g3.vertices)

    def test_primitive_vertices_normal(self):
        for q in random_quivers(25):
            for v in primitive_vertices(q):
                assert is_normal(q, v)

    def test_abnormal_fixture(self):
        q = gen_abnormal()
        assert not is_normal(q, "R")
        assert {"Q1", "Q2", "P1", "P2"} == set(critical_ancestors(q, "R"))
        for v in ("P1", "P2", "Q1", "Q2"):
            assert is_normal(q, v)

    def test_anti_hereditary_on_monotonous(self):
        from phyloquiver import ancestors

        for q in random_monotonous(40):
            for v in q.vertices:
                if is_normal(q, v):
                    assert all(is_normal(q, a) for a in ancestors(q, v))


class TestEmbedding:
    def test_reflexive(self, g3):
        evo = validate_evolution(g3, ["A", "B", "C"])
        assert embeds_in(g3, evo, evo)

    def test_single_vertex(self, g3):
        point = validate_evolution(g3, ["B"])
        acb = validate_evolution(g3, ["A", "B"])
        assert embeds_in(g3, point, acb)
        apoint = validate_evolution(g3, ["A"])
        bc = validate_evolution(g3, ["B", "C", "B"])
        assert not embeds_in(g3, apoint, bc)

    def test_g3_isotypy_used(self, g3):
        ab = validate_evolution(g3, ["A", "B"])
        abc = validate_evolution(g3, ["A", "B", "C"])
        assert embeds_in(g3, ab, abc)

    def test_isotypic_stand_in_carries_the_match(self):
        # same shape as G3 plus an edge C -> A, so (A, C, B) is a valid
        # evolution; B ~ C lets (A, B) embed in it
        q = Quiver(
            ["A", "B", "C"], [("B", "A"), ("B", "C"), ("C", "B"), ("C", "A")]
        )
        ab = validate_evolution(q, ["A", "B"])
        acb = validate_evolution(q, ["A", "C", "B"])
        assert embeds_in(q, ab, acb)

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for q in random_quivers(30, max_n=6):
            classes = condense(q).class_index
            adj = {v: [w for w in q.vertices if q.has_edge(v, w)] for v in q.vertices}

            def sample_walk():
                v = rng.choice(q.vertices)
                walk = [v]
                while adj[walk[-1]] and len(walk) < 6 and rng.random() < 0.8:
                    walk.append(rng.choice(adj[walk[-1]]))
                return tuple(reversed(walk))

            for _ in range(6):
                alpha, beta = sample_walk(), sample_walk()
                ea = validate_evolution(q, alpha)
                eb = validate_evolution(q, beta)
                assert embeds_in(q, ea, eb) == brute_embedding_exists(
                    classes, alpha, beta
                )


class TestShortFullEvolutions:
    def test_g3_unique(self, g3):
        evos = list(short_full_evolutions(g3, "C"))
        assert [e.vertices for e in evos] == [("A", "B", "C")]

    def test_primitive_trivial(self):
        s5 = gen_surjection_quiver(5)
        assert [e.vertices for e in short_full_evolutions(s5, "1")] == [("1",)]

    def test_surjection_quiver_single(self):
        s3 = gen_surjection_quiver(3)
        assert [e.vertices for e in short_full_evolutions(s3, "3")] == [("1", "3")]

    def test_enumerates_exactly_the_shortest(self):
        for q in random_quivers(30, max_n=6):
            h = heights(q)
            for v in q.vertices:
                got = [e.vertices for e in short_full_evolutions(q, v)]
                want = sorted(
                    seq
                    for seq in brute_full_evolutions(q, v, h[v])
                    if len(seq) - 1 == h[v]
                )
                assert got == want
                for seq in got:  # heights climb one per step (short => exact)
                    assert [h[x] for x in seq] == list(range(len(seq)))

    def test_heights_bounded_by_position_in_any_full_evolution(self):
        for q in random_quivers(20, max_n=5):
            h = heights(q)
            for v in q.vertices:
                for seq in brute_full_evolutions(q, v, len(q.vertices) + 1):
                    for k, x in enumerate(seq):
                        assert h[x] <= k


class TestPhylogeneticVertices:
    def test_g3_all_phylogenetic(self, g3):
        assert all(phylogenetic_status(g3, v) is True for v in g3.vertices)
        assert is_phylogenetic_vertex(g3, "C")

    def test_primitive_phylogenetic(self):
        for q in random_quivers(20):
            for v in primitive_vertices(q):
                assert phylogenetic_status(q, v) is True

    def test_abnormal_r_not_phylogenetic(self):
        q = gen_abnormal()
        assert is_monotonous(q)
        assert phylogenetic_status(q, "R") is False
        assert universal_evolution(q, "R") is None

    def test_climbing_edge_r_is_not_phylogenetic(self):
        # non-monotonous and not normal: abnormal quiver plus a vertex T
        # whose edge T -> R climbs heights. R's two short evolutions pass
        # through Q1 and Q2, which lie in different classes.
        q = Quiver(
            ["P1", "P2", "Q1", "Q2", "R", "T"],
            [("Q1", "P1"), ("Q2", "P2"), ("R", "Q1"), ("R", "Q2"),
             ("T", "P1"), ("T", "R")],
        )
        assert not is_monotonous(q)
        assert phylogenetic_status(q, "R") is False
        assert is_phylogenetic_vertex(q, "R") is False
        assert universal_evolution(q, "R") is None

    def test_unknown_vertex_raises_without_a_chained_error(self, g3):
        with pytest.raises(InputError, match="^unknown vertex id 'Z'$") as exc:
            phylogenetic_status(g3, "Z")
        assert exc.value.__context__ is None

    def test_analyze_checks_no_vertex_it_reads_from_the_table(self, monkeypatch):
        q = gen_random_monotonous(30, 0.2, seed=7)
        calls, check = [], Quiver.check_vertex
        monkeypatch.setattr(Quiver, "check_vertex",
                            lambda self, v: calls.append(v) or check(self, v))
        assert len(analyze(q).vertices) == 30 and calls == []

    def test_one_definition_under_both_names(self):
        assert is_phylogenetic_vertex is phylogenetic_status

    def test_status_is_per_vertex_not_per_class(self):
        # v3's one short evolution is (v2, v3); v1's are (v2, v0, v1) and
        # (v2, v3, v1), whose class sequences differ
        q = gen_random_quiver(4, 0.25, seed=92)
        assert q.edges == (("v0", "v2"), ("v1", "v0"), ("v1", "v3"),
                           ("v3", "v1"), ("v3", "v2"))
        assert isotypic(q, "v1", "v3")
        assert phylogenetic_status(q, "v1") is False
        assert phylogenetic_status(q, "v3") is True
        assert universal_evolution(q, "v1") is None
        assert universal_evolution(q, "v3").vertices == ("v2", "v3")
        rows = {row.vertex: row.phylogenetic for row in analyze(q).vertices}
        assert rows == {"v0": True, "v1": False, "v2": True, "v3": True}

    def test_walk_counts_against_the_budget(self, monkeypatch):
        # v1 and v3 are non-normal and reach one sink class, so both walk
        q = gen_random_quiver(4, 0.25, seed=92)
        monkeypatch.setattr("phyloquiver.analysis._MAX_STATES", 1)
        with pytest.raises(SizeGuardError, match="node budget of 1$"):
            analyze(q)

    def test_universal_evolution_g3(self, g3):
        assert universal_evolution(g3, "C").vertices == ("A", "B", "C")
        assert universal_evolution(g3, "A").vertices == ("A",)

    def test_universal_evolutions_of_isotypic_vertices_are_isotypic(self):
        # also: a phylogenetic vertex has exactly h(X) isotypy classes of
        # critical ancestors in a monotonous quiver
        for q in random_monotonous(40):
            h = heights(q)
            cond = condense(q)
            for v in q.vertices:
                if not is_phylogenetic_vertex(q, v):
                    continue
                classes = {cond.class_of(a) for a in critical_ancestors(q, v)}
                assert len(classes) == h[v]
                for w in q.vertices:
                    if w > v or not isotypic(q, v, w):
                        continue
                    ev, ew = universal_evolution(q, v), universal_evolution(q, w)
                    assert ev.length == ew.length
                    assert all(
                        isotypic(q, a, b)
                        for a, b in zip(ev.vertices, ew.vertices)
                    )


class TestBoundedOracle:
    def test_g3_universal(self, g3):
        alpha = validate_evolution(g3, ["A", "B", "C"])
        assert verify_universal_bounded(g3, alpha, 6)

    def test_primitive_trivial(self):
        s5 = gen_surjection_quiver(5)
        alpha = validate_evolution(s5, ["1"])
        assert verify_universal_bounded(s5, alpha, 10)

    def test_abnormal_fails(self):
        q = gen_abnormal()
        for alpha in short_full_evolutions(q, "R"):
            assert not verify_universal_bounded(q, alpha, 5)

    def test_rejects_non_full_evolution(self, g3):
        beta = validate_evolution(g3, ["B", "C"])
        with pytest.raises(InputError, match="primitive"):
            verify_universal_bounded(g3, beta, 5)

    def test_budget_guard(self, monkeypatch):
        q = gen_surjection_quiver(6)
        alpha = validate_evolution(q, ["1", "6"])
        monkeypatch.setattr("phyloquiver.analysis._MAX_STATES", 3)
        with pytest.raises(SizeGuardError, match="node budget of 3$"):
            verify_universal_bounded(q, alpha, 12)

    def test_non_short_full_evolution_fails(self, g3):
        # a longer full evolution cannot embed in the short one
        alpha = validate_evolution(g3, ["A", "B", "C", "B", "C"])
        assert not verify_universal_bounded(g3, alpha, 6)

    def test_length_bound(self):
        # v has parents P and a4; the full evolution P2, a1, ..., a4, v of
        # length 5 avoids P, so (P, v) passes exactly below length 5.
        edges = [("v", "P"), ("a1", "P2"), ("v", "a4")]
        edges += [(f"a{i}", f"a{i - 1}") for i in range(2, 5)]
        q = Quiver(["P", "P2", "a1", "a2", "a3", "a4", "v"], edges)
        alpha = validate_evolution(q, ["P", "v"])
        results = [verify_universal_bounded(q, alpha, m) for m in range(8)]
        assert results == [True] * 5 + [False] * 3

    def test_matches_brute_enumeration(self):
        # every short evolution against every bounded full evolution,
        # written out, at bounds h(v)..h(v) + 3
        checked = fails = nonmonotonous = 0
        for n in range(2, 6):
            for d in (0.25, 0.35, 0.5):
                for s in range(60):
                    q = gen_random_quiver(n, d, seed=s)
                    nonmonotonous += not is_monotonous(q)
                    ci, h = condense(q).class_index, heights(q)
                    for v in q.vertices:
                        for m in range(h[v], h[v] + 4):
                            betas = brute_full_evolutions(q, v, m)
                            for alpha in short_full_evolutions(q, v):
                                want = all(brute_embedding_exists(ci, alpha.vertices, b)
                                           for b in betas)
                                assert verify_universal_bounded(q, alpha, m) == want, (
                                    n, d, s, v, m)
                                checked += 1
                                fails += not want
        assert checked >= 10_000 and fails >= 500 and nonmonotonous >= 50


class TestExactStatus:
    """Off monotonous quivers, every status against the any-short-α oracle:
    some short full evolution embeds in every full evolution of length at
    most V·(h + 2), the bound past which the walk meets no new state."""

    def test_matches_any_short_oracle(self, monkeypatch):
        walked = []

        def spy(q, alpha, max_length):
            walked.append(verify_universal_bounded(q, alpha, max_length))
            return walked[-1]

        monkeypatch.setattr("phyloquiver.analysis.verify_universal_bounded", spy)
        checked = non_normal = 0
        for n in range(2, 8):
            for d in (0.2, 0.35, 0.5):
                for s in range(100):
                    q = gen_random_quiver(n, d, seed=s)
                    if is_monotonous(q):
                        continue
                    rows, h = analyze(q).vertices, heights(q)
                    for v, row in zip(q.vertices, rows):
                        bound = len(q.vertices) * (h[v] + 2)
                        want = any(verify_universal_bounded(q, alpha, bound)
                                   for alpha in short_full_evolutions(q, v))
                        assert phylogenetic_status(q, v) is row.phylogenetic is want, (
                            n, d, s, v)
                        checked += 1
                        non_normal += not _normal_self_inclusive(q, v)
        settled_by_sinks = non_normal - len(walked)
        assert checked >= 1_500 and non_normal >= 100
        assert settled_by_sinks > 0 and True in walked and False in walked

    def test_point_answers_equal_analyze_rows(self):
        # point queries last to first on one quiver, analyze on a fresh copy
        compared = 0
        for n in range(2, 8):
            for d in (0.2, 0.35, 0.5):
                for s in range(100):
                    q = gen_random_quiver(n, d, seed=s)
                    if is_monotonous(q):
                        continue
                    points = {v: phylogenetic_status(q, v) for v in reversed(q.vertices)}
                    rows = analyze(gen_random_quiver(n, d, seed=s)).vertices
                    assert {row.vertex: row.phylogenetic for row in rows} == points, (n, d, s)
                    compared += 1
        assert compared >= 300


def climbing_chain(k):
    """P <- Q1, P <- Q2, R -> Q1, R -> Q2, a k-chain c1..ck above R, and T
    with edges T -> ck (climbing) and T -> P: R, the chain and T are not
    normal and reach one sink class, so each is settled by the walk."""
    chain = [f"c{i}" for i in range(1, k + 1)]
    edges = [("Q1", "P"), ("Q2", "P"), ("R", "Q1"), ("R", "Q2"), ("c1", "R")]
    edges += list(zip(chain[1:], chain))
    edges += [("T", chain[-1]), ("T", "P")]
    return Quiver(["P", "Q1", "Q2", "R", "T", *chain], edges)


class TestPointStatus:
    """A point query walks its own vertex at most, never the others."""

    @pytest.fixture
    def walks(self, monkeypatch):
        walked = []

        def spy(q, alpha, max_length):
            walked.append(alpha.terminal)
            return verify_universal_bounded(q, alpha, max_length)

        monkeypatch.setattr("phyloquiver.analysis.verify_universal_bounded", spy)
        return walked

    def test_primitive_p_walks_nothing(self, walks):
        q = climbing_chain(250)
        assert phylogenetic_status(q, "P") is True
        assert universal_evolution(q, "P").vertices == ("P",)
        assert walks == []

    def test_each_point_query_walks_at_most_once(self, walks):
        want = {row.vertex: row.phylogenetic for row in analyze(climbing_chain(30)).vertices}
        assert len(walks) == 30 + 2  # R, the chain and T
        for v, status in want.items():
            walks.clear()
            q = climbing_chain(30)
            assert phylogenetic_status(q, v) is status
            assert walks == ([v] if v in ("R", "T") or v.startswith("c") else [])
            assert phylogenetic_status(q, v) is status and len(walks) <= 1

    def test_analyze_reuses_the_walked_points(self, walks):
        q = climbing_chain(30)
        assert phylogenetic_status(q, "c7") is False and walks == ["c7"]
        analyze(q)
        assert sorted(walks) == sorted(["R", "T", *(f"c{i}" for i in range(1, 31))])

    def test_a_walked_vertex_keeps_its_path_in_one_memo(self, monkeypatch):
        listed = []

        def spy(q, v):
            listed.append(v)
            return short_full_evolutions(q, v)

        monkeypatch.setattr("phyloquiver.analysis.short_full_evolutions", spy)
        seed8 = gen_random_quiver(8, 0.25, seed=8)
        assert {v for v in seed8.vertices if v not in _phylogenetic(seed8)} == {
            "v1", "v4", "v5", "v7"}
        for q in (seed8, climbing_chain(30)):
            walked = [v for v in q.vertices if v not in _phylogenetic(q)]
            for v in walked:
                for reads in ((phylogenetic_status, universal_evolution),
                              (universal_evolution, phylogenetic_status)):
                    fresh = Quiver(q.vertices, q.edges)
                    listed.clear()
                    got = {read: read(fresh, v) for read in reads}
                    assert listed == [v]
                    status = got[phylogenetic_status]
                    assert status is (got[universal_evolution] is not None)
                    if q is seed8:
                        assert status is (v in ("v5", "v7"))
            analyze(q)  # walks every vertex, yet leaves the status table as stored
            assert len(_phylogenetic(q)) == len(_phylogenetic(Quiver(q.vertices, q.edges)))


class TestPhylogeneticQuivers:
    def test_set_and_surjection_quivers(self):
        assert is_phylogenetic_quiver(gen_map_quiver(4))
        assert is_phylogenetic_quiver(gen_surjection_quiver(5))

    def test_g3_fails_monotonicity(self, g3):
        assert not is_phylogenetic_quiver(g3)

    def test_abnormal_fails(self):
        assert not is_phylogenetic_quiver(gen_abnormal())

    def test_core_of_abnormal_drops_r(self):
        core = phylogenetic_core(gen_abnormal())
        assert set(core.vertices) == {"P1", "P2", "Q1", "Q2"}
        assert is_phylogenetic_quiver(core)

    def test_core_rejects_non_monotonous(self, g3):
        with pytest.raises(InputError, match="monotonous"):
            phylogenetic_core(g3)

    def test_core_is_phylogenetic(self):
        for q in random_monotonous(40):
            core = phylogenetic_core(q)
            assert is_phylogenetic_quiver(core)

    def test_core_of_phylogenetic_quiver_is_itself(self):
        s5 = gen_surjection_quiver(5)
        assert phylogenetic_core(s5) == s5


class TestAnalyzeReport:
    def test_g3_report(self, g3):
        report = analyze(g3)
        by_id = {row.vertex: row for row in report.vertices}
        assert [by_id[v].height for v in "ABC"] == [0, 1, 2]
        assert all(row.normal for row in report.vertices)
        assert all(row.phylogenetic is True for row in report.vertices)
        assert not report.monotonous
        assert not report.phylogenetic_quiver
        assert report.isotypy_class_count == 2

    def test_flags_consistent(self):
        for q in random_monotonous(25):
            report = analyze(q)
            for row in report.vertices:
                assert row.phylogenetic == row.normal
                if row.primitive:
                    assert row.height == 0 and row.normal


class TestPerQuiverMemo:
    def test_dropped_quiver_is_freed(self):
        q = gen_random_phylogenetic(12, 0.3, seed=1)
        analyze(q)
        evolutionary_sequence(q)
        ref = weakref.ref(q)
        del q
        gc.collect()
        assert ref() is None

    def test_no_memo_value_keeps_its_quiver_alive(self):
        # With the cyclic collector off, reference counts alone must free a
        # dropped quiver: a stored value that held it, as an Evolution does,
        # would tie it to its own memo.
        gc.disable()
        try:
            q = gen_random_phylogenetic(12, 0.3, seed=1)
            analyze(q)
            for v in q.vertices:
                critical_ancestors(q, v)
                universal_evolution(q, v)
                if clade_report(q, v)["regular"]:
                    clade_height(q, v, v)
            evolutionary_sequence(q)
            assert "_regular" in q._memo and ("_universal_path", q.vertices[0]) in q._memo
            ref = weakref.ref(q)
            del q
            assert ref() is None
        finally:
            gc.enable()

    def test_warmed_quiver_round_trips_through_pickle(self):
        q = gen_random_phylogenetic(12, 0.3, seed=2)
        report = analyze(q)
        seq = evolutionary_sequence(q)
        copy = pickle.loads(pickle.dumps(q))
        assert copy == q
        assert analyze(copy) == report
        assert evolutionary_sequence(copy) == seq

    def test_racing_first_analyze_gives_equal_reports(self):
        q = gen_random_monotonous(60, 0.2, seed=4)
        expected = analyze(Quiver(q.vertices, q.edges))
        barrier = threading.Barrier(4)
        results = []

        def worker():
            barrier.wait(timeout=30)
            results.append(analyze(q))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4

    def test_racing_first_reads_fill_the_per_vertex_tables_alike(self):
        q = gen_random_monotonous(60, 0.2, seed=4)

        def reads(quiver, order):
            return {v: (is_regular(quiver, v), universal_evolution(quiver, v))
                    for v in order}

        expected = reads(Quiver(q.vertices, q.edges), q.vertices)
        barrier = threading.Barrier(4)
        results = []

        def worker(order):
            barrier.wait(timeout=30)
            results.append(reads(q, order))

        orders = [q.vertices, q.vertices[::-1]] * 2
        threads = [threading.Thread(target=worker, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4

    def test_equal_distinct_quivers_give_equal_results(self):
        for q in random_quivers(20):
            report = analyze(q)
            twin = Quiver(q.vertices, q.edges)
            assert twin == q and twin is not q and hash(twin) == hash(q)
            assert analyze(twin) == report
            assert heights(twin) == heights(q)
            assert condense(twin) == condense(q)


def chain_quiver(levels):
    """c0 <- c1 <- ... <- c(levels - 1); c0 is the only primitive."""
    vs = [f"c{i}" for i in range(levels)]
    return Quiver(vs, [(vs[i + 1], vs[i]) for i in range(levels - 1)])


def diamond_ladder(rungs):
    """Junction j0 below rungs of isotypic pairs a_k <-> b_k, each pair
    below junction j_k: 2^rungs short full evolutions for the top."""
    vs, es = ["j0"], []
    for k in range(1, rungs + 1):
        a, b, j, below = f"a{k}", f"b{k}", f"j{k}", f"j{k - 1}"
        vs += [a, b, j]
        es += [(a, b), (b, a), (a, below), (b, below), (j, a), (j, b)]
    return Quiver(vs, es)


def normality_sweep():
    yield from random_monotonous(80, max_n=12)
    for s in range(150):  # dense enough for cycles and climbing edges
        yield gen_random_quiver(3 + s % 10, (0.2, 0.3, 0.45)[s % 3], seed=100 + s)
    yield from (gen_g3(), gen_abnormal(), gen_nonmonotonous())


def dense_draw(rng, n, edges):
    """``edges`` distinct non-loop edges drawn uniformly over n vertices:
    large isotypy classes, rarely monotonous."""
    vs = [f"d{i}" for i in range(n)]
    chosen = set()
    while len(chosen) < edges:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            chosen.add((vs[a], vs[b]))
    return Quiver(vs, sorted(chosen))


def nonmonotonous_sweep():
    rng = random.Random(5)
    for s in range(320):
        q = gen_random_quiver(4 + s % 9, (0.15, 0.2, 0.3, 0.45)[s % 4], seed=s)
        if not is_monotonous(q):
            yield q
    for _ in range(80):
        n = rng.randrange(6, 22)
        q = dense_draw(rng, n, rng.randrange(n, 3 * n))
        if not is_monotonous(q):
            yield q
    for _ in range(20):  # shaped like the benchmark's dense draws: E = 2.5 V
        n = rng.randrange(40, 61)
        q = dense_draw(rng, n, 5 * n // 2)
        if not is_monotonous(q):
            yield q


class TestOnePassNormality:
    def test_matches_per_vertex_definition(self):
        self_dependent = 0
        for q in normality_sweep():
            cond, h = condense(q), heights(q)
            exclusive, inclusive = (brute_critical_ancestors(q, False),
                                    brute_critical_ancestors(q, True))
            for v in q.vertices:
                crit = critical_ancestors(q, v)
                assert crit == exclusive[v]
                assert is_normal(q, v) == grouped_isotypic(cond, h, crit), (q, v)
                assert _normal_self_inclusive(q, v) == grouped_isotypic(
                    cond, h, inclusive[v]), (q, v)
                self_dependent += is_normal(q, v) != _normal_self_inclusive(q, v)
        assert self_dependent  # the sweep reaches rescued vertices

    def test_analyze_reads_the_same_answers(self):
        for q in normality_sweep():
            report = analyze(q)
            assert report.phylogenetic_quiver == is_phylogenetic_quiver(q)
            for row in report.vertices:
                assert row.normal == is_normal(q, row.vertex)
                assert row.phylogenetic == phylogenetic_status(q, row.vertex)
            if report.monotonous:
                core = phylogenetic_core(q).vertices
                assert core == tuple(v for v in q.vertices if is_normal(q, v))


class TestSelfExclusiveNormality:
    """A vertex of an abnormal class can be normal once it stops counting
    as its own critical ancestor; the per-class table must find exactly
    those vertices."""

    def test_matches_definition_on_nonmonotonous_quivers(self):
        vertices = rescued = many_clashes = foreign_clash = 0
        for q in nonmonotonous_sweep():
            cond, h = condense(q), brute_heights(q)
            exclusive, inclusive = (brute_critical_ancestors(q, False),
                                    brute_critical_ancestors(q, True))
            rows = analyze(q).vertices
            for row in rows:
                v = row.vertex
                want = grouped_isotypic(cond, h, exclusive[v])
                assert is_normal(q, v) == want, (q.edges, v)
                assert row.normal == want, (q.edges, v)
                assert row.height == h[v]
                assert row.phylogenetic == phylogenetic_status(q, v)
                assert _normal_self_inclusive(q, v) == grouped_isotypic(
                    cond, h, inclusive[v]), (q.edges, v)
                rescued += want and not _normal_self_inclusive(q, v)
                groups = {}
                for x in inclusive[v]:
                    groups.setdefault(h[x], set()).add(cond.class_index[x])
                clashes = [y for y, classes in groups.items() if len(classes) > 1]
                many_clashes += len(clashes) >= 2
                foreign_clash += (len(clashes) == 1
                                  and cond.class_index[v] not in groups[clashes[0]])
            vertices += len(rows)
        assert vertices >= 1500
        # Every branch of the slot rule is reached: two or more clashing
        # heights, one clash the class takes no part in, and rescues.
        assert many_clashes and foreign_clash and rescued

    def test_pinned_rescue(self):
        q = gen_random_quiver(6, 0.3, seed=43)
        assert q.edges == (("v0", "v1"), ("v0", "v5"), ("v1", "v0"), ("v1", "v3"),
                           ("v2", "v5"), ("v3", "v5"), ("v4", "v3"))
        assert isotypic(q, "v0", "v1") and not _normal_self_inclusive(q, "v0")
        # v0 is its own critical ancestor (the edge v1 -> v0 runs from
        # height 2 to 1); without v0 the height-1 group is {v3} alone, while
        # v1 keeps v0 and v3 there.
        assert critical_ancestors(q, "v0") == {"v3", "v5"}
        assert critical_ancestors(q, "v1") == {"v0", "v3", "v5"}
        assert is_normal(q, "v0") and not is_normal(q, "v1")
        rows = {row.vertex: row for row in analyze(q).vertices}
        assert rows["v0"].normal and not rows["v1"].normal

    def test_analyze_keeps_no_per_vertex_sets(self):
        q = gen_random_quiver(6, 0.3, seed=43)
        assert not is_monotonous(q)
        analyze(q)
        assert not any(
            isinstance(key, tuple) and key[0] == "critical_ancestors" for key in q._memo
        )
        assert "_class_reach" not in q._memo


def parental_sweep():
    for n in (3, 5, 8):
        for d in (0.2, 0.35, 0.5):
            for s in range(200):
                q = gen_random_quiver(n, d, seed=s)
                yield q
                yield monotonize(q)


class TestParentalRule:
    """A quiver is phylogenetic exactly when it is monotonous and every
    vertex is normal; the library decides it by the parental map alone."""

    def test_matches_definition(self):
        equal_height_refusals = monotonicity_refusals = 0
        for q in parental_sweep():
            cond, h = condense(q), brute_heights(q)
            crit = brute_critical_ancestors(q, True)
            monotonous = all(h[tail] >= h[head] for tail, head in q.edges)
            normal = all(grouped_isotypic(cond, h, crit[v]) for v in q.vertices)
            assert monotonous == is_monotonous(q)
            assert is_phylogenetic_quiver(q) == (monotonous and normal), q.edges
            # refused by the equal-height rule alone: one parent class one
            # height down everywhere, yet some vertex is not normal
            drops = [{j for j in cond.parents[i] if h[cond.classes[j][0]] < h[cls[0]]}
                     for i, cls in enumerate(cond.classes)]
            one_drop = all(len(d) == (h[cls[0]] > 0) for d, cls in zip(drops, cond.classes))
            equal_height_refusals += monotonous and one_drop and not normal
            monotonicity_refusals += normal and not monotonous
        assert equal_height_refusals and monotonicity_refusals

    def test_equal_height_parent_with_another_parent(self):
        # Q1 -> Q2 at height 1: Q1's critical ancestors P1 and P2 clash.
        q = Quiver(["P1", "P2", "Q1", "Q2"],
                         [("Q1", "P1"), ("Q2", "P2"), ("Q1", "Q2")])
        assert is_monotonous(q) and not is_normal(q, "Q1")
        assert not is_phylogenetic_quiver(q)
        with pytest.raises(InputError) as err:
            evolutionary_sequence(q)
        assert str(err.value) == "evolutionary sequence requires a phylogenetic quiver"

    def test_quiver_level_answers_build_no_normality_bitsets(self):
        for ask in (evolutionary_sequence, is_phylogenetic_quiver, analyze):
            core = gen_random_phylogenetic(12, 0.3, seed=3)
            q = Quiver(core.vertices, core.edges)
            ask(q)
            assert "_critical_heads" not in q._memo


def recursive_short_evolutions(q, v):
    """The depth-first order of the recursive definition, as vertex tuples."""
    h = heights(q)
    parents = {u: sorted({b for a, b in q.edges if a == u}) for u in q.vertices}

    def walk(u, acc):
        if h[u] == 0:
            yield tuple(reversed(acc))
            return
        for w in parents[u]:
            if h[w] == h[u] - 1:
                yield from walk(w, acc + [w])

    return list(walk(v, [v]))


class TestLayeredUniversalEvolution:
    def test_short_evolutions_keep_their_order(self):
        for q in random_quivers(40, max_n=8, densities=(0.3, 0.5)):
            for v in q.vertices:
                got = [e.vertices for e in short_full_evolutions(q, v)]
                assert got == sorted(recursive_short_evolutions(q, v))

    def test_least_short_evolution_is_the_brute_min(self):
        for q in list(random_quivers(40, max_n=8, densities=(0.3, 0.5))) + [
            diamond_ladder(4), gen_g3(), gen_abnormal(), gen_nonmonotonous()
        ]:
            h = brute_heights(q)
            for v in q.vertices:
                want = min(
                    seq for seq in brute_full_evolutions(q, v, h[v]) if len(seq) - 1 == h[v]
                )
                got = next(short_full_evolutions(q, v))
                assert got.vertices == want
                if phylogenetic_status(q, v):
                    assert universal_evolution(q, v) == got

    def test_repeat_calls_give_equal_values(self):
        for q in list(random_quivers(30, max_n=8, densities=(0.3, 0.5))) + [
            gen_g3(), gen_abnormal(), gen_nonmonotonous()
        ]:
            for v in q.vertices:
                first = universal_evolution(q, v)
                assert ("_universal_path", v) in q._memo
                assert universal_evolution(q, v) == first
                assert universal_evolution(Quiver(q.vertices, q.edges), v) == first

    def test_parallel_edges_pick_the_first_index(self):
        q = Quiver(["A", "B", "C"], [("C", "A"), ("B", "A"), ("C", "B"),
                                           ("B", "A"), ("C", "A")])
        evo = universal_evolution(q, "C")
        assert evo.vertices == ("A", "C")
        assert list(short_full_evolutions(q, "C")) == [evo]


class TestDeepQuivers:
    def test_3000_chain_without_recursion_error(self):
        q = chain_quiver(3000)
        top = "c2999"
        report = analyze(q)
        assert report.phylogenetic_quiver
        assert all(row.phylogenetic for row in report.vertices)
        want = tuple(f"c{i}" for i in range(3000))
        assert universal_evolution(q, top).vertices == want
        assert next(short_full_evolutions(q, top)).vertices == want

    def test_chain_normality_frees_its_bitsets(self):
        # A class's bitsets are dropped once its last child has read them:
        # kept for every class, a k-chain would hold O(k^2) bits.
        q = chain_quiver(10_000)
        top = "c9999"
        _critical_heads(q)
        assert is_monotonous(q)
        tracemalloc.start()
        try:
            answers = is_normal(q, top), _normal_self_inclusive(q, top)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answers == (True, True)
        assert peak < 8 * 2**20

    def test_nonmonotonous_chain_normality_frees_its_bitsets(self):
        # The edge z -> c9999 climbs, so the slot rule walks the whole chain.
        chain = chain_quiver(10_000)
        q = Quiver([*chain.vertices, "z"],
                         [*chain.edges, ("z", "c0"), ("z", "c9999")])
        _critical_heads(q)
        assert not is_monotonous(q)
        tracemalloc.start()
        try:
            answers = is_normal(q, "c9999"), is_normal(q, "z")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answers == (True, True)
        assert peak < 8 * 2**20

    def test_18_rung_diamond_ladder(self):
        q = diamond_ladder(18)
        evo = universal_evolution(q, "j18")
        assert evo.length == 36
        assert evo.vertices == ("j0",) + tuple(
            x for k in range(1, 19) for x in (f"a{k}", f"j{k}")
        )


def _other_evolution():
    """A one-vertex evolution of a quiver no other case uses."""
    return validate_evolution(gen_surjection_quiver(2), ["1"])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: critical_vertices(gen_g3(), _other_evolution()),
                 "evolution belongs to a different quiver", id="critical-vertices"),
    pytest.param(lambda: embeds_in(gen_g3(), _other_evolution(), _other_evolution()),
                 "evolutions belong to a different quiver", id="embeds-in"),
    pytest.param(lambda: verify_universal_bounded(gen_g3(), _other_evolution(), 3),
                 "evolution belongs to a different quiver", id="bounded-quiver"),
    pytest.param(lambda: verify_universal_bounded(
        gen_g3(), validate_evolution(gen_g3(), ["A"]), -1),
                 "max_length must be nonnegative", id="bounded-length"),
])
def test_input_errors(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
