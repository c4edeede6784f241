"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check here is exact (integer or rational arithmetic); there are no
numeric tolerances to calibrate. Each test prints its own PASS line when
it completes; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

from __future__ import annotations

from fractions import Fraction

import phyloquiver as pq
from phyloquiver import clades
from phyloquiver.generators import (
    gen_map_quiver,
    gen_random_esequence,
    gen_random_metric,
    gen_random_monotonous,
    gen_random_phylogenetic,
    gen_random_quiver,
    gen_random_ultrametric,
    gen_surjection_quiver,
)


def _ok(number: int, title: str) -> None:
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_three_vertex_example(g3):
    assert pq.heights(g3) == {"A": 0, "B": 1, "C": 2}
    assert pq.critical_ancestors(g3, "B") == {"A"}
    assert pq.critical_ancestors(g3, "C") == {"A", "B"}
    for v in g3.vertices:
        assert pq.is_normal(g3, v)
        assert pq.phylogenetic_status(g3, v) is True
    assert pq.universal_evolution(g3, "C").vertices == ("A", "B", "C")
    _ok(1, "worked three-vertex example, exact")


def test_criterion_2_set_and_surjection_quivers():
    set4 = gen_map_quiver(4)
    assert pq.primitive_vertices(set4) == set(set4.vertices)
    forest = pq.build_forest(pq.evolutionary_sequence(set4))
    assert len(forest.labels()) == 1 and not forest.parent

    s5 = gen_surjection_quiver(5)
    for k in s5.vertices:
        assert pq.is_primitive(s5, k) == (k == "1")
    assert set(pq.heights(s5).values()) == {0, 1}
    forest = pq.build_forest(pq.evolutionary_sequence(s5))
    assert forest.roots == ("1",)
    assert forest.children("1") == ("2", "3", "4", "5")
    assert all(not forest.children(k) for k in ("2", "3", "4", "5"))
    _ok(2, "set and surjection quivers, exact")


def test_criterion_3_oracle_equivalence():
    agreements = checked = 0
    for s in range(200):
        q = gen_random_monotonous(
            2 + s % 9, density=(0.15, 0.25, 0.4)[s % 3], seed=s
        )
        bound = 2 * len(q.vertices)
        for v in q.vertices:
            decided = pq.phylogenetic_status(q, v)
            assert decided is not None  # monotonous quivers always decide
            oracle = all(
                pq.verify_universal_bounded(q, alpha, bound)
                for alpha in pq.short_full_evolutions(q, v)
            )
            checked += 1
            agreements += decided == oracle
    assert checked >= 200 and agreements == checked
    # non-monotonous quivers: some short evolution passes the walk at V·(h + 2)
    exact = 0
    for s in range(300):
        q = gen_random_quiver(3 + s % 6, density=(0.2, 0.35, 0.5)[s // 6 % 3], seed=s)
        if pq.is_monotonous(q):
            continue
        h = pq.heights(q)
        for v in q.vertices:
            bound = len(q.vertices) * (h[v] + 2)
            oracle = any(pq.verify_universal_bounded(q, alpha, bound)
                         for alpha in pq.short_full_evolutions(q, v))
            assert pq.phylogenetic_status(q, v) is oracle, (s, v)
            exact += 1
    assert exact >= 300
    _ok(3, f"oracle equivalence on {checked} vertices of 200 monotonous quivers "
           f"and {exact} vertices of non-monotonous ones")


def test_criterion_4_class_order_and_parental_maps():
    for s in range(100):
        q = gen_random_phylogenetic(
            3 + s % 8, density=(0.2, 0.3, 0.45)[s % 3], seed=s
        )
        seq = pq.evolutionary_sequence(q)
        h = pq.heights(q)
        level_of = seq.level_of
        labels = seq.labels()

        def le(a, b):
            return pq.ancestor_of(q, a, b)

        for a in labels:
            m = level_of[a]
            for b in labels:
                n = level_of[b]
                if m <= n:
                    expected = le(a, seq.chain(b)[n - m])
                else:
                    expected = False
                assert le(a, b) == expected  # (i)
                if m == n == 0:
                    assert le(a, b) == (a == b)  # (ii)
                if m == n >= 1 and le(a, b):
                    assert seq.parent[a] == seq.parent[b]  # (iii)
                if n == m + 1:  # (iv)
                    edge_exists = any(
                        pq.isotypic(q, tail, b) and pq.isotypic(q, head, a)
                        for tail, head in q.edges
                    )
                    assert (seq.parent[b] == a) == edge_exists
    _ok(4, "class order vs parental iterates on 100 phylogenetic quivers")


def test_criterion_5_realization_round_trip():
    for s in range(100):
        seq = gen_random_esequence(
            levels=1 + s % 5,
            width=(4, 8, 12, 20)[s % 4],
            order_density=(0.1, 0.3, 0.6)[s % 3],
            seed=s,
        )
        realized = pq.realize_esequence(seq)
        assert pq.is_phylogenetic_quiver(realized)
        assert pq.esequence_isomorphic(pq.evolutionary_sequence(realized), seq)
    _ok(5, "realization round trip on 100 E-sequences")


def test_criterion_6_reconstruction_round_trip():
    for s in range(100):
        seq = gen_random_esequence(
            levels=2 + s % 5,
            width=(3, 5, 8)[s % 3],
            order_density=(0.2, 0.5)[s % 2],
            seed=s,
            single_root=True,
            surjective=True,
        )
        n = seq.top
        assert n <= 5 and len(seq.levels[n]) <= 32
        space = pq.terminal_ultrametric(seq, n)
        prec = pq.induce_prec(seq, n)
        assert pq.validate_prec(space, prec, n) == []
        rebuilt = pq.reconstruct(space, prec, n)
        assert pq.esequence_isomorphic(rebuilt, seq)
    _ok(6, "reconstruction round trip on 100 terminal data sets")


def test_criterion_7_ultrametric_height_law():
    for s in range(100):
        space = gen_random_ultrametric(1 + s % 8, depth=1 + s % 5, seed=s)
        tower = pq.tower_u(space)
        assert len(tower) == pq.n_nonzero(space)
        assert len(tower.terminal.points) == 1
        for i, pmap in enumerate(tower.maps):
            classified = pq.classify_map(pmap)
            assert classified.contraction_epsilon == pq.min_gap(tower.spaces[i])
            if len(tower.spaces[i + 1].points) >= 2:
                assert pq.norm_total(tower.spaces[i + 1]) < pq.norm_total(
                    tower.spaces[i]
                )
    _ok(7, "ultrametric tower length equals distinct nonzero distances, 100 spaces")


def test_criterion_8_drift_towers():
    for s in range(100):
        space = gen_random_metric(1 + s % 8, seed=s)
        tower = pq.tower_v(space)
        assert pq.is_trim(tower.terminal)
        for pmap in tower.maps:
            assert pq.classify_map(pmap).is_drift
    for n in (2, 3):
        for s in range(25):
            space = gen_random_metric(n, seed=1000 + s)
            assert not pq.is_trim(space)
            tower = pq.tower_v(space)
            assert len(tower) == 1 and len(tower.terminal.points) == 1
    _ok(8, "drift towers reach trim cores; 2- and 3-point spaces in one step")


def test_criterion_9_clade_theorem():
    regular_seen = descendant_pairs = 0
    for s in range(50):
        q = gen_random_phylogenetic(
            3 + s % 8, density=(0.2, 0.35)[s % 2], seed=s
        )
        for apex in q.vertices:
            if not clades.is_regular(q, apex):
                continue
            regular_seen += 1
            c = clades.clade(q, apex)
            assert pq.is_phylogenetic_quiver(c)
            direct = pq.heights(c)
            for b in c.vertices:
                assert clades.clade_height(q, apex, b) == direct[b]
                descendant_pairs += 1
    assert regular_seen > 0 and descendant_pairs > 0
    _ok(9, f"clade theorem over {regular_seen} regular apexes, "
           f"{descendant_pairs} descendants")


def test_criterion_10_heredity_suite():
    import random as _random

    rng = _random.Random(42)
    for s in range(60):
        q = gen_random_quiver(2 + s % 8, density=(0.2, 0.35)[s % 2], seed=s)
        h = pq.heights(q)
        assert set(h) == set(q.vertices)  # finite height everywhere
        for v in q.vertices:
            if pq.is_primitive(q, v):
                assert all(pq.is_primitive(q, a) for a in pq.ancestors(q, v))
                assert all(h[a] == 0 for a in pq.ancestors(q, v))
    sampled = 0
    for s in range(60):
        q = gen_random_monotonous(2 + s % 8, density=(0.25, 0.4)[s % 2], seed=s)
        h = pq.heights(q)
        for v in q.vertices:
            if pq.is_normal(q, v):
                assert all(pq.is_normal(q, a) for a in pq.ancestors(q, v))
        adjacency = {
            v: [w for w in q.vertices if q.has_edge(v, w)] for v in q.vertices
        }
        for _ in range(3):
            walk = [rng.choice(q.vertices)]
            while adjacency[walk[-1]] and len(walk) < 6:
                walk.append(rng.choice(adjacency[walk[-1]]))
            if len(walk) < 2:
                continue
            evo = pq.validate_evolution(q, tuple(reversed(walk)))
            r, t = h[evo.initial], h[evo.terminal]
            crit = pq.critical_vertices(q, evo)
            assert len(crit) == t - r
            assert sorted(h[evo.vertices[k]] for k in crit) == list(range(r, t))
            sampled += 1
    assert sampled > 50
    _ok(10, "anti-hereditarity and critical-vertex counts")


def test_criterion_11_forest_metric():
    for s in range(40):
        seq = gen_random_esequence(
            levels=2 + s % 4,
            width=(3, 5, 7)[s % 3],
            order_density=0.3,
            seed=s,
            single_root=True,
            surjective=True,
        )
        forest = pq.build_forest(seq)
        for level in seq.levels:
            rows = [
                [Fraction(pq.forest_distance(forest, a, b)) for b in level]
                for a in level
            ]
            assert pq.validate_space(level, rows).is_ultrametric
        n = seq.top
        rho = pq.terminal_ultrametric(seq, n)
        for a in seq.levels[n]:
            for b in seq.levels[n]:
                assert 2 * rho.distance(a, b) == pq.forest_distance(forest, a, b)
    _ok(11, "forest level metrics are ultrametrics; terminal rho is half")
