"""Core quiver types, evolutions, and the ancestor preorder."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phyloquiver import (
    Evolution,
    InputError,
    Quiver,
    ancestor_of,
    ancestors,
    concat,
    condense,
    descendants,
    induced_subquiver,
    isotypic,
    validate_evolution,
)
from phyloquiver.generators import (
    gen_map_quiver,
    gen_random_monotonous,
    gen_random_quiver,
    gen_surjection_quiver,
)

from oracles import brute_reach

VERTICES = ["a", "b", "c", "d", "e", "f"]


def quivers(max_vertices=6, max_edges=14):
    names = st.integers(0, max_vertices - 1)

    def make(n, pairs):
        verts = VERTICES[: n + 1]
        edges = [(verts[i % (n + 1)], verts[j % (n + 1)]) for i, j in pairs]
        return Quiver(verts, edges)

    return st.builds(
        make,
        st.integers(0, max_vertices - 1),
        st.lists(st.tuples(names, names), max_size=max_edges),
    )


class TestQuiverBasics:
    def test_rejects_empty_vertex_class(self):
        with pytest.raises(InputError):
            Quiver([], [])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InputError):
            Quiver(["a", "a"], [])

    def test_rejects_unknown_edge_endpoints(self):
        with pytest.raises(InputError, match="unknown"):
            Quiver(["a"], [("a", "b")])

    def test_parallel_edges_and_loops_are_stored(self):
        q = Quiver(["a", "b"], [("a", "b"), ("a", "b"), ("a", "a")])
        assert len(q.edges) == 3
        assert q.has_edge("a", "a")


def check_reach(q):
    """Ancestors, descendants (an in-edge search) and ancestor_of (the
    class closure) against the brute-force reach."""
    reach = brute_reach(q)
    for a in q.vertices:
        assert ancestors(q, a) == frozenset(reach[a])
        below = descendants(q, a)
        for b in q.vertices:
            assert ancestor_of(q, a, b) == (a in reach[b]) == (b in below)


class TestAncestorPreorder:
    def test_g3_reachability(self, g3):
        assert ancestor_of(g3, "A", "B")
        assert not ancestor_of(g3, "B", "A")
        assert ancestors(g3, "C") == {"A", "B", "C"}
        assert descendants(g3, "A") == {"A", "B", "C"}

    def test_reflexive(self, g3):
        for v in g3.vertices:
            assert ancestor_of(g3, v, v)

    def test_unknown_vertex_rejected(self, g3):
        with pytest.raises(InputError):
            ancestor_of(g3, "A", "Z")

    def test_matches_brute_reachability(self):
        # Seeded quivers of 30 to 80 vertices, larger than quivers() draws:
        # sparse enough for a deep class DAG, dense enough for cycles, and
        # their monotonous parts.
        for s, n in enumerate((30, 45, 60, 80)):
            for density in (0.015, 0.025, 0.04):
                check_reach(gen_random_quiver(n, density, seed=s))
                check_reach(gen_random_monotonous(n, density, seed=s))
        settings(max_examples=60, deadline=None)(given(quivers())(check_reach))()

    def test_deep_chain_reach_stays_small(self):
        # Ancestor reach is one bitset per class and descendants a search:
        # a frozenset per class would hold ~n^2/2 entries here (over
        # 400 MiB at n = 3000).
        n = 3000
        vs = [f"v{i:04d}" for i in range(n)]
        q = Quiver(vs, [(vs[i + 1], vs[i]) for i in range(n - 1)])
        tracemalloc.start()
        try:
            top, root = ancestors(q, vs[-1]), descendants(q, vs[0])
            middle = ancestors(q, vs[n // 2]), descendants(q, vs[n // 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert top == root == frozenset(vs)
        assert middle == (frozenset(vs[: n // 2 + 1]), frozenset(vs[n // 2:]))
        assert ancestor_of(q, vs[0], vs[-1]) and not ancestor_of(q, vs[-1], vs[0])
        assert peak < 20 * 2**20

    def test_closure_size_does_not_depend_on_names(self):
        # Unpadded names sort v0, v1, v10, v100, ..., so class ids do not
        # follow the chain; bits numbered by class id would make each
        # bitset as wide as its largest id, about twice the bits in all.
        sizes = []
        for name in ("v{}", "v{:05d}"):
            vs = [name.format(i) for i in range(10_000)]
            q = Quiver(vs, [(vs[i + 1], vs[i]) for i in range(len(vs) - 1)])
            assert ancestors(q, vs[-1]) == frozenset(vs)
            assert ancestor_of(q, vs[0], vs[-1]) and not ancestor_of(q, vs[-1], vs[0])
            sizes.append(sum(map(int.__sizeof__, q._memo["_class_reach"])))
        assert max(sizes) < 1.05 * min(sizes), sizes

    @settings(max_examples=40, deadline=None)
    @given(quivers())
    def test_preorder_transitive(self, q):
        vs = q.vertices
        for a in vs:
            for b in vs:
                if not ancestor_of(q, a, b):
                    continue
                for c in vs:
                    if ancestor_of(q, b, c):
                        assert ancestor_of(q, a, c)


class TestIsotypy:
    def test_g3(self, g3):
        assert isotypic(g3, "B", "C")
        assert not isotypic(g3, "A", "B")
        for v in g3.vertices:
            assert isotypic(g3, v, v)

    def test_surjection_quiver_card_criterion(self):
        s5 = gen_surjection_quiver(5)
        assert not isotypic(s5, "2", "3")
        assert all(isotypic(s5, k, k) for k in s5.vertices)

    def test_map_quiver_all_isotypic(self):
        q = gen_map_quiver(3)
        for a in q.vertices:
            for b in q.vertices:
                assert isotypic(q, a, b)

    @settings(max_examples=60, deadline=None)
    @given(quivers())
    def test_agrees_with_mutual_ancestry(self, q):
        for a in q.vertices:
            for b in q.vertices:
                both = ancestor_of(q, a, b) and ancestor_of(q, b, a)
                assert isotypic(q, a, b) == both

    @settings(max_examples=40, deadline=None)
    @given(quivers())
    def test_isotypic_vertices_share_ancestors_and_descendants(self, q):
        for a in q.vertices:
            for b in q.vertices:
                same_anc = ancestors(q, a) == ancestors(q, b)
                same_desc = descendants(q, a) == descendants(q, b)
                assert isotypic(q, a, b) == same_anc == same_desc


class TestEvolutionsBetweenIsotypicEndpoints:
    @settings(max_examples=40, deadline=None)
    @given(quivers())
    def test_intermediates_are_isotypic_to_the_endpoints(self, q):
        # sample short walks via brute reachability, then check the chain
        reach = brute_reach(q)
        step = {v: sorted(w for w in q.vertices if q.has_edge(v, w)) for v in q.vertices}
        for start in q.vertices:
            for nxt in step[start]:
                for end in step.get(nxt, ()):
                    if start not in reach[end]:
                        continue  # endpoints not isotypic
                    evo = validate_evolution(q, [end, nxt, start])
                    for v in evo.vertices:
                        assert isotypic(q, v, evo.initial)
                        assert isotypic(q, v, evo.terminal)


class TestCondensation:
    def test_g3(self, g3):
        cond = condense(g3)
        assert cond.classes == (("A",), ("B", "C"))
        bc, a = cond.class_of("B"), cond.class_of("A")
        assert cond.parents[bc] == (a,) and cond.parents[a] == ()

    def test_edgeless(self):
        q = Quiver(["x", "y", "z"], [])
        cond = condense(q)
        assert len(cond.classes) == 3
        assert cond.parents == ((), (), ())

    def test_directed_cycle(self):
        q = Quiver(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])
        cond = condense(q)
        assert cond.classes == (("x", "y", "z"),)
        assert cond.parents == ((),)

    def test_class_digraph_acyclic(self):
        q = gen_surjection_quiver(4)
        cond = condense(q)
        assert all(a not in ps for a, ps in enumerate(cond.parents))

    @settings(max_examples=60, deadline=None)
    @given(quivers())
    def test_partition_matches_pairwise_isotypy(self, q):
        cond = condense(q)
        for a in q.vertices:
            for b in q.vertices:
                assert (cond.class_of(a) == cond.class_of(b)) == isotypic(q, a, b)

    @settings(max_examples=60, deadline=None)
    @given(quivers())
    def test_class_digraph_is_acyclic(self, q):
        import graphlib

        cond = condense(q)
        succ = {i: set() for i in range(len(cond.classes))}
        for a, ps in enumerate(cond.parents):
            for b in ps:
                assert a != b
                succ[a].add(b)
        list(graphlib.TopologicalSorter(succ).static_order())  # raises on a cycle
        assert sorted(cond.order) == list(range(len(cond.classes)))
        position = {c: k for k, c in enumerate(cond.order)}
        for i, parents in enumerate(cond.parents):
            assert list(parents) == sorted(set(parents)) and i not in parents
            assert all(position[j] < position[i] for j in parents)


class TestEvolutions:
    def test_valid_length_one(self, g3):
        evo = validate_evolution(g3, ["A", "B"])
        assert evo.initial == "A" and evo.terminal == "B" and evo.length == 1

    def test_length_zero(self, g3):
        evo = validate_evolution(g3, ["A"])
        assert evo.length == 0 and evo.initial == evo.terminal == "A"

    def test_missing_edge_names_step(self, g3):
        with pytest.raises(InputError, match="step 1"):
            validate_evolution(g3, ["A", "C"])
        with pytest.raises(InputError, match="step 2"):
            validate_evolution(g3, ["A", "B", "A"])

    def test_intermediate_vertices_between_isotypic_endpoints(self, g3):
        evo = validate_evolution(g3, ["B", "C", "B", "C"])
        for v in evo.vertices:
            assert isotypic(g3, v, evo.initial)
            assert isotypic(g3, v, evo.terminal)

    @pytest.mark.parametrize("vertices, message", [
        ((), "an evolution contains at least one vertex"),
        (("A", "Z"), "unknown vertex id 'Z'"),
        (("A", "C"), "step 1: no edge from 'C' to 'A'"),
        (("A", "B", "A"), "step 2: no edge from 'A' to 'B'"),
    ])
    def test_constructor_checks_as_validate_evolution_does(self, g3, vertices, message):
        for build in (Evolution, validate_evolution):
            with pytest.raises(InputError) as exc:
                build(g3, vertices)
            assert str(exc.value) == message

    def test_constructors_store_tuples(self, g3):
        # lists passed straight to the checking constructors still give
        # values equal to, and hashing as, the tuple forms
        evo = Evolution(g3, ["A", "B"])
        assert evo.vertices == ("A", "B")
        assert evo == Evolution(g3, ("A", "B"))
        assert hash(evo) == hash(validate_evolution(g3, ("A", "B")))
        q = Quiver(["A", "B"], [["B", "A"]])
        assert q.vertices == ("A", "B") and q.edges == (("B", "A"),)
        assert q == Quiver(("A", "B"), (("B", "A"),))
        assert hash(q) == hash(Quiver(("A", "B"), (("B", "A"),)))

    def test_concat(self, g3):
        ab = validate_evolution(g3, ["A", "B"])
        bc = validate_evolution(g3, ["B", "C"])
        abc = concat(ab, bc)
        assert abc.vertices == ("A", "B", "C")
        assert abc.terminal == "C" and abc.length == 2

    def test_concat_identity(self, g3):
        point = validate_evolution(g3, ["A"])
        ab = validate_evolution(g3, ["A", "B"])
        assert concat(point, ab) == ab

    def test_concat_endpoint_mismatch(self, g3):
        ab = validate_evolution(g3, ["A", "B"])
        with pytest.raises(InputError, match="mismatch"):
            concat(ab, ab)


class TestInducedSubquiver:
    def test_keeps_order_and_inner_edges(self, g3):
        sub = induced_subquiver(g3, {"B", "C"})
        assert sub.vertices == ("B", "C")
        assert set(sub.edges) == {("B", "C"), ("C", "B")}

    def test_rejects_unknown(self, g3):
        with pytest.raises(InputError):
            induced_subquiver(g3, {"Z"})


def _other_evolution():
    """A one-vertex evolution of a quiver no other case uses."""
    return validate_evolution(gen_surjection_quiver(2), ["1"])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Quiver(["a"], [("z", "a")]),
                 "edge ('z', 'a'): unknown tail vertex", id="edge-tail"),
    pytest.param(lambda: validate_evolution(gen_map_quiver(2), []),
                 "an evolution contains at least one vertex", id="empty-evolution"),
    pytest.param(lambda: validate_evolution(Quiver(["a", "b"], [("b", "a")]),
                                            ["b", "a"]),
                 "step 1: no edge from 'a' to 'b'", id="missing-step"),
    pytest.param(lambda: concat(validate_evolution(gen_map_quiver(2), ["1"]),
                                _other_evolution()),
                 "cannot concatenate evolutions from different quivers", id="concat"),
    pytest.param(lambda: induced_subquiver(gen_map_quiver(2), []),
                 "induced sub-quiver needs at least one vertex", id="induced-empty"),
])
def test_input_errors(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
