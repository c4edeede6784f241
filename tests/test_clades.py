"""Clades, regularity, and the clade-height formula."""

from __future__ import annotations

import tracemalloc

import pytest

from phyloquiver import (
    InputError,
    Quiver,
    ancestor_of,
    ancestors,
    descendants,
    heights,
    induced_subquiver,
    is_phylogenetic_quiver,
    isotypic,
    primitive_vertices,
    universal_evolution,
)
from phyloquiver import clades
from phyloquiver.clades import clade, clade_height, clade_report, is_regular
from phyloquiver.generators import (
    gen_abnormal,
    gen_irregular,
    gen_random_monotonous,
    gen_random_phylogenetic,
    gen_random_quiver,
    gen_surjection_quiver,
)
from phyloquiver.serialize import dumps

from oracles import brute_regular


def phylogenetic_samples(count):
    for s in range(count):
        yield gen_random_phylogenetic(3 + s % 7, 0.2 + 0.05 * (s % 4), seed=s)


class TestClade:
    def test_g3_clade_of_b(self, g3):
        c = clade(g3, "B")
        assert c == induced_subquiver(g3, descendants(g3, "B"))
        assert c.vertices == ("B", "C")
        assert set(c.edges) == {("B", "C"), ("C", "B")}
        assert primitive_vertices(c) == {"B", "C"}
        assert heights(c) == {"B": 0, "C": 0}

    def test_primitive_sink_clade(self):
        s5 = gen_surjection_quiver(5)
        c = clade(s5, "1")
        assert set(c.vertices) == set(s5.vertices)

    def test_clade_primitives_are_the_isotypic_vertices(self):
        for q in phylogenetic_samples(30):
            for a in q.vertices:
                c = clade(q, a)
                expected = {v for v in c.vertices if isotypic(q, v, a)}
                assert primitive_vertices(c) == expected

    def test_all_members_have_finite_clade_height(self):
        for q in phylogenetic_samples(20):
            for a in q.vertices:
                table = heights(clade(q, a))
                assert set(table) == set(clade(q, a).vertices)


def chain(n):
    """v0 <- v1 <- ... <- v(n - 1); the root v0 is the only primitive."""
    vs = [f"v{i}" for i in range(n)]
    return Quiver.build(vs, [(vs[i + 1], vs[i]) for i in range(n - 1)])


class TestDescendantReads:
    """Descendants, clades and cold regular flags are one in-edge search
    of the host; only ancestor reads build the class closure."""

    def test_descendant_reads_build_no_closure(self, g3):
        samples = [g3, chain(50), gen_abnormal(), gen_random_quiver(30, 0.1, seed=1),
                   gen_random_monotonous(40, 0.15, seed=2)]
        for q in samples:
            for apex in q.vertices[:: max(1, len(q.vertices) // 5)]:
                for read in (descendants, clade, is_regular, clade_report):
                    fresh = Quiver(q.vertices, q.edges)
                    read(fresh, apex)
                    assert "_class_reach" not in fresh._memo, (read.__name__, apex)
                fresh = Quiver(q.vertices, q.edges)
                ancestors(fresh, apex)
                assert "_class_reach" in fresh._memo
                fresh = Quiver(q.vertices, q.edges)
                ancestor_of(fresh, apex, q.vertices[0])
                assert "_class_reach" in fresh._memo

    def test_deep_chain_reads_grow_linearly(self):
        # A descendant closure over a k-chain holds ~k^2/2 bits, ~4x per
        # doubling; the search keeps a table per vertex, ~2x.
        peaks = {}
        for n in (10_000, 20_000):
            for read in (descendants, clade, is_regular):
                q = chain(n)
                tracemalloc.start()
                try:
                    read(q, "v0")
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                peaks[n] = max(peaks.get(n, 0), peak)
            assert len(descendants(q, "v0")) == n and is_regular(q, "v0")
        assert peaks[20_000] <= 2.5 * peaks[10_000]
        assert peaks[20_000] < 20 * 2**20


class TestRegularity:
    def test_g3_b_vacuously_regular(self, g3):
        assert is_regular(g3, "B")

    def test_surjection_quiver_all_regular(self):
        s5 = gen_surjection_quiver(5)
        assert all(is_regular(s5, v) for v in s5.vertices)

    def test_irregular_fixture(self):
        q = gen_irregular()
        assert is_phylogenetic_quiver(q)
        assert not is_regular(q, "Q")  # R sits at Q's height with no edge R -> Q
        assert is_regular(q, "P")

    def test_unknown_vertex(self, g3):
        with pytest.raises(InputError):
            is_regular(g3, "Z")

    def test_flag_matches_the_definition_in_any_call_order(self):
        # The flag is judged once per apex, by whichever reader asks first;
        # every later read must agree with the definition.
        def sweep():
            yield gen_irregular()
            yield gen_surjection_quiver(5)
            yield gen_abnormal()
            for s in range(25):
                yield gen_random_phylogenetic(3 + s % 7, 0.2 + 0.05 * (s % 4), seed=s)
                yield gen_random_monotonous(2 + s % 10, 0.15 + 0.05 * (s % 6), seed=s)
                yield gen_random_quiver(2 + s % 10, 0.15 + 0.05 * (s % 6), seed=s)

        def height_first(q, a):
            if not is_phylogenetic_quiver(q):
                return
            try:
                clade_height(q, a, a)
            except InputError:
                assert not want[a]
            else:
                assert want[a]

        checked = irregular = 0
        for q in sweep():
            want = brute_regular(q)
            irregular += list(want.values()).count(False)
            for first in (height_first, clade_report, is_regular):
                fresh = Quiver(q.vertices, q.edges)
                for a in fresh.vertices:
                    first(fresh, a)
                    assert is_regular(fresh, a) == want[a], (q, a, first)
                    assert clade_report(fresh, a)["regular"] == want[a], (q, a, first)
                    checked += 1
        assert checked > 1000 and irregular > 30, (checked, irregular)

    def test_warm_apex_takes_no_descendant_set(self, monkeypatch):
        q = gen_surjection_quiver(5)
        direct = heights(clade(q, "2"))
        calls = []

        def spy(quiver, v):
            calls.append(v)
            return descendants(quiver, v)

        monkeypatch.setattr(clades, "descendants", spy)
        assert clade_height(q, "2", "3") == 1
        assert calls == ["2"]  # the cold apex is judged once
        assert {b: clade_height(q, "2", b) for b in direct} == direct
        assert is_regular(q, "2") and clade_report(q, "5")["regular"]
        assert calls == ["2"]  # the report judges "5" over its own members

    def test_unknown_id_stores_nothing(self):
        q = gen_random_phylogenetic(10, 0.3, seed=2)
        v = q.vertices[0]
        calls = (
            lambda: is_regular(q, "Z"),
            lambda: clade_report(q, "Z"),
            lambda: clade_height(q, "Z", v),
            lambda: clade_height(q, v, "Z"),
            lambda: universal_evolution(q, "Z"),
        )
        for call in calls:
            with pytest.raises(InputError, match="unknown vertex id 'Z'"):
                call()
        assert not any("Z" in key for key in q._memo if isinstance(key, tuple))
        assert not any("Z" in value for value in q._memo.values() if isinstance(value, dict))
        is_regular(q, v), clade_report(q, v), universal_evolution(q, v)
        kept = {key: len(value) if isinstance(value, dict) else None
                for key, value in q._memo.items()}
        for call in calls:
            with pytest.raises(InputError):
                call()
        assert kept == {key: len(value) if isinstance(value, dict) else None
                        for key, value in q._memo.items()}


class TestCladeHeight:
    def test_isotypic_descendant_height_zero(self):
        s5 = gen_surjection_quiver(5)
        assert clade_height(s5, "2", "2") == 0

    def test_surjection_quiver_equal_height_branch(self):
        # [3] descends from [2] at equal height but is not isotypic to it:
        # the n - m + 1 branch
        s5 = gen_surjection_quiver(5)
        assert clade_height(s5, "2", "3") == 1
        assert heights(clade(s5, "2"))["3"] == 1

    def test_parent_chain_branch(self):
        core = gen_abnormal()
        from phyloquiver import phylogenetic_core

        core = phylogenetic_core(core)
        assert clade_height(core, "P1", "Q1") == 1  # p([Q1]) = [P1]
        assert heights(clade(core, "P1"))["Q1"] == 1

    def test_formula_matches_direct_heights(self):
        checked = 0
        for q in phylogenetic_samples(30):
            for a in q.vertices:
                if not is_regular(q, a):
                    continue
                direct = heights(clade(q, a))
                for b in clade(q, a).vertices:
                    assert clade_height(q, a, b) == direct[b]
                    checked += 1
        assert checked > 100

    def test_reads_the_parental_map_without_an_esequence(self):
        q = gen_random_phylogenetic(12, 0.2, seed=1)
        pairs = [(a, b) for a in q.vertices if is_regular(q, a) for b in descendants(q, a)]
        assert len(pairs) > 9 and all(clade_height(q, a, b) >= 0 for a, b in pairs)
        assert "evolutionary_sequence" not in q._memo

    def test_bound_against_host_heights(self):
        for q in phylogenetic_samples(20):
            h = heights(q)
            for a in q.vertices:
                table = heights(clade(q, a))
                for b, hab in table.items():
                    assert h[b] >= h[a]
                    assert hab >= h[b] - h[a]

    def test_rejects_non_phylogenetic_host(self, g3):
        # B ~ C with different heights: the formula's premises fail, and the
        # direct clade height of C is 0 (C is primitive in the clade of B)
        with pytest.raises(InputError, match="phylogenetic"):
            clade_height(g3, "B", "C")
        assert heights(clade(g3, "B"))["C"] == 0

    def test_rejects_irregular_apex(self):
        q = gen_irregular()
        with pytest.raises(InputError, match="regular"):
            clade_height(q, "Q", "R")

    def test_rejects_non_descendant(self):
        s5 = gen_surjection_quiver(5)
        with pytest.raises(InputError, match="descendant"):
            clade_height(s5, "2", "1")


class TestCladeTheorem:
    def test_clades_of_regular_vertices_are_phylogenetic(self):
        checked = 0
        for q in phylogenetic_samples(30):
            for a in q.vertices:
                if is_regular(q, a):
                    assert is_phylogenetic_quiver(clade(q, a))
                    checked += 1
        assert checked > 30


class TestCladeReport:
    def test_shape(self, g3):
        rep = clade_report(g3, "B")
        assert rep["apex"] == "B"
        assert rep["members"] == ["B", "C"]
        assert rep["regular"] is True
        assert rep["clade_heights"] == {"B": 0, "C": 0}

    def test_unknown_apex(self, g3):
        with pytest.raises(InputError, match="unknown vertex"):
            clade_report(g3, "Z")

    def test_matches_the_built_clade(self):
        # The report reads the clade off the host; building the sub-quiver
        # and taking its heights must give the same JSON, key order too.
        def sweep():
            for s in range(60):
                yield gen_random_monotonous(2 + s % 12, 0.1 + 0.04 * (s % 8), seed=s)
                yield gen_random_quiver(2 + s % 12, 0.1 + 0.05 * (s % 8), seed=s)
                yield gen_random_quiver(8 + s % 10, 0.6 + 0.1 * (s % 4), seed=s)

        checked = 0
        for q in sweep():
            h = heights(q)
            for a in q.vertices:
                sub = induced_subquiver(q, descendants(q, a))
                want = {
                    "apex": a,
                    "members": sorted(sub.vertices),
                    "regular": all(b == a or h[b] != h[a] or q.has_edge(b, a)
                                   for b in sub.vertices),
                    "clade_heights": heights(sub),
                }
                got = clade_report(q, a)
                assert dumps(got) == dumps(want), (q, a)
                assert list(got["clade_heights"]) == list(want["clade_heights"])
                checked += 1
        assert checked > 1000

    def test_reports_keep_nothing_per_apex(self):
        # A report per vertex of a chain computes ~n^2/2 heights in all;
        # none of them may stay on the quiver once the reports are gone.
        n = 600
        vs = [f"v{i:03d}" for i in range(n)]
        q = Quiver.build(vs, [(vs[i + 1], vs[i]) for i in range(n - 1)])
        clade_report(q, vs[0])  # warms the whole-quiver tables
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sizes = [len(clade_report(q, v)["members"]) for v in vs]
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sizes == list(range(n, 0, -1))
        assert kept < 2**20
