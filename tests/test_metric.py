"""Exact metric spaces: validation, quotients, towers, isometry, balls."""

from __future__ import annotations

import itertools
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from phyloquiver import (
    FiniteMetricSpace,
    InputError,
    MapClassification,
    PointMap,
    SizeGuardError,
    balls,
    classify_map,
    is_isometric,
    is_trim,
    min_gap,
    n_nonzero,
    norm_total,
    quotient_u,
    quotient_v,
    terminal_ultrametric,
    to_fraction,
    tower_u,
    tower_v,
    underline_d,
    validate_space,
)
from phyloquiver.errors import limit_reason
from phyloquiver.generators import (
    gen_random_esequence,
    gen_random_metric,
    gen_random_ultrametric,
)

from oracles import (
    brute_isometric,
    cycle_union,
    ref_check,
    ref_is_trim,
    ref_underline_d,
    shuffled,
)


@pytest.fixture
def ultra3():
    return FiniteMetricSpace(["x", "y", "z"], [[0, 1, 3], [1, 0, 3], [3, 3, 0]])


@pytest.fixture
def tri345():
    return FiniteMetricSpace(["x", "y", "z"], [[0, 3, 4], [3, 0, 5], [4, 5, 0]])


@pytest.fixture
def cycle4():
    return FiniteMetricSpace(
        ["p0", "p1", "p2", "p3"],
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
    )


class TestValidation:
    def test_ultra3(self, ultra3):
        check = validate_space(ultra3.points, ultra3.rows)
        assert check.is_metric and check.is_ultrametric

    def test_345_not_ultrametric(self, tri345):
        check = validate_space(tri345.points, tri345.rows)
        assert check.is_metric and not check.is_ultrametric

    def test_single_point(self):
        check = validate_space(["x"], [[0]])
        assert check.is_metric and check.is_ultrametric

    def test_shape_and_symmetry_raise(self):
        with pytest.raises(InputError, match="3x3"):
            validate_space(["a", "b", "c"], [[0, 1], [1, 0]])
        with pytest.raises(InputError, match="symmetric"):
            validate_space(["a", "b"], [[0, 1], [2, 0]])

    def test_axiom_failures_are_flags(self):
        check = validate_space(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        assert not check.is_metric
        assert any("triangle" in p for p in check.problems)
        check = validate_space(["a", "b"], [[0, 0], [0, 0]])
        assert not check.is_metric

    def test_floats_and_scientific_notation_rejected(self):
        with pytest.raises(InputError, match="float"):
            to_fraction(0.25)
        with pytest.raises(InputError, match="scientific"):
            to_fraction("1e-3")
        assert to_fraction("0.25") == Fraction(1, 4)
        assert to_fraction("3/7") == Fraction(3, 7)

    def test_constructor_enforces_metric(self):
        with pytest.raises(InputError, match="not a metric"):
            FiniteMetricSpace(["a", "b"], [[0, -1], [-1, 0]])

    @pytest.mark.parametrize("cell, message", [
        (0.5, "float 0.5 rejected: pass an exact rational or a decimal string"),
        ("1e3", "scientific notation rejected: '1e3'"),
        ("x", "not a rational number: 'x'"),
    ], ids=["float", "scientific", "word"])
    def test_bad_cell_reported_before_short_row(self, cell, message):
        # the short row comes first, but coercion names the bad cell
        with pytest.raises(InputError) as exc:
            FiniteMetricSpace(
                ["a", "b", "c"], [[0, 1], [1, 0, 1], [1, 1, cell]]
            )
        assert str(exc.value) == message

    @pytest.mark.parametrize("cell", ["1_0", "1/2_0"])
    def test_digit_separators_refused_on_every_version(self, cell):
        # Fraction reads "1_0" as 10 from Python 3.11 on, and 3.10 refuses it
        with pytest.raises(InputError) as exc:
            to_fraction(cell)
        assert str(exc.value) == f"digit separator '_' rejected: {cell!r}"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int->str digit limit")
    def test_cell_past_the_digit_limit_names_the_limit(self):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ValueError) as limit:  # worded differently on 3.10
            int(digits)
        cell = "1/" + digits
        with pytest.raises(InputError) as exc:
            to_fraction(cell)
        assert str(exc.value) == (f"{limit_reason(limit.value)}: "
                                  f"{cell[:32]!r}... ({len(cell)} characters)")

    def test_long_bad_cell_shown_by_its_prefix(self):
        cell = "x" * 5000
        with pytest.raises(InputError) as exc:
            to_fraction(cell)
        assert str(exc.value) == f"not a rational number: {'x' * 32!r}... (5000 characters)"

    def test_short_row_of_good_cells(self):
        with pytest.raises(InputError) as exc:
            FiniteMetricSpace(["a", "b"], [[0, 1], [1]])
        assert str(exc.value) == "distance matrix must be 2x2"

    def test_one_fraction_shared_by_many_cells(self):
        d = Fraction(3, 7)
        sp = FiniteMetricSpace(
            "abcde", [[0 if i == j else d for j in range(5)] for i in range(5)]
        )
        assert sp.is_ultrametric and n_nonzero(sp) == 1 and min_gap(sp) == d
        assert sp.rows == tuple(
            tuple(0 if i == j else d for j in range(5)) for i in range(5)
        )

    def test_rows_of_fresh_objects_from_generators(self):
        # every entry a new object, dropped by the caller once read
        want = gen_random_metric(9, seed=3)
        rows = ((Fraction(v) for v in row) for row in want.rows)
        assert FiniteMetricSpace(want.points, rows) == want


class TestInvariants:
    def test_ultra3_numbers(self, ultra3):
        assert norm_total(ultra3) == 14
        assert min_gap(ultra3) == 1
        assert n_nonzero(ultra3) == 2

    def test_single_point(self):
        sp = FiniteMetricSpace(("x",), ((0,),))
        assert norm_total(sp) == 0
        assert n_nonzero(sp) == 0
        with pytest.raises(InputError):
            min_gap(sp)

    def test_two_points(self):
        sp = FiniteMetricSpace(["a", "b"], [[0, "7/2"], ["7/2", 0]])
        assert norm_total(sp) == 7
        assert min_gap(sp) == Fraction(7, 2)
        assert n_nonzero(sp) == 1


class TestClassifyMap:
    def test_identity_isometry(self, ultra3):
        pm = PointMap(ultra3, ultra3, {p: p for p in ultra3.points})
        cl = classify_map(pm)
        assert cl.is_isometry and cl.kind == "isometry"
        assert cl.contraction_epsilon is None

    def test_u_projection_is_min_gap_contraction(self, ultra3):
        _, pm = quotient_u(ultra3)
        cl = classify_map(pm)
        assert cl.contraction_epsilon == 1
        assert not cl.is_isometry

    def test_v_projection_is_drift(self, tri345):
        _, pm = quotient_v(tri345)
        assert classify_map(pm).is_drift

    def test_rejects_non_surjective(self, ultra3):
        target = FiniteMetricSpace(["u", "v"], [[0, 2], [2, 0]])
        pm = PointMap(ultra3, target, {p: "u" for p in ultra3.points})
        with pytest.raises(InputError, match="surjective"):
            classify_map(pm)

    def test_unclassifiable_map(self, tri345):
        target = FiniteMetricSpace(["u", "v"], [[0, 1], [1, 0]])
        pm = PointMap(tri345, target, {"x": "u", "y": "v", "z": "v"})
        assert classify_map(pm).kind == "none"

    def test_tower_map_kinds(self):
        # A contraction step lowers every distance by one constant; a drift
        # step is a contraction only when every half-deficit is equal.
        u_kinds, v_kinds = set(), []
        for s in range(30):
            ultra = gen_random_ultrametric(1 + s % 10, depth=1 + s % 4, seed=s)
            u_kinds |= {classify_map(m).kind for m in tower_u(ultra).maps}
            metric = gen_random_metric(2 + s % 8, seed=s)
            v_kinds += [classify_map(m).kind for m in tower_v(metric).maps]
        assert u_kinds == {"contraction"}
        assert set(v_kinds) <= {"contraction", "drift"} and "drift" in v_kinds

    def test_one_point_map_is_an_isometry(self):
        one = FiniteMetricSpace(["x"], [[0]])
        other = FiniteMetricSpace(["y"], [[0]])
        cl = classify_map(PointMap(one, other, {"x": "y"}))
        assert cl.kind == "isometry" and cl.is_drift
        # no pair to compare: the general path's answer
        identity = PointMap(one, one, {"x": "x"})
        assert classify_map(identity) == MapClassification(True, None, True)


class TestUltrametricQuotients:
    def test_ultra3_collapses_closest_pair(self, ultra3):
        sp, pm = quotient_u(ultra3)
        assert sp.points == ("x", "z")
        assert sp.distance("x", "z") == 2
        assert pm.mapping == {"x": "x", "y": "x", "z": "z"}

    def test_two_points_to_one(self):
        sp, _ = quotient_u(FiniteMetricSpace(["a", "b"], [[0, 5], [5, 0]]))
        assert len(sp.points) == 1

    def test_equidistant_space_to_one(self):
        sp, _ = quotient_u(
            FiniteMetricSpace(
                ["a", "b", "c"], [[0, 2, 2], [2, 0, 2], [2, 2, 0]]
            )
        )
        assert len(sp.points) == 1

    def test_rejects_non_ultrametric(self, tri345):
        with pytest.raises(InputError, match="ultrametric"):
            quotient_u(tri345)

    def test_rejects_single_point(self):
        with pytest.raises(InputError, match="two points"):
            quotient_u(FiniteMetricSpace(("x",), ((0,),)))


class TestUltrametricTower:
    def test_ultra3(self, ultra3):
        t = tower_u(ultra3)
        assert len(t) == 2
        assert [len(s.points) for s in t.spaces] == [3, 2, 1]

    def test_single_point(self):
        assert len(tower_u(FiniteMetricSpace(("x",), ((0,),)))) == 0

    def test_height_law_and_contraction_lemma(self):
        for s in range(60):
            sp = gen_random_ultrametric(2 + s % 7, depth=1 + s % 4, seed=s)
            assert sp.is_ultrametric == validate_space(sp.points, sp.rows).is_ultrametric
            t = tower_u(sp)
            assert len(t) == n_nonzero(sp)
            for i, pm in enumerate(t.maps):
                cl = classify_map(pm)
                assert cl.contraction_epsilon == min_gap(t.spaces[i])
                assert len(set(pm.mapping.values())) < len(pm.mapping)
                assert n_nonzero(t.spaces[i + 1]) == n_nonzero(t.spaces[i]) - 1
                if len(t.spaces[i + 1].points) >= 2:
                    assert norm_total(t.spaces[i + 1]) < norm_total(t.spaces[i])
            assert n_nonzero(t.spaces[-1]) == 0

    def test_maximal_contraction_chains_replay_the_tower(self):
        # a non-bijective contraction from X is forced to be the quotient:
        # its epsilon is min_gap(X) and its image is isometric to u(X)
        for s in range(20):
            sp = gen_random_ultrametric(3 + s % 5, depth=2 + s % 3, seed=s)
            t = tower_u(sp)
            for i, pm in enumerate(t.maps):
                relabeled = FiniteMetricSpace(
                    [f"w{k}" for k in range(len(t.spaces[i + 1].points))],
                    t.spaces[i + 1].rows,
                )
                assert is_isometric(t.spaces[i + 1], relabeled) is not None

    def test_bijective_contraction_chains_compose_to_one_edge(self):
        # regularity of the ultrametric quiver, sampled: a chain of
        # bijective contractions is itself a single contraction edge
        for s in range(15):
            sp = gen_random_ultrametric(3 + s % 4, depth=2, seed=s)
            eps = min_gap(sp) / 3
            current = sp
            mapping = {p: p for p in sp.points}
            for _ in range(2):
                shrunk = FiniteMetricSpace(
                    current.points,
                    [
                        [
                            v - eps if a != b else Fraction(0)
                            for b, v in zip(current.points, row)
                        ]
                        for a, row in zip(current.points, current.rows)
                    ],
                )
                current = shrunk
            composite = PointMap(sp, current, mapping)
            cl = classify_map(composite)
            assert cl.contraction_epsilon == 2 * eps


class TestUnderlineD:
    def test_triangle_345(self, tri345):
        assert underline_d(tri345) == {
            "x": Fraction(1),
            "y": Fraction(2),
            "z": Fraction(3),
        }

    def test_two_points_half(self):
        sp = FiniteMetricSpace(["a", "b"], [[0, 6], [6, 0]])
        assert underline_d(sp) == {"a": 3, "b": 3}

    def test_cycle_vanishes(self, cycle4):
        assert set(underline_d(cycle4).values()) == {Fraction(0)}

    def test_pair_bound_and_trim_equivalence(self):
        for s in range(40):
            sp = gen_random_metric(1 + s % 7, seed=s)
            ud = underline_d(sp)
            assert all(v >= 0 for v in ud.values())
            for a in sp.points:
                for b in sp.points:
                    if a != b:
                        assert ud[a] + ud[b] <= sp.distance(a, b)
            assert is_trim(sp) == all(v == 0 for v in ud.values())

    def test_ultrametric_point_seeing_all_at_one_distance(self):
        # x lies at 4 from a cluster of diameter 2: its least deficit is
        # 4 + 4 - 2, not its distance to the nearest point.
        sp = FiniteMetricSpace(
            ["a", "b", "c", "x"],
            [[0, 1, 2, 4], [1, 0, 2, 4], [2, 2, 0, 4], [4, 4, 4, 0]],
        )
        assert sp.is_ultrametric
        assert underline_d(sp) == ref_underline_d(sp)
        assert underline_d(sp)["x"] == 3
        # the last point at n/3 from a caterpillar of diameter (n - 2)/3
        for n in range(3, 9):
            labels = [f"s{i}" for i in range(n)]
            rows = [[Fraction(0 if i == j else n if n - 1 in (i, j) else max(i, j), 3)
                     for j in range(n)] for i in range(n)]
            sp = FiniteMetricSpace(labels, rows)
            assert sp.is_ultrametric
            assert underline_d(sp) == ref_underline_d(sp)

    def test_ultrametric_law_reads_the_ball_table(self):
        # x at 4 from y and z, which lie at 2: x is an end of the ball table
        # in every labeling, and its deficit 4 + 4 - 2 is not twice its
        # nearest distance, nor 2 * 4 minus its own step.
        d = {frozenset("yz"): 2, frozenset("xy"): 4, frozenset("xz"): 4}
        for labels in itertools.permutations("xyz"):
            rows = [[0 if a == b else d[frozenset((a, b))] for b in labels]
                    for a in labels]
            sp = FiniteMetricSpace(labels, rows)
            assert underline_d(sp) == {"x": 3, "y": 1, "z": 1}
        spaces = []
        for n in range(3, 61):
            labels = [f"p{i}" for i in range(n)]
            # equilateral, and a star: one point at 4 from an equilateral rest
            spaces.append(FiniteMetricSpace(labels, [[0 if i == j else 2 for j in range(n)]
                                                     for i in range(n)]))
            spaces.append(FiniteMetricSpace(labels, [
                [0 if i == j else 4 if n - 1 in (i, j) else 2 for j in range(n)]
                for i in range(n)]))
            spaces += [gen_random_ultrametric(n, 1 + s % 4, seed=s) for s in range(n, n + 4)]
        for k, space in enumerate(spaces):
            assert space.is_ultrametric and "_balls" not in vars(space)
            ud = underline_d(space)
            assert "_balls" in vars(space)
            # the Fraction reference is slow: past 10 points, one draw a size
            if len(space) <= 10 or (len(space) in (20, 40, 60) and k % 6 == 2):
                assert ud == ref_underline_d(space)
            # the cubic kernel of a general metric stands in at every size
            general = FiniteMetricSpace._trusted(
                points=space.points, _scaled=space._scaled, is_ultrametric=False)
            assert space._half_deficits == general._half_deficits

    def test_mixed_ultrametrics_and_their_towers(self):
        # The Fraction reference is slow at these sizes; at every size the
        # cubic kernel of a general metric stands in for it.
        for n in range(20, 41):
            for space in tower_u(mixed_ultrametric(n, n)).spaces:
                general = FiniteMetricSpace._trusted(
                    points=space.points, _scaled=space._scaled, is_ultrametric=False)
                assert space._half_deficits == general._half_deficits
                if n in (20, 30):
                    assert underline_d(space) == ref_underline_d(space)


class TestTrim:
    def test_single_point(self):
        assert is_trim(FiniteMetricSpace(("x",), ((0,),)))

    def test_no_two_or_three_point_trim_spaces(self):
        for n in (2, 3):
            for s in range(25):
                assert not is_trim(gen_random_metric(n, seed=s))

    def test_cycle_is_trim(self, cycle4):
        assert is_trim(cycle4)


class TestDriftTower:
    def test_345_one_step(self, tri345):
        t = tower_v(tri345)
        assert len(t) == 1
        assert len(t.terminal.points) == 1

    def test_trim_space_stays_put(self, cycle4):
        t = tower_v(cycle4)
        assert len(t) == 0 and t.terminal == cycle4

    def test_two_points_one_step(self):
        sp = FiniteMetricSpace(["a", "b"], [[0, "1/3"], ["1/3", 0]])
        t = tower_v(sp)
        assert len(t) == 1 and len(t.terminal.points) == 1

    def test_terminates_in_trim_space_with_exact_drifts(self):
        for s in range(60):
            sp = gen_random_metric(1 + s % 8, seed=s)
            t = tower_v(sp)
            for space in t.spaces:
                check = validate_space(space.points, space.rows)
                assert space.is_ultrametric == check.is_ultrametric
            assert is_trim(t.terminal)
            for pm in t.maps:
                assert classify_map(pm).is_drift

    def test_bijective_step_ends_without_a_trim_pass(self):
        ended = 0
        for s in range(30):
            t = tower_v(gen_random_metric(4 + s % 6, seed=s))
            last = t.maps[-1].mapping if t.maps else {}
            if last and len(set(last.values())) == len(last):  # bijective
                assert "_half_deficits" not in t.terminal.__dict__
                assert ref_is_trim(t.terminal) and is_trim(t.terminal)
                ended += 1
        assert ended > 20


class TestIsometry:
    def test_relabeled(self, ultra3):
        other = FiniteMetricSpace(
            ["u", "v", "w"], [[0, 3, 3], [3, 0, 1], [3, 1, 0]]
        )
        found = is_isometric(ultra3, other)
        assert found is not None
        for a in ultra3.points:
            for b in ultra3.points:
                assert ultra3.distance(a, b) == other.distance(found[a], found[b])

    def test_norm_fast_reject(self, ultra3, tri345):
        assert is_isometric(ultra3, tri345) is None

    def test_size_guard(self, monkeypatch):
        # the budget counts compared row entries, not points
        big = gen_random_ultrametric(13, depth=2, seed=0)
        assert is_isometric(big, big) is not None
        monkeypatch.setattr("phyloquiver.metric._MAX_COMPARED", 20)
        with pytest.raises(SizeGuardError, match="of 13 points compared 2[1-9] row "
                                                 "entries, past the budget of 20$"):
            is_isometric(big, big)

    def test_size_guard_spares_pairs_refused_before_the_search(self):
        # different sizes, and equal sizes with different row multisets
        big = gen_random_ultrametric(13, depth=2, seed=0)
        assert is_isometric(big, gen_random_ultrametric(5, depth=2, seed=0)) is None
        ultra = gen_random_ultrametric(20, depth=3, seed=1)
        metric = gen_random_metric(20, seed=1)
        assert not metric.is_ultrametric
        assert is_isometric(ultra, metric) is None
        assert is_isometric(metric, ultra) is None

    def test_matches_brute_force(self):
        for s in range(25):
            a = gen_random_metric(2 + s % 4, seed=s)
            b = gen_random_metric(2 + (s + 1) % 4, seed=s + 50)
            assert (is_isometric(a, b) is not None) == brute_isometric(a, b)
            assert is_isometric(a, a) is not None

    def test_isometric_inputs_match_brute_force(self):
        # Relabelled, row-permuted copies run the backtracking to a full
        # assignment; a copy with one entry moved, or with every distance
        # divided by a prime that keeps its int rows, must be refused.
        def perturbed(space, rng):
            i, j = rng.sample(range(len(space)), 2)
            for eps in (Fraction(1, 97), Fraction(-1, 97)):
                rows = [list(row) for row in space.rows]
                rows[i][j] = rows[j][i] = rows[i][j] + eps
                if validate_space(space.points, rows).is_metric:
                    return FiniteMetricSpace(space.points, rows)
            raise AssertionError("no perturbation keeps the metric axioms")

        counts = {"isometric": 0, "perturbed": 0, "rescaled": 0}
        for s in range(60):
            rng = random.Random(f"isometry:{s}")
            n = 1 + s % 6
            if s % 2:
                base = gen_random_ultrametric(n, 1 + s % 3, seed=s)
            else:
                base = gen_random_metric(n, seed=s)
            copy = shuffled(base.rows, rng, "r")
            pairs = [("isometric", base, copy), ("isometric", copy, base)]
            if n >= 2:
                rescaled = FiniteMetricSpace(
                    copy.points, [[v / 10007 for v in row] for row in copy.rows]
                )
                assert rescaled._scaled[1] == copy._scaled[1]
                assert rescaled._scaled[0] != copy._scaled[0]
                pairs += [("perturbed", base, perturbed(copy, rng)),
                          ("rescaled", base, rescaled)]
            for kind, a, b in pairs:
                found = is_isometric(a, b)
                assert (found is not None) == brute_isometric(a, b)
                assert (found is not None) == (kind == "isometric")
                if found is not None:
                    assert sorted(found) == sorted(a.points)
                    assert sorted(found.values()) == sorted(b.points)
                    assert all(
                        a.distance(x, y) == b.distance(found[x], found[y])
                        for x in a.points for y in a.points
                    )
                counts[kind] += 1
        assert counts == {"isometric": 120, "perturbed": 50, "rescaled": 50}

    def test_graph_metric_copies_need_backtracking(self):
        # d = 1 on the edges of a random graph and 2 elsewhere: many points
        # share a row multiset, so the first consistent candidate is often
        # wrong and the search must undo placed points (7 of these 40 pairs).
        for s in range(40):
            rng = random.Random(f"graph-isometry:{s}")
            n = 5 + s % 7
            rows = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                rows[i][j] = rows[j][i] = rng.choice((1, 2))
            a = FiniteMetricSpace([f"g{i}" for i in range(n)], rows)
            b = shuffled(rows, rng, "h")
            found = is_isometric(a, b)
            assert found is not None and sorted(found.values()) == sorted(b.points)
            assert all(
                a.distance(x, y) == b.distance(found[x], found[y])
                for x in a.points for y in a.points
            )

    def test_cycle_unions_backtrack_to_none(self, monkeypatch):
        # A 2k-cycle and two k-cycles as graph metrics: every row holds two
        # 1s and the rest 2s, so the search places points until a cycle
        # closes too early, then undoes every candidate and returns None.
        for k in range(3, 7):
            rng = random.Random(f"cycles:{k}")
            one, two = cycle_union([2 * k], rng, "a"), cycle_union([k, k], rng, "b")
            assert is_isometric(one, two) is None and is_isometric(two, one) is None
            if 2 * k <= 8:
                assert not brute_isometric(one, two)
            assert is_isometric(one, cycle_union([2 * k], rng, "c")) is not None
        monkeypatch.setattr("phyloquiver.metric._MAX_COMPARED", 1000)
        with pytest.raises(SizeGuardError, match="^isometry search of 12 points "):
            is_isometric(one, two)

    def test_large_spaces_need_no_recursion(self):
        # One search step per point: 1,100 points exceed the default
        # recursion limit, and row multisets are grouped in one dict, not
        # compared pairwise.
        n = 1100
        points = [f"p{i}" for i in range(n)]
        equilateral = [[int(i != j) for j in range(n)] for i in range(n)]
        path = [[abs(i - j) for j in range(n)] for i in range(n)]
        for ints in (equilateral, path):
            space = FiniteMetricSpace._from_ints(points, 1, ints, ints is equilateral)
            start = time.perf_counter()
            found = is_isometric(space, space)
            assert time.perf_counter() - start < 3.0
            assert found is not None and sorted(found.values()) == sorted(points)
            assert all(ints[i][j] == ints[int(found[f"p{i}"][1:])][int(found[f"p{j}"][1:])]
                       for i in range(0, n, 37) for j in range(n))


class TestStoredMatrix:
    def test_exact_spellings_build_one_space(self):
        # The same rational matrices as ints, decimal strings, "a/b"
        # strings, Fractions and a mix of them.
        whole = [[0, 2, 6], [2, 0, 6], [6, 6, 0]]
        quarters = [["0", "0.25", "1.5"], ["0.25", "0", "1.5"], ["1.5", "1.5", "0"]]
        for values, spellings in (
            (whole, [
                whole,
                [[f"{v}.0" for v in row] for row in whole],
                [[f"{3 * v}/3" for v in row] for row in whole],
                [[Fraction(v) for v in row] for row in whole],
            ]),
            (quarters, [
                quarters,
                [[str(Fraction(v)) for v in row] for row in quarters],
                [[f"{4 * Fraction(v)}/4" for v in row] for row in quarters],
                [[Fraction(v) for v in row] for row in quarters],
                [[0, "1/4", Fraction(3, 2)],
                 ["0.25", 0, "6/4"],
                 ["1.50", "3/2", "0/7"]],
            ]),
        ):
            want = tuple(tuple(map(Fraction, row)) for row in values)
            spaces = [FiniteMetricSpace("xyz", rows) for rows in spellings]
            for sp in spaces:
                assert sp == spaces[0] and hash(sp) == hash(spaces[0])
                assert sp.rows == want
                assert all(type(v) is Fraction for row in sp.rows for v in row)
                assert sp.rows is sp.rows
                assert sp.distance("x", "z") == want[0][2]

    def test_equality_needs_points_and_matrix(self, ultra3):
        relabelled = FiniteMetricSpace("xzy", ultra3.rows)
        halved = FiniteMetricSpace(
            ultra3.points, [[v / 2 for v in row] for row in ultra3.rows]
        )
        assert ultra3 == FiniteMetricSpace(ultra3.points, ultra3.rows)
        assert ultra3 != relabelled and ultra3 != halved


class TestBalls:
    def test_radius_zero_singletons(self, ultra3):
        assert balls(ultra3, 0) == (("x",), ("y",), ("z",))

    def test_radius_above_diameter(self, ultra3):
        assert balls(ultra3, 3) == (("x", "y", "z"),)

    def test_ultra3_radius_one(self, ultra3):
        assert balls(ultra3, 1) == (("x", "y"), ("z",))

    def test_rejects_non_ultrametric(self, tri345):
        with pytest.raises(InputError, match="ultrametric"):
            balls(tri345, 1)

    def test_partitions_refine_with_radius(self):
        for s in range(20):
            sp = gen_random_ultrametric(2 + s % 6, depth=3, seed=s)
            values = sorted(
                {sp.distance(a, b) for a in sp.points for b in sp.points}
            )
            previous = None
            for r in values:
                part = balls(sp, r)
                assert sum(len(b) for b in part) == len(sp.points)
                if previous is not None:
                    for block in previous:
                        assert any(set(block) <= set(big) for big in part)
                previous = part

    def test_matches_fraction_definition(self):
        # balls read the int rows; the reference compares Fractions
        def ref_balls(sp, r):
            if r < 0:
                raise InputError("negative radius")
            blocks, assigned = [], set()
            for x in sorted(sp.points):
                if x not in assigned:
                    block = tuple(sorted(y for y in sp.points if sp.distance(x, y) <= r))
                    blocks.append(block)
                    assigned.update(block)
            return tuple(sorted(blocks))

        def outcome(f, sp, r):
            try:
                return f(sp, r)
            except InputError:
                return "refused"

        refused = 0
        for s in range(60):
            sp = gen_random_ultrametric(1 + s % 9, depth=1 + s % 4, seed=s)
            values = sorted({v for row in sp.rows for v in row})
            radii = values + [v + Fraction(1, 7) for v in values] + [Fraction(-1, 3)]
            for r in radii + [v - Fraction(1, 10**9) for v in values]:
                got = outcome(balls, sp, r)
                assert got == outcome(ref_balls, sp, r), (s, r)
                refused += got == "refused"
            assert balls(sp, "1/2") == ref_balls(sp, Fraction(1, 2))
        assert refused >= 60

    def test_negative_radius_is_refused(self, ultra3):
        with pytest.raises(InputError, match="negative"):
            balls(ultra3, "-1/3")

    def test_tower_u_fibres_are_balls(self):
        # step k of the contraction tower collapses exactly the balls of the
        # k-th distinct nonzero distance
        spaces = [gen_random_ultrametric(1 + s % 13, depth=1 + s % 5, seed=s)
                  for s in range(160)]
        spaces += [terminal_ultrametric(seq, seq.top) for seq in (
            gen_random_esequence(2 + s % 4, 3 + s % 6, 0.3, seed=s,
                                 single_root=True, surjective=True)
            for s in range(80))]
        steps = 0
        for sp in spaces:
            tower = tower_u(sp)
            radii = sorted({v for row in sp.rows for v in row} - {0})
            assert len(radii) == len(tower)
            image = {x: x for x in sp.points}
            for pmap, r in zip(tower.maps, radii):
                image = {x: pmap.mapping[y] for x, y in image.items()}
                fibres = {}
                for x in sorted(sp.points):
                    fibres.setdefault(image[x], []).append(x)
                assert tuple(sorted(map(tuple, fibres.values()))) == balls(sp, r)
                steps += 1
        assert steps > 400


# -- the integer kernel against plain Fraction definitions ---------------------

MIXED_DENOMINATORS = (1, 3, 7, 1_000_003, 998_244_353, 2**31 - 1)


def ref_collapse(space, reduced):
    rep = {}
    for x in sorted(space.points):
        if x not in rep:
            for y in sorted(space.points):
                if y == x or reduced[x, y] == 0:
                    rep[y] = x
    heads = sorted(set(rep.values()))
    rows = [[reduced[a, b] if a != b else 0 for b in heads] for a in heads]
    return FiniteMetricSpace(heads, rows), {x: rep[x] for x in space.points}


def ref_tower(space, step):
    spaces, maps = [space], []
    while True:
        reduced = step(spaces[-1])
        if reduced is None:
            return spaces, maps
        nxt, mapping = ref_collapse(spaces[-1], reduced)
        spaces.append(nxt)
        maps.append(mapping)


def ref_u_step(space):
    if len(space.points) == 1:
        return None
    d = space.distance
    gap = min(d(a, b) for a, b in itertools.combinations(space.points, 2))
    return {(a, b): d(a, b) - gap
            for a in space.points for b in space.points if a != b}


def ref_v_step(space):
    if ref_is_trim(space):
        return None
    ud = ref_underline_d(space)
    d = space.distance
    return {(a, b): d(a, b) - ud[a] - ud[b]
            for a in space.points for b in space.points if a != b}


def mixed_metric(n, seed):
    """A metric with mixed denominators: shortest paths over random
    positive rational edge weights."""
    rng = random.Random(f"mixed-metric:{n}:{seed}")
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        den = rng.choice(MIXED_DENOMINATORS)
        m[i][j] = m[j][i] = Fraction(rng.randint(den, 20 * den), den)
    for k, i, j in itertools.product(range(n), repeat=3):
        m[i][j] = min(m[i][j], m[i][k] + m[k][j])
    return FiniteMetricSpace([f"m{i}" for i in range(n)], m)


def mixed_ultrametric(n, seed):
    """An ultrametric with mixed denominators: merge random clusters at
    increasing rational heights."""
    rng = random.Random(f"mixed-ultrametric:{n}:{seed}")
    clusters = [[i] for i in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    height = Fraction(0)
    while len(clusters) > 1:
        den = rng.choice(MIXED_DENOMINATORS)
        height += Fraction(rng.randint(1, 5 * den), den)
        a, b = sorted(rng.sample(range(len(clusters)), 2))
        for i in clusters[a]:
            for j in clusters[b]:
                m[i][j] = m[j][i] = height
        clusters[a] += clusters.pop(b)
    return FiniteMetricSpace([f"u{i}" for i in range(n)], m)


def mixed_matrix(n, seed):
    """A symmetric matrix that is often not a metric: negative, zero and
    nonzero-diagonal entries over mixed denominators."""
    rng = random.Random(f"mixed-matrix:{n}:{seed}")
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        den = rng.choice(MIXED_DENOMINATORS)
        m[i][j] = m[j][i] = Fraction(rng.randint(-2 * den, 16 * den), den)
    if rng.random() < 0.2:
        i = rng.randrange(n)
        m[i][i] = Fraction(rng.randint(-3, 3), rng.choice(MIXED_DENOMINATORS))
    return [f"q{i}" for i in range(n)], m


def assert_matches_reference(space):
    check = validate_space(space.points, space.rows)
    assert (check.is_metric, check.is_ultrametric, check.problems) == ref_check(
        space.points, space.rows
    )
    assert space.is_ultrametric == check.is_ultrametric
    assert underline_d(space) == ref_underline_d(space)
    assert is_trim(space) == ref_is_trim(space)
    tower = tower_v(space)
    spaces, maps = ref_tower(space, ref_v_step)
    assert tower.spaces == tuple(spaces)
    assert [dict(m.mapping) for m in tower.maps] == maps
    if space.is_ultrametric:
        tower = tower_u(space)
        spaces, maps = ref_tower(space, ref_u_step)
        assert tower.spaces == tuple(spaces)
        assert [dict(m.mapping) for m in tower.maps] == maps


class TestIntKernel:
    def test_mixed_denominator_metrics(self):
        for s in range(40):
            assert_matches_reference(mixed_metric(1 + s % 8, s))

    def test_mixed_denominator_ultrametrics(self):
        for s in range(40):
            sp = mixed_ultrametric(1 + s % 8, s)
            assert sp.is_ultrametric
            assert_matches_reference(sp)

    def test_generator_spaces(self):
        for s in range(30):
            assert_matches_reference(gen_random_metric(1 + s % 9, seed=s))
            assert_matches_reference(gen_random_ultrametric(1 + s % 9, 1 + s % 3, seed=s))

    def test_non_metric_matrices(self):
        failing = 0
        for s in range(150):
            labels, rows = mixed_matrix(1 + s % 7, s)
            check = validate_space(labels, rows)
            want = ref_check(labels, rows)
            assert (check.is_metric, check.is_ultrametric, check.problems) == want
            failing += not check.is_metric
            if not check.is_metric:
                with pytest.raises(InputError) as exc:
                    FiniteMetricSpace(labels, rows)
                assert str(exc.value) == "not a metric: " + "; ".join(want[2])
        assert failing > 50

    def test_constructor_refuses_as_validate_space_does(self):
        flags, refused = set(), 0
        for s in range(150):
            labels, rows = mixed_matrix(1 + s % 7, s)
            for matrix in (rows, mixed_metric(1 + s % 7, s).rows,
                           mixed_ultrametric(1 + s % 7, s).rows):
                check = validate_space(labels, matrix)
                if not check.is_metric:
                    with pytest.raises(InputError) as exc:
                        FiniteMetricSpace(labels, matrix)
                    assert str(exc.value) == "not a metric: " + "; ".join(check.problems)
                    refused += 1
                    continue
                space = FiniteMetricSpace(labels, matrix)
                assert space.is_ultrametric == check.is_ultrametric
                flags.add(space.is_ultrametric)
        assert flags == {True, False} and refused > 50

    def test_generator_draws_skip_the_check(self, monkeypatch):
        import phyloquiver.metric as metric

        calls, check = [], metric._check
        monkeypatch.setattr(metric, "_check", lambda *args: calls.append(args) or check(*args))
        for s in range(30):
            gen_random_metric(1 + s % 13, seed=s)
            gen_random_ultrametric(1 + s % 13, 1 + s % 4, seed=s)
        assert calls == []

    def test_large_matrices_with_long_edges(self):
        # a few long edges on a metric break many triangles at once; zero
        # and negative distances and a nonzero diagonal join in some matrices
        triangles = 0
        for s in range(6):
            rng = random.Random(f"long-edges:{s}")
            n = 20 + 4 * s
            pairs = list(itertools.combinations(range(n), 2))
            m = [[Fraction(0)] * n for _ in range(n)]
            den = rng.choice((1, 3))
            for i, j in pairs:  # all within a factor 2: a metric
                m[i][j] = m[j][i] = Fraction(rng.randint(30, 60), den)
            for i, j in rng.sample(pairs, 4):
                m[i][j] = m[j][i] = Fraction(rng.randint(100, 200), den)
            if s % 2:
                for i, j in rng.sample(pairs, 3):
                    m[i][j] = m[j][i] = Fraction(rng.randint(-2, 0))
            if s % 3 == 2:
                i = rng.randrange(n)
                m[i][i] = Fraction(rng.choice((-1, 1)), 3)
            labels = [f"q{i}" for i in range(n)]
            check = validate_space(labels, m)
            want = ref_check(labels, m)
            assert (check.is_metric, check.is_ultrametric, check.problems) == want
            assert not check.is_metric
            triangles += sum(int(re.search(r"of (\d+)\)$", p)[1])
                             for p in check.problems if p.startswith("triangle"))
        assert triangles > 500, triangles

    def test_one_message_per_failing_pair(self):
        # random integers 1-60 break many triangles: at most one message per
        # unordered pair, and far fewer than the failing triples they count
        for n in (20, 35, 50):
            rng = random.Random(f"one-per-pair:{n}")
            m = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                m[i][j] = m[j][i] = rng.randint(1, 60)
            problems = validate_space([f"p{i}" for i in range(n)], m).problems
            witnesses = sum(int(re.search(r"of (\d+)\)$", p)[1]) for p in problems)
            assert 0 < len(problems) <= n * (n + 1) // 2 < witnesses, n

    def test_near_ultrametrics(self):
        # One pair of an ultrametric, a nearest pair in half the inputs,
        # moved a small step up or down: the result sits on either side of
        # the boundary, and the flag and the problems must match the axioms.
        verdicts = []
        for s in range(300):
            n = 2 + s % 15
            if s % 2:
                sp = gen_random_ultrametric(n, 1 + s % 4, seed=s)
            else:
                sp = mixed_ultrametric(n, s)
            rng = random.Random(f"near-ultrametric:{s}")
            m = [list(row) for row in sp.rows]
            gap = min_gap(sp)
            i, j = rng.choice([
                pair for pair in itertools.combinations(range(n), 2)
                if s % 4 > 1 or m[pair[0]][pair[1]] == gap  # a nearest pair
            ])
            step = gap / rng.choice((1, 2, 3))
            if rng.random() < 0.5 and m[i][j] > step:
                step = -step
            m[i][j] = m[j][i] = m[i][j] + step
            check = validate_space(sp.points, m)
            want = ref_check(sp.points, m)
            assert (check.is_metric, check.is_ultrametric, check.problems) == want
            verdicts.append(check.is_ultrametric)
            if check.is_metric:
                built = FiniteMetricSpace(sp.points, m)
                assert built.is_ultrametric == check.is_ultrametric
        assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100

    def test_metric_but_not_ultrametric(self, tri345, cycle4):
        for sp in (tri345, cycle4):
            assert not sp.is_ultrametric
            assert_matches_reference(sp)

    def test_one_and_two_points(self):
        assert_matches_reference(FiniteMetricSpace(("x",), ((0,),)))
        for den in MIXED_DENOMINATORS:
            sp = FiniteMetricSpace(["a", "b"], [[0, Fraction(7, den)], [Fraction(7, den), 0]])
            assert_matches_reference(sp)
            assert underline_d(sp) == {"a": Fraction(7, 2 * den), "b": Fraction(7, 2 * den)}

    def test_multi_step_drift_towers(self):
        # Rare among generator draws; a quotient whose half-deficits are
        # not integers in its parent's scale must take a larger scale.
        towers = [tower_v(gen_random_metric(1 + s % 11, seed=s)) for s in range(400)]
        long = [t for t in towers if len(t) >= 2]
        assert len(long) >= 2
        assert any(
            t.spaces[k + 1]._scaled[0] > t.spaces[k]._scaled[0]
            for t in long for k in range(len(t))
        )
        for t in long:
            assert_matches_reference(t.spaces[0])
            assert all(classify_map(m).is_drift for m in t.maps)

    def test_trusted_spaces_revalidate(self):
        # Generator draws, tower quotients and terminal ultrametrics are
        # built from int rows without a check; validating them afresh must
        # agree on everything.
        def caterpillar(n):
            return FiniteMetricSpace(
                [f"c{i}" for i in range(n)],
                [[Fraction(max(i, j), 3) if i != j else 0 for j in range(n)]
                 for i in range(n)],
            )

        inputs = [gen_random_metric(1 + s % 11, seed=s) for s in range(400)]
        inputs += [gen_random_ultrametric(1 + s % 12, 1 + s % 5, seed=s) for s in range(120)]
        inputs += [caterpillar(n) for n in (1, 2, 3, 5, 8, 13, 21, 40)]
        drifts, contractions, terminals = [], [], []
        for sp in inputs:
            drifts += tower_v(sp).spaces[1:]
            if sp.is_ultrametric:
                contractions += tower_u(sp).spaces[1:]
        for s in range(60):
            seq = gen_random_esequence(2 + s % 5, 3 + s % 6, 0.4, seed=s,
                                       single_root=True, surjective=True)
            terminals += [terminal_ultrametric(seq, n) for n in range(seq.top + 1)]
        assert {q.is_ultrametric for q in drifts} == {True, False}
        assert len(contractions) > 300 and len(terminals) > 200
        for q in inputs + drifts + contractions + terminals:
            check = validate_space(q.points, q.rows)
            assert check.is_metric
            assert q.is_ultrametric == check.is_ultrametric
            rebuilt = FiniteMetricSpace(q.points, q.rows)
            assert rebuilt == q and rebuilt.is_ultrametric == q.is_ultrametric

    def test_underline_d_returns_a_copy(self, tri345):
        first = underline_d(tri345)
        first["x"] = Fraction(99)
        first.clear()
        assert underline_d(tri345) == {"x": 1, "y": 2, "z": 3}

    def test_space_check_compares_on_flags_and_problems(self, ultra3):
        from phyloquiver.metric import SpaceCheck

        assert validate_space(ultra3.points, ultra3.rows) == SpaceCheck(True, True, ())


# -- the exact filters of the triangle check and the deficit scan --------------


def bound_matrix(n, seed):
    """A symmetric matrix of entries in [5, 9] over one mixed denominator,
    so every pair lies within the row-minimum bound m_i + m_j. One pair is
    then set to exactly m_i + m_j of the other entries of its rows, or one
    unit above it, sometimes with both minima at one point k; some matrices
    take a negative entry, or a negative or positive diagonal entry. Returns
    the labels, the rows and the kinds of changes made."""
    rng = random.Random(f"bound-matrix:{n}:{seed}")
    den = rng.choice(MIXED_DENOMINATORS)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        m[i][j] = m[j][i] = Fraction(rng.randint(5 * den, 9 * den), den)
    kinds = set()
    if n >= 3:
        i, j, k = rng.sample(range(n), 3)
        if rng.random() < 0.5:  # the least entries of rows i and j both at k
            m[i][k] = m[k][i] = m[j][k] = m[k][j] = Fraction(5)
            kinds.add("shared")
        rest = [x for x in range(n) if x not in (i, j)]
        bound = min(m[i][x] for x in rest) + min(m[j][x] for x in rest)
        above = rng.random() < 0.5
        m[i][j] = m[j][i] = bound + Fraction(above, den)
        kinds.add("above" if above else "at")
    if n >= 2 and rng.random() < 0.2:
        i, j = rng.sample(range(n), 2)
        m[i][j] = m[j][i] = Fraction(-rng.randint(1, 3 * den), den)
        kinds.add("negative")
    if rng.random() < 0.3:
        i = rng.randrange(n)
        m[i][i] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 2 * den), den)
        kinds.add("diagonal" if m[i][i] > 0 else "negative diagonal")
    return [f"b{i}" for i in range(n)], m, kinds


def shortest_paths(n, edges):
    """The graph metric of weighted edges (i, j, w), by Floyd–Warshall."""
    big = sum(w for _, _, w in edges) + 1
    m = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for i, j, w in edges:
        m[i][j] = m[j][i] = min(m[i][j], w)
    for k, i, j in itertools.product(range(n), repeat=3):
        m[i][j] = min(m[i][j], m[i][k] + m[k][j])
    return m


def graph_spaces(rng):
    """Cycles and grids, unit and randomly weighted ones, the leaves of
    random binary trees with rational edge lengths, and random metrics:
    spaces with every deficit zero, with none, and between."""
    def weight():
        return rng.choice((1, 1, 2, 3, Fraction(1, 2), Fraction(5, 3)))

    shapes = []
    for n in (3, 4, 5, 6, 7, 9, 12, 25, 40):
        shapes.append((f"cycle{n}", shortest_paths(n, [(i, (i + 1) % n, 1) for i in range(n)])))
        shapes.append((f"wcycle{n}", shortest_paths(n, [(i, (i + 1) % n, weight())
                                                          for i in range(n)])))
    for a, b in ((1, 3), (2, 2), (2, 5), (3, 3), (4, 6), (7, 7)):
        cells = [(x, y) for x in range(a) for y in range(b)]
        ids = {c: i for i, c in enumerate(cells)}
        links = [(ids[x, y], ids[x + dx, y + dy]) for x, y in cells for dx, dy in ((1, 0), (0, 1))
                 if (x + dx, y + dy) in ids]
        shapes.append((f"grid{a}x{b}", shortest_paths(len(cells), [(i, j, 1) for i, j in links])))
        shapes.append((f"wgrid{a}x{b}", shortest_paths(len(cells),
                                                        [(i, j, weight()) for i, j in links])))
    for leaves in (3, 4, 6, 10, 20, 40):
        nodes, edges, top = list(range(leaves)), [], leaves
        while len(nodes) > 1:  # join two random subtrees under a new node
            for child in rng.sample(nodes, 2):
                nodes.remove(child)
                edges.append((child, top, weight()))
            nodes.append(top)
            top += 1
        tree = shortest_paths(top, edges)
        shapes.append((f"tree{leaves}", [row[:leaves] for row in tree[:leaves]]))
    spaces = [FiniteMetricSpace([f"g{i}" for i in range(len(rows))], rows)
              for _, rows in shapes]
    spaces += [mixed_metric(n, 1000 + n) for n in (3, 6, 10, 20, 30)]
    spaces += [gen_random_metric(n, seed=n) for n in (3, 8, 20, 60)]
    return [name for name, _ in shapes] + ["mixed"] * 5 + ["random"] * 4, spaces


class TestScanFilters:
    def test_triangles_match_every_triple_near_the_bound(self):
        # Pairs at m_i + m_j are passed by the bound, pairs one unit above
        # are scanned (and fail when both minima sit at one point), and a
        # negative diagonal entry fails every pair of its row however small
        # the pair's distance.
        seen = Counter()
        for s in range(900):
            n = 1 + s % 8
            labels, rows, kinds = bound_matrix(n, s)
            check = validate_space(labels, rows)
            want = ref_check(labels, rows)
            assert (check.is_metric, check.is_ultrametric, check.problems) == want, s
            seen.update(kinds)
            seen["metric" if check.is_metric else "refused"] += 1
            if "above" in kinds:
                seen["above and failing" if any(p.startswith("triangle") for p in
                                                check.problems) else "above and holding"] += 1
            if not check.is_metric:
                with pytest.raises(InputError) as exc:
                    FiniteMetricSpace(labels, rows)
                assert str(exc.value) == "not a metric: " + "; ".join(want[2])
        assert min(seen.values()) >= 30, seen

    def test_deficits_match_the_definition_on_graph_metrics(self):
        names, spaces = graph_spaces(random.Random("graph-spaces"))
        trim = set()
        for name, sp in zip(names, spaces):
            assert underline_d(sp) == ref_underline_d(sp), name
            assert is_trim(sp) == ref_is_trim(sp), name
            if is_trim(sp):
                trim.add(name)
        assert {"cycle5", "cycle40", "grid7x7"} <= trim
        assert not any(name.startswith("tree") for name in trim)

    def test_drift_towers_of_graph_metrics(self):
        names, spaces = graph_spaces(random.Random("graph-towers"))
        for name, sp in zip(names, spaces):
            if len(sp) <= 12:
                assert_matches_reference(sp)
            tower = tower_v(sp)
            assert all(classify_map(m).is_drift for m in tower.maps), name
            assert is_trim(tower.terminal), name


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: to_fraction(object()), "cannot interpret <object",
                 id="to-fraction"),
    pytest.param(lambda: validate_space([], []),
                 "a metric space needs at least one point", id="no-points"),
    pytest.param(lambda: validate_space(["x", "x"], [[0, 1], [1, 0]]),
                 "duplicate point labels", id="duplicate-labels"),
    pytest.param(lambda: gen_random_metric(2, seed=0).distance("p0", "zz"),
                 "unknown point 'zz'", id="distance"),
    pytest.param(lambda: PointMap(gen_random_metric(2), gen_random_metric(1), {"p0": "p0"}),
                 "map must be defined on every source point", id="partial-map"),
    pytest.param(lambda: PointMap(gen_random_metric(1), gen_random_metric(1), {"p0": "zz"}),
                 "map hits unknown target point 'zz'", id="unknown-target"),
])
def test_input_errors(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value).startswith(message)
