"""Exact metric spaces: validation, quotients, towers, isometry, balls."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from phyloquiver import (
    FiniteMetricSpace,
    InputError,
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
    to_fraction,
    tower_u,
    tower_v,
    underline_d,
    validate_space,
)
from phyloquiver.generators import gen_random_metric, gen_random_ultrametric


@pytest.fixture
def ultra3():
    return FiniteMetricSpace.build(["x", "y", "z"], [[0, 1, 3], [1, 0, 3], [3, 3, 0]])


@pytest.fixture
def tri345():
    return FiniteMetricSpace.build(["x", "y", "z"], [[0, 3, 4], [3, 0, 5], [4, 5, 0]])


@pytest.fixture
def cycle4():
    return FiniteMetricSpace.build(
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
            FiniteMetricSpace.build(["a", "b"], [[0, -1], [-1, 0]])


class TestInvariants:
    def test_ultra3_numbers(self, ultra3):
        assert norm_total(ultra3) == 14
        assert min_gap(ultra3) == 1
        assert n_nonzero(ultra3) == 2

    def test_single_point(self):
        sp = FiniteMetricSpace.single("x")
        assert norm_total(sp) == 0
        assert n_nonzero(sp) == 0
        with pytest.raises(InputError):
            min_gap(sp)

    def test_two_points(self):
        sp = FiniteMetricSpace.build(["a", "b"], [[0, "7/2"], ["7/2", 0]])
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
        target = FiniteMetricSpace.build(["u", "v"], [[0, 2], [2, 0]])
        pm = PointMap(ultra3, target, {p: "u" for p in ultra3.points})
        with pytest.raises(InputError, match="surjective"):
            classify_map(pm)

    def test_unclassifiable_map(self, tri345):
        target = FiniteMetricSpace.build(["u", "v"], [[0, 1], [1, 0]])
        pm = PointMap(tri345, target, {"x": "u", "y": "v", "z": "v"})
        assert classify_map(pm).kind == "none"


class TestUltrametricQuotients:
    def test_ultra3_collapses_closest_pair(self, ultra3):
        sp, pm = quotient_u(ultra3)
        assert sp.points == ("x", "z")
        assert sp.distance("x", "z") == 2
        assert pm.mapping == {"x": "x", "y": "x", "z": "z"}

    def test_two_points_to_one(self):
        sp, _ = quotient_u(FiniteMetricSpace.build(["a", "b"], [[0, 5], [5, 0]]))
        assert len(sp.points) == 1

    def test_equidistant_space_to_one(self):
        sp, _ = quotient_u(
            FiniteMetricSpace.build(
                ["a", "b", "c"], [[0, 2, 2], [2, 0, 2], [2, 2, 0]]
            )
        )
        assert len(sp.points) == 1

    def test_rejects_non_ultrametric(self, tri345):
        with pytest.raises(InputError, match="ultrametric"):
            quotient_u(tri345)

    def test_rejects_single_point(self):
        with pytest.raises(InputError, match="two points"):
            quotient_u(FiniteMetricSpace.single("x"))


class TestUltrametricTower:
    def test_ultra3(self, ultra3):
        t = tower_u(ultra3)
        assert len(t) == 2
        assert [len(s.points) for s in t.spaces] == [3, 2, 1]

    def test_single_point(self):
        assert len(tower_u(FiniteMetricSpace.single("x"))) == 0

    def test_height_law_and_contraction_lemma(self):
        for s in range(60):
            sp = gen_random_ultrametric(2 + s % 7, depth=1 + s % 4, seed=s)
            assert sp.is_ultrametric == validate_space(sp.points, sp.rows).is_ultrametric
            t = tower_u(sp)
            assert len(t) == n_nonzero(sp)
            for i, pm in enumerate(t.maps):
                cl = classify_map(pm)
                assert cl.contraction_epsilon == min_gap(t.spaces[i])
                assert not pm.is_bijective
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
                relabeled = FiniteMetricSpace.build(
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
                shrunk = FiniteMetricSpace.build(
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
        sp = FiniteMetricSpace.build(["a", "b"], [[0, 6], [6, 0]])
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


class TestTrim:
    def test_single_point(self):
        assert is_trim(FiniteMetricSpace.single("x"))

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
        sp = FiniteMetricSpace.build(["a", "b"], [[0, "1/3"], ["1/3", 0]])
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


class TestIsometry:
    def test_relabeled(self, ultra3):
        other = FiniteMetricSpace.build(
            ["u", "v", "w"], [[0, 3, 3], [3, 0, 1], [3, 1, 0]]
        )
        found = is_isometric(ultra3, other)
        assert found is not None
        for a in ultra3.points:
            for b in ultra3.points:
                assert ultra3.distance(a, b) == other.distance(found[a], found[b])

    def test_norm_fast_reject(self, ultra3, tri345):
        assert is_isometric(ultra3, tri345) is None

    def test_size_guard(self):
        big = gen_random_ultrametric(13, depth=2, seed=0)
        with pytest.raises(SizeGuardError):
            is_isometric(big, big)
        assert is_isometric(big, big, max_points=13) is not None

    def test_matches_brute_force(self):
        def brute(a, b):
            if len(a.points) != len(b.points):
                return False
            for perm in itertools.permutations(b.points):
                f = dict(zip(a.points, perm))
                if all(
                    a.distance(x, y) == b.distance(f[x], f[y])
                    for x in a.points
                    for y in a.points
                ):
                    return True
            return False

        for s in range(25):
            a = gen_random_metric(2 + s % 4, seed=s)
            b = gen_random_metric(2 + (s + 1) % 4, seed=s + 50)
            assert (is_isometric(a, b) is not None) == brute(a, b)
            assert is_isometric(a, a) is not None


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
