"""Generator fixtures: determinism and validator compliance."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from phyloquiver import (
    InputError,
    SizeGuardError,
    heights,
    is_monotonous,
    is_phylogenetic_quiver,
    norm_total,
    primitive_vertices,
    validate_esequence,
)
from phyloquiver.generators import (
    gen_abnormal,
    gen_g3,
    gen_irregular,
    gen_map_quiver,
    gen_nonmonotonous,
    gen_random_esequence,
    gen_random_metric,
    gen_random_monotonous,
    gen_random_phylogenetic,
    gen_random_quiver,
    gen_random_ultrametric,
    gen_rooted_tree_quiver,
    gen_surjection_quiver,
)
from phyloquiver.serialize import space_to_csv


class TestFixedFixtures:
    def test_map_quiver(self):
        q = gen_map_quiver(3)
        assert len(q.vertices) == 3
        assert len(q.edges) == 9
        assert primitive_vertices(q) == set(q.vertices)
        assert set(heights(q).values()) == {0}

    def test_map_quiver_singleton_loop(self):
        q = gen_map_quiver(1)
        assert q.edges == (("1", "1"),)
        assert primitive_vertices(q) == {"1"}

    def test_surjection_quiver(self):
        q = gen_surjection_quiver(5)
        assert primitive_vertices(q) == {"1"}
        assert {v: h for v, h in heights(q).items()} == {
            "1": 0, "2": 1, "3": 1, "4": 1, "5": 1
        }
        assert is_phylogenetic_quiver(q)

    def test_g3_heights(self):
        assert heights(gen_g3()) == {"A": 0, "B": 1, "C": 2}

    def test_rooted_tree_requires_tree(self):
        with pytest.raises(InputError, match="not a tree"):
            gen_rooted_tree_quiver([("a", "b"), ("b", "c"), ("c", "a")], "a")
        with pytest.raises(InputError, match="not a tree"):
            gen_rooted_tree_quiver([("a", "b"), ("c", "d")], "a")

    def test_rooted_tree_unique_full_evolutions(self):
        from phyloquiver import short_full_evolutions

        q = gen_rooted_tree_quiver([("r", "x"), ("r", "y"), ("y", "z")], "r")
        assert is_monotonous(q)
        for v in q.vertices:
            assert len(list(short_full_evolutions(q, v))) == 1

    def test_named_fixtures(self):
        assert not is_monotonous(gen_nonmonotonous())
        assert not is_phylogenetic_quiver(gen_abnormal())
        assert is_phylogenetic_quiver(gen_irregular())

    def test_size_bounds(self):
        with pytest.raises(InputError):
            gen_map_quiver(0)
        with pytest.raises(InputError):
            gen_surjection_quiver(0)
        with pytest.raises(InputError):
            gen_random_quiver(0)

    @pytest.mark.parametrize("density", [-0.1, 1.5, 7])
    def test_order_density_outside_unit_interval(self, density):
        with pytest.raises(InputError, match=r"order_density must lie in \[0, 1\]"):
            gen_random_esequence(3, 3, density)


class TestDeterminism:
    def test_random_quiver_reproducible(self):
        assert gen_random_quiver(7, 0.3, seed=5) == gen_random_quiver(7, 0.3, seed=5)
        assert gen_random_quiver(7, 0.3, seed=5) != gen_random_quiver(7, 0.3, seed=6)

    def test_random_ultrametric_reproducible(self):
        assert gen_random_ultrametric(6, 3, seed=2) == gen_random_ultrametric(6, 3, seed=2)

    def test_random_metric_reproducible(self):
        assert gen_random_metric(6, seed=2) == gen_random_metric(6, seed=2)

    def test_random_metric_draws_are_pinned(self):
        totals = [str(norm_total(gen_random_metric(n, seed=s)))
                  for n in (3, 7, 11) for s in range(3)]
        assert totals == ["34", "116/3", "54", "377/2", "387", "379",
                          "1032", "518", "2042"]
        assert gen_random_metric(4, seed=3).rows == tuple(
            tuple(Fraction(v) for v in row)
            for row in [[0, 12, 15, 17], [12, 0, 24, 17],
                        [15, 24, 0, 23], [17, 17, 23, 0]]
        )

    def test_random_ultrametric_draws_are_pinned(self):
        # the CSV of every draw in a seeded sweep: any change to the RNG calls shows
        digest = hashlib.sha256()
        for n in (*range(1, 30), 40, 61, 100):
            for depth in (1, 2, 3, 5):
                for s in range(4):
                    digest.update(space_to_csv(gen_random_ultrametric(n, depth, seed=s)).encode())
        assert digest.hexdigest() == (
            "be2e296ad4ebc0a8cf24e57d5aae4919e3a80d2562cc5a8e468007e50108e0ae")

    def test_random_esequence_reproducible(self):
        a = gen_random_esequence(4, 5, 0.3, seed=9, single_root=True, surjective=True)
        b = gen_random_esequence(4, 5, 0.3, seed=9, single_root=True, surjective=True)
        assert a == b


class TestValidatorCompliance:
    def test_monotonous_variant(self):
        for s in range(20):
            assert is_monotonous(gen_random_monotonous(2 + s % 8, 0.4, seed=s))

    def test_phylogenetic_variant(self):
        for s in range(20):
            assert is_phylogenetic_quiver(
                gen_random_phylogenetic(2 + s % 8, 0.4, seed=s)
            )

    def test_ultrametric_flag(self):
        for s in range(20):
            assert gen_random_ultrametric(1 + s % 8, 1 + s % 4, seed=s).is_ultrametric

    def test_metric_single_point(self):
        sp = gen_random_metric(1, seed=0)
        assert sp.points == ("p0",)

    def test_esequence_options(self):
        for s in range(20):
            seq = gen_random_esequence(
                3, 5, 0.5, seed=s, single_root=True, surjective=True
            )
            assert validate_esequence(seq) == []
            assert len(seq.levels[0]) == 1
            for m in range(1, len(seq.levels)):
                assert {seq.parent[x] for x in seq.levels[m]} == set(
                    seq.levels[m - 1]
                )


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: gen_rooted_tree_quiver([("r", "a"), ("a", "a")], "r"),
                 "self-loop 'a' is not a tree edge", id="tree-self-loop"),
    pytest.param(lambda: gen_rooted_tree_quiver([("a", "b"), ("b", "c"), ("c", "a")], "r"),
                 "input is not a tree: not connected", id="tree-disconnected"),
    pytest.param(lambda: gen_random_quiver(3, density=2), "density must lie in [0, 1]",
                 id="quiver-density"),
    pytest.param(lambda: gen_random_ultrametric(0), "n must be at least 1", id="ultra-n"),
    pytest.param(lambda: gen_random_ultrametric(3, depth=0),
                 "depth must be at least 1", id="ultra-depth"),
    pytest.param(lambda: gen_random_metric(0), "n must be at least 1", id="metric-n"),
    pytest.param(lambda: gen_random_esequence(0), "levels must be at least 1",
                 id="esequence-levels"),
    pytest.param(lambda: gen_random_esequence(2, 0), "width must be at least 1",
                 id="esequence-width"),
])
def test_input_errors(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


# One size past the budget of 10^6 cells for each generator that draws or
# holds n² pairs, or levels × width² for E-sequence orders.
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: gen_map_quiver(1001), "1002001 cells (1001 by 1001 pairs)", id="map"),
    pytest.param(lambda: gen_surjection_quiver(1001), "1002001 cells (1001 by 1001 pairs)",
                 id="surjection"),
    pytest.param(lambda: gen_random_quiver(1001, 0), "1002001 cells (1001 by 1001 pairs)",
                 id="random"),
    pytest.param(lambda: gen_random_monotonous(1001), "1002001 cells (1001 by 1001 pairs)",
                 id="monotonous"),
    pytest.param(lambda: gen_random_phylogenetic(1001), "1002001 cells (1001 by 1001 pairs)",
                 id="phylogenetic"),
    pytest.param(lambda: gen_random_ultrametric(1001), "1002001 cells (1001 by 1001 distances)",
                 id="ultrametric"),
    pytest.param(lambda: gen_random_metric(1001), "1002001 cells (1001 by 1001 distances)",
                 id="metric"),
    pytest.param(lambda: gen_random_esequence(250_001, 2),
                 "1000004 cells (250001 levels of 2 by 2 pairs)", id="esequence"),
])
def test_refuses_more_cells_than_its_budget(call, message):
    with pytest.raises(SizeGuardError) as exc:
        call()
    assert str(exc.value) == f"{message} exceed the budget of 1000000"


def test_budget_edge_and_check_order(monkeypatch):
    # malformed arguments are refused first, and the budget is inclusive
    with pytest.raises(InputError, match="^density must lie in"):
        gen_random_quiver(1001, density=2)
    monkeypatch.setattr("phyloquiver.generators._MAX_CELLS", 9)
    assert len(gen_map_quiver(3).edges) == 9
    assert len(gen_random_metric(3)) == 3
    assert len(gen_random_esequence(1, 3, seed=1).labels()) <= 3
    for call in (lambda: gen_map_quiver(4), lambda: gen_random_quiver(4, 0),
                 lambda: gen_random_esequence(2, 3)):
        with pytest.raises(SizeGuardError, match=" exceed the budget of 9$"):
            call()
