#!/usr/bin/env python3
"""Walk the worked examples end to end and print what the library sees.

Covers the three-vertex quiver, the set/surjection quivers, a rooted tree,
the two metric-space fixtures with their towers, and a small E-sequence
with its terminal data and reconstruction.
"""

from __future__ import annotations


import phyloquiver as pq
from phyloquiver import clades, generators as gen, serialize


def show_quiver(name, quiver):
    report = pq.analyze(quiver)
    print(f"== {name}: {len(quiver.vertices)} vertices, {len(quiver.edges)} edges")
    print(f"   monotonous={report.monotonous} "
          f"phylogenetic_quiver={report.phylogenetic_quiver} "
          f"classes={report.isotypy_class_count}")
    for row in report.vertices:
        status = {True: "yes", False: "no"}[row.phylogenetic]
        print(f"   {row.vertex}: h={row.height} primitive={row.primitive} "
              f"normal={row.normal} phylogenetic={status}")


def main() -> None:
    g3 = gen.gen_g3()
    show_quiver("three-vertex quiver", g3)
    print("   critical ancestors:",
          {v: sorted(pq.critical_ancestors(g3, v)) for v in g3.vertices})
    print("   universal evolution of C:", pq.universal_evolution(g3, "C"))

    show_quiver("all-maps quiver (n=4)", gen.gen_map_quiver(4))
    s5 = gen.gen_surjection_quiver(5)
    show_quiver("surjections quiver (n=5)", s5)
    seq = pq.evolutionary_sequence(s5)
    print("   evolutionary sequence:", serialize.esequence_to_obj(seq))
    print("   newick:", serialize.forest_to_newick(seq).strip())
    print("   clade of [2]:", clades.clade_report(s5, "2"))

    tree = gen.gen_rooted_tree_quiver([("r", "x"), ("x", "y"), ("r", "z")], "r")
    show_quiver("rooted tree", tree)

    ultra3 = pq.FiniteMetricSpace.build(
        ["x", "y", "z"], [[0, 1, 3], [1, 0, 3], [3, 3, 0]]
    )
    tower = pq.tower_u(ultra3)
    print("== ultrametric {1,3,3}: norm:", pq.norm_total(ultra3),
          "min gap:", pq.min_gap(ultra3), "distinct values:", pq.n_nonzero(ultra3))
    print("   tower:", " <- ".join(str(list(s.points)) for s in reversed(tower.spaces)))
    for i, pm in enumerate(tower.maps):
        print(f"   step {i}: {pq.classify_map(pm).kind} "
              f"epsilon={pq.classify_map(pm).contraction_epsilon}")

    tri = pq.FiniteMetricSpace.build(["x", "y", "z"], [[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    slack = {p: str(v) for p, v in pq.underline_d(tri).items()}
    print("== triangle {3,4,5}: underline_d:", slack, "trim:", pq.is_trim(tri))
    print("   drift tower length:", len(pq.tower_v(tri)))

    cycle = pq.FiniteMetricSpace.build(
        ["p0", "p1", "p2", "p3"],
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
    )
    print("== four-cycle metric: trim:", pq.is_trim(cycle),
          "(its own trim core, drift tower length", len(pq.tower_v(cycle)), ")")

    two_fiber = pq.ESequence.build(
        [["r"], ["a", "b"], ["a1", "a2", "b1"]],
        {"a": "r", "b": "r", "a1": "a", "a2": "a", "b1": "b"},
        [("a", "b")],
    )
    print("== two-fiber E-sequence: d(a1,a2) =", pq.forest_distance(two_fiber, "a1", "a2"),
          " d(a1,b1) =", pq.forest_distance(two_fiber, "a1", "b1"))
    rho = pq.terminal_ultrametric(two_fiber, 2)
    prec = pq.induce_prec(two_fiber, 2)
    print("   rho(a1,a2) =", rho.distance("a1", "a2"),
          " rho(a1,b1) =", rho.distance("a1", "b1"),
          " prec =", sorted(prec.pairs))
    rebuilt = pq.reconstruct(rho, prec, 2)
    print("   reconstruct -> levels", [list(l) for l in rebuilt.levels],
          "isomorphic:", pq.esequence_isomorphic(rebuilt, two_fiber))


if __name__ == "__main__":
    main()
