"""Brute-force oracles shared across the suite.

These deliberately avoid the library's own algorithms: reachability by
fixed-point iteration over the edge relation, full evolutions by explicit
walk enumeration, embeddings by trying every index subsequence.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from phyloquiver.quiver import Quiver


def brute_reach(quiver: Quiver) -> dict[str, set[str]]:
    """reach[v] = vertices reachable from v (v included), by iterating the
    one-step relation to a fixed point."""
    reach = {v: {v} for v in quiver.vertices}
    step = {v: set() for v in quiver.vertices}
    for tail, head in quiver.edges:
        step[tail].add(head)
    changed = True
    while changed:
        changed = False
        for v in quiver.vertices:
            grown = set(reach[v])
            for w in list(grown):
                grown |= step[w]
            if grown != reach[v]:
                reach[v] = grown
                changed = True
    return reach


def brute_primitives(quiver: Quiver) -> set[str]:
    reach = brute_reach(quiver)
    return {
        v for v in quiver.vertices
        if all(v in reach[w] for w in reach[v])
    }


def brute_heights(quiver: Quiver) -> dict[str, int]:
    """Height by enumerating walks of growing length until a primitive
    appears. Only for small quivers."""
    prim = brute_primitives(quiver)
    step = {v: set() for v in quiver.vertices}
    for tail, head in quiver.edges:
        step[tail].add(head)
    out = {}
    for v in quiver.vertices:
        frontier = {v}
        for length in range(len(quiver.vertices) + 1):
            if frontier & prim:
                out[v] = length
                break
            frontier = {w for u in frontier for w in step[u]}
        else:
            raise AssertionError(f"no primitive ancestor for {v}")
    return out


def brute_full_evolutions(quiver: Quiver, v: str, max_length: int):
    """All full evolutions for v of length <= max_length, as ancestor-first
    vertex tuples, by enumerating walks from v toward the primitives."""
    prim = brute_primitives(quiver)
    step = {u: set() for u in quiver.vertices}
    for tail, head in quiver.edges:
        step[tail].add(head)
    results = []

    def walk(u, acc):
        if u in prim:
            results.append(tuple(reversed(acc)))
        if len(acc) - 1 >= max_length:
            return
        for w in sorted(step[u]):
            acc.append(w)
            walk(w, acc)
            acc.pop()

    walk(v, [v])
    return results


def brute_embedding_exists(classes, alpha, beta) -> bool:
    """Try every strictly increasing index choice; ``classes`` maps a
    vertex to its isotypy class id."""
    m, n = len(alpha), len(beta)
    if m > n:
        return False
    for idx in itertools.combinations(range(n), m):
        if all(classes[alpha[k]] == classes[beta[r]] for k, r in zip(range(m), idx)):
            return True
    return False


def one_per_pair(witnessed):
    """A brute-force message list, one message per witness, in the wording
    of the validators: one message per failing pair (and rule). Each item
    is (key, message), key None for a message that names no witness. Of
    each key the first message stays, in place, with the number of that
    key's messages appended; the later ones go."""
    count = Counter(key for key, _ in witnessed)
    seen = set()
    out = []
    for key, message in witnessed:
        if key is None:
            out.append(message)
        elif key not in seen:
            seen.add(key)
            out.append(f"{message} (witness 1 of {count[key]})")
    return out


@pytest.fixture
def g3():
    from phyloquiver.generators import gen_g3

    return gen_g3()
