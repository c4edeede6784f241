"""Evolutionary sequences, E-sequences, forests, and reconstruction.

An E-sequence is a stack of finite labeled levels P0..PT with parental
maps p: Pm -> P(m-1) and a strict partial order on each level, subject to
two axioms: the order on P0 is trivial, and comparable elements share a
parent. The evolutionary sequence of a phylogenetic quiver (isotypy
classes graded by height, parents read off universal evolutions, order
induced by ancestry) is one, and every E-sequence is realized by a
phylogenetic quiver.

Reconstruction inverts the terminal data: with a single root and
surjective parents, the levels are the balls of the terminal ultrametric
rho (the split-depth metric on P_N) and the orders are recovered from the
induced relation `prec` on P_N. Labels are globally unique across levels,
which keeps parental maps flat in serialized form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InputError
from .metric import FiniteMetricSpace, balls
from .quiver import Quiver, condense, memo
from . import analysis


class _Leveled:
    """Level and children indexes over ``levels`` and ``parent``, shared by
    :class:`ESequence` and :class:`Forest` and built once per instance."""

    levels: tuple[tuple[str, ...], ...]
    parent: Mapping[str, str]

    @cached_property
    def level_of(self) -> dict[str, int]:
        return {x: m for m, level in enumerate(self.levels) for x in level}

    def labels(self) -> list[str]:
        return [x for level in self.levels for x in level]

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        kids: dict[str, list[str]] = {}
        for c, p in self.parent.items():
            kids.setdefault(p, []).append(c)
        return {p: tuple(sorted(cs)) for p, cs in kids.items()}

    def children(self, x: str) -> tuple[str, ...]:
        return self._children.get(x, ())


@dataclass(frozen=True)
class ESequence(_Leveled):
    """Graded labeled sets with parental maps and per-level strict orders.

    ``order`` holds pairs (x, y) meaning x < y; pairs must stay inside one
    level. The constructor checks only structure (label uniqueness, total
    parents into the previous level, in-level pairs); the E-sequence axioms
    themselves are the business of :func:`validate_esequence`, which treats
    breaches as data.
    """

    levels: tuple[tuple[str, ...], ...]
    parent: Mapping[str, str]
    order: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        if not self.levels:
            raise InputError("an E-sequence needs at least one level")
        seen: set[str] = set()
        for m, level in enumerate(self.levels):
            if not level:
                raise InputError(f"level {m} is empty")
            for x in level:
                if x in seen:
                    raise InputError(f"duplicate label {x!r}")
                seen.add(x)
        lv = self.level_of
        expected = {x for level in self.levels[1:] for x in level}
        if set(self.parent) != expected:
            raise InputError("parent map must cover levels 1.. exactly")
        for x, y in self.parent.items():
            if y not in seen or lv[y] != lv[x] - 1:
                raise InputError(f"parent of {x!r} must sit one level below")
        for x, y in self.order:
            if x not in seen or y not in seen:
                raise InputError(f"order pair ({x!r}, {y!r}) references unknown labels")
            if lv[x] != lv[y]:
                raise InputError(f"order pair ({x!r}, {y!r}) crosses levels")

    @classmethod
    def build(
        cls,
        levels: Iterable[Iterable[str]],
        parent: Mapping[str, str],
        order: Iterable[tuple[str, str]] = (),
    ) -> "ESequence":
        return cls(
            tuple(tuple(level) for level in levels),
            dict(parent),
            frozenset((x, y) for x, y in order),
        )

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def parent_iter(self, x: str, k: int) -> str:
        """k-fold parent of x."""
        for _ in range(k):
            x = self.parent[x]
        return x

    def closed_order(self) -> frozenset[tuple[str, str]]:
        """Transitive closure of the stored relation (per level)."""
        return _transitive_closure(self.order)


def _transitive_closure(
    pairs: frozenset[tuple[str, str]]
) -> frozenset[tuple[str, str]]:
    succ: dict[str, set[str]] = {}
    for x, y in pairs:
        succ.setdefault(x, set()).add(y)
    closed: set[tuple[str, str]] = set()
    for x in succ:
        stack = list(succ[x])
        seen: set[str] = set()
        while stack:
            y = stack.pop()
            if y in seen:
                continue
            seen.add(y)
            closed.add((x, y))
            stack.extend(succ.get(y, ()))
    return frozenset(closed)


def validate_esequence(seq: ESequence) -> list[str]:
    """E-sequence axiom violations, empty when the sequence is lawful.

    Checked: trivial order on P0; comparable elements share a parent; each
    level order is irreflexive, antisymmetric, and transitive, each
    violation listed in sorted order (never in hash order).
    """
    violations: list[str] = []
    lv = seq.level_of
    pairs = sorted(seq.order)
    above: dict[str, list[str]] = {}  # x -> every y with x < y, sorted
    for x, y in pairs:
        above.setdefault(x, []).append(y)
        if lv[x] == 0:
            violations.append(f"order on level 0 must be trivial: {x!r} < {y!r}")
        elif seq.parent[x] != seq.parent[y]:
            violations.append(
                f"{x!r} < {y!r} but their parents differ "
                f"({seq.parent[x]!r} vs {seq.parent[y]!r})"
            )
    for x, y in pairs:
        if x == y:
            violations.append(f"order is not irreflexive: {x!r} < {x!r}")
        elif (y, x) in seq.order:
            if (x, y) < (y, x):  # report each bad pair once
                violations.append(f"order is not antisymmetric: {x!r} <> {y!r}")
    for x, y in pairs:
        for z in above.get(y, ()):
            if (x, z) not in seq.order and x != z:
                violations.append(
                    f"order is not transitive: {x!r} < {y!r} < {z!r} "
                    f"without {x!r} < {z!r}"
                )
    return violations


# -- evolutionary sequence of a phylogenetic quiver -------------------------


def class_label(quiver: Quiver, v: str) -> str:
    """Canonical label of the isotypy class of ``v``: its minimal member."""
    cond = condense(quiver)
    return cond.classes[cond.class_of(v)][0]


@memo
def evolutionary_sequence(quiver: Quiver) -> ESequence:
    """Isotypy classes graded by height, with parental maps and the induced
    per-level order.

    One walk over the class DAG, ancestors first. The parent of a height-m
    class is its one parent class at height m-1; in a phylogenetic quiver
    all height-dropping edges out of a class agree on it. The order on a
    level is ancestry between classes. Heights never rise along an edge of
    a monotonous quiver, so an ancestor class of equal height is reached
    along class edges of that height alone.
    """
    if not analysis.is_phylogenetic_quiver(quiver):
        raise InputError("evolutionary sequence requires a phylogenetic quiver")
    cond = condense(quiver)
    h = analysis.heights(quiver)
    label = [cls[0] for cls in cond.classes]
    class_height = [h[x] for x in label]
    levels: list[list[str]] = [[] for _ in range(max(class_height) + 1)]
    for x, m in zip(label, class_height):  # classes are sorted by label
        levels[m].append(x)
    parent: dict[str, str] = {}
    order: set[tuple[str, str]] = set()
    same: list[set[int]] = [set() for _ in label]  # equal-height ancestors
    for i in cond.order:
        m = class_height[i]
        if m:  # exactly one: two would be conflicting critical ancestors
            (p,) = (j for j in cond.parents[i] if class_height[j] == m - 1)
            parent[label[i]] = label[p]
        for j in cond.parents[i]:
            if class_height[j] == m:
                same[i].add(j)
                same[i].update(same[j])
        order.update((label[j], label[i]) for j in same[i])
    parent = dict(sorted(parent.items()))  # label order, like the levels
    return ESequence(tuple(map(tuple, levels)), parent, frozenset(order))


def realize_esequence(seq: ESequence) -> Quiver:
    """The phylogenetic quiver whose evolutionary sequence is ``seq``:
    one vertex per label, an edge a -> b for each in-level pair b < a, and
    an edge a -> p(a) for every non-root label."""
    violations = validate_esequence(seq)
    if violations:
        raise InputError("not an E-sequence: " + "; ".join(violations))
    edges: list[tuple[str, str]] = []
    for level in seq.levels[1:]:
        for a in level:
            edges.append((a, seq.parent[a]))
    for x, y in sorted(seq.order):  # x < y, so y descends from x
        edges.append((y, x))
    return Quiver.build(seq.labels(), edges)


# -- forests -----------------------------------------------------------------


@dataclass(frozen=True)
class Forest(_Leveled):
    """Parental graph of an E-sequence: one tree per root in P0."""

    levels: tuple[tuple[str, ...], ...]
    parent: Mapping[str, str]
    roots: tuple[str, ...]

    def chain(self, x: str) -> list[str]:
        """x, p(x), ..., up to a root."""
        out = [x]
        while out[-1] in self.parent:
            out.append(self.parent[out[-1]])
        return out


def build_forest(seq: ESequence) -> Forest:
    return Forest(seq.levels, dict(seq.parent), seq.levels[0])


def forest_distance(forest: Forest, a: str, b: str) -> int | None:
    """Path metric of the forest: k + l for the minimal k, l with
    p^k(a) = p^l(b); None when a and b sit in different trees."""
    lv = forest.level_of
    if a not in lv:
        raise InputError(f"unknown label {a!r}")
    if b not in lv:
        raise InputError(f"unknown label {b!r}")
    ca, cb = forest.chain(a), forest.chain(b)
    pos = {x: i for i, x in enumerate(cb)}
    best: int | None = None
    for k, x in enumerate(ca):
        if x in pos:
            best = k + pos[x]
            break  # chains merge once and stay merged
    return best


# -- terminal data and reconstruction ---------------------------------------


def _check_reconstruction_premises(seq: ESequence, n: int) -> None:
    violations = validate_esequence(seq)
    if violations:
        raise InputError("not an E-sequence: " + "; ".join(violations))
    if not 0 <= n <= seq.top:
        raise InputError(f"level {n} out of range 0..{seq.top}")
    if len(seq.levels[0]) != 1:
        raise InputError("reconstruction data needs card(P0) = 1")
    for m in range(1, n + 1):
        covered = {seq.parent[x] for x in seq.levels[m]}
        if covered != set(seq.levels[m - 1]):
            raise InputError(f"parental map into level {m - 1} is not surjective")


def _split_depth(seq: ESequence, a: str, b: str) -> int:
    """Minimal k >= 0 with p^k(a) = p^k(b); both arguments share a level."""
    k = 0
    while a != b:
        a, b = seq.parent[a], seq.parent[b]
        k += 1
    return k


def terminal_ultrametric(seq: ESequence, n: int) -> FiniteMetricSpace:
    """The ultrametric rho on level ``n``: rho(a, b) = minimal k with
    p^k(a) = p^k(b). Equals half the forest path distance."""
    _check_reconstruction_premises(seq, n)
    points = seq.levels[n]
    rows = tuple(
        tuple(Fraction(_split_depth(seq, a, b)) for b in points) for a in points
    )
    return FiniteMetricSpace(points, rows)


@dataclass(frozen=True)
class PrecRelation:
    """Binary relation on a point set; lawful instances are asymmetric."""

    pairs: frozenset[tuple[str, str]]

    @classmethod
    def build(cls, pairs: Iterable[tuple[str, str]]) -> "PrecRelation":
        return cls(frozenset((a, b) for a, b in pairs))

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs


def induce_prec(seq: ESequence, n: int) -> PrecRelation:
    """The relation on level ``n`` induced by the level orders: a prec b
    when a != b and p^(k-1)(a) < p^(k-1)(b) at the split depth k."""
    _check_reconstruction_premises(seq, n)
    order = seq.closed_order()
    pairs: set[tuple[str, str]] = set()
    for a in seq.levels[n]:
        for b in seq.levels[n]:
            if a == b:
                continue
            k = _split_depth(seq, a, b)
            if (seq.parent_iter(a, k - 1), seq.parent_iter(b, k - 1)) in order:
                pairs.add((a, b))
    return PrecRelation(frozenset(pairs))


def validate_prec(
    space: FiniteMetricSpace,
    prec: PrecRelation,
    n: int | None = None,
) -> list[str]:
    """Violations of the axioms characterizing induced relations on an
    ultrametric space: integer distances up to ``n``, asymmetry, and the
    three compatibility rules tying ``prec`` to the ball structure."""
    if not space.is_ultrametric:
        raise InputError("validate_prec needs an ultrametric space")
    points = set(space.points)
    for a, b in sorted(prec.pairs):
        if a not in points or b not in points:
            raise InputError(f"prec pair ({a!r}, {b!r}) references unknown points")
    violations: list[str] = []
    values = sorted({space.distance(a, b) for a in space.points for b in space.points})
    bound = max(values) if n is None else Fraction(n)
    for v in values:
        if v.denominator != 1 or v < 0 or v > bound:
            violations.append(f"distance value {v} outside 0..{bound}")
    for a, b in sorted(prec.pairs):
        if (b, a) in prec.pairs and (a, b) <= (b, a):
            violations.append(f"prec is not asymmetric on ({a!r}, {b!r})")
    rho = space.distance
    for a, b in sorted(prec.pairs):
        if a == b:
            continue
        for c in space.points:
            if c == a or c == b:
                continue
            if rho(a, c) < rho(a, b) and (c, b) not in prec.pairs:
                violations.append(
                    f"{a!r} prec {b!r} and rho({a!r},{c!r}) < rho({a!r},{b!r}) "
                    f"but not {c!r} prec {b!r}"
                )
            if rho(b, c) < rho(a, b) and (a, c) not in prec.pairs:
                violations.append(
                    f"{a!r} prec {b!r} and rho({b!r},{c!r}) < rho({a!r},{b!r}) "
                    f"but not {a!r} prec {c!r}"
                )
            if (
                (b, c) in prec.pairs
                and rho(a, b) == rho(a, c) == rho(b, c)
                and (a, c) not in prec.pairs
            ):
                violations.append(
                    f"{a!r} prec {b!r} prec {c!r} on an equilateral triple "
                    f"but not {a!r} prec {c!r}"
                )
    return violations


def reconstruct(
    space: FiniteMetricSpace, prec: PrecRelation, n: int
) -> ESequence:
    """Rebuild levels 0..n of an E-sequence from its terminal ultrametric
    and induced relation.

    Level s is the set of balls of radius n - s; parents are the containing
    balls one radius up; balls B < B' of radius r exactly when some a in B,
    b in B' satisfy a prec b at distance r + 1. Points keep their labels at
    level n; an internal ball is labeled "<level>:<minimal member>".
    """
    if not space.is_ultrametric:
        raise InputError("reconstruction needs an ultrametric space")
    if n < 0:
        raise InputError("n must be nonnegative")
    for a in space.points:
        for b in space.points:
            d = space.distance(a, b)
            if d.denominator != 1 or d > n:
                raise InputError(
                    f"distance rho({a!r},{b!r}) = {d} is not an integer in 0..{n}"
                )
    violations = validate_prec(space, prec, n)
    if violations:
        raise InputError("prec relation is not lawful: " + "; ".join(violations))

    blocks_by_level = [balls(space, Fraction(n - s)) for s in range(n + 1)]

    def label(s: int, block: tuple[str, ...]) -> str:
        return block[0] if s == n else f"{s}:{block[0]}"

    levels = tuple(
        tuple(label(s, blk) for blk in blocks_by_level[s]) for s in range(n + 1)
    )
    flat = [x for level in levels for x in level]
    if len(set(flat)) != len(flat):
        raise InputError("point labels collide with generated ball labels")

    parent: dict[str, str] = {}
    for s in range(1, n + 1):
        for blk in blocks_by_level[s]:
            containing = next(
                up for up in blocks_by_level[s - 1] if blk[0] in up
            )
            parent[label(s, blk)] = label(s - 1, containing)

    order: set[tuple[str, str]] = set()
    for s in range(1, n + 1):
        r = n - s
        for blk in blocks_by_level[s]:
            for other in blocks_by_level[s]:
                if blk == other:
                    continue
                if any(
                    (a, b) in prec.pairs and space.distance(a, b) == r + 1
                    for a in blk
                    for b in other
                ):
                    order.add((label(s, blk), label(s, other)))
    return ESequence(levels, parent, frozenset(order))


# -- isomorphism -------------------------------------------------------------


def esequence_isomorphic(first: ESequence, second: ESequence) -> bool:
    """Existence of level-wise bijections commuting with the parental maps
    and preserving the (transitively closed) level orders.

    Decided by backtracking over levels with color-refinement pruning;
    levels are small in every intended use.
    """
    if len(first.levels) != len(second.levels):
        return False
    if any(len(a) != len(b) for a, b in zip(first.levels, second.levels)):
        return False
    o1, o2 = first.closed_order(), second.closed_order()
    c1 = _refined_colors(first, o1)
    c2 = _refined_colors(second, o2)
    for lev_a, lev_b in zip(first.levels, second.levels):
        if sorted(c1[x] for x in lev_a) != sorted(c2[y] for y in lev_b):
            return False

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def fits(level: int, i: int, y: str) -> bool:
        xs = first.levels[level]
        x = xs[i]
        if y in used or c1[x] != c2[y]:
            return False
        if level > 0 and mapping[first.parent[x]] != second.parent[y]:
            return False
        for z in xs[:i]:
            fz = mapping[z]
            if ((x, z) in o1) != ((y, fz) in o2) or ((z, x) in o1) != ((fz, y) in o2):
                return False
        return True

    # Backtracking over the labels of first, level by level, with an
    # explicit stack: slot p holds the index of its next candidate in
    # nexts[p], so deep sequences need no recursion.
    slots = [(level, i) for level, xs in enumerate(first.levels)
             for i in range(len(xs))]
    nexts = [0] * len(slots)
    p = 0
    while p < len(slots):
        if p < 0:
            return False
        level, i = slots[p]
        x = first.levels[level][i]
        if x in mapping:
            used.discard(mapping.pop(x))
        ys = second.levels[level]
        k = nexts[p]
        while k < len(ys) and not fits(level, i, ys[k]):
            k += 1
        if k == len(ys):
            nexts[p] = 0
            p -= 1
            continue
        mapping[x] = ys[k]
        used.add(ys[k])
        nexts[p] = k + 1
        p += 1
    return True


def _refined_colors(
    seq: ESequence, closed: frozenset[tuple[str, str]]
) -> dict[str, int]:
    lv = seq.level_of
    succ: dict[str, list[str]] = {x: [] for x in lv}
    pred: dict[str, list[str]] = {x: [] for x in lv}
    for x, y in closed:
        succ[x].append(y)
        pred[y].append(x)
    kids: dict[str, list[str]] = {x: [] for x in lv}
    for x, p in seq.parent.items():
        kids[p].append(x)
    colors = {x: hash((lv[x], len(succ[x]), len(pred[x]), len(kids[x]))) for x in lv}
    for _ in range(len(colors)):
        nxt = {}
        for x in colors:
            nxt[x] = hash((
                colors[x],
                colors[seq.parent[x]] if x in seq.parent else None,
                tuple(sorted(colors[c] for c in kids[x])),
                tuple(sorted(colors[s] for s in succ[x])),
                tuple(sorted(colors[p] for p in pred[x])),
            ))
        if len(set(nxt.values())) == len(set(colors.values())):
            colors = nxt
            break
        colors = nxt
    return colors
