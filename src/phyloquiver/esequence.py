"""Evolutionary sequences, E-sequences, forests, and reconstruction.

An E-sequence is a stack of finite labeled levels P0..PT with parental
maps p: Pm -> P(m-1) and a strict partial order on each level, subject to
two axioms: the order on P0 is trivial, and comparable elements share a
parent. The evolutionary sequence of a phylogenetic quiver (isotypy
classes graded by height, parents read off universal evolutions, order
induced by ancestry) is one, and every E-sequence is realized by a
phylogenetic quiver. Its parental graph is the evolutionary forest, one
tree per root in P0, so an ESequence is its own forest: it answers
``roots``, ``children`` and ``chain``, and `build_forest` returns it.

Terminal data rest on one correspondence (hierarchies are ultrametrics,
Johnson 1967): with one root and surjective parents, a label of level m
names the ball of radius n - m of the split-depth ultrametric rho on P_n,
the labels of P_n below it. `terminal_ultrametric` writes n + 1 - m below
each pair of distinct siblings of level m and `induce_prec` relates the
points below each ordered pair; `reconstruct` names every point's ball at
every radius and reads parents and orders back off those names; and
`validate_prec` tests its three ball rules on those balls as bitsets, in
one pass over the relation whether it is lawful or not. Both validators
word each failing pair once per rule or axiom, naming its least witness
and counting the rest, so a refusal grows with the relation, not with its
triples. Labels are globally unique across levels, which keeps parental
maps flat in serialized form.

Level orders are closed as sets, not pairs: `_above` hands each label in
some pair the set of labels above it, from one search per label that takes
each finished label's set whole. The evolutionary sequence stores those
sets as pairs; isomorphism reads them, and their inverse, as each label's
sides. It compares bottom-up canonical codes of sibling groups (AHU), each
the sorted codes of its connected parts, under a budget of adjacency entries
per part; an order pair across sibling groups breaks the second axiom and is
an InputError there. A sibling in no order pair is a part of its own and
enters with no search.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, groupby, permutations, product
from math import factorial, prod
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import Frozen, InputError, SizeGuardError
from .quiver import Quiver, condense, memo

if TYPE_CHECKING:
    from .metric import FiniteMetricSpace


class ESequence(Frozen):
    """Graded labeled sets with parental maps and per-level strict orders.

    ``order`` holds pairs (x, y) meaning x < y; pairs must stay inside one
    level. The constructor stores its iterables as tuples, a dict and a
    frozenset of pairs, and checks only structure (label uniqueness, total
    parents into the previous level, in-level pairs); the E-sequence axioms
    themselves are the business of :func:`validate_esequence`, which treats
    breaches as data. The label -> level table its uniqueness check fills
    is kept as ``level_of``; a sequence the library builds with
    :meth:`_trusted` makes it on first read.
    """

    _fields = ("levels", "parent", "order")

    def __init__(self, levels: Iterable[Iterable[str]], parent: Mapping[str, str],
                 order: Iterable[tuple[str, str]] = ()) -> None:
        levels, parent = tuple(map(tuple, levels)), dict(parent)
        order = list(map(tuple, order))
        if not levels:
            raise InputError("an E-sequence needs at least one level")
        lv: dict[str, int] = {}
        for m, level in enumerate(levels):
            if not level:
                raise InputError(f"level {m} is empty")
            for x in level:
                if x in lv:
                    raise InputError(f"duplicate label {x!r}")
                lv[x] = m
        # distinct keys, each of level 1 or more, as many as those labels
        if len(parent) != len(lv) - len(levels[0]) or not all(map(lv.get, parent)):
            raise InputError("parent map must cover levels 1.. exactly")
        for x, y in parent.items():
            if lv.get(y) != lv[x] - 1:
                raise InputError(f"parent of {x!r} must sit one level below")
        for x, y in order:
            if x not in lv or y not in lv:
                raise InputError(f"order pair ({x!r}, {y!r}) references unknown labels")
            if lv[x] != lv[y]:
                raise InputError(f"order pair ({x!r}, {y!r}) crosses levels")
        self.__dict__.update(levels=levels, parent=parent, order=frozenset(order), level_of=lv)

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    @property
    def roots(self) -> tuple[str, ...]:
        return self.levels[0]

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

    def chain(self, x: str) -> list[str]:
        """x, p(x), ..., up to a root."""
        out = [x]
        while out[-1] in self.parent:
            out.append(self.parent[out[-1]])
        return out


def _above(pairs: Iterable[tuple[str, str]]) -> dict[str, frozenset[str]]:
    """The transitive closure of ``pairs``, as the set of labels above each
    label in some pair: y is above x when a path of pairs leads from x to y.

    Labels are searched in order of out-degree, and a search takes the set
    of each finished label whole (Purdom 1970; Nuutila 1995). A finished set
    is complete, so a label on a cycle, or in a self-pair, comes out above
    itself. A search pops the successor of largest out-degree first. On a
    closed order that is a minimal successor, whose set holds every
    successor above it, so a closed total order costs about its own pairs.
    """
    succ: dict[str, list[str]] = {}
    for x, y in pairs:
        succ.setdefault(x, []).append(y)
        succ.setdefault(y, [])
    above: dict[str, frozenset[str]] = {}
    for x in sorted(succ, key=lambda x: len(succ[x])):  # ties keep insertion order
        seen, stack = set(), sorted(succ[x], key=lambda y: len(succ[y]))
        while stack:
            y = stack.pop()
            if y not in seen:
                seen.add(y)
                if y in above:
                    seen |= above[y]
                else:
                    stack.extend(succ[y])
        above[x] = frozenset(seen)
    return above


def validate_esequence(seq: ESequence) -> list[str]:
    """E-sequence axiom violations, empty when the sequence is lawful.

    Checked: trivial order on P0; comparable elements share a parent; each
    level order is irreflexive, antisymmetric, and transitive. One pass over
    the order pairs, grouped by lower label, keeps only the failing ones, and
    each check's failures are sorted on output (never left in hash order).
    Each order pair is worded at most once per check, so there are at most
    3 * |order| messages. A pair that breaks transitivity names its least
    missing successor and counts them all.
    """
    lv, parent = seq.level_of, seq.parent
    succ: dict[str, list[str]] = {}
    for x, y in seq.order:
        succ.setdefault(x, []).append(y)
    # Successor bitsets, a successor's bit its rank in label order among the
    # successors on its level: x < y is transitive when every successor of
    # y, x itself aside, is a successor of x, and the lowest bit missing is
    # the least label missing; y < x too when x's bit is among y's.
    ranked: dict[int, list[str]] = {}
    bit: dict[str, int] = {}
    for y in sorted({y for ys in succ.values() for y in ys}):
        rank = ranked.setdefault(lv[y], [])
        bit[y] = 1 << len(rank)
        rank.append(y)
    up = {x: sum(bit[y] for y in ys) for x, ys in succ.items()}  # pairs are distinct
    failed: list[tuple[int, str, str, str]] = []  # (check, x, y, message)
    for x, ys in succ.items():
        bx = bit.get(x, 0)
        ux = up[x] | bx
        for y in ys:
            if lv[x] == 0:
                failed.append((0, x, y, f"order on level 0 must be trivial: {x!r} < {y!r}"))
            elif parent[x] != parent[y]:
                failed.append((0, x, y, f"{x!r} < {y!r} but their parents differ "
                                        f"({parent[x]!r} vs {parent[y]!r})"))
            uy = up.get(y, 0)
            if x == y:
                failed.append((1, x, y, f"order is not irreflexive: {x!r} < {x!r}"))
            elif uy & bx and x < y:  # report each bad pair once
                failed.append((1, x, y, f"order is not antisymmetric: {x!r} <> {y!r}"))
            missing = uy & ~ux
            if missing:
                z = ranked[lv[x]][(missing & -missing).bit_length() - 1]
                failed.append((2, x, y, f"order is not transitive: {x!r} < {y!r} < {z!r} "
                                        f"without {x!r} < {z!r} (witness 1 of "
                                        f"{missing.bit_count()})"))
    return [m for *_, m in sorted(failed)]  # a pair fails each check at most once


# -- evolutionary sequence of a phylogenetic quiver -------------------------


@memo
def evolutionary_sequence(quiver: Quiver) -> ESequence:
    """Isotypy classes graded by height, with parental maps and the induced
    per-level order.

    Parents come from the pass that decides the quiver phylogenetic. The
    order on a level is ancestry between classes: the closure of the edges
    into parent classes other than a class's own parent, which all keep
    its height, as does every path between two classes of one height.
    """
    from . import analysis

    up = analysis._normality(quiver)[2]
    if up is None:
        raise InputError("evolutionary sequence requires a phylogenetic quiver")
    cond, h = condense(quiver), analysis._height_table(quiver)
    label = [cls[0] for cls in cond.classes]
    levels: list[list[str]] = [[] for _ in range(max(h.values()) + 1)]
    for x in label:  # classes are sorted by label
        levels[h[x]].append(x)
    parent = {label[i]: label[p] for i, p in enumerate(up) if p is not None}
    above = _above((label[j], label[i]) for i, js in enumerate(cond.parents)
                   for j in js if j != up[i])
    order = frozenset((x, y) for x, ys in above.items() for y in ys)
    return ESequence._trusted(levels=tuple(map(tuple, levels)), parent=parent, order=order)


def _require_esequence(seq: ESequence) -> None:
    """Raise one InputError listing the axiom violations of ``seq``, if any."""
    violations = validate_esequence(seq)
    if violations:
        raise InputError("not an E-sequence: " + "; ".join(violations))


def realize_esequence(seq: ESequence) -> Quiver:
    """The phylogenetic quiver whose evolutionary sequence is ``seq``:
    one vertex per label, an edge a -> b for each in-level pair b < a, and
    an edge a -> p(a) for every non-root label."""
    _require_esequence(seq)
    edges = [(a, seq.parent[a]) for level in seq.levels[1:] for a in level]
    edges += [(y, x) for x, y in sorted(seq.order)]  # x < y: y descends from x
    return Quiver._trusted(vertices=tuple(seq.labels()), edges=tuple(edges))


# -- forests -----------------------------------------------------------------


def build_forest(seq: ESequence) -> ESequence:
    """The evolutionary forest of ``seq``: its parental graph, one tree per
    root in P0. That is ``seq`` itself, since the forest readers use only
    its levels, parents, roots and children."""
    return seq


def forest_distance(forest: ESequence, a: str, b: str) -> int | None:
    """Path metric of the forest: k + l for the minimal k, l with
    p^k(a) = p^l(b); None when a and b sit in different trees."""
    for x in (a, b):
        if x not in forest.level_of:
            raise InputError(f"unknown label {x!r}")
    pos = {x: i for i, x in enumerate(forest.chain(b))}
    # The chains merge once and stay merged: the first common label is it.
    return next((k + pos[x] for k, x in enumerate(forest.chain(a)) if x in pos), None)


# -- terminal data and reconstruction ---------------------------------------


@memo
def _below(seq: ESequence, n: int) -> dict[str, list[int]]:
    """Positions in level ``n`` below each label of levels 0..n, in one pass
    up the parent map, once the terminal-data premises hold: a lawful
    E-sequence, ``n`` in range, one root, and surjective parents, which
    leave no label without a position. Stored on ``seq``, so a round trip
    through :func:`terminal_ultrametric` and :func:`induce_prec` checks the
    premises once; a refusal stores nothing, and both callers only read."""
    _require_esequence(seq)
    if not 0 <= n <= seq.top:
        raise InputError(f"level {n} out of range 0..{seq.top}")
    if len(seq.levels[0]) != 1:
        raise InputError("reconstruction data needs card(P0) = 1")
    for m in range(1, n + 1):
        covered = {seq.parent[x] for x in seq.levels[m]}
        if covered != set(seq.levels[m - 1]):
            raise InputError(f"parental map into level {m - 1} is not surjective")
    below = {x: [i] for i, x in enumerate(seq.levels[n])}
    for level in reversed(seq.levels[1:n + 1]):
        for x in level:
            below.setdefault(seq.parent[x], []).extend(below[x])
    return below


def terminal_ultrametric(seq: ESequence, n: int) -> FiniteMetricSpace:
    """The ultrametric rho on level ``n``: rho(a, b) = minimal k with
    p^k(a) = p^k(b). Equals half the forest path distance. Distinct
    siblings x, y of level m split the pairs below them at k = n + 1 - m,
    and each pair lies below exactly one such x, y, so each entry is
    written once, in half units, the reduced unit of integer depths. It is
    an ultrametric by construction and is not checked again: with one root
    every pair meets, and at k = max(rho(a, c), rho(b, c)) both a and b
    meet c, so p^k(a) = p^k(b)."""
    from .metric import FiniteMetricSpace

    below, points = _below(seq, n), seq.levels[n]
    depths = [[0] * len(points) for _ in points]
    for m in range(1, n + 1):
        for p in seq.levels[m - 1]:
            for x, y in permutations(seq.children(p), 2):
                for i, j in product(below[x], below[y]):
                    depths[i][j] = 2 * (n + 1 - m)
    return FiniteMetricSpace._from_ints(points, 2, depths, True)


class PrecRelation(Frozen):
    """Binary relation on a point set; lawful instances are asymmetric."""

    _fields = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[str, str]]) -> None:
        self.__dict__.update(pairs=frozenset((a, b) for a, b in pairs))



def induce_prec(seq: ESequence, n: int) -> PrecRelation:
    """The relation on level ``n`` induced by the level orders: a prec b
    when a != b and p^(k-1)(a) < p^(k-1)(b) at the split depth k. Comparable
    labels share a parent, so that is: a below x and b below y for some
    x < y of the order at a level up to ``n``. The premises check has
    found that order transitive, so it is its own closure."""
    below, points, lv = _below(seq, n), seq.levels[n], seq.level_of
    return PrecRelation._trusted(pairs=frozenset(
        (points[i], points[j])
        for x, y in seq.order if lv[x] <= n
        for i in below[x] for j in below[y]
    ))


def validate_prec(
    space: FiniteMetricSpace,
    prec: PrecRelation,
    n: int | None = None,
) -> list[str]:
    """Violations of the axioms characterizing induced relations on an
    ultrametric space: integer distances up to ``n``, asymmetry, and three
    rules tying ``prec`` to the balls, for a prec b and every third point c:
    (1) rho(a, c) < rho(a, b) gives c prec b; (2) rho(b, c) < rho(a, b)
    gives a prec c; (3) b prec c on an equilateral triple gives a prec c.

    The relation is lawful exactly when the list is empty. The rules are
    read off bitsets (`_rule_violations`): one pass over ``prec`` and cuts
    of the ball table, with no scan over every third point. Each bad
    distance value and each symmetric pair is worded once, and each pair of
    ``prec`` once per rule it breaks, with its least third point and the
    number of them, in sorted pair order.
    """
    from fractions import Fraction

    if not space.is_ultrametric:
        raise InputError("validate_prec needs an ultrametric space")
    if n is not None and n < 0:
        raise InputError("n must be nonnegative")
    pairs, index = prec.pairs, space._index
    if not set(chain.from_iterable(pairs)) <= index.keys():
        a, b = min((a, b) for a, b in pairs if a not in index or b not in index)
        raise InputError(f"prec pair ({a!r}, {b!r}) references unknown points")
    violations: list[str] = []
    scale = space._scaled[0]
    values = space._values  # in units of 1/scale
    top = values[-1] if n is None else n * scale
    for v in values:
        if v % scale or v < 0 or v > top:
            violations.append(f"distance value {Fraction(v, scale)} "
                              f"outside 0..{Fraction(top, scale)}")
    for a, b in sorted((a, b) for a, b in pairs if a <= b and (b, a) in pairs):
        violations.append(f"prec is not asymmetric on ({a!r}, {b!r})")
    return violations + _rule_violations(space, pairs)


# The wording of each ball rule of `validate_prec`, for a prec b and a
# third point c that breaks it.
_RULES = (
    "{a!r} prec {b!r} and rho({a!r},{c!r}) < rho({a!r},{b!r}) "
    "but not {c!r} prec {b!r}",
    "{a!r} prec {b!r} and rho({b!r},{c!r}) < rho({a!r},{b!r}) "
    "but not {a!r} prec {c!r}",
    "{a!r} prec {b!r} prec {c!r} on an equilateral triple "
    "but not {a!r} prec {c!r}",
)


def _rule_violations(
    space: FiniteMetricSpace, pairs: frozenset[tuple[str, str]]
) -> list[str]:
    """The breaches of the three rules of `validate_prec`, on bitsets over
    point positions. For a != b at distance d, let A and B be their balls
    of the next smaller value and D their common ball of radius d. A third
    point c breaks rule 1 in A outside pred(b), rule 2 in B outside
    succ(a), and rule 3 in D outside A, B and succ(a) but in succ(b): the
    points of D outside A and B lie at d from both. Each breaking pair, in
    sorted order, words each rule it breaks once, naming the rule's least
    point c and counting its points; the three sets are disjoint, and the
    rules follow their least points. So there are at most 3 * |prec|
    messages. Pairs are taken by distance, one cut of the ball table per
    value, so two cuts are held at a time."""
    index, pts, ints = space._index, space.points, space._scaled[1]
    succ, pred = [0] * len(pts), [0] * len(pts)
    at: dict[int, list[tuple[str, str, int, int]]] = {}  # pairs by distance
    for a, b in pairs:
        if a != b:
            i, j = index[a], index[b]
            succ[i] |= 1 << j
            pred[j] |= 1 << i
            at.setdefault(ints[i][j], []).append((a, b, i, j))
    broken = []
    outer = _ball_bits(space, space._values[0])
    for d in space._values[1:]:
        inner, outer = outer, _ball_bits(space, d)
        for a, b, i, j in at.get(d, ()):
            A, B, after_a = inner[i], inner[j], succ[i]
            one, two = A & ~pred[j], B & ~after_a
            three = outer[i] & succ[j] & ~(A | B | after_a)
            if one or two or three:
                broken.append((a, b, (one, two, three)))
    violations: list[str] = []
    for a, b, rules in sorted(broken):
        for least, rule, count in sorted(
            (s & -s, rule, s.bit_count()) for rule, s in enumerate(rules) if s
        ):
            c = pts[least.bit_length() - 1]
            violations.append(_RULES[rule].format(a=a, b=b, c=c)
                              + f" (witness 1 of {count})")
    return violations


def _ball_bits(space: FiniteMetricSpace, limit: int) -> list[int]:
    """The closed ball of radius limit / scale around each point of an
    ultrametric, as a bitset over point positions: one cut of the table."""
    owner = space._cut(limit)
    bits = dict.fromkeys(owner, 0)
    for x, ball in enumerate(owner):
        bits[ball] |= 1 << x
    return [bits[ball] for ball in owner]


# Labels one reconstruction may build, bounded by one per point and level, so
# a tiny space with a huge distance or ``n`` is refused before any level.
_MAX_LABELS = 1_000_000


def reconstruct(
    space: FiniteMetricSpace, prec: PrecRelation, n: int
) -> ESequence:
    """Rebuild levels 0..n of an E-sequence from its terminal ultrametric
    and induced relation.

    Level s is the set of balls of radius n - s, each a cut of the ball
    table; parents are the containing balls one radius up; balls B < B' of
    radius r exactly when some a in B, b in B' satisfy a prec b at distance
    r + 1. Points keep their labels at level n; an internal ball is labeled
    "<level>:<minimal member>". Raises SizeGuardError when the bound
    (n + 1) * |points| on the labels exceeds ``_MAX_LABELS``.
    """
    if not space.is_ultrametric:
        raise InputError("reconstruction needs an ultrametric space")
    if n < 0:
        raise InputError("n must be nonnegative")
    scale, ints = space._scaled
    pts = space.points
    bad = {v for v in space._values if v % scale or v > n * scale}
    if bad:  # name the first offending pair in row order
        from fractions import Fraction

        a, b, v = next((a, b, v) for a, row in zip(pts, ints)
                       for b, v in zip(pts, row) if v in bad)
        raise InputError(
            f"distance rho({a!r},{b!r}) = {Fraction(v, scale)} "
            f"is not an integer in 0..{n}"
        )
    violations = validate_prec(space, prec, n)
    if violations:
        raise InputError("prec relation is not lawful: " + "; ".join(violations))
    if (n + 1) * len(pts) > _MAX_LABELS:
        raise SizeGuardError(f"{(n + 1) * len(pts)} labels ({n + 1} levels of {len(pts)} "
                             f"points) exceed the budget of {_MAX_LABELS}")

    by_label = sorted(range(len(pts)), key=pts.__getitem__)
    levels: list[tuple[str, ...]] = []
    parent: dict[str, str] = {}
    owner = []  # owner[s][x]: the label of point x's ball at level s
    for s in range(n + 1):
        ball = space._cut((n - s) * scale)
        head: dict[int, int] = {}  # each ball's least point, in label order
        for x in by_label:
            head.setdefault(ball[x], x)
        name = {b: pts[x] if s == n else f"{s}:{pts[x]}" for b, x in head.items()}
        levels.append(tuple(name.values()))
        if s:  # a ball's parent is the next larger ball of its least point
            parent.update((name[b], owner[-1][x]) for b, x in head.items())
        owner.append([name[b] for b in ball])
    flat = [x for level in levels for x in level]
    if len(set(flat)) != len(flat):
        raise InputError("point labels collide with generated ball labels")
    index = space._index
    order: set[tuple[str, str]] = set()
    for a, b in prec.pairs:  # rho(a, b) = k: distinct balls at level n + 1 - k
        i, j = index[a], index[b]
        s = n + 1 - ints[i][j] // scale
        order.add((owner[s][i], owner[s][j]))
    return ESequence._trusted(levels=tuple(levels), parent=parent, order=frozenset(order))


# -- isomorphism -------------------------------------------------------------

# Adjacency entries one connected part of a sibling group may compare: each
# ordering of its movable classes reads their number squared, so a crown of 4
# minimal and 4 maximal siblings (4!^2 orderings of 64 entries) is answered
# and a crown of 5 (5!^2 of 100) refused.
_MAX_ENTRIES = 100_000


def esequence_isomorphic(first: ESequence, second: ESequence) -> bool:
    """Existence of level-wise bijections commuting with the parental maps
    and preserving the (transitively closed) level orders.

    By the second axiom an E-sequence is a rooted forest whose every node
    carries a relation on its children, so this compares bottom-up
    canonical codes (as in AHU tree isomorphism) of the two root groups,
    interned in one table. Raises SizeGuardError when a connected part of a
    sibling group would compare more than ``_MAX_ENTRIES`` adjacency entries
    over its orderings, and InputError when a closed order pair joins labels
    with different parents.
    """
    if [len(a) for a in first.levels] != [len(b) for b in second.levels]:
        return False
    codes: dict[tuple[int, ...], int] = {}
    return _root_code(first, codes) == _root_code(second, codes)


def _root_code(seq: ESequence, codes: dict[tuple[int, ...], int]) -> int:
    """One pass, children first: a label in no order pair hands its parent
    its part code (a part of its own, with no search), any other its code,
    to be joined into connected parts (x ~ y when x < y or y < x). A group's
    code interns the sorted codes of its parts; the roots hand up to None.
    Each label's sides, the labels below and above it in the closed order,
    are the sets of `_above` and their inverse; no set of pairs is built."""
    parent, above = seq.parent, _above(seq.order)
    crossing = [(x, y) for x, ys in above.items() for y in ys
                if parent.get(x) != parent.get(y)]
    if crossing:  # name the least pair, not the first in hash order
        x, y = min(crossing)
        raise InputError(f"not an E-sequence: {x!r} < {y!r} across sibling groups")
    below: dict[str, set[str]] = {x: set() for x in above}  # the labels in some pair
    for x, ys in above.items():
        for y in ys:
            below[y].add(x)
    sides = {x: (frozenset(below[x]), above[x]) for x in above}  # (below x, above x)
    handed: dict[str | None, list[int]] = {}  # per parent, its unordered children's parts
    ordered: dict[str | None, dict[str, int]] = {}  # per parent, its other children's codes

    def join(p: str | None) -> None:  # p's ordered children, as parts handed to p
        code = ordered.pop(p)
        parts, left = handed.setdefault(p, []), set(code)
        for x in sorted(left):  # parts in order of their least labels, never hash order
            if x not in left:
                continue
            left.remove(x)
            found = [x]
            for y in found:
                new = (sides[y][0] | sides[y][1]) & left
                left -= new
                found.extend(new)
            parts.append(codes.setdefault(_part_form(found, code, sides), len(codes)))

    leaf = codes.setdefault((), len(codes))
    for x in reversed(seq.labels()):
        if x in ordered:
            join(x)
        parts = handed.pop(x, None)
        c = codes.setdefault(tuple(sorted(parts)), len(codes)) if parts else leaf
        if x in sides:
            ordered.setdefault(parent.get(x), {})[x] = c
        else:
            part = codes.setdefault((c, False), len(codes))
            handed.setdefault(parent.get(x), []).append(part)
    if None in ordered:
        join(None)
    return codes.setdefault(tuple(sorted(handed[None])), len(codes))


def _part_form(part: list[str], code: dict[str, int],
               sides: dict[str, tuple[frozenset[str], frozenset[str]]]) -> tuple[int, ...]:
    """Canonical form of one connected part's relation, coloured by codes.

    Twins (same code and closed below- and above-set) are interchangeable,
    so each twin class enters once, keyed (code, multiplicity, #below,
    #above). A class of unique key is fixed; every class's key gains its
    successors and predecessors among the fixed classes, as bitmasks. The
    form is the number of classes, their sorted keys, and the least
    adjacency tuple among the movable classes over the orderings that
    permute classes of equal key; with every class fixed that is the one
    empty ordering, which adds nothing.
    """
    twins: dict[tuple, list[str]] = {}
    for x in part:
        twins.setdefault((code[x], *sides[x]), []).append(x)
    keys = sorted([((c, len(xs), len(lo), len(up)), xs[0])
                   for (c, lo, up), xs in twins.items()])
    runs = [[x for _, x in run] for _, run in groupby(keys, key=lambda kx: kx[0])]
    bit = {run[0]: 1 << i for i, run in enumerate(runs) if len(run) == 1}
    keys = sorted([((*key, *(sum(bit.get(y, 0) for y in side) for side in sides[x])), x)
                   for key, x in keys])
    form = (len(keys), *(k for key, _ in keys for k in key))
    blocks = [[x for _, x in run] for _, run in groupby(
        [kx for kx in keys if kx[1] not in bit], key=lambda kx: kx[0])]
    count = prod(map(factorial, map(len, blocks))) * sum(map(len, blocks)) ** 2
    if count > _MAX_ENTRIES:
        raise SizeGuardError(f"{count} adjacency entries to compare in a sibling "
                             f"group exceed the budget of {_MAX_ENTRIES}")
    orders = (list(chain.from_iterable(c)) for c in product(*map(permutations, blocks)))
    least = min(tuple(b in sides[a][1] for a in order for b in order) for order in orders)
    return form + least
