"""Finite metric and ultrametric spaces over exact rationals.

Everything here is exact: distances are ``fractions.Fraction`` values and
the quotient constructions hinge on exact zero detection, so floats are
rejected at the door. Two towers are provided. For an ultrametric space,
one step subtracts the minimal positive distance from every other distance
and collapses the pairs that hit zero; iterating lands on a single point
after exactly as many steps as there are distinct nonzero distances. For a
general metric space, one step subtracts the per-point slack underline_d
(half the worst triangle deficit at each point) from every pair distance
and collapses; iterating lands on a trim space, one in which every point
lies metrically between two others. A contraction step is the drift step
of a constant half-deficit, so one collapse serves both towers.

Fractions appear only at the API edge. A space stores one matrix: its
integer rows scaled by 2 * lcm of its denominators, the reduced pair
(scale, rows), with each distinct input entry coerced to a Fraction once.
The Fraction rows and the sorted distinct entries are views built on
first use. The axiom checks, underline_d, trimness, the quotient steps,
balls and isometry run on the int rows. Scaling by a positive integer
keeps order, sums and zeros, so results stay exact; the factor 2 makes
every half-deficit an integer. The reduced pair is a function of the
rational matrix, so spaces compare and hash on it. The isometry search
counts the row entries it compares and raises SizeGuardError past a fixed
budget of them, whatever the number of points.

One ball table, sorted from the int rows, serves every ultrametric job:
on an ultrametric each closed ball is a run of its order and each
distance the largest step between its points. The ultrametric test checks
that; `balls` at any radius, and the levels and prec rules of a
reconstructed E-sequence, are linear cuts of the table an ultrametric keeps.

Only input is validated. A space the library derives is built straight
from its int rows, each taking its own reduced scale, and rests on a law
instead of a fresh cubic check: the contraction quotient of an ultrametric
is an ultrametric, the drift quotient of a metric is a metric (its strong
triangle inequality is read off its rows), and the split depths of an
E-sequence with one root form an ultrametric. So do the split levels of a
random hierarchy (gen_random_ultrametric), and distances drawn from
[12, 24] over one denominator (gen_random_metric) form a metric, as
24 <= 12 + 12. Two more laws spare the cubic half-deficits: on an
ultrametric, the least deficit at x is its distance m to its nearest
point, or 2m minus the widest distance among the others when all of them
lie at m, read off one sort of each row; and a drift step that collapses
no pair has a trim image, so it ends the drift tower with no check.

The cubic scans that remain take exact filters, which change no answer or
message. The triangle check passes a pair (i, j) unscanned when d(i, j) <=
m_i + m_j, m_i the least off-diagonal entry of row i, and neither diagonal
entry is negative: no third point can then undercut d(i, j). The deficit
scan at x skips each y whose terms are bounded below by the best so far,
and stops at 0, the floor of a metric's deficits. The worst case stays
cubic: a cycle's triangle check scans most pairs, and tree leaves, whose
deficits are all positive, skip few.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, filterfalse
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import Frozen, InputError, SizeGuardError, limit_reason


def to_fraction(value) -> Fraction:
    """Exact coercion: Fraction, int, or a string ('3/4', '0.25').

    Floats and scientific notation are refused; they have no place in a
    computation that must distinguish zero exactly. Digit-grouping
    underscores are refused too, since only some Python versions read them.
    A refused string longer than 32 characters is shown by its first 32
    and its length.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        token = value.strip()
        if "e" in token.lower():
            raise InputError(f"scientific notation rejected: {_shown(value)}")
        if "_" in token:
            raise InputError(f"digit separator '_' rejected: {_shown(value)}")
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            reason = limit_reason(exc) or "not a rational number"
            raise InputError(f"{reason}: {_shown(value)}") from exc
    if isinstance(value, float):
        raise InputError(
            f"float {value!r} rejected: pass an exact rational or a decimal string"
        )
    raise InputError(f"cannot interpret {value!r} as a rational number")


def _shown(cell: str) -> str:
    if len(cell) <= 32:
        return repr(cell)
    return f"{cell[:32]!r}... ({len(cell)} characters)"


# A matrix as exact integer rows: (scale, rows) with rows[i][j] = d(i, j) * scale.
_Scaled = tuple[int, tuple[tuple[int, ...], ...]]


def _scaled(matrix: Iterable[Iterable]) -> _Scaled:
    """Coerce a matrix to Fractions and scale it by 2 * lcm of their
    denominators. Every entry becomes an even integer, so each half-deficit
    of underline_d is an integer too; order, sums and zero tests are those
    of the rationals. Each distinct entry object, one per cell text in a
    parsed matrix, is coerced and scaled once, in row-major order, so the
    first bad cell is named. Objects are keyed by identity: hashing a
    Fraction costs more than scaling it."""
    matrix = tuple(map(tuple, matrix))  # read twice, and held so no id is reused
    distinct = {id(v): v for row in matrix for v in row}
    exact = {key: to_fraction(v) for key, v in distinct.items()}
    scale = 2 * lcm(*{v.denominator for v in exact.values()})
    value = {k: v.numerator * (scale // v.denominator) for k, v in exact.items()}
    return scale, tuple(
        tuple(map(value.__getitem__, map(id, row))) for row in matrix
    )


class SpaceCheck(Frozen):
    """Two bools, is_metric and is_ultrametric, and a tuple of problem texts."""

    _fields = ("is_metric", "is_ultrametric", "problems")


def validate_space(points: Sequence[str], rows: Sequence[Sequence]) -> SpaceCheck:
    """Check a labeled distance matrix against the metric and ultrametric
    axioms. Shape and symmetry defects raise; axiom failures are returned
    as flags with a problem list, and the matrix is a metric exactly when
    that list is empty."""
    return _check(tuple(points), rows)[0]


def _check(
    labels: tuple[str, ...], rows: Sequence[Sequence]
) -> tuple[SpaceCheck, _Scaled]:
    """validate_space, also handing back the scaled int rows."""
    if not labels:
        raise InputError("a metric space needs at least one point")
    if len(set(labels)) != len(labels):
        raise InputError("duplicate point labels")
    n = len(labels)
    scaled = _scaled(rows)
    ints = scaled[1]
    if len(ints) != n or any(len(row) != n for row in ints):
        raise InputError(f"distance matrix must be {n}x{n}")
    for i in range(n):
        for j in range(i + 1, n):
            if ints[i][j] != ints[j][i]:
                raise InputError(
                    f"matrix is not symmetric at ({labels[i]!r}, {labels[j]!r})"
                )
    # The strong triangle inequality implies the plain one, so the cubic
    # triangle check runs only on matrices that are not ultrametrics.
    problems = _positivity(labels, ints)
    ultra = not problems and _is_ultrametric(ints)
    if not ultra:
        problems += _triangles(labels, ints)
    return SpaceCheck._trusted(is_metric=not problems, is_ultrametric=ultra,
                               problems=tuple(problems)), scaled


def _positivity(
    labels: tuple[str, ...], ints: tuple[tuple[int, ...], ...]
) -> list[str]:
    """Each nonzero diagonal entry, then each non-positive distance of a
    symmetric int matrix. A row is scanned only when its least entry past
    the diagonal is not positive."""
    problems = [f"nonzero diagonal at {labels[i]!r}"
                for i, row in enumerate(ints) if row[i]]
    for i, row in enumerate(ints):
        if min(row[i + 1:], default=1) <= 0:
            problems += [
                f"non-positive distance between {labels[i]!r} and {labels[j]!r}"
                for j in range(i + 1, len(row)) if row[j] <= 0
            ]
    return problems


def _triangles(
    labels: tuple[str, ...], ints: tuple[tuple[int, ...], ...]
) -> list[str]:
    """One message per pair i <= j of a symmetric int matrix with d(i, j) >
    d(i, k) + d(j, k) for some k, in lexicographic order: it names the
    least such k and counts them all, so there are at most n(n + 1)/2
    messages. The failure is symmetric in i and j, and a pair fails for
    some k exactly when the least entry of row i + row j is below d(i, j).
    So each unordered pair is tested once, and k is scanned only on
    failing pairs. A pair needs no test when d(i, j) <= m_i + m_j, m_i the
    least entry of row i off the diagonal, and neither diagonal entry is
    negative: every k outside {i, j} gives d(i, k) + d(k, j) >= m_i + m_j,
    and k in {i, j} adds a diagonal entry to d(i, j)."""
    low = [min(row[:i] + row[i + 1:], default=0) for i, row in enumerate(ints)]
    problems = []
    for i, (row, li) in enumerate(zip(ints, low)):
        for j, (dij, other, lj) in enumerate(zip(row[i:], ints[i:], low[i:]), i):
            if dij <= li + lj and row[i] >= 0 <= other[j]:
                continue
            if min(map(add, row, other)) < dij:
                via = [k for k, s in enumerate(map(add, row, other)) if s < dij]
                problems.append(
                    f"triangle inequality fails on ({labels[i]!r}, "
                    f"{labels[j]!r}, {labels[via[0]]!r}) (witness 1 of {len(via)})"
                )
    return problems


def _ball_table(ints: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ball table of an int matrix: its points in lexicographic order
    of their rows, and each one's distance to the point before it (0 for
    the first). On an ultrametric every closed ball B of radius r is a run
    of that order. Two points of B have equal rows off B, where they lie
    farther than r, and a point c outside B lies at one distance above r
    from all of B. So c's row first differs from theirs at one place off
    B, or else at the first point of B, where its entry is the larger;
    either way c sorts before or after both. A ball of radius r thus ends
    where a step exceeds r: the steps are the edges of a minimum spanning
    path, and the balls its single-linkage clusters (Gower & Ross 1969)."""
    order = tuple(sorted(range(len(ints)), key=ints.__getitem__))
    return order, (0, *(ints[x][y] for x, y in zip(order, order[1:])))


def _is_ultrametric(ints: tuple[tuple[int, ...], ...]) -> bool:
    """The strong triangle inequality on a symmetric int matrix with zero
    diagonal and positive entries elsewhere, read off its ball table: the
    points at positions i < j must lie at the largest step between them. An
    ultrametric passes, as the ball of radius d(i, j) around i is a run (no
    step between them is longer) and no path of shorter steps reaches j.
    Conversely such running maxima give d(p, r) = max(d(p, q), d(q, r)) at
    p < q < r, which is that inequality. A non-ultrametric is mostly refused
    after a few rows."""
    order, join = _ball_table(ints)
    return all(
        list(map(ints[x].__getitem__, order[i + 1:]))
        == list(accumulate(join[i + 1:], max))
        for i, x in enumerate(order)
    )


def _ultrametric_half_deficits(ints: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """underline_d of each point of an ultrametric with three points or
    more, from its sorted rows. Of d(x,y), d(x,z) and d(y,z) the two largest
    are equal, so a deficit at x is d(x,y) when d(x,y) < d(x,z), and
    2 d(x,y) - d(y,z) >= d(x,y) when they are equal. Let m be the distance
    from x to its nearest point y. If some z lies farther, d(y,z) = d(x,z)
    and the least deficit is m. Otherwise every other point lies at m, and
    it is 2m - W, W the widest distance between two other points. Every
    other row y then tops out at d(y,x) = m, so its widest distance off x
    is its second-largest entry, counted with multiplicity."""
    rows = [sorted(row) for row in ints]
    out = []
    for x, row in enumerate(rows):
        m = row[1]  # the diagonal 0 is the only zero of the row
        if row[-1] > m:
            out.append(m // 2)
        else:
            widest = max(other[-2] for y, other in enumerate(rows) if y != x)
            out.append(m - widest // 2)
    return tuple(out)


class FiniteMetricSpace(Frozen):
    """Labeled points with an exact rational distance matrix, stored as its
    reduced int rows. The constructor, and ``build`` with it, enforces the
    metric axioms. ``is_ultrametric`` is not a field: it follows from the
    rows, so it is never compared or hashed."""

    _fields = ("points", "_scaled")

    def __init__(self, points: Iterable[str], rows: Iterable[Iterable]) -> None:
        labels = tuple(points)
        check, scaled = _check(labels, rows)
        if not check.is_metric:
            raise InputError("not a metric: " + "; ".join(check.problems))
        self.__dict__.update(points=labels, _scaled=scaled,
                             is_ultrametric=check.is_ultrametric)

    @classmethod
    def build(cls, points: Iterable[str], rows: Iterable[Iterable]) -> "FiniteMetricSpace":
        return cls(points, rows)

    @classmethod
    def _from_ints(
        cls,
        points: Sequence[str],
        scale: int,
        ints: Sequence[Sequence[int]],
        is_ultrametric: bool,
    ) -> "FiniteMetricSpace":
        """A space the caller knows to be a metric, from int rows in units
        of 1/scale; nothing is checked. Reducing by the gcd of the scale and
        the entries gives the scale and rows validate_space would compute.
        Rows already in that unit, where the gcd is 2, are kept as written."""
        g = gcd(scale, *chain.from_iterable(ints))
        if g == 2:
            scaled = tuple(map(tuple, ints))
        else:
            scaled = tuple(tuple(2 * v // g for v in row) for row in ints)
        return cls._trusted(points=tuple(points), _scaled=(2 * scale // g, scaled),
                            is_ultrametric=is_ultrametric)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance matrix as Fractions: a view of the int rows, built
        once, with one Fraction per distinct value."""
        scale, ints = self._scaled
        value = {v: Fraction(v, scale) for v in self._values}
        return tuple(tuple(map(value.__getitem__, row)) for row in ints)

    @cached_property
    def _values(self) -> tuple[int, ...]:
        """The distinct entries of the int rows, ascending: 0, the diagonal's,
        then every distance between distinct points."""
        return tuple(sorted(set(chain.from_iterable(self._scaled[1]))))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def _half_deficits(self) -> tuple[int, ...]:
        """underline_d of each point, in units of 1/scale. On a metric with
        three points or more, x's scan skips each y with d(x,y) + m - M_y >=
        best so far, m the least distance from x and M_y the largest entry
        of row y: every term of y is at least that, as d(x,z) >= m (the
        raised z = x entry only more) and d(y,z) <= M_y. It stops once best
        reaches 0, below which no deficit of a metric lies. Both keep the
        minimum exact, as best only falls."""
        ints = self._scaled[1]
        if len(ints) < 3:
            # 0 on a single point, half the sole distance on a pair
            return tuple(max(row) // 2 for row in ints)
        if self.is_ultrametric:
            return _ultrametric_half_deficits(ints)
        top = list(map(max, ints))
        out = []
        for x, row in enumerate(ints):
            # The deficit d(x,y) + d(x,z) - d(y,z) over y < z, both != x, is
            # d(x,y) + min over z > y of (row x - row y). z = x must be kept
            # out, so its entry is raised to 2 max(row), past every real term.
            probe = list(row)
            best = probe[x] = 2 * top[x]
            least = min(probe)
            for y, (dxy, other, ty) in enumerate(zip(row[:-1], ints, top)):
                if y != x and dxy + least - ty < best:
                    term = dxy + min(map(sub, probe[y + 1:], other[y + 1:]))
                    if term < best:
                        best = term
                        if not best:
                            break
            out.append(best // 2)
        return tuple(out)

    @cached_property
    def _balls(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The ball table (`_ball_table`) of an ultrametric."""
        return _ball_table(self._scaled[1])

    def _cut(self, limit: int) -> list[int]:
        """The closed ball of radius limit / scale around each point of an
        ultrametric, named by its first position in the ball table."""
        order, join = self._balls
        owner = [0] * len(order)
        ball = 0
        for i, (x, d) in enumerate(zip(order, join)):
            if d > limit:
                ball = i
            owner[x] = ball
        return owner

    def distance(self, a: str, b: str) -> Fraction:
        try:
            i, j = self._index[a], self._index[b]
        except KeyError as exc:
            raise InputError(f"unknown point {exc.args[0]!r}") from None
        scale, ints = self._scaled
        return Fraction(ints[i][j], scale)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"FiniteMetricSpace({len(self.points)} points)"


def norm_total(space: FiniteMetricSpace) -> Fraction:
    """Sum of d(x, y) over all ordered pairs."""
    scale, ints = space._scaled
    return Fraction(sum(map(sum, ints)), scale)


def min_gap(space: FiniteMetricSpace) -> Fraction:
    """Least distance between distinct points."""
    if len(space.points) < 2:
        raise InputError("min_gap needs at least two points")
    return Fraction(space._values[1], space._scaled[0])


def n_nonzero(space: FiniteMetricSpace) -> int:
    """Number of distinct nonzero distance values."""
    return len(space._values) - 1


class PointMap(Frozen):
    """Total map between the point sets of two spaces."""

    _fields = ("source", "target", "mapping")

    def __init__(self, source: FiniteMetricSpace, target: FiniteMetricSpace,
                 mapping: Mapping[str, str]) -> None:
        self.__dict__.update(source=source, target=target, mapping=mapping)
        if set(self.mapping) != set(self.source.points):
            raise InputError("map must be defined on every source point")
        for v in self.mapping.values():
            if v not in self.target._index:
                raise InputError(f"map hits unknown target point {v!r}")

    @property
    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.target.points)


class MapClassification(Frozen):
    """Two bools, is_isometry and is_drift, and a Fraction epsilon or None."""

    _fields = ("is_isometry", "contraction_epsilon", "is_drift")

    @property
    def kind(self) -> str:
        if self.is_isometry:
            return "isometry"
        if self.contraction_epsilon is not None:
            return "contraction"
        if self.is_drift:
            return "drift"
        return "none"


def classify_map(pmap: PointMap) -> MapClassification:
    """Test a surjection against the three edge notions exactly.

    Isometry: bijective and distance-preserving. Contraction: every
    distinct-pair distance shrinks by one common positive epsilon. Drift:
    every distinct-pair distance shrinks by underline_d(x) + underline_d(y)
    of the source.
    """
    if not pmap.is_surjective:
        raise InputError("classification requires a surjective map")
    src, tgt = pmap.source, pmap.target
    pts = src.points
    s, src_ints = src._scaled
    t, tgt_ints = tgt._scaled
    image = [tgt._index[pmap.mapping[x]] for x in pts]
    half = src._half_deficits
    iso = drift = True
    diffs: set[int] = set()
    # distances of both spaces in the common unit 1 / (s * t)
    for i, (row, hi) in enumerate(zip(src_ints, half)):
        trow = tgt_ints[image[i]]
        for j in range(i + 1, len(pts)):
            d, e = row[j] * t, trow[image[j]] * s
            iso = iso and d == e
            diffs.add(d - e)
            drift = drift and e == (row[j] - hi - half[j]) * t
    gap = diffs.pop() if len(diffs) == 1 else 0
    epsilon = Fraction(gap, s * t) if gap > 0 else None
    return MapClassification._trusted(is_isometry=iso, contraction_epsilon=epsilon,
                                      is_drift=drift)


def _collapse(
    space: FiniteMetricSpace, half: Sequence[int], ultrametric: bool
) -> tuple[FiniteMetricSpace, PointMap]:
    """Lower each distance d(x, y) of the space by half[x] + half[y], in its
    int units, and collapse the pairs that reach zero; each class is named
    after its minimal member, and only the rows of those members are built.
    The caller's law makes the quotient a metric; ``ultrametric`` says
    whether it is known to be an ultrametric too, else its rows are checked
    for it."""
    scale, ints = space._scaled
    pts = space.points
    order = sorted(range(len(pts)), key=pts.__getitem__)
    rep: dict[int, int] = {}
    heads: list[int] = []
    for x in order:
        if x in rep:
            continue
        hx = half[x]
        rep[x] = x
        # y joins x when d(x, y) - half[y] - half[x] is zero
        for y, v in enumerate(map(sub, ints[x], half)):
            if v == hx and y != x:
                rep[y] = x
        heads.append(x)
    rows = tuple(
        tuple(0 if a == b else ints[a][b] - half[a] - half[b] for b in heads)
        for a in heads
    )
    quotient = FiniteMetricSpace._from_ints(
        [pts[a] for a in heads], scale, rows, ultrametric or _is_ultrametric(rows)
    )
    return quotient, PointMap._trusted(
        source=space, target=quotient, mapping={x: pts[rep[i]] for i, x in enumerate(pts)}
    )


def quotient_u(space: FiniteMetricSpace) -> tuple[FiniteMetricSpace, PointMap]:
    """One contraction step of an ultrametric space: subtract the minimal
    positive distance from every distinct pair and collapse the zeros. The
    projection is a non-injective contraction by exactly that minimum, the
    drift step of a constant half-deficit: every stored entry is even."""
    if not space.is_ultrametric:
        raise InputError("quotient_u needs an ultrametric space")
    if len(space.points) < 2:
        raise InputError("quotient_u needs at least two points")
    return _collapse(space, [space._values[1] // 2] * len(space), True)


def underline_d(space: FiniteMetricSpace) -> dict[str, Fraction]:
    """Per-point half-deficit of the triangle inequality: 0 on a single
    point, half the sole distance on a pair, and otherwise the least
    (d(x,y) + d(x,z) - d(y,z)) / 2 over distinct y, z avoiding x."""
    scale = space._scaled[0]
    return {
        p: Fraction(h, scale) for p, h in zip(space.points, space._half_deficits)
    }


def is_trim(space: FiniteMetricSpace) -> bool:
    """True when every point lies between two others (or the space is a
    single point). Equivalent to underline_d vanishing everywhere: the
    deficits d(x,y) + d(x,z) - d(y,z) are never negative, so the least is
    zero exactly when some y, z have x between them."""
    return not any(space._half_deficits)


def quotient_v(space: FiniteMetricSpace) -> tuple[FiniteMetricSpace, PointMap]:
    """One drift step: subtract underline_d(x) + underline_d(y) from every
    distinct pair and collapse the zeros. On a trim space this is the
    identity up to labeling."""
    return _collapse(space, space._half_deficits, False)


class Tower(Frozen):
    """A maximal chain of quotient projections: spaces[0] is the input,
    spaces[-1] the terminal space, maps[i] projects spaces[i] onto
    spaces[i+1]. Read backwards it is the universal evolution of the input
    in the corresponding quiver of spaces."""

    _fields = ("spaces", "maps")

    def __len__(self) -> int:
        return len(self.maps)

    @property
    def terminal(self) -> FiniteMetricSpace:
        return self.spaces[-1]


def tower_u(space: FiniteMetricSpace) -> Tower:
    """Iterate quotient_u down to a single point; the length equals the
    number of distinct nonzero distances."""
    if not space.is_ultrametric:
        raise InputError("tower_u needs an ultrametric space")
    spaces = [space]
    maps: list[PointMap] = []
    while len(spaces[-1].points) > 1:
        nxt, pmap = quotient_u(spaces[-1])
        spaces.append(nxt)
        maps.append(pmap)
    return Tower._trusted(spaces=tuple(spaces), maps=tuple(maps))


def tower_v(space: FiniteMetricSpace) -> Tower:
    """Iterate quotient_v until the space is trim (the trim core). Each
    step but the last collapses at least one pair, so the loop ends."""
    spaces = [space]
    maps: list[PointMap] = []
    while not is_trim(spaces[-1]):
        nxt, pmap = quotient_v(spaces[-1])
        spaces.append(nxt)
        maps.append(pmap)
        # A step that collapses no pair is the last: d' = d - h(x) - h(y)
        # lowers every deficit at x by exactly 2 h(x), and keeps every
        # triple, so its image is trim without a second cubic pass.
        if len(nxt) == len(pmap.source):
            break
    return Tower._trusted(spaces=tuple(spaces), maps=tuple(maps))


# Row entries the isometry search may compare: a candidate for the next
# point costs 1 plus the number of points already placed. Shuffled unions
# of cycles as graph metrics, whose rows all agree, are the hardest pairs
# measured: on 12 points or fewer their searches compare under 4M.
_MAX_COMPARED = 10_000_000


def is_isometric(
    first: FiniteMetricSpace, second: FiniteMetricSpace
) -> dict[str, str] | None:
    """A distance-preserving bijection between the spaces, or None.

    Exact, on the int rows. Isometric spaces share their distance values and
    so their reduced scale, and then equal ints are equal distances. A point
    is matched only to points of its row multiset, depth-first with one
    iterator of untried candidates per placed point, so no size recurses.
    A search that would compare more than ``_MAX_COMPARED`` row entries
    raises SizeGuardError.
    """
    return _isometry(first, second)[0]


def _isometry(
    first: FiniteMetricSpace, second: FiniteMetricSpace
) -> tuple[dict[str, str] | None, int]:
    """is_isometric, also handing back the row entries its search compared."""
    (s, a), (t, b) = first._scaled, second._scaled
    if len(a) != len(b) or s != t:
        return None, 0
    groups: dict[tuple[int, ...], list[int]] = {}  # row multiset -> points of second
    for y, row in enumerate(b):
        groups.setdefault(tuple(sorted(row)), []).append(y)
    sig1 = [tuple(sorted(row)) for row in a]
    if Counter(sig1) != Counter({sig: len(ys) for sig, ys in groups.items()}):
        return None, 0
    candidates = [groups[sig] for sig in sig1]
    order = sorted(range(len(a)), key=lambda x: (len(candidates[x]), first.points[x]))
    assignment: dict[int, int] = {}  # insertion order is the search depth
    used: set[int] = set()
    tries: list[Iterator[int]] = []
    compared = 0
    while len(assignment) < len(order):
        x = order[len(assignment)]
        if len(tries) == len(assignment):
            tries.append(iter(candidates[x]))
        row_x = a[x]
        for y in filterfalse(used.__contains__, tries[-1]):
            compared += 1 + len(assignment)
            if compared > _MAX_COMPARED:
                raise SizeGuardError(
                    f"isometry search of {len(a)} points compared {compared} row "
                    f"entries, past the budget of {_MAX_COMPARED}"
                )
            row_y = b[y]
            if all(row_x[z] == row_y[w] for z, w in assignment.items()):
                assignment[x] = y
                used.add(y)
                break
        else:
            tries.pop()
            if not tries:
                return None, compared
            used.discard(assignment.popitem()[1])
    return {first.points[x]: second.points[y] for x, y in assignment.items()}, compared


def balls(space: FiniteMetricSpace, radius) -> tuple[tuple[str, ...], ...]:
    """Partition of an ultrametric space into closed balls of the given
    radius, each ball sorted, balls sorted by first member. A negative
    radius has no partition and is refused."""
    if not space.is_ultrametric:
        raise InputError("balls of a fixed radius partition only ultrametric spaces")
    r = to_fraction(radius)
    if r < 0:
        raise InputError(f"a ball radius must not be negative: {r}")
    pts = space.points
    # an int entry d stands for d / scale, and d / scale <= r iff d <= floor(r * scale)
    scale = space._scaled[0]
    owner = space._cut(r.numerator * scale // r.denominator)
    blocks: dict[int, list[str]] = {}
    for x in sorted(range(len(pts)), key=pts.__getitem__):
        blocks.setdefault(owner[x], []).append(pts[x])
    return tuple(map(tuple, blocks.values()))
