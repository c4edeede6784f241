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
lies metrically between two others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import InputError, SizeGuardError

DEFAULT_ISOMETRY_GUARD = 12


def to_fraction(value) -> Fraction:
    """Exact coercion: Fraction, int, or a string ('3/4', '0.25').

    Floats and scientific notation are refused; they have no place in a
    computation that must distinguish zero exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        token = value.strip()
        if "e" in token.lower():
            raise InputError(f"scientific notation rejected: {value!r}")
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {value!r}") from exc
    if isinstance(value, float):
        raise InputError(
            f"float {value!r} rejected: pass an exact rational or a decimal string"
        )
    raise InputError(f"cannot interpret {value!r} as a rational number")


@dataclass(frozen=True)
class SpaceCheck:
    is_metric: bool
    is_ultrametric: bool
    problems: tuple[str, ...]


def validate_space(points: Sequence[str], rows: Sequence[Sequence]) -> SpaceCheck:
    """Check a labeled distance matrix against the metric and ultrametric
    axioms. Shape and symmetry defects raise; axiom failures are returned
    as flags with a problem list."""
    labels = tuple(points)
    if not labels:
        raise InputError("a metric space needs at least one point")
    if len(set(labels)) != len(labels):
        raise InputError("duplicate point labels")
    matrix = [[to_fraction(v) for v in row] for row in rows]
    n = len(labels)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise InputError(f"distance matrix must be {n}x{n}")
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise InputError(
                    f"matrix is not symmetric at ({labels[i]!r}, {labels[j]!r})"
                )
    problems: list[str] = []
    for i in range(n):
        if matrix[i][i] != 0:
            problems.append(f"nonzero diagonal at {labels[i]!r}")
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] <= 0:
                problems.append(
                    f"non-positive distance between {labels[i]!r} and {labels[j]!r}"
                )
    metric_ok = not problems
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][j] > matrix[i][k] + matrix[j][k]:
                    problems.append(
                        f"triangle inequality fails on "
                        f"({labels[i]!r}, {labels[j]!r}, {labels[k]!r})"
                    )
                    metric_ok = False
    ultra_ok = metric_ok
    if metric_ok:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if matrix[i][j] > max(matrix[i][k], matrix[j][k]):
                        ultra_ok = False
    return SpaceCheck(metric_ok, ultra_ok, tuple(problems))


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labeled points with an exact rational distance matrix; the metric
    axioms are enforced at construction."""

    points: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    is_ultrametric: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(
            self,
            "rows",
            tuple(tuple(to_fraction(v) for v in row) for row in self.rows),
        )
        check = validate_space(self.points, self.rows)
        if not check.is_metric:
            raise InputError("not a metric: " + "; ".join(check.problems))
        object.__setattr__(self, "is_ultrametric", check.is_ultrametric)

    @classmethod
    def build(cls, points: Iterable[str], rows: Iterable[Iterable]) -> "FiniteMetricSpace":
        return cls(tuple(points), tuple(tuple(row) for row in rows))

    @classmethod
    def single(cls, label: str) -> "FiniteMetricSpace":
        return cls((label,), ((Fraction(0),),))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def distance(self, a: str, b: str) -> Fraction:
        try:
            return self.rows[self._index[a]][self._index[b]]
        except KeyError as exc:
            raise InputError(f"unknown point {exc.args[0]!r}") from None

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"FiniteMetricSpace({len(self.points)} points)"


def norm_total(space: FiniteMetricSpace) -> Fraction:
    """Sum of d(x, y) over all ordered pairs."""
    return 2 * sum(
        (space.rows[i][j]
         for i in range(len(space.points))
         for j in range(i + 1, len(space.points))),
        Fraction(0),
    )


def min_gap(space: FiniteMetricSpace) -> Fraction:
    """Least distance between distinct points."""
    if len(space.points) < 2:
        raise InputError("min_gap needs at least two points")
    return min(
        space.rows[i][j]
        for i in range(len(space.points))
        for j in range(i + 1, len(space.points))
    )


def n_nonzero(space: FiniteMetricSpace) -> int:
    """Number of distinct nonzero distance values."""
    return len({
        space.rows[i][j]
        for i in range(len(space.points))
        for j in range(i + 1, len(space.points))
    })


@dataclass(frozen=True)
class PointMap:
    """Total map between the point sets of two spaces."""

    source: FiniteMetricSpace
    target: FiniteMetricSpace
    mapping: Mapping[str, str]

    def __post_init__(self) -> None:
        if set(self.mapping) != set(self.source.points):
            raise InputError("map must be defined on every source point")
        for v in self.mapping.values():
            if v not in self.target._index:
                raise InputError(f"map hits unknown target point {v!r}")

    def apply(self, x: str) -> str:
        return self.mapping[x]

    @property
    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.target.points)

    @property
    def is_bijective(self) -> bool:
        return self.is_surjective and len(set(self.mapping.values())) == len(self.mapping)


@dataclass(frozen=True)
class MapClassification:
    is_isometry: bool
    contraction_epsilon: Fraction | None
    is_drift: bool

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
    if len(pts) == 1:
        return MapClassification(True, None, True)
    iso = all(
        tgt.distance(pmap.apply(x), pmap.apply(y)) == src.distance(x, y)
        for i, x in enumerate(pts)
        for y in pts[i + 1:]
    )
    diffs = {
        src.distance(x, y) - tgt.distance(pmap.apply(x), pmap.apply(y))
        for i, x in enumerate(pts)
        for y in pts[i + 1:]
    }
    epsilon = diffs.pop() if len(diffs) == 1 else None
    if epsilon is not None and epsilon <= 0:
        epsilon = None
    ud = underline_d(src)
    drift = all(
        tgt.distance(pmap.apply(x), pmap.apply(y))
        == src.distance(x, y) - ud[x] - ud[y]
        for i, x in enumerate(pts)
        for y in pts[i + 1:]
    )
    return MapClassification(iso, epsilon, drift)


def _collapse(
    space: FiniteMetricSpace, reduced: dict[tuple[str, str], Fraction]
) -> tuple[FiniteMetricSpace, PointMap]:
    """Quotient by zero pairs of a reduced distance table; each class is
    named after its minimal member."""
    rep: dict[str, str] = {}
    classes: list[list[str]] = []
    for x in sorted(space.points):
        if x in rep:
            continue
        cls = [y for y in sorted(space.points)
               if y == x or reduced[(x, y)] == 0]
        for y in cls:
            rep[y] = x
        classes.append(cls)
    new_points = tuple(cls[0] for cls in classes)
    rows = tuple(
        tuple(
            Fraction(0) if a == b else reduced[(a, b)]
            for b in new_points
        )
        for a in new_points
    )
    quotient = FiniteMetricSpace(new_points, rows)
    return quotient, PointMap(space, quotient, {x: rep[x] for x in space.points})


def quotient_u(space: FiniteMetricSpace) -> tuple[FiniteMetricSpace, PointMap]:
    """One contraction step of an ultrametric space: subtract the minimal
    positive distance from every distinct pair and collapse the zeros. The
    projection is a non-injective contraction by exactly that minimum."""
    if not space.is_ultrametric:
        raise InputError("quotient_u needs an ultrametric space")
    if len(space.points) < 2:
        raise InputError("quotient_u needs at least two points")
    gap = min_gap(space)
    reduced = {
        (a, b): space.distance(a, b) - gap
        for a in space.points
        for b in space.points
        if a != b
    }
    return _collapse(space, reduced)


def underline_d(space: FiniteMetricSpace) -> dict[str, Fraction]:
    """Per-point half-deficit of the triangle inequality: 0 on a single
    point, half the sole distance on a pair, and otherwise the least
    (d(x,y) + d(x,z) - d(y,z)) / 2 over distinct y, z avoiding x."""
    pts = space.points
    if len(pts) == 1:
        return {pts[0]: Fraction(0)}
    if len(pts) == 2:
        half = space.rows[0][1] / 2
        return {pts[0]: half, pts[1]: half}
    out: dict[str, Fraction] = {}
    for x in pts:
        best: Fraction | None = None
        rest = [y for y in pts if y != x]
        for i, y in enumerate(rest):
            for z in rest[i + 1:]:
                value = (space.distance(x, y) + space.distance(x, z)
                         - space.distance(y, z)) / 2
                if best is None or value < best:
                    best = value
        assert best is not None
        out[x] = best
    return out


def is_trim(space: FiniteMetricSpace) -> bool:
    """True when every point lies between two others (or the space is a
    single point). Equivalent to underline_d vanishing everywhere."""
    pts = space.points
    if len(pts) == 1:
        return True
    for x in pts:
        rest = [y for y in pts if y != x]
        if not any(
            space.distance(x, y) + space.distance(x, z) == space.distance(y, z)
            for i, y in enumerate(rest)
            for z in rest[i + 1:]
        ):
            return False
    return True


def quotient_v(space: FiniteMetricSpace) -> tuple[FiniteMetricSpace, PointMap]:
    """One drift step: subtract underline_d(x) + underline_d(y) from every
    distinct pair and collapse the zeros. On a trim space this is the
    identity up to labeling."""
    ud = underline_d(space)
    if len(space.points) == 1:
        return _collapse(space, {})
    reduced = {
        (a, b): space.distance(a, b) - ud[a] - ud[b]
        for a in space.points
        for b in space.points
        if a != b
    }
    return _collapse(space, reduced)


@dataclass(frozen=True)
class Tower:
    """A maximal chain of quotient projections: spaces[0] is the input,
    spaces[-1] the terminal space, maps[i] projects spaces[i] onto
    spaces[i+1]. Read backwards it is the universal evolution of the input
    in the corresponding quiver of spaces."""

    spaces: tuple[FiniteMetricSpace, ...]
    maps: tuple[PointMap, ...]

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
    return Tower(tuple(spaces), tuple(maps))


def tower_v(space: FiniteMetricSpace) -> Tower:
    """Iterate quotient_v until the space is trim (the trim core). Each
    non-terminal step collapses at least one pair, so the loop ends."""
    spaces = [space]
    maps: list[PointMap] = []
    # Each non-terminal step collapses a pair or is bijective, and the image
    # of a bijective drift is trim, so this bound is never reached.
    for _ in range(len(space.points) + 2):
        if is_trim(spaces[-1]):
            return Tower(tuple(spaces), tuple(maps))
        nxt, pmap = quotient_v(spaces[-1])
        spaces.append(nxt)
        maps.append(pmap)
    raise AssertionError("drift tower failed to reach a trim space")


def is_isometric(
    first: FiniteMetricSpace,
    second: FiniteMetricSpace,
    *,
    max_points: int = DEFAULT_ISOMETRY_GUARD,
) -> dict[str, str] | None:
    """A distance-preserving bijection between the spaces, or None.

    Exact arithmetic, no tolerance. Backtracking with multiset pruning: the
    total norm, the global distance multiset, and per-point row multisets
    must all agree before any assignment is tried.
    """
    if max(len(first.points), len(second.points)) > max_points:
        raise SizeGuardError(
            f"isometry search limited to {max_points} points; "
            f"raise max_points to override"
        )
    if len(first.points) != len(second.points):
        return None
    if norm_total(first) != norm_total(second):
        return None

    def row_sig(space: FiniteMetricSpace, x: str) -> tuple[Fraction, ...]:
        return tuple(sorted(space.distance(x, y) for y in space.points))

    sig1 = {x: row_sig(first, x) for x in first.points}
    sig2 = {y: row_sig(second, y) for y in second.points}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    candidates = {
        x: [y for y in second.points if sig2[y] == sig1[x]] for x in first.points
    }
    order = sorted(first.points, key=lambda x: (len(candidates[x]), x))
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for y in candidates[x]:
            if y in used:
                continue
            if any(
                first.distance(x, z) != second.distance(y, w)
                for z, w in assignment.items()
            ):
                continue
            assignment[x] = y
            used.add(y)
            if extend(i + 1):
                return True
            del assignment[x]
            used.discard(y)
        return False

    return dict(assignment) if extend(0) else None


def balls(space: FiniteMetricSpace, radius) -> tuple[tuple[str, ...], ...]:
    """Partition of an ultrametric space into closed balls of the given
    radius, each ball sorted, balls sorted by first member."""
    if not space.is_ultrametric:
        raise InputError("balls of a fixed radius partition only ultrametric spaces")
    r = to_fraction(radius)
    blocks: list[tuple[str, ...]] = []
    assigned: set[str] = set()
    for x in sorted(space.points):
        if x in assigned:
            continue
        block = tuple(sorted(
            y for y in space.points if space.distance(x, y) <= r
        ))
        blocks.append(block)
        assigned.update(block)
    return tuple(sorted(blocks))
