"""Exact integer geometry for the Chebyshev metric on integer lattices.

Everything here is nondimensionalized: the finest grid has step 1, and a
grid with spacing s consists of the points of s*Z^m.  Comparisons against
half-integer radii (s/2, 3s/2, ...) are done in doubled units, so no
fractions or floats ever enter a geometric predicate.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from operator import add
from typing import Iterable, Iterator, Set, Tuple, Union

Point = Tuple[int, ...]

#: Extended distance: a nonnegative integer, or INFINITE for distances to
#: the empty set.  INFINITE compares greater than every finite value.
Distance = Union[int, float]
INFINITE: float = math.inf


def chebyshev(u: Point, v: Point) -> int:
    """Chebyshev (maximum-coordinate) distance between two lattice points."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    # unrolled small dimensions; these dominate every inner loop
    if len(u) == 2:
        a = u[0] - v[0]
        b = u[1] - v[1]
        if a < 0:
            a = -a
        if b < 0:
            b = -b
        return a if a > b else b
    if len(u) == 3:
        a = u[0] - v[0]
        b = u[1] - v[1]
        c = u[2] - v[2]
        if a < 0:
            a = -a
        if b < 0:
            b = -b
        if c < 0:
            c = -c
        if b > a:
            a = b
        return a if a > c else c
    if len(u) == 1:
        a = u[0] - v[0]
        return -a if a < 0 else a
    return max(abs(a - b) for a, b in zip(u, v))


def rd(p: int, q: int) -> int:
    """Round the rational p/q to an integer, ties rounding up.

    Returns floor(p/q) when the fractional part is below 1/2 and
    ceil(p/q) otherwise.  Evaluated exactly in integer arithmetic, so the
    tie case (fractional part exactly 1/2) is handled correctly for
    negative p as well: rd(-1, 2) == 0.
    """
    if q <= 0:
        raise ValueError(f"denominator must be positive, got {q}")
    quot, rem = divmod(p, q)
    return quot + (1 if 2 * rem >= q else 0)


def floor_div(a: int, b: int) -> int:
    return a // b


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@lru_cache(maxsize=None)
def _offsets(dim: int, spacing: int) -> Tuple[Point, ...]:
    steps = (-spacing, 0, spacing)
    return tuple(off for off in product(steps, repeat=dim) if any(off))


def moore_neighbors(point: Point, spacing: int) -> Tuple[Point, ...]:
    """The 3^m - 1 grid points at Chebyshev distance exactly one step."""
    if len(point) == 2:
        x, y = point
        s = spacing
        return (
            (x - s, y - s), (x - s, y), (x - s, y + s),
            (x, y - s), (x, y + s),
            (x + s, y - s), (x + s, y), (x + s, y + s),
        )
    if len(point) == 1:
        x, = point
        return ((x - spacing,), (x + spacing,))
    if len(point) == 3:
        x, y, z = point
        return tuple([(x + dx, y + dy, z + dz)
                      for dx, dy, dz in _offsets(3, spacing)])
    return tuple([tuple(map(add, point, off))
                  for off in _offsets(len(point), spacing)])


def grid_range(lo: int, hi: int, spacing: int) -> range:
    """The multiples of spacing in the integer interval [lo, hi], ascending."""
    return range(ceil_div(lo, spacing) * spacing,
                 floor_div(hi, spacing) * spacing + 1, spacing)


def ball_points(center: Point, radius_doubled: int, spacing: int) -> frozenset:
    """Grid points within Chebyshev distance radius_doubled/2 of center.

    The comparison is 2*dist <= radius_doubled, evaluated exactly, which
    makes half-integer radii representable without fractions: for an
    integer center it keeps the offsets up to radius_doubled // 2.
    """
    if spacing < 1:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if radius_doubled < 0:
        raise ValueError(f"radius must be nonnegative, got {radius_doubled}")
    return frozenset(box_around(center, radius_doubled // 2, spacing))


def box_around(center: Point, half: int, spacing: int) -> Iterator[Point]:
    """Grid points within Chebyshev distance `half` of center, lazily."""
    return product(*[grid_range(c - half, c + half, spacing) for c in center])


def dilate(points: Iterable[Point], radius_doubled: int,
           spacing: int) -> Set[Point]:
    """Grid points within Chebyshev distance radius_doubled/2 of some point.

    The union of the balls of `ball_points`, with the same doubled-unit
    comparison, built in one set.
    """
    h = radius_doubled // 2
    out: Set[Point] = set()
    for p in points:
        out.update(box_around(p, h, spacing))
    return out


def check_on_grid(points: Iterable[Point], dim: int, spacing: int,
                  what: str = "point") -> None:
    """Raise ValueError naming the first point not on the spacing-grid of Z^dim."""
    for p in points:
        if len(p) != dim:
            raise ValueError(f"{what} {p} has dimension {len(p)}, expected {dim}")
        if any(c % spacing for c in p):
            raise ValueError(f"{what} {p} is off the spacing-{spacing} grid")


def bounding_box(points: Iterable[Point]) -> Tuple[Point, Point]:
    """Componentwise (min, max) corners of a nonempty point collection."""
    pts = list(points)
    if not pts:
        raise ValueError("bounding box of an empty point set")
    lower = tuple(min(p[j] for p in pts) for j in range(len(pts[0])))
    upper = tuple(max(p[j] for p in pts) for j in range(len(pts[0])))
    return lower, upper


def box_grid_points(lower: Point, upper: Point, spacing: int) -> Iterator[Point]:
    """All points of the spacing-grid inside the inclusive box [lower, upper]."""
    if spacing < 1:
        raise ValueError(f"spacing must be positive, got {spacing}")
    return product(*[grid_range(lo, hi, spacing)
                     for lo, hi in zip(lower, upper)])
