"""Exact integer geometry for the Chebyshev metric on integer lattices.

Everything here is nondimensionalized: the finest grid has step 1, and a
grid with spacing s consists of the points of s*Z^m.  Comparisons against
half-integer radii (s/2, 3s/2, ...) are done in doubled units, so no
fractions or floats ever enter a geometric predicate.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import add
from typing import AbstractSet, Iterable, Iterator, Set, Tuple

Point = Tuple[int, ...]


@lru_cache(maxsize=None)
def moore_offsets(dim: int, spacing: int) -> Tuple[Point, ...]:
    """The 3^m - 1 nonzero offsets with entries in {-spacing, 0, spacing}."""
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
    if len(point) == 3:
        x, y, z = point
        return tuple([(x + dx, y + dy, z + dz)
                      for dx, dy, dz in moore_offsets(3, spacing)])
    return tuple([tuple(map(add, point, off))
                  for off in moore_offsets(len(point), spacing)])


def grid_range(lo: int, hi: int, spacing: int) -> range:
    """The multiples of spacing in the integer interval [lo, hi], ascending."""
    return range(-(-lo // spacing) * spacing,
                 hi // spacing * spacing + 1, spacing)


def box_around(center: Point, half: int, spacing: int) -> Iterator[Point]:
    """Grid points within Chebyshev distance `half` of center, lazily."""
    return product(*[grid_range(c - half, c + half, spacing) for c in center])


def dilate(points: Iterable[Point], radius_doubled: int,
           spacing: int) -> Set[Point]:
    """Grid points within Chebyshev distance radius_doubled/2 of some point.

    The comparison is 2*dist <= radius_doubled, evaluated exactly, which
    makes half-integer radii representable without fractions: around
    each integer point it keeps the offsets up to radius_doubled // 2.
    The balls are united in one set.
    """
    h = radius_doubled // 2
    out: Set[Point] = set()
    for p in points:
        out.update(box_around(p, h, spacing))
    return out


def ring(stored: AbstractSet[Point],
         spacing: int) -> Tuple[Set[Point], Set[Point]]:
    """The stored points with a Moore neighbor outside, and those neighbors.

    One fused scan, seeing every adjacency from the stored side.
    """
    inner: Set[Point] = set()
    outer: Set[Point] = set()
    for p in stored:
        for q in moore_neighbors(p, spacing):
            if q not in stored:
                inner.add(p)
                outer.add(q)
    return inner, outer


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
