"""Boundary-pair transfer between nested grids without full sets.

These operators compute the coarse (or fine) boundary pair of the
restricted (or interpolated) set directly from the input boundary pair.
No full set is ever materialized.  Restriction dilates the inner
boundary onto the coarse grid, steps out once to the candidates for the
outer layer, and settles each candidate's side by a short Moore walk
toward the inner boundary; interpolation grows balls around adjacent
coarse pairs.
"""

from __future__ import annotations

from itertools import product
from typing import AbstractSet, Iterator

from .geometry import Point, ball_points, grid_range, moore_neighbors
from .layers import _one_step
from .pairs import BoundaryPair, InvalidPairError, validate
from .transfer import GridRatio


def _require_valid(pair: BoundaryPair, spacing: int, role: str) -> None:
    if pair.spacing != spacing:
        raise ValueError(
            f"{role} expects a pair with spacing {spacing}, got {pair.spacing}")
    report = validate(pair)
    if not report.valid:
        raise InvalidPairError(report)


def _outside(y: Point, p: Point, d0: AbstractSet[Point],
             d1: AbstractSet[Point]) -> bool:
    # Walk from y toward p in d0, one Moore step at a time.  Off the
    # stored points membership cannot change between neighbours, so the
    # first stored point met lies on y's side.
    q = y
    while q not in d0:
        if q in d1:
            return True
        q = tuple(c + (t > c) - (t < c) for c, t in zip(q, p))
    return False


def lift_restrict(pair: BoundaryPair, ratio: GridRatio) -> BoundaryPair:
    """Boundary pair of the restriction of the set behind a fine pair.

    Equals tracing the restriction R of the reconstructed set M, but
    works on boundary data alone, in O(|D0| * 6^m * n) steps.  The empty
    pair maps to the empty pair.  Three facts carry it:

    - The coarse points within n/2 of D0 lie in R and include its inner
      boundary: a path from a member of M to an R-complement neighbour
      leaves M at a D0 point within n/2.
    - Their outside Moore neighbours include the outer layer of R, and
      such a neighbour y is outside R exactly when y is outside M, as no
      D0 point lies within n/2 of it.
    - y is outside M when the walk from y toward the D0 point that put
      its neighbour in the dilation meets D1 before D0; the walk is at
      most 3n/2 steps.
    """
    _require_valid(pair, 1, "lift_restrict")
    n = ratio.n
    near = {x: p for p in pair.d0 for x in ball_points(p, n, n)}
    candidates = {y: p for x, p in near.items()
                  for y in moore_neighbors(x, n) if y not in near}
    out1 = {y for y, p in candidates.items()
            if _outside(y, p, pair.d0, pair.d1)}
    out0 = _one_step(out1, n)[1] & near.keys()
    return BoundaryPair(pair.dim, n, frozenset(out0), frozenset(out1))


def _meet(x: Point, rx: int, z: Point, rz: int) -> Iterator[Point]:
    # Fine points within rx/2 of x and within rz/2 of z, radii doubled.
    hx, hz = rx // 2, rz // 2
    return product(*[grid_range(max(a - hx, b - hz), min(a + hx, b + hz), 1)
                     for a, b in zip(x, z)])


def lift_interpolate(pair: BoundaryPair, ratio: GridRatio) -> BoundaryPair:
    """Boundary pair of the interpolation of the set behind a coarse pair.

    The output inner boundary collects, for each adjacent coarse pair
    (x in d0, z in d1), the fine points within n/2 of x and within
    (n+1)/2 of z.  The output outer layer collects the fine points
    within n/2 of z and (n+2)/2 of x that avoid the half-step balls of
    the d0 neighbors of z; these balls are subtracted once, for all of
    d0.  That is exact for the valid pairs accepted here: a point
    within n/2 of z and of some y in d0 puts y within n of z, and
    y != z since d0 and d1 are disjoint, so y is a Moore neighbor of z.
    Radii are compared in doubled units (n, n+1, n+2); accumulation is
    into sets, so duplicates and iteration order cannot affect the
    result.
    """
    n = ratio.n
    _require_valid(pair, n, "lift_interpolate")
    if pair.is_empty:
        return BoundaryPair(pair.dim, 1, frozenset(), frozenset())

    out0 = set()
    out1 = set()
    for z in pair.d1:
        for x in moore_neighbors(z, n):
            if x in pair.d0:
                out0.update(_meet(x, n, z, n + 1))
                out1.update(_meet(z, n, x, n + 2))
    for x in pair.d0:
        out1.difference_update(_meet(x, n, x, n))
    return BoundaryPair(pair.dim, 1, frozenset(out0), frozenset(out1))
