"""Boundary-pair transfer between nested grids without full sets.

These operators compute the coarse (or fine) boundary pair of the
restricted (or interpolated) set directly from the input boundary pair.
No full set is ever materialized.  Restriction dilates the inner
boundary onto the coarse grid, steps out once to the candidates for the
outer layer, and settles each candidate's side by a short Moore walk
toward the inner boundary; interpolation intersects half-step
dilations of the two coarse boundaries.
"""

from __future__ import annotations

from typing import AbstractSet

from .geometry import Point, ball_points, dilate, moore_neighbors
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
    return BoundaryPair._trusted(pair.dim, n, frozenset(out0), frozenset(out1))


def lift_interpolate(pair: BoundaryPair, ratio: GridRatio) -> BoundaryPair:
    """Boundary pair of the interpolation of the set behind a coarse pair.

    Works on boundary data alone, with radii compared in doubled units.
    The output inner boundary is the fine points within n/2 of d0 and
    within (n+1)/2 of d1; the output outer layer is the fine points
    within n/2 of d1 and within (n+2)/2 of d0, less those within n/2 of
    d0.  The definition pairs each x in d0 with an adjacent z in d1, and
    that pairing comes free: a fine point within n/2 of one and within
    (n+2)/2 of the other puts the coarse points x and z at most n + 1
    apart, hence at most n, and x != z since d0 and d1 are disjoint, so
    they are Moore neighbors.  For even n, (n+1)//2 == n//2 and the d1
    dilation serves twice.  The empty pair maps to the empty pair.
    """
    n = ratio.n
    _require_valid(pair, n, "lift_interpolate")
    near0, near1 = dilate(pair.d0, n, 1), dilate(pair.d1, n, 1)
    out0 = near0 & (near1 if n % 2 == 0 else dilate(pair.d1, n + 1, 1))
    out1 = (near1 & dilate(pair.d0, n + 2, 1)) - near0
    return BoundaryPair._trusted(pair.dim, 1, frozenset(out0), frozenset(out1))
