"""Boundary-pair transfer between nested grids without full sets.

These operators compute the coarse (or fine) boundary pair of the
restricted (or interpolated) set directly from the input boundary pair.
No full set is ever materialized; all distance queries are local to a
small box around the queried point.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .geometry import Point, ball_points, chebyshev, grid_range, moore_neighbors
from .gridset import GridSet, Mode
from .layers import recover_boundaries
from .pairs import BoundaryPair, InvalidPairError, validate
from .transfer import GridRatio


class _PointIndex:
    """Nearest-distance queries against a finite point set.

    Points are bucketed by coarse cell so a query with a cutoff scans
    only the input points inside a local box around the query.
    """

    def __init__(self, points: FrozenSet[Point], cell: int):
        self.cell = cell
        self.buckets: Dict[Point, List[Point]] = {}
        for p in points:
            key = tuple(c // cell for c in p)
            self.buckets.setdefault(key, []).append(p)

    def min_dist_within(self, query: Point, cutoff: int) -> Optional[int]:
        """Exact distance to the set if it is <= cutoff, else None."""
        cell = self.cell
        ranges = [
            range((c - cutoff) // cell, (c + cutoff) // cell + 1)
            for c in query
        ]
        best: Optional[int] = None
        for key in product(*ranges):
            for p in self.buckets.get(key, ()):
                d = chebyshev(p, query)
                if best is None or d < best:
                    best = d
        if best is not None and best <= cutoff:
            return best
        return None


def _require_valid(pair: BoundaryPair, spacing: int, role: str) -> None:
    if pair.spacing != spacing:
        raise ValueError(
            f"{role} expects a pair with spacing {spacing}, got {pair.spacing}")
    report = validate(pair)
    if not report.valid:
        raise InvalidPairError(report)


def _lift_restrict_stages(
    pair: BoundaryPair, ratio: GridRatio
) -> Tuple[FrozenSet[Point], FrozenSet[Point], BoundaryPair]:
    """Coarsening with the two intermediate classification sets exposed.

    Test hook: the first two values are supersets of the output sets,
    sandwiched between the boundaries of the restricted set and the
    restricted set (respectively its complement).
    """
    n = ratio.n
    if pair.is_empty:
        empty = BoundaryPair(pair.dim, n, frozenset(), frozenset())
        return frozenset(), frozenset(), empty

    # All coarse points that can carry boundary information lie within
    # 3n/2 of the fine inner boundary.
    domain = set()
    for d in pair.d0:
        domain.update(ball_points(d, 3 * n, n))

    index0 = _PointIndex(pair.d0, n)
    index1 = _PointIndex(pair.d1, n)
    reach = (3 * n) // 2
    h0 = set()
    h1 = set()
    for x in domain:
        dist0 = index0.min_dist_within(x, reach)
        assert dist0 is not None  # every domain point is within reach of d0
        if 2 * dist0 <= n:
            h0.add(x)
        else:
            dist1 = index1.min_dist_within(x, dist0)
            if dist1 is not None:
                h1.add(x)

    g0 = GridSet(pair.dim, n, Mode.FINITE, frozenset(h0))
    g1 = GridSet(pair.dim, n, Mode.FINITE, frozenset(h1))
    d0_hat, d1_hat = recover_boundaries(g0, g1)
    result = BoundaryPair(pair.dim, n, d0_hat.points, d1_hat.points)
    return g0.points, g1.points, result


def lift_restrict(pair: BoundaryPair, ratio: GridRatio) -> BoundaryPair:
    """Boundary pair of the restriction of the set behind a fine pair.

    Equals tracing the restriction of the reconstructed set, but works
    on boundary data alone.  The empty pair maps to the empty pair.
    """
    _require_valid(pair, 1, "lift_restrict")
    _, _, result = _lift_restrict_stages(pair, ratio)
    return result


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
