"""Boundary layers of a grid set and the trace to its boundary pair.

Layer k of a set M is, for k >= 1, the slice of the complement at
distance exactly k steps from M, and for k <= 0 the slice of M at
distance exactly 1 - k steps from the complement.  Layer 0 is the inner
boundary, layer 1 the first outer layer.
"""

from __future__ import annotations

from typing import AbstractSet, Set, Tuple

from .geometry import Point, moore_neighbors
from .gridset import GridSet, Mode, complement, distance_map
from .pairs import BoundaryPair


def _finite(model: GridSet, points: AbstractSet[Point]) -> GridSet:
    return GridSet._trusted(model.dim, model.spacing, Mode.FINITE,
                            frozenset(points))


def boundary0(gridset: GridSet) -> GridSet:
    """Members having at least one Moore neighbor outside the set.

    Empty exactly for the empty set and the full grid.
    """
    if gridset.is_empty:
        return gridset
    return _finite(gridset, trace(gridset).d0)


def boundary1(gridset: GridSet) -> GridSet:
    """Non-members at distance exactly one step from the set."""
    if gridset.is_empty:
        return gridset
    return _finite(gridset, trace(gridset).d1)


def layer(gridset: GridSet, k: int) -> GridSet:
    """Layer k of the set, computed by multi-source distance propagation.

    For k >= 1 these are complement points at distance k steps from the
    set; for k <= 0, members at distance 1 - k steps from the complement,
    which is layer 1 - k of the complement, so that case is computed as
    such.  What remains is one propagation that visits only points
    within k steps of the stored ones.  For a finite set it runs from
    the stored points, unbounded.  For a cofinite set it runs inside
    the excluded points, from the members next to them: on a geodesic
    from an excluded point to its nearest member every earlier node is
    excluded, so that member is one step from the excluded set.
    """
    if gridset.is_empty or gridset.is_full_grid:
        return _finite(gridset, set())
    if k <= 0:
        gridset, k = complement(gridset), 1 - k
    s = gridset.spacing
    stored = gridset.points
    target = k * s
    if gridset.mode is Mode.FINITE:
        dmap = distance_map(stored, None, s, limit=target)
    else:
        dmap = distance_map(_one_step(stored, s)[1], stored, s, limit=target)
    return _finite(gridset, {p for p, d in dmap.items() if d == target})


def _one_step(stored: AbstractSet[Point],
              spacing: int) -> Tuple[Set[Point], Set[Point]]:
    # The stored points with a Moore neighbor outside, and those outside
    # neighbors: one fused scan, seeing every adjacency from the stored side.
    inner: Set[Point] = set()
    outer: Set[Point] = set()
    for p in stored:
        for q in moore_neighbors(p, spacing):
            if q not in stored:
                inner.add(p)
                outer.add(q)
    return inner, outer


def trace(gridset: GridSet) -> BoundaryPair:
    """The boundary pair (inner boundary, first outer layer) of a set.

    Rejects the empty set, whose boundary pair is not defined; the full
    grid traces to the empty pair.
    """
    if gridset.is_empty:
        raise ValueError("the empty set has no boundary pair")
    inner, outer = _one_step(gridset.points, gridset.spacing)
    if gridset.mode is Mode.FINITE:
        d0, d1 = inner, outer
    else:
        d0, d1 = outer, inner
    return BoundaryPair._trusted(gridset.dim, gridset.spacing,
                                 frozenset(d0), frozenset(d1))


def recover_boundaries(h0: GridSet, h1: GridSet) -> Tuple[GridSet, GridSet]:
    """Recover a boundary pair from supersets of its two components.

    Assuming the inner boundary of some set M is sandwiched between h0
    and M, and its first outer layer between h1 and the complement of M,
    the boundaries are exactly the points of each superset at distance
    one step from the other superset.
    """
    if h0.mode is not Mode.FINITE or h1.mode is not Mode.FINITE:
        raise ValueError("boundary recovery expects finite sets")
    if h0.spacing != h1.spacing or h0.dim != h1.dim:
        raise ValueError("the two sets must live on the same grid")
    s = h0.spacing
    return (_finite(h0, _one_step(h1.points, s)[1] & h0.points),
            _finite(h1, _one_step(h0.points, s)[1] & h1.points))
