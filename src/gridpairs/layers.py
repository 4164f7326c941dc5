"""Boundary layers of a grid set and the trace to its boundary pair.

Layer k of a set M is, for k >= 1, the slice of the complement at
distance exactly k steps from M, and for k <= 0 the slice of M at
distance exactly 1 - k steps from the complement.  Layer 0 is the inner
boundary, layer 1 the first outer layer.
"""

from __future__ import annotations

from .geometry import LineStream, dilate, erode, ring, sorted_lines
from .gridset import GridSet, Mode, complement
from .pairs import BoundaryPair


def _finite(model: GridSet, lines: LineStream) -> GridSet:
    return GridSet._trusted(model.dim, model.spacing, Mode.FINITE,
                            sorted_lines(lines))


def boundary0(gridset: GridSet) -> GridSet:
    """Members having at least one Moore neighbor outside the set.

    Empty exactly for the empty set and the full grid.
    """
    if gridset.is_empty:
        return gridset
    return _finite(gridset, trace(gridset).d0.lines.items())


def boundary1(gridset: GridSet) -> GridSet:
    """Non-members at distance exactly one step from the set."""
    if gridset.is_empty:
        return gridset
    return _finite(gridset, trace(gridset).d1.lines.items())


def layer(gridset: GridSet, k: int) -> GridSet:
    """Layer k of the set, by separable dilation or erosion.

    For k >= 1 these are complement points at distance k steps from the
    set; for k <= 0, members at distance 1 - k steps from the complement,
    which is layer 1 - k of the complement, so that case is computed as
    such.  What remains works on the line index of the stored points.
    For a finite set the layer is the outer ring of its (k - 1)-step
    dilation: the k-step dilation less the (k - 1)-step one.  For a
    cofinite set it is the inner ring of the (k - 1)-step erosion of the
    excluded points: an excluded point is at distance at least k from
    the members exactly when its (k - 1)-step ball is excluded.
    """
    if gridset.is_empty or gridset.is_full_grid:
        return _finite(gridset, ())
    if k <= 0:
        gridset, k = complement(gridset), 1 - k
    s = gridset.spacing
    near, reach = gridset.points.lines, 2 * (k - 1) * s
    if gridset.mode is Mode.FINITE:
        if k > 1:
            near = dict(dilate(near, reach, s))
        found = ring(near, s)[1]
    else:
        if k > 1:
            near = dict(erode(near, reach, s, s))
        found = ring(near, s)[0]
    return _finite(gridset, found)


def trace(gridset: GridSet) -> BoundaryPair:
    """The boundary pair (inner boundary, first outer layer) of a set.

    Rejects the empty set, whose boundary pair is not defined; the full
    grid traces to the empty pair.
    """
    if gridset.is_empty:
        raise ValueError("the empty set has no boundary pair")
    inner, outer = map(sorted_lines, ring(gridset.points.lines,
                                          gridset.spacing))
    if gridset.mode is Mode.FINITE:
        d0, d1 = inner, outer
    else:
        d0, d1 = outer, inner
    return BoundaryPair._trusted(gridset.dim, gridset.spacing, d0, d1)
