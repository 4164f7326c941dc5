"""Boundary layers of a grid set and the trace to its boundary pair.

Layer k of a set M is, for k >= 1, the slice of the complement at
distance exactly k steps from M, and for k <= 0 the slice of M at
distance exactly 1 - k steps from the complement.  Layer 0 is the inner
boundary and layer 1 the first outer layer, which `boundary0` and
`boundary1` are and `trace` pairs.  All of them take one step, the
outer layer of a set (`_outer`), after `transfer`'s growth by k - 1.
"""

from __future__ import annotations

from typing import Tuple

from .geometry import Lines, LineStream, ring, sorted_lines
from .gridset import GridSet, Mode, complement
from .pairs import BoundaryPair
from .transfer import _grow


def _outer(mode: Mode, lines: Lines,
           spacing: int) -> Tuple[LineStream, LineStream]:
    # The outer layer of the set stored as lines in mode, then that of
    # its complement: the outer ring of a finite set's points, the
    # inner ring of a cofinite set's excluded points.  Each is computed
    # as it is read.
    inner, outer = ring(lines, spacing)
    return (outer, inner) if mode is Mode.FINITE else (inner, outer)


def _finite(model: GridSet, lines: LineStream) -> GridSet:
    return GridSet._trusted(model.dim, model.spacing, Mode.FINITE,
                            sorted_lines(lines))


def boundary0(gridset: GridSet) -> GridSet:
    """Members having at least one Moore neighbor outside the set: layer 0.

    Empty exactly for the empty set and the full grid.
    """
    return layer(gridset, 0)


def boundary1(gridset: GridSet) -> GridSet:
    """Non-members at distance exactly one step from the set: layer 1."""
    return layer(gridset, 1)


def layer(gridset: GridSet, k: int) -> GridSet:
    """Layer k of the set: the outer layer of its (k - 1)-step growth.

    For k >= 1 these are complement points at distance k steps from the
    set; for k <= 0, members at distance 1 - k steps from the complement,
    which is layer 1 - k of the complement, so that case is computed as
    such.  The growth is `transfer`'s, on the line index of the stored
    points: a finite set's points are dilated, a cofinite set's excluded
    points eroded, as an excluded point is at distance at least k from
    the members exactly when its (k - 1)-step ball is excluded.
    """
    if gridset.is_empty or gridset.is_full_grid:
        return _finite(gridset, ())
    if k <= 0:
        gridset, k = complement(gridset), 1 - k
    s = gridset.spacing
    near = gridset.points.lines
    if k > 1:
        near = dict(_grow(gridset, 2 * (k - 1) * s, s))
    return _finite(gridset, _outer(gridset.mode, near, s)[0])


def trace(gridset: GridSet) -> BoundaryPair:
    """The boundary pair (inner boundary, first outer layer) of a set:
    the outer layers of its complement and of itself.

    Rejects the empty set, whose boundary pair is not defined; the full
    grid traces to the empty pair.
    """
    if gridset.is_empty:
        raise ValueError("the empty set has no boundary pair")
    d1, d0 = map(sorted_lines, _outer(gridset.mode, gridset.points.lines,
                                      gridset.spacing))
    return BoundaryPair._trusted(gridset.dim, gridset.spacing, d0, d1)
