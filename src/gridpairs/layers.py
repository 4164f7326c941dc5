"""Boundary layers of a grid set and the trace to its boundary pair.

Layer k of a set M is, for k >= 1, the slice of the complement at
distance exactly k steps from M, and for k <= 0 the slice of M at
distance exactly 1 - k steps from the complement.  Layer 0 is the inner
boundary and layer 1 the first outer layer, which `boundary0` and
`boundary1` are and `trace` pairs.  All of them take one step, the
outer layer of a set (`_outer`), after `transfer`'s growth by k - 1.
The growth and the step run on the form of the stored points that
`geometry._form` picks: line masks where the points are dense, taken
once from the input and kept in the result's point view, and sets
elsewhere.
"""

from __future__ import annotations

from typing import Tuple

from .geometry import LineStream, PointView, _form, _Sets, is_integer
from .gridset import GridSet, Mode, complement
from .pairs import BoundaryPair
from .transfer import _grow


def _outer(gridset: GridSet,
           k: int) -> Tuple[_Sets, Tuple[LineStream, LineStream]]:
    # The form of the stored points for a growth by k - 1 steps, and in
    # it the outer layer of the set's (k - 1)-step growth, then that of
    # its complement: the outer ring of a finite set's grown points,
    # the inner ring of a cofinite set's eroded excluded points.  Each
    # is computed as it is read.
    s = gridset.spacing
    form = _form((gridset.points,), (k - 1) * s, s, s)
    near = form.lines
    if k > 1:
        near = dict(_grow(gridset, form, 2 * (k - 1) * s, s))
    inner, outer = form.ring(near, s)
    return form, ((outer, inner) if gridset.mode is Mode.FINITE
                  else (inner, outer))


def _finite(model: GridSet, points: PointView) -> GridSet:
    return GridSet._trusted(model.dim, model.spacing, Mode.FINITE, points)


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
    the members exactly when its (k - 1)-step ball is excluded.  k must
    be an int, not a bool.
    """
    if not is_integer(k):
        raise ValueError(f"layer index must be an integer, got {k!r}")
    if gridset.is_empty or gridset.is_full_grid:
        return _finite(gridset, PointView({}))
    if k <= 0:
        gridset, k = complement(gridset), 1 - k
    form, (outer, _) = _outer(gridset, k)
    return _finite(gridset, form.read(outer))


def trace(gridset: GridSet) -> BoundaryPair:
    """The boundary pair (inner boundary, first outer layer) of a set:
    the outer layers of its complement and of itself.

    Rejects the empty set, whose boundary pair is not defined; the full
    grid traces to the empty pair.
    """
    if gridset.is_empty:
        raise ValueError("the empty set has no boundary pair")
    form, parts = _outer(gridset, 1)
    d1, d0 = map(form.read, parts)
    return BoundaryPair._trusted(gridset.dim, gridset.spacing, d0, d1)
