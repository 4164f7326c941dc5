"""Transfer of grid sets between nested grids.

The fine grid has spacing 1 and the coarse grid spacing n >= 2.
Restriction maps a fine set to the coarse points within half a coarse
step of it; interpolation maps a coarse set to the fine points within
half a coarse step.  Both are decided with doubled-unit comparisons, so
odd n (half-integer radii) costs nothing special.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import box_around, dilate
from .gridset import GridSet, Mode


@dataclass(frozen=True)
class GridRatio:
    """Integer ratio n >= 2 between the coarse and fine grid spacings."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"grid ratio must be at least 2, got {self.n}")


def restrict(gridset: GridSet, ratio: GridRatio) -> GridSet:
    """Coarse points within half a coarse step of a fine set.

    For a cofinite input, a coarse point is excluded exactly when its
    whole fine half-step ball lies in the excluded set; in particular
    the full fine grid restricts to the full coarse grid.
    """
    if gridset.spacing != 1:
        raise ValueError("restriction expects a fine set with spacing 1")
    if gridset.is_empty:
        raise ValueError("restriction of the empty set is not defined")
    return _transfer(gridset, ratio.n, ratio.n)


def interpolate(gridset: GridSet, ratio: GridRatio) -> GridSet:
    """Fine points within half a coarse step of a coarse set.

    Contains the input set; the full coarse grid interpolates to the
    full fine grid.
    """
    n = ratio.n
    if gridset.spacing != n:
        raise ValueError(
            f"interpolation expects a coarse set with spacing {n}")
    if gridset.is_empty:
        raise ValueError("interpolation of the empty set is not defined")
    return _transfer(gridset, n, 1)


def _transfer(gridset: GridSet, n: int, target_spacing: int) -> GridSet:
    # The target points within n/2 of a stored point.  For a finite set
    # they are the answer.  For a cofinite set a target point is
    # excluded when its (never empty) ball on the source grid is, so it
    # lies within n/2 of an excluded point and is among them.
    near = dilate(gridset.points, n, target_spacing)
    if gridset.mode is Mode.COFINITE:
        stored, source, h = gridset.points, gridset.spacing, n // 2
        near = {q for q in near
                if stored.issuperset(box_around(q, h, source))}
    return GridSet._trusted(gridset.dim, target_spacing, gridset.mode,
                            frozenset(near))

