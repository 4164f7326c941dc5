"""Transfer of grid sets between nested grids.

The fine grid has spacing 1 and the coarse grid spacing n >= 2.
Restriction maps a fine set to the coarse points within half a coarse
step of it; interpolation maps a coarse set to the fine points within
half a coarse step.  Both are decided with doubled-unit comparisons, so
odd n (half-integer radii) costs nothing special.  Both work on the line
index of the stored points: a finite set moves by the separable
dilation of `geometry`, a cofinite one by the separable erosion of its
excluded points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import dilate, erode, sorted_lines
from .gridset import GridSet, Mode


@dataclass(frozen=True)
class GridRatio:
    """Integer ratio n >= 2 between the coarse and fine grid spacings."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int):
            raise ValueError(f"grid ratio must be an integer, got {self.n!r}")
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
    # A finite set moves by dilation: the target points within n/2 of a
    # stored point.  A cofinite set moves by erosion of the excluded
    # points: a target point is excluded when its (never empty) ball on
    # the source grid is.
    lines = gridset.points.lines
    if gridset.mode is Mode.FINITE:
        moved = dilate(lines, n, target_spacing)
    else:
        moved = erode(lines, n, gridset.spacing, target_spacing)
    return GridSet._trusted(gridset.dim, target_spacing, gridset.mode,
                            sorted_lines(moved))
