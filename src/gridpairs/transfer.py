"""Transfer of grid sets between nested grids.

The fine grid has spacing 1 and the coarse grid spacing n >= 2.
Restriction maps a fine set to the coarse points within half a coarse
step of it; interpolation maps a coarse set to the fine points within
half a coarse step.  Both are decided with doubled-unit comparisons, so
odd n (half-integer radii) costs nothing special.  Both work on the line
index of the stored points, grown by one switch (`_grow`): a finite
set moves by the separable dilation of `geometry`, a cofinite one by the
separable erosion of its excluded points, on the form of the index that
`geometry._form` picks, masks where the points are dense and sets
elsewhere.  `layers` grows a set by whole steps with the same switch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import LineStream, _form, _Form, is_integer
from .gridset import GridSet, Mode


@dataclass(frozen=True)
class GridRatio:
    """Integer ratio n >= 2 between the coarse and fine grid spacings."""

    n: int

    def __post_init__(self) -> None:
        if not is_integer(self.n):
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


def _grow(gridset: GridSet, form: _Form, radius_doubled: int,
          spacing: int) -> LineStream:
    # The stored points of the set, held in form, grown by
    # radius_doubled/2 onto the spacing grid.  A finite set grows by
    # dilation: the target points within that radius of a stored point.
    # A cofinite set grows by erosion of the excluded points: a target
    # point is excluded when its (never empty) ball on the source grid is.
    kernel = form.dilate if gridset.mode is Mode.FINITE else form.erode
    return kernel(form.lines, radius_doubled, gridset.spacing, spacing)


def _transfer(gridset: GridSet, n: int, target_spacing: int) -> GridSet:
    form = _form(gridset.points.lines, n // 2, gridset.spacing,
                 target_spacing, once=True)
    return GridSet._trusted(gridset.dim, target_spacing, gridset.mode,
                            form.read(_grow(gridset, form, n,
                                            target_spacing)))
