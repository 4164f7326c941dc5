"""Transfer of grid sets between nested grids.

The fine grid has spacing 1 and the coarse grid spacing n >= 2.
Restriction maps a fine set to the coarse points within half a coarse
step of it; interpolation maps a coarse set to the fine points within
half a coarse step.  Both are decided with doubled-unit comparisons, so
odd n (half-integer radii) costs nothing special.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .geometry import Point, ceil_div, dilate, floor_div
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
        stored, source = gridset.points, gridset.spacing
        near = {q for q in near if dilate((q,), n, source) <= stored}
    return GridSet(gridset.dim, target_spacing, gridset.mode, frozenset(near))


def _in_box_union(v: Point, centers_scaled: frozenset, half_width: int,
                  stride: int) -> bool:
    # Is the scaled point v inside any closed box of the given half-width
    # around a center?  Centers are multiples of stride, so at most two
    # candidates per axis need checking.
    axis_ranges = []
    for vj in v:
        lo = ceil_div(vj - half_width, stride)
        hi = floor_div(vj + half_width, stride)
        if lo > hi:
            return False
        axis_ranges.append(range(lo, hi + 1))
    return any(
        tuple(t * stride for t in combo) in centers_scaled
        for combo in product(*axis_ranges)
    )


def is_voronoi_cover(gridset: GridSet, cover: GridSet) -> bool:
    """Whether the half-step boxes of `cover` contain those of `gridset`.

    Both sets must be finite and nonempty; they may live on grids of
    different spacings.  All box faces lie on the half-unit lattice, so
    containment of the two box unions is decided exactly by sampling the
    quarter-unit lattice, represented as integers scaled by four.
    """
    for g, name in ((gridset, "covered set"), (cover, "cover")):
        if g.mode is not Mode.FINITE or not g.points:
            raise ValueError(f"{name} must be finite and nonempty")
    if gridset.dim != cover.dim:
        raise ValueError("sets must have the same dimension")
    s = gridset.spacing
    t = cover.spacing
    cover_scaled = frozenset(
        tuple(4 * c for c in p) for p in cover.points)
    half_covered = 2 * s
    half_cover = 2 * t
    offsets = range(-half_covered, half_covered + 1)
    for p in gridset.points:
        base = tuple(4 * c for c in p)
        for combo in product(offsets, repeat=gridset.dim):
            v = tuple(b + o for b, o in zip(base, combo))
            if not _in_box_union(v, cover_scaled, half_cover, 4 * t):
                return False
    return True
