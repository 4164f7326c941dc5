"""Boundary-pair transfer between nested grids without full sets.

These operators compute the coarse (or fine) boundary pair of the
restricted (or interpolated) set directly from the input boundary pair.
No full set is ever materialized.  Restriction dilates the inner
boundary onto the coarse grid, steps out once to the candidates for the
outer layer (the outer half of the `ring` of that dilation), and
settles each candidate by the side of the free run holding it, which
validation's walk recorded; interpolation intersects half-step
dilations of the two coarse boundaries.  Both work on the pair's line
index with the line kernels of `geometry`, and return their results as
line indexes.  Restriction runs on line masks where validation's walk
kept its sides as a board and the dense form's gate takes the pair,
which it does not where the ratio widens the window past the pair's
points; interpolation runs on sets.
"""

from __future__ import annotations

from .geometry import _form, _Masks, _Sets
from .pairs import AxiomReport, BoundaryPair, require_valid
from .transfer import GridRatio


def _require_valid(pair: BoundaryPair, spacing: int, role: str) -> AxiomReport:
    if pair.spacing != spacing:
        raise ValueError(
            f"{role} expects a pair with spacing {spacing}, got {pair.spacing}")
    return require_valid(pair)


def lift_restrict(pair: BoundaryPair, ratio: GridRatio) -> BoundaryPair:
    """Boundary pair of the restriction of the set behind a fine pair.

    Equals tracing the restriction R of the reconstructed set M, but
    works on boundary data alone: one dilation of D0, from the pair's
    line index, onto the coarse grid, one coarse step out from it to
    the candidates, and the side of each candidate, whatever the ratio
    n.  Where the walk kept its sides as a board and the dense form's
    gate (`geometry._form`) takes D0 and D1 for one growth by n/2 onto
    the coarse grid, on their window padded by n/2 + n, the dilation,
    the step out and the inner boundary, the dilated points one coarse
    step from the outer layer, run on D0's masks, and a line's
    candidates are settled by one AND with that line of the board of
    the cells in D1 or of side 1, as a byte mask on the core's window
    (`pairs.Sides._outside`): beyond the board's window they take the
    sides of the rays, and off its lines the exterior side.  Otherwise
    they run on sets, and each candidate off its line of D1 takes its
    side from `Sides.along`: a bisection among its line's run ends, or a
    bit of the board.  The candidates kept, masks or lists, are the
    outer layer: the form reads them as the result's D1 (masks of the
    coarse grid's cells, or sorted lists) and dilates them as they are
    for its D0.  So a large n, widening the window, sends a dense pair
    to sets, and the cost follows the pair.  The empty pair maps to the
    empty pair.  Three facts carry it:

    - The coarse points within n/2 of D0 lie in R and include its inner
      boundary: a path from a member of M to an R-complement neighbour
      leaves M at a D0 point within n/2.
    - Their outside Moore neighbours include the outer layer of R, and
      such a neighbour y is outside R exactly when y is outside M, as no
      D0 point lies within n/2 of it.
    - A y off D1 is outside M exactly when the complement component of
      D0 | D1 holding it is adjacent to D1: for a valid pair, membership
      changes only across a D0-D1 step.  That is the side that
      validation's walk gives the free run holding y (`pairs.Sides`):
      the side of the cells of D0 | D1 at the run's ends, or the
      exterior side for a line off D0 | D1.
    """
    n = ratio.n
    sides = _require_valid(pair, 1, "lift_restrict").sides
    if sides is None:  # the empty pair
        return BoundaryPair._trusted(pair.dim, n, {}, {})
    # masks where the sides are a board and the gate takes the pair
    form = (_Sets(pair.d0) if sides.lines is not None
            else _form((pair.d0, pair.d1), n // 2, 1, n, once=True))
    near = dict(form.dilate(form.lines, n, 1, n))
    candidates = form.ring(near, n)[1]
    if isinstance(form, _Masks):
        # both on cells of step 1, the pair's spacing
        outer = {key: kept for key, line in candidates
                 if (kept := line & sides._outside(key, form._lo))}
    else:
        l1 = pair.d1.lines
        outer = {}
        for key, line in candidates:
            ones = set(l1.get(key, ()))
            side = sides.along(key)
            kept = [y for y in line if y in ones or side(y)]
            if kept:
                outer[key] = kept
    out1 = form.read(outer.items())
    out0 = form.read(form.within(form.dilate(outer, 2 * n, n, n), near))
    return BoundaryPair._trusted(pair.dim, n, out0, out1)


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
    dilation serves twice.  The two n/2 dilations are held; the wider
    ones are intersected line by line as they are made.  The empty pair
    maps to the empty pair.
    """
    n = ratio.n
    _require_valid(pair, n, "lift_interpolate")
    sets = _Sets(pair.d0)
    d0, d1 = sets.lines, pair.d1.lines
    near0 = dict(sets.dilate(d0, n, n, 1))
    near1 = dict(sets.dilate(d1, n, n, 1))
    out1 = sets.read(sets.without(
        sets.within(sets.dilate(d0, n + 2, n, 1), near1), near0))
    if n % 2 == 0:
        out0 = sets.read(sets.within(near0.items(), near1))
    else:
        out0 = sets.read(sets.within(sets.dilate(d1, n + 1, n, 1), near0))
    return BoundaryPair._trusted(pair.dim, 1, out0, out1)
