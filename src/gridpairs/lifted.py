"""Boundary-pair transfer between nested grids without full sets.

These operators compute the coarse (or fine) boundary pair of the
restricted (or interpolated) set directly from the input boundary pair.
No full set is ever materialized.  Restriction dilates the inner
boundary onto the coarse grid, steps out once to the candidates for the
outer layer (the outer half of `geometry.ring` of that dilation), and
settles each candidate by the side of the free run holding it, which
validation's walk recorded; interpolation intersects half-step
dilations of the two coarse boundaries.  Both work on the pair's line
index with the separable kernels of `geometry`, and return their
results as line indexes.  Restriction grows the inner boundary on the
form of it that `geometry._form` picks, line masks where it is dense
and sets elsewhere, and reads the candidates and the coarse inner
boundary back from it.
"""

from __future__ import annotations

from .geometry import (Lines, LineStream, _form, difference, dilate,
                       sorted_lines)
from .pairs import AxiomReport, BoundaryPair, require_valid
from .transfer import GridRatio


def _require_valid(pair: BoundaryPair, spacing: int, role: str) -> AxiomReport:
    if pair.spacing != spacing:
        raise ValueError(
            f"{role} expects a pair with spacing {spacing}, got {pair.spacing}")
    return require_valid(pair)


def _within(lines: LineStream, keep: Lines) -> LineStream:
    # Line by line, the points of lines in keep, sets or masks alike.
    # The kernels share one line object between keys, so each line kept
    # is a new one.
    for key, line in lines:
        common = keep.get(key)
        if common is not None:
            line = line & common
            if line:
                yield key, line


def lift_restrict(pair: BoundaryPair, ratio: GridRatio) -> BoundaryPair:
    """Boundary pair of the restriction of the set behind a fine pair.

    Equals tracing the restriction R of the reconstructed set M, but
    works on boundary data alone: one dilation of D0, from the pair's
    line index, onto the coarse grid, one coarse step out from it to
    the candidates, and for each candidate off its line of D1 one
    bisection among the run ends of its line, or none for a line off
    D0 | D1, whatever the ratio n.  The dilation, the step out and the
    inner boundary, the dilated points one coarse step from the outer
    layer, run on masks where D0 is dense (`geometry._form`), from
    which the candidates and the inner boundary are each read back
    once.  The empty pair maps to the empty pair.  Three facts carry
    it:

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
    l1 = pair.d1.lines
    form = _form(pair.d0.lines, n // 2, 1, n, once=True)
    near = dict(form.dilate(form.lines, n, 1, n))
    out1: Lines = {}
    for key, line in form.read(form.ring(near, n)[1]).items():
        ones = set(l1.get(key, ()))
        side = sides.along(key)
        kept = [y for y in line if y in ones or side(y)]
        if kept:
            out1[key] = kept
    out0 = form.read(_within(form.dilate(form.of(out1), 2 * n, n, n), near))
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
    d0, d1 = pair.d0.lines, pair.d1.lines
    near0, near1 = dict(dilate(d0, n, n, 1)), dict(dilate(d1, n, n, 1))
    out1 = sorted_lines(difference(_within(dilate(d0, n + 2, n, 1), near1),
                                   near0))
    if n % 2 == 0:
        out0 = sorted_lines(_within(near0.items(), near1))
    else:
        out0 = sorted_lines(_within(dilate(d1, n + 1, n, 1), near0))
    return BoundaryPair._trusted(pair.dim, 1, out0, out1)
