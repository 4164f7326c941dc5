"""Boundary-pair transfer between nested grids without full sets.

These operators compute the coarse (or fine) boundary pair of the
restricted (or interpolated) set directly from the input boundary pair.
No full set is ever materialized.  Restriction dilates the inner
boundary onto the coarse grid, steps out once to the candidates for the
outer layer, and settles each candidate by the side of the free run
holding it, which validation's walk recorded; interpolation intersects
half-step dilations of the two coarse boundaries.  Each has two cores.
Where the pair's box of lines, padded by about the ratio, fits the
gate of `geometry._Board`, the pair is laid on bit boards of the fine
grid, each dilation is a few shift-ORs along each axis, and each
result is read once into masks of its grid's cells.  Elsewhere, as for
far-apart clusters or a large ratio, the core works on the pair's line
index with the line kernels of `geometry`, on sets, and returns line
indexes.
"""

from __future__ import annotations

from .geometry import _Board, _Sets
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
    works on boundary data alone: one dilation of D0 by n/2 onto the
    coarse grid (`near`), one coarse step out from it to the
    candidates, the candidates outside M (the outer layer, the result's
    D1), and the points of `near` one coarse step from it (the result's
    D0), whatever the ratio n.

    Where the board of the pair, padded by n/2 + 2n cells so that no
    growth leaves a row, holds at most `_BITS_PER_POINT` bits per point
    of the pair, the core runs on that board: `near` is D0 grown by n/2
    cells, kept to the coarse grid's cells; the outer layer is `near`
    grown by one coarse step, less `near`, within the cells outside M,
    which are those of D1 and the free cells of side 1 from the walk's
    carry (`_Board.ones`) with the walk's exterior side; and D0 is
    `near` within one coarse step of it.  Both are read once into masks
    of the coarse grid's cells.  Otherwise the core runs on sets: the
    dilation and the step out are the line kernels' (`ring`), and each
    candidate off its line of D1 takes its side from `Sides.along`, a
    bisection among its line's run ends or a bit of the walk's board.
    So a large n, or a pair spread far apart, keeps the core to sets,
    and the cost follows the pair.  The empty pair maps to the empty
    pair.  Three facts carry it:

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
    d0, d1 = pair.d0, pair.d1
    board = _Board.of((d0, d1), 1, n // 2 + 2 * n)
    if board is not None:
        b0, b1 = board.build(d0), board.build(d1)
        outside = b1 | board.ones(b0 | b1, b1, sides.exterior[0])[2]
        near = board.grow(b0, n // 2) & board.grid(n)
        out1 = board.grow(near, 1, n) & ~near & outside
        out0 = board.grow(out1, 1, n) & near
        return BoundaryPair._trusted(pair.dim, n, board.view(out0, n),
                                     board.view(out1, n))
    sets = _Sets(d0)
    near = dict(sets.dilate(sets.lines, n, 1, n))
    l1 = d1.lines
    outer = {}
    for key, line in sets.ring(near, n)[1]:
        ones = set(l1.get(key, ()))
        side = sides.along(key)
        kept = [y for y in line if y in ones or side(y)]
        if kept:
            outer[key] = kept
    out1 = sets.read(outer.items())
    out0 = sets.read(sets.within(sets.dilate(outer, 2 * n, n, n), near))
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
    dilation serves twice.  The empty pair maps to the empty pair.

    Where the fine board of the pair, padded by (n+2)//2 + 1 cells,
    holds at most `_BITS_PER_POINT` bits per point of the output's
    order, |D| n^(m-1) for D = d0 | d1, the two n/2 dilations are grows
    of the two boards, each wider one a grow of them by one more cell,
    and both results are read once into masks of the fine grid's cells.
    Otherwise the core runs on sets: the two n/2 dilations are held,
    and the wider ones are intersected line by line as they are made.
    """
    n = ratio.n
    _require_valid(pair, n, "lift_interpolate")
    if pair.is_empty:
        return BoundaryPair._trusted(pair.dim, 1, {}, {})
    d0, d1 = pair.d0, pair.d1
    board = _Board.of((d0, d1), 1, (n + 2) // 2 + 1,
                      n ** (pair.dim - 1))
    if board is not None:
        near0 = board.grow(board.build(d0), n // 2)
        near1 = board.grow(board.build(d1), n // 2)
        out1 = board.grow(near0, 1) & near1 & ~near0
        out0 = near0 & (near1 if n % 2 == 0 else board.grow(near1, 1))
        return BoundaryPair._trusted(pair.dim, 1, board.view(out0),
                                     board.view(out1))
    sets = _Sets(d0)
    l0, l1 = sets.lines, d1.lines
    near0 = dict(sets.dilate(l0, n, n, 1))
    near1 = dict(sets.dilate(l1, n, n, 1))
    out1 = sets.read(sets.without(
        sets.within(sets.dilate(l0, n + 2, n, 1), near1), near0))
    if n % 2 == 0:
        out0 = sets.read(sets.within(near0.items(), near1))
    else:
        out0 = sets.read(sets.within(sets.dilate(l1, n + 1, n, 1), near0))
    return BoundaryPair._trusted(pair.dim, 1, out0, out1)
