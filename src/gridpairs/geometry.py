"""Exact integer geometry for the Chebyshev metric on integer lattices.

Everything here is nondimensionalized: the finest grid has step 1, and a
grid with spacing s consists of the points of s*Z^m.  Comparisons against
half-integer radii (s/2, 3s/2, ...) are done in doubled units, so no
fractions or floats ever enter a geometric predicate.

Dilations and erosions work on a line index (`Lines`): the last
coordinates of a point set, keyed by the first m - 1 coordinates, as
sorted lists when `lines_of` builds them and as sets when the kernels
do.  A Chebyshev ball is a box, a product of intervals, so both are
separable: one sweep per key axis, and one pass within the lines
before or after the sweeps, all of them set operations on ints.  They
yield their lines one at a time (`LineStream`), so a result that is
only filtered is never held whole.  They pay for the lines they keep:
a run that narrows to nothing is skipped before any range is built,
and a target with one line in reach shares that line, not a copy.  No
line they yield is a line of their input, which their callers keep.

Where the lines are dense, the same growths run on a dense form of the
index (`_Masks`): each line one int with one byte per cell of a shared
window, grown along the line by byte shifts and across lines by the
same sweeps, with OR for a dilation and AND for an erosion.  `_form`
picks the form from the input: masks only when the padded window holds
a few cells per stored point and the points are not few, so the cost
keeps following the points.  Callers build the form once, run a whole
operation on it and read it back once, through one interface
(`lines`, `dilate`, `erode`, `ring`, `read`) that the set form
(`_Sets`) shares; the masks live only for that operation.

The line index is the one stored form of a document's points
(`gridset.Document`): the constructors and the parser build it, the
operations read it and return their results as line indexes
(`sorted_lines`), and the writers write from it, so point tuples are
built only where points are listed (`points_of`, or iterating a
`PointView`, the set view of a line index that each point field of a
document holds).
"""

from __future__ import annotations

import collections.abc
from bisect import bisect_left, bisect_right
from collections import defaultdict
from functools import lru_cache, reduce
from itertools import chain, compress, product
from operator import add, and_, or_, sub
from typing import (Callable, Collection, DefaultDict, Dict, FrozenSet,
                    Iterable, Iterator, List, Set, Tuple, Union)

Point = Tuple[int, ...]
#: A line index: the last coordinates of a point set, keyed by the
#: first m - 1 coordinates, the line they share.
Lines = Dict[Point, Collection[int]]
#: Lines one at a time, as (key, last coordinates), each key once.  The
#: kernels yield sets; `difference` needs sets first.
#: One line object may serve several keys, so no line is changed once
#: it is made.
LineStream = Iterable[Tuple[Point, Collection[int]]]


def is_integer(value: object) -> bool:
    """Whether value is an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@lru_cache(maxsize=None)
def moore_offsets(dim: int, spacing: int) -> Tuple[Point, ...]:
    """The 3^m - 1 nonzero offsets with entries in {-spacing, 0, spacing}."""
    steps = (-spacing, 0, spacing)
    return tuple(off for off in product(steps, repeat=dim) if any(off))


def moore_neighbors(point: Point, spacing: int) -> Tuple[Point, ...]:
    """The 3^m - 1 grid points at Chebyshev distance exactly one step."""
    if len(point) == 1:
        return (point[0] - spacing,), (point[0] + spacing,)
    if len(point) == 2:
        x, y = point
        s = spacing
        return (
            (x - s, y - s), (x - s, y), (x - s, y + s),
            (x, y - s), (x, y + s),
            (x + s, y - s), (x + s, y), (x + s, y + s),
        )
    if len(point) == 3:
        x, y, z = point
        return tuple([(x + dx, y + dy, z + dz)
                      for dx, dy, dz in moore_offsets(3, spacing)])
    return tuple([tuple(map(add, point, off))
                  for off in moore_offsets(len(point), spacing)])


def grid_range(lo: int, hi: int, spacing: int) -> range:
    """The multiples of spacing in the integer interval [lo, hi], ascending."""
    return range(-(-lo // spacing) * spacing,
                 hi // spacing * spacing + 1, spacing)


class PointView(collections.abc.Set):
    """A read-only set view of the points of a line index (`lines`),
    like `dict.keys()`.

    Its length sums the line lengths, `in` is one dict lookup and one
    bisection, and iteration goes line by line; the set operators return
    plain sets.  Views of canonical indexes compare by their lines, and
    the repr lists the points sorted.  The hash is that of the frozenset
    of the points, computed on first use and kept.
    """

    __slots__ = ("lines", "_hash")

    def __init__(self, lines: Lines):
        self.lines = lines
        self._hash = None

    @classmethod
    def _from_iterable(cls, points: Iterable[Point]) -> set:
        return set(points)

    def __len__(self) -> int:
        return sum(map(len, self.lines.values()))

    def __iter__(self) -> Iterator[Point]:
        for key, line in self.lines.items():
            for c in line:
                yield key + (c,)

    def __contains__(self, point: object) -> bool:
        if not isinstance(point, tuple) or not point:
            return False
        line = self.lines.get(point[:-1], ())
        i = bisect_left(line, point[-1])
        return i < len(line) and line[i] == point[-1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PointView):
            return self.lines == other.lines
        return super().__eq__(other)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({sorted(self)!r})"


def run_ends(cells: List[int], s: int) -> List[int]:
    """The first and last of a line's sorted, distinct cells at step s,
    and between them the two cells around each gap, found by bisection:
    cells[i] - i*s is nondecreasing and grows exactly across a gap."""
    n = len(cells)
    ends = [cells[0]]
    if cells[-1] - cells[0] != (n - 1) * s:
        shifted = list(map(sub, cells, range(0, n * s, s)))
        i = bisect_right(shifted, shifted[0])
        while i < n:
            ends += cells[i - 1], cells[i]
            i = bisect_right(shifted, shifted[i], i)
    ends.append(cells[-1])
    return ends


def lines_of(points: Iterable[Point]) -> Lines:
    """The line index of a set of points, each line a sorted list; of a
    view, its own index, which the caller must not change."""
    if isinstance(points, PointView):
        return points.lines
    lines: DefaultDict[Point, List[int]] = defaultdict(list)
    for p in points:
        lines[p[:-1]].append(p[-1])
    for line in lines.values():
        line.sort()
    return dict(lines)


def sorted_lines(lines: LineStream) -> Lines:
    """The line index of a stream of lines, each line a sorted list."""
    return {key: sorted(line) for key, line in lines}


def points_of(lines: LineStream) -> FrozenSet[Point]:
    """The points of a stream of lines."""
    return frozenset([key + (c,) for key, line in lines for c in line])


def difference(first: LineStream, other: Lines) -> LineStream:
    """Line by line, the points of first that are not in other."""
    for key, line in first:
        cut = other.get(key)
        if cut is not None:
            line = line.difference(cut)
        if line:
            yield key, line


def _spans(line: Iterable[int], gap: int, widen: int,
           spacing: int) -> Set[int]:
    # The multiples of spacing in the runs of the line, a run being a
    # maximal stretch whose steps are at most gap, each widened by
    # `widen` at both ends (narrowed, if it is negative).  A run [a, b]
    # with b - a < -2 * widen narrows to nothing and is skipped; on a
    # dense erosion most runs do.
    out: Set[int] = set()
    keep = -2 * widen
    ordered = iter(sorted(line))
    a = b = next(ordered)
    for c in ordered:
        if c - b > gap:
            if b - a >= keep:
                out.update(grid_range(a - widen, b + widen, spacing))
            a = c
        b = c
    if b - a >= keep:
        out.update(grid_range(a - widen, b + widen, spacing))
    return out


def _sweep(lines: Lines, j: int, half: int, gap: int, widen: int,
           spacing: int, combine: Callable[..., Set[int]]) -> LineStream:
    # Along key axis j: the keys that differ only there form a row, the
    # row's target values are the _spans of its values, and the line at
    # a target is `combine` of the lines within half of it, or the one
    # line itself.  Targets with the same lines in reach share one line
    # object.  No sweep changes a line, and `_separable` yields only
    # lines that `_spans` or `combine` made, so no yielded line is an
    # input line.
    rows: Dict[Tuple[Point, Point], Tuple[List[int], list]] = {}
    for key, line in lines.items():
        at = key[:j], key[j + 1:]
        row = rows.get(at)
        if row is None:
            rows[at] = [key[j]], [line]
        else:
            row[0].append(key[j])
            row[1].append(line)
    for (head, tail), (values, row) in rows.items():
        n = len(values)
        if n > 1 and values != sorted(values):
            order = sorted(range(n), key=values.__getitem__)
            values = [values[i] for i in order]
            row = [row[i] for i in order]
        lo = hi = 0
        # the reach [lo, hi) of the last merged line
        at_lo = at_hi = -1
        for w in sorted(_spans(values, gap, widen, spacing)):
            while values[lo] < w - half:
                lo += 1
            while hi < n and values[hi] <= w + half:
                hi += 1
            if lo != at_lo or hi != at_hi:
                at_lo, at_hi = lo, hi
                merged = row[lo] if hi - lo == 1 else combine(*row[lo:hi])
            yield (*head, w, *tail), merged


def _separable(lines: Lines, half: int, gap: int, widen: int, source: int,
               spacing: int, combine: Callable[..., Set[int]]) -> LineStream:
    # One sweep per key axis, the last one streamed, and the runs within
    # each line.  Along the last axis a dilation commutes with the
    # sweeps' unions, and an erosion with their intersections, so the
    # runs are taken on the input lines when refining (spacing <
    # source), which has about n times fewer lines than its output, and
    # otherwise on the output lines, once per line object.
    first = spacing < source
    if first:
        lines = {key: spans for key, line in lines.items()
                 if (spans := _spans(line, gap, widen, spacing))}
    axes = len(next(iter(lines), ()))
    for j in range(axes - 1):
        lines = {key: line for key, line in _sweep(
            lines, j, half, gap, widen, spacing, combine) if line}
    found = _sweep(lines, axes - 1, half, gap, widen, spacing,
                   combine) if axes else lines.items()
    if first:
        for key, line in found:
            if line:
                yield key, line
        return
    last = spans = None
    for key, line in found:
        if line is not last:
            last = line
            spans = _spans(line, gap, widen, spacing) if line else None
        if spans:
            yield key, spans


def dilate(lines: Lines, radius_doubled: int, source: int,
           spacing: int) -> LineStream:
    """Points of the spacing grid within Chebyshev distance
    radius_doubled/2 of some stored point.

    The comparison is 2*dist <= radius_doubled, evaluated exactly, which
    makes half-integer radii representable without fractions: around
    each integer point it keeps the offsets up to radius_doubled // 2.
    The stored points lie on the source grid.  Separably: along each
    key axis a line is united into the lines within reach, and within
    each line the runs of points closer than one ball apart are widened.
    Widening a line commutes with uniting lines, so the source lines are
    widened before the sweeps when refining (spacing < source), where
    there are fewer of them, and the output lines after them otherwise.
    """
    h = radius_doubled // 2
    return _separable(lines, h, 2 * h + 1, h, source, spacing, set().union)


def erode(lines: Lines, radius_doubled: int, source: int,
          spacing: int) -> LineStream:
    """Points of the spacing grid whose ball lies in the stored points.

    The ball of a point is the source-grid points within Chebyshev
    distance radius_doubled/2 of it, compared exactly as in `dilate`;
    the stored points lie on the source grid, and radius_doubled >=
    source, so that every ball holds a source-grid point.  Separably:
    along each key axis the lines of a ball are intersected, and within
    each line the runs of consecutive points are narrowed, before the
    sweeps or after them as in `dilate`, since narrowing a line commutes
    with intersecting lines.
    """
    h = radius_doubled // 2
    return _separable(lines, h, source, source - 1 - h, source, spacing,
                      lambda first, *rest: set(first).intersection(*rest))


def _peel(lines: Lines, part: LineStream) -> LineStream:
    # The lines less part, a stream of subsets of them.
    rest = dict(lines)
    for key, line in part:
        rest[key] = set(rest[key]) - line
    for key, line in rest.items():
        if line:
            yield key, line


def ring(lines: Lines, spacing: int) -> Tuple[LineStream, LineStream]:
    """The stored points with a Moore neighbor outside, and those neighbors.

    That is, the points less their one-step erosion, and the one-step
    dilation less the points.  Each part is computed as it is read.
    """
    step = 2 * spacing
    return (_peel(lines, erode(lines, step, spacing, spacing)),
            difference(dilate(lines, step, spacing, spacing), lines))


#: The gate of the dense form: most cells of the padded window, on the
#: source grid and counted once per line, per stored point, and fewest
#: stored points, for which `_form` builds masks.
_CELLS_PER_POINT = 4
_MIN_POINTS = 256


class _Sets:
    """A line index with the set kernels of this module, the form that
    `_form` falls back to: `lines` are the stored points, and `read`
    turns a stream of lines into a line index of sorted lists."""

    __slots__ = ("lines",)
    dilate = staticmethod(dilate)
    erode = staticmethod(erode)
    ring = staticmethod(ring)
    read = staticmethod(sorted_lines)

    def __init__(self, lines: Lines):
        self.lines = lines


class _Masks:
    """The dense form of a line index: each line one int, a mask with
    one byte per cell of a window along the last axis that all lines
    share, 1 at a stored point and 0 elsewhere.

    The window starts on the coarser of the source and target grids,
    and its cells are steps of the finer.  The kernels have the
    signatures of the set kernels.  Along the last axis a dilation ORs
    and an erosion ANDs the mask's byte shifts, by doubling; cells
    beyond the window count as not stored, and a refining erosion sets
    the cells off the source grid first, so that only source cells are
    tested.  Across the key axes `_sweep` ORs or ANDs the masks in
    reach.  `read` cuts the sorted lines from the target cells of each
    mask by `compress`, so no line is sorted.
    """

    __slots__ = ("lines", "_step", "_width", "_targets", "_every",
                 "_off_source")

    def __init__(self, lines: Lines, lo: int, width: int, source: int,
                 target: int):
        self._step = step = min(source, target)
        self._width, self._every = width, target // step
        self._targets = list(range(lo, lo + width * step, target))
        off = bytes(1) + b"\x01" * (source // step - 1)
        self._off_source = int.from_bytes(
            (off * -(-width // len(off)))[:width], "little")
        blank = bytes(width)
        self.lines: Dict[Point, int] = {}
        for key, line in lines.items():
            cells = bytearray(blank)
            if step == 1:  # a quarter of the loop is the division
                for c in line:
                    cells[c - lo] = 1
            else:
                for c in line:
                    cells[(c - lo) // step] = 1
            self.lines[key] = int.from_bytes(cells, "little")

    def dilate(self, masks: Dict[Point, int], radius_doubled: int,
               source: int, spacing: int) -> LineStream:
        h = radius_doubled // 2
        return self._separable(masks, h, 2 * h + 1, h, source, spacing,
                               or_, 0)

    def erode(self, masks: Dict[Point, int], radius_doubled: int,
              source: int, spacing: int) -> LineStream:
        h = radius_doubled // 2
        return self._separable(masks, h, source, source - 1 - h, source,
                               spacing, and_, self._off_source)

    def _separable(self, masks: Dict[Point, int], half: int, gap: int,
                   widen: int, source: int, spacing: int,
                   op: Callable[[int, int], int], fill: int) -> LineStream:
        # One sweep per key axis, and along the last axis `op` of the
        # shifts by -cells..cells bytes, each shift doubling the span of
        # those taken so far and the last overlapping them.  As in the
        # set kernels' `_separable`, the shifts go first when refining,
        # where there are fewer lines, and last otherwise.
        cells = half // self._step
        shifts, span = [], 1
        while span <= 2 * cells:
            step = min(span, 2 * cells + 1 - span)
            shifts.append(8 * step)
            span += step

        def along(mask: int) -> int:
            mask |= fill
            for shift in shifts:
                mask = op(mask, mask << shift)
            return mask >> 8 * cells

        first = spacing < source
        if first:
            masks = {key: grown for key, mask in masks.items()
                     if (grown := along(mask))}
        for j in range(len(next(iter(masks), ()))):
            masks = {key: mask for key, mask in _sweep(
                masks, j, half, gap, widen, spacing,
                lambda *row: reduce(op, row)) if mask}
        if first:
            return masks.items()
        return [(key, grown) for key, mask in masks.items()
                if (grown := along(mask))]

    def ring(self, masks: Dict[Point, int],
             spacing: int) -> Tuple[LineStream, LineStream]:
        """`ring` on masks of one grid: the masks less their erosion,
        and their dilation less the masks, each computed as it is read."""
        step = 2 * spacing

        def inner() -> LineStream:
            eroded = dict(self.erode(masks, step, spacing, spacing))
            for key, mask in masks.items():
                mask &= ~eroded.get(key, 0)
                if mask:
                    yield key, mask

        def outer() -> LineStream:
            for key, mask in self.dilate(masks, step, spacing, spacing):
                mask &= ~masks.get(key, 0)
                if mask:
                    yield key, mask

        return inner(), outer()

    def read(self, masks: LineStream) -> Lines:
        targets, width, every = self._targets, self._width, self._every
        lines = {}
        for key, mask in masks:
            line = list(compress(targets,
                                 mask.to_bytes(width, "little")[::every]))
            if line:
                lines[key] = line
        return lines


_Form = Union[_Sets, _Masks]


def _form(lines: Lines, radius: int, source: int, target: int) -> _Form:
    """A document's line index (sorted lists on the source grid) in the
    form for growing it by radius onto the target grid and taking one
    more source step: masks over the window of its last coordinates
    padded by radius plus one source step on each side, when that
    window holds at most `_CELLS_PER_POINT` source cells per stored
    point, once per line, and there are at least `_MIN_POINTS`; sets
    otherwise, so that the cost follows the points where they are
    sparse, far apart or few."""
    points = sum(map(len, lines.values()))
    if points < _MIN_POINTS:
        return _Sets(lines)
    pad = radius + source
    coarse = max(source, target)
    lo = (min([line[0] for line in lines.values()]) - pad) // coarse * coarse
    hi = max([line[-1] for line in lines.values()]) + pad
    if ((hi - lo) // source + 1) * len(lines) > _CELLS_PER_POINT * points:
        return _Sets(lines)
    return _Masks(lines, lo, (hi - lo) // min(source, target) + 1, source,
                  target)


def check_on_grid(points: Collection[Point], dim: int, spacing: int,
                  what: str = "point") -> None:
    """Raise ValueError naming the first point not on the spacing-grid of Z^dim.

    The dimensions, the coordinate types and the alignment are checked
    for all points at once; only if one fails are the points walked to
    name the first that fails it.
    """
    types = set(map(type, chain.from_iterable(points)))
    if (set(map(len, points)) <= {dim}
            and all(t is not bool and issubclass(t, int) for t in types)
            and not any(map(spacing.__rmod__, chain.from_iterable(points)))):
        return
    for p in points:
        if len(p) != dim:
            raise ValueError(f"{what} {p} has dimension {len(p)}, expected {dim}")
        if not all(map(is_integer, p)):
            raise ValueError(f"{what} {p} has a coordinate that is not an "
                             f"integer")
        if any(c % spacing for c in p):
            raise ValueError(f"{what} {p} is off the spacing-{spacing} grid")
