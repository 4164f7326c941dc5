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
before or after the sweeps.  They yield their lines one at a time
(`LineStream`), so a result that is only filtered is never held whole.
They pay for the lines they keep: a run that narrows to nothing is
skipped before any range is built, and a target with one line in reach
shares that line, not a copy.  No line they yield is a line of their
input, which their callers keep.

The kernels (`dilate`, `erode`, `ring`, and the line-by-line `within`
and `without`) are written once, on the set form of a line index
(`_Sets`), over a few steps on one line each.  Where the lines are
dense, the same kernels run on a second representation of a line
(`_Masks`): one int with one byte per cell of a shared window, grown
along the line by byte shifts, combined across lines by OR and AND, and
cut by AND-NOT.  `_form` is the one gate between them: masks only when
the padded window holds a few cells per stored point, the points are
not few and, for an operation that grows them once, their lines are
not short, so the cost keeps following the points.  Callers build the
form once from the views of their inputs, run a whole operation on it
and hand its result back once (`lines`, `of`, `read`).  `pairs.validate`
and the cores of `lifted` lay a pair on bit boards instead (`_Board`),
one int with a bit per cell, grown by shift-ORs along every axis, and
read a board's rows back as one byte per cell (`_Board.read`).

The line index is the one stored form of a document's points
(`gridset.Document`): each point field holds a `PointView`, the set
view of a line index.  A dense field holds that index as masks until
its lines are first read, one byte per point of its document's grid:
the ASCII reader hands over the columns of a grid that is not sparse
as one byte per cell, which `PointView._of_cells` keeps as masks where
`_form` may take them, `_Masks.read` keeps an operation's masks, less
any cells off the target grid, as `_Board.view` keeps a lifted core's
results, `_form` takes a dense input's masks by one shift per line
where its cells are steps of the input's grid and spreads them by one
strided slice assignment where they are finer, and the ASCII writer
asks for the cells of its columns (`_cell_columns`),
so a dense document's points can stay masks from the text it was read
from, through a chain of operations, to the text it is written to.
Sparse fields, and every operation that `_form` sends to sets, use the
lists; the constructors build them, the operations return their
results as line indexes (`sorted_lines`), and the writers write from
them, so point tuples are built only where points are listed
(`points_of`, or iterating a `PointView`).
"""

from __future__ import annotations

import collections.abc
from bisect import bisect_left, bisect_right
from collections import defaultdict
from functools import lru_cache, reduce
from itertools import chain, compress, product
from math import prod
from operator import add, and_, or_, sub
from typing import (Callable, Collection, DefaultDict, Dict, FrozenSet,
                    Iterable, Iterator, List, Optional, Set, Tuple)

Point = Tuple[int, ...]
#: A line index: the last coordinates of a point set, keyed by the
#: first m - 1 coordinates, the line they share.
Lines = Dict[Point, Collection[int]]
#: Lines one at a time, as (key, last coordinates), each key once.  The
#: kernels yield sets, or masks in the dense form.  One line object may
#: serve several keys, so no line is changed once it is made.
LineStream = Iterable[Tuple[Point, Collection[int]]]


def is_integer(value: object) -> bool:
    """Whether value is an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@lru_cache(maxsize=64)
def moore_offsets(dim: int, spacing: int) -> Tuple[Point, ...]:
    """The 3^m - 1 nonzero offsets with entries in {-spacing, 0, spacing}.

    The spacing comes from the input, so the cache keeps only the 64
    most recently used.
    """
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


def _lines_beside(keys: Collection[Point]
                  ) -> Callable[[Point, int], Tuple[Point, ...]]:
    # How to list the lines beside a line of keys, the occupied lines of
    # a line index (a set or a dict): `moore_neighbors`, all 3^(m-1) - 1
    # of them, unless they outnumber the keys.  Then some of them are
    # off the keys, and only those among the keys and one off them, which
    # stands for the others, are listed, at O(|keys| m) per line instead
    # of 3^(m-1).
    m = len(next(iter(keys), ()))
    if 3 ** m - 1 <= len(keys):
        return moore_neighbors

    def beside(key: Point, spacing: int) -> Tuple[Point, ...]:
        near = [k for k in keys if k != key
                and max(map(abs, map(sub, k, key))) <= spacing]
        for off in product((-spacing, 0, spacing), repeat=m):
            q = tuple(map(add, key, off))
            if q not in keys:
                return (*near, q)

    return beside


def grid_range(lo: int, hi: int, spacing: int) -> range:
    """The multiples of spacing in the integer interval [lo, hi], ascending."""
    return range(-(-lo // spacing) * spacing,
                 hi // spacing * spacing + 1, spacing)


class PointView(collections.abc.Set):
    """A read-only set view of the points of a line index (`lines`),
    like `dict.keys()`.

    A dense view holds the index as the masks of `_Masks` instead, one
    int per line with one byte per cell of a window that all its lines
    share, whose cells are the points of its document's grid, and cuts
    its lines from them on first read, by `compress` (`_cut_lines`),
    and keeps them.  Its length, emptiness, line keys
    and line ends come from the masks.  `in` is one dict lookup and one
    bisection, and iteration goes line by line; the set operators
    return plain sets.  Views of canonical indexes compare by their
    lines, and the repr lists the points sorted.  The hash is that of
    the frozenset of the points, computed on first use and kept.
    """

    __slots__ = ("_lines", "_masks", "_window", "_hash")

    def __init__(self, lines: Lines):
        self._lines = lines
        self._masks = self._window = self._hash = None

    @classmethod
    def _of_masks(cls, masks: Dict[Point, int],
                  window: Tuple[int, int, int]) -> "PointView":
        # The view of nonzero masks on a window (lo, step, width):
        # `width` cells from lo at `step`, the spacing of the view's
        # document, so each cell is a grid point.
        self = cls(None)
        self._masks, self._window = masks, window
        return self

    @classmethod
    def _of_cells(cls, cells: Dict[Point, bytes], lo: int, step: int,
                  points: float) -> "PointView":
        """The view of lines given as one byte per cell, 1 at a point
        and 0 elsewhere, from lo at step; none of them blank.  `points`
        is their number of points, or an estimate of it.

        It holds masks where `_form` may take them: at least
        `_MIN_POINTS` points and at most `_CELLS_PER_POINT` cells of its
        lines per point, which the padding of `_form`'s window only adds
        to.  `_POINTS_PER_LINE` is left to `_form`, as `layers` takes
        masks at any line length.  Elsewhere `_form` sends every
        operation to sets, which would cut the masks into lists again,
        so the view holds the lists, picked from the cells by
        `compress`.
        """
        width = len(next(iter(cells.values()), b""))
        if (points >= _MIN_POINTS
                and len(cells) * width <= _CELLS_PER_POINT * points):
            return cls._of_masks({key: int.from_bytes(line, "little")
                                  for key, line in cells.items()},
                                 (lo, step, width))
        targets = list(range(lo, lo + width * step, step))
        return cls({key: list(compress(targets, line))
                    for key, line in cells.items()})

    @property
    def _dense(self) -> bool:
        """Whether the view holds its line index as masks."""
        return self._masks is not None

    @property
    def lines(self) -> Lines:
        if self._lines is None:
            self._lines = _cut_lines(self._masks, *self._window)
        return self._lines

    @classmethod
    def _from_iterable(cls, points: Iterable[Point]) -> set:
        return set(points)

    def _line_keys(self) -> Collection[Point]:
        """The keys of the occupied lines."""
        return (self._lines if self._masks is None else self._masks).keys()

    def _line_ends(self) -> Tuple[int, int]:
        """The least and the greatest last coordinate of a nonempty view."""
        if self._masks is None:
            lines = self._lines.values()
            return (min([line[0] for line in lines]),
                    max([line[-1] for line in lines]))
        lo, step = self._window[:2]
        occupied = reduce(or_, self._masks.values())
        return (lo + _least(occupied) * step,
                lo + ((occupied.bit_length() - 1) >> 3) * step)

    def __bool__(self) -> bool:
        return bool(self._lines if self._masks is None else self._masks)

    def __len__(self) -> int:
        if self._lines is None:
            return sum(map(int.bit_count, self._masks.values()))
        return sum(map(len, self._lines.values()))

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


def _least(mask: int) -> int:
    """The index of the lowest set byte of a nonzero mask."""
    return ((mask & -mask).bit_length() - 1) >> 3


def _cut_lines(masks: Dict[Point, int], lo: int, step: int,
               width: int) -> Lines:
    # The sorted lines of nonzero masks on a window, cut from its cells
    # by `compress`, so no line is sorted.
    targets = list(range(lo, lo + width * step, step))
    return {key: list(compress(targets, mask.to_bytes(width, "little")))
            for key, mask in masks.items()}


def _spread(line: bytes, start: int, every: int, size: int) -> bytearray:
    # `size` cells, one byte each, holding cell i of line at cell
    # start + i * every, by one strided slice assignment; the cells of
    # line that fall outside must be blank.
    skip = max(0, -(start // every))
    first = start + skip * every
    part = line[skip:skip + len(range(first, size, every))]
    cells = bytearray(size)
    cells[first:first + len(part) * every:every] = part
    return cells


def _doublings(cells: int) -> List[int]:
    # The shifts whose running OR, each shift applied to the OR so far,
    # spans 0..2 * cells: each doubles the span, the last overlaps it.
    shifts, span = [], 1
    while span <= 2 * cells:
        shifts.append(min(span, 2 * cells + 1 - span))
        span += shifts[-1]
    return shifts


def _cell_columns(views: Iterable[PointView], lo: int, step: int,
                  count: int) -> Dict[Point, bytes]:
    """Per line key of the dense views, its `count` cells from lo at
    step, one byte per cell, with bit i set where the i-th view holds
    the cell; views held as lines are left out.

    The cells must hold every point of the dense views, which are views
    on the step grid: their windows start on it and step by step.
    """
    columns: Dict[Point, int] = {}
    for bit, view in enumerate(views):
        if view._masks is None:
            continue
        start = (lo - view._window[0]) // step
        for key, mask in view._masks.items():
            mask = mask >> 8 * start if start >= 0 else mask << -8 * start
            columns[key] = columns.get(key, 0) | mask << bit
    return {key: mask.to_bytes(count, "little")
            for key, mask in columns.items()}


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
    # object.  No sweep changes a line, and `_Sets._separable` yields
    # only lines that its growth along a line or `combine` made, so no
    # yielded line is an input line.
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


#: The gate of the dense form: most cells of the padded window, on the
#: source grid and counted once per line, per stored point; fewest
#: stored points per line, for an operation that grows them once; and
#: fewest stored points, for which `_form` builds masks.
_CELLS_PER_POINT = 4
_POINTS_PER_LINE = 10
_MIN_POINTS = 256


class _Sets:
    """A line index with the line kernels, in the form that `_form`
    falls back to: `lines` are the stored points, each line a set or a
    sorted list, and a kernel's lines are sets.  `of` takes the line
    index of a view as it is, and `read` turns a stream of lines into
    the view of a line index of sorted lists.

    The kernels are written once, here, over a few steps on one line
    each, which the dense form (`_Masks`) replaces: `_along`, the growth
    within a line (`_spans`), `_union` and `_meet` across lines, and
    `_cut`, a line less another.  Each kernel takes its lines as an
    argument, in this form, and yields them one at a time.
    """

    __slots__ = ("lines",)
    _union = staticmethod(set().union)
    _meet = staticmethod(lambda first, *rest: set(first).intersection(*rest))

    def __init__(self, points: PointView):
        self.lines = self.of(points)

    @staticmethod
    def of(points: PointView) -> Lines:
        return points.lines

    @staticmethod
    def read(lines: LineStream) -> PointView:
        return PointView(sorted_lines(lines))

    @staticmethod
    def _cut(line: Collection[int], off: Collection[int]) -> Set[int]:
        # a stored line may be a sorted list; a kernel's is not copied
        return (line if isinstance(line, set) else set(line)).difference(off)

    @staticmethod
    def _along(half: int, source: int, spacing: int,
               meet: bool) -> Callable[..., Set[int]]:
        return _spans

    def dilate(self, lines: Lines, radius_doubled: int, source: int,
               spacing: int) -> LineStream:
        """Points of the spacing grid within Chebyshev distance
        radius_doubled/2 of some stored point.

        The comparison is 2*dist <= radius_doubled, evaluated exactly,
        which makes half-integer radii representable without fractions:
        around each integer point it keeps the offsets up to
        radius_doubled // 2.  The stored points lie on the source grid.
        Separably: along each key axis a line is united into the lines
        within reach, and within each line the runs of points closer
        than one ball apart are widened.
        """
        h = radius_doubled // 2
        return self._separable(lines, h, 2 * h + 1, h, source, spacing,
                               False)

    def erode(self, lines: Lines, radius_doubled: int, source: int,
              spacing: int) -> LineStream:
        """Points of the spacing grid whose ball lies in the stored points.

        The ball of a point is the source-grid points within Chebyshev
        distance radius_doubled/2 of it, compared exactly as in
        `dilate`; the stored points lie on the source grid, and
        radius_doubled >= source, so that every ball holds a source-grid
        point.  Separably: along each key axis the lines of a ball are
        intersected, and within each line the runs of consecutive points
        are narrowed.
        """
        h = radius_doubled // 2
        return self._separable(lines, h, source, source - 1 - h, source,
                               spacing, True)

    def _separable(self, lines: Lines, half: int, gap: int, widen: int,
                   source: int, spacing: int, meet: bool) -> LineStream:
        # One sweep per key axis, the last one streamed, and the growth
        # within each line.  Along the last axis a dilation commutes
        # with the sweeps' unions, and an erosion with their
        # intersections, so the lines grow first when refining (spacing
        # < source), where there are about n times fewer of them than in
        # the output, and otherwise last, once per output line object.
        combine = self._meet if meet else self._union
        along = self._along(half, source, spacing, meet)
        first = spacing < source
        if first:
            lines = {key: grown for key, line in lines.items()
                     if (grown := along(line, gap, widen, spacing))}
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
        last = grown = None
        for key, line in found:
            if line is not last:
                last = line
                grown = along(line, gap, widen, spacing) if line else None
            if grown:
                yield key, grown

    def ring(self, lines: Lines,
             spacing: int) -> Tuple[LineStream, LineStream]:
        """The stored points with a Moore neighbor outside, and those
        neighbors, on one grid.

        That is, the points less their one-step erosion, and the one-step
        dilation less the points.  Each part is computed as it is read.
        """
        step = 2 * spacing

        def inner() -> LineStream:
            yield from self.without(lines.items(), dict(
                self.erode(lines, step, spacing, spacing)))

        return inner(), self.without(
            self.dilate(lines, step, spacing, spacing), lines)

    @staticmethod
    def within(lines: LineStream, keep: Lines) -> LineStream:
        """Line by line, the points of lines that are in keep; the lines
        of both are a kernel's, sets or masks."""
        for key, line in lines:
            common = keep.get(key)
            if common is not None:
                line = line & common
                if line:
                    yield key, line

    def without(self, lines: LineStream, other: Lines) -> LineStream:
        """Line by line, the points of lines that are not in other."""
        cut = self._cut
        for key, line in lines:
            off = other.get(key)
            if off is not None:
                line = cut(line, off)
            if line:
                yield key, line


class _Masks(_Sets):
    """The dense form of a line index: each line one int, a mask with
    one byte per cell of a window along the last axis that all lines
    share, 1 at a stored point and 0 elsewhere.

    The window starts on the coarser of the source and target grids, and
    its cells are steps of the finer; `of` lays the points of a view on
    it: a dense view's masks are moved by one shift per line where its
    cells are the window's, and spread to every k-th cell by one strided
    slice assignment where each is k of them (`_spread`, interpolation's
    coarse input), and the others are built from the lines.  The
    kernels are those of `_Sets`, and a mask they yield holds cells of
    their target grid only, so that one kernel's output can be the next
    one's input.  Along the last axis a dilation ORs and an erosion ANDs
    the mask's byte shifts, by doubling; cells beyond the window count
    as not stored, and an erosion from a grid coarser than the cells
    sets the cells off that grid first, so that only its cells are
    tested.  Across the key axes the sweeps OR or AND the masks in
    reach, and a mask less another is one AND-NOT.  `read` keeps the
    nonzero masks as a dense `PointView` on the target grid's cells
    only: where the target grid is the coarser, each mask is strided
    once, to every `target // source`-th cell from the window's start.
    So the view's cells are its document's grid, the next operation's
    `of` takes its masks by one shift per line, and it cuts its sorted
    lines from them only when they are read.
    """

    __slots__ = ("_lo", "_step", "_width", "_every")
    _union = staticmethod(lambda *row: reduce(or_, row))
    _meet = staticmethod(lambda *row: reduce(and_, row))
    _cut = staticmethod(lambda line, off: line & ~off)

    def __init__(self, points: PointView, lo: int, hi: int, source: int,
                 target: int):
        self._lo, self._step = lo, min(source, target)
        self._width = (hi - lo) // self._step + 1
        self._every = target // self._step
        self.lines = self.of(points)

    def of(self, points: PointView) -> Dict[Point, int]:
        """The masks of a view whose points lie in the window."""
        lo, step = self._lo, self._step
        if points._masks is not None and points._window[1] % step == 0:
            view_lo, view_step, view_width = points._window
            start = (view_lo - lo) // step
            if view_step == step:
                shift = 8 * abs(start)
                return {key: mask << shift if start >= 0 else mask >> shift
                        for key, mask in points._masks.items()}
            # a coarser view's cells, every `every`-th of the window's
            every, width = view_step // step, self._width
            return {key: int.from_bytes(_spread(
                        mask.to_bytes(view_width, "little"), start, every,
                        width), "little")
                    for key, mask in points._masks.items()}
        blank = bytes(self._width)
        masks: Dict[Point, int] = {}
        for key, line in points.lines.items():
            cells = bytearray(blank)
            if step == 1:  # a quarter of the loop is the division
                for c in line:
                    cells[c - lo] = 1
            else:
                for c in line:
                    cells[(c - lo) // step] = 1
            masks[key] = int.from_bytes(cells, "little")
        return masks

    def read(self, masks: LineStream) -> PointView:
        width, every = self._width, self._every
        if every == 1:
            kept = {key: mask for key, mask in masks if mask}
        else:  # the target grid's cells: every `every`-th, from lo
            kept = {key: int.from_bytes(
                        mask.to_bytes(width, "little")[::every], "little")
                    for key, mask in masks if mask}
        return PointView._of_masks(
            kept, (self._lo, self._step * every, -(-width // every)))

    def _grid(self, spacing: int) -> int:
        # 1 at each cell of the window on the spacing grid, which the
        # window starts on
        every = spacing // self._step
        cell = b"\x01" + bytes(every - 1)
        return int.from_bytes((cell * -(-self._width // every))[:self._width],
                              "little")

    def _along(self, half: int, source: int, spacing: int,
               meet: bool) -> Callable[..., int]:
        # The OR (the AND, for an erosion) of a mask's shifts by
        # -cells..cells bytes, each shift doubling the span of those
        # taken so far and the last overlapping them, kept to the
        # target grid.
        cells = half // self._step
        shifts = [8 * shift for shift in _doublings(cells)]
        on = self._grid(spacing) if spacing > self._step else -1
        op = and_ if meet else or_
        fill = (self._grid(self._step) ^ self._grid(source)
                if meet and source > self._step else 0)

        def along(mask: int, gap: int, widen: int, target: int) -> int:
            mask |= fill
            for shift in shifts:
                mask = op(mask, mask << shift)
            return mask >> 8 * cells & on

        return along


def _form(views: Tuple[PointView, ...], radius: int, source: int,
          target: int, once: bool = False) -> _Sets:
    """The first of `views` (of points on the source grid) in the form
    for growing it by radius onto the target grid and taking one more
    step of the coarser grid: its masks, on a window that all of
    `views` share, where they pay, the sets otherwise.  The window spans
    their last coordinates, padded by radius plus that step on each
    side.

    This is the gate of the dense form: masks need at least
    `_MIN_POINTS` stored points in all and at most `_CELLS_PER_POINT`
    source cells of the window, once per line of the views' keys, per
    point, so the cost follows the points where they are few or far
    apart.  An operation that grows the points `once`, a transfer, also
    needs `_POINTS_PER_LINE` points per line: on shorter lines building
    and reading the masks costs more than the one growth saves.  The
    lifted operators ask the board's gate instead.  `layers` takes a
    ring after its growth and wins on masks at every line length.  The
    gate reads the views' lengths, line keys and line ends, which dense
    views give from their masks."""
    points = sum(map(len, views))
    if points >= _MIN_POINTS:
        keys = (len(views[0]._line_keys()) if len(views) == 1 else
                len(set().union(*[view._line_keys() for view in views])))
        if not once or points >= _POINTS_PER_LINE * keys:
            coarse = max(source, target)
            pad = radius + coarse
            first, last = _extent(views)
            lo, hi = (first - pad) // coarse * coarse, last + pad
            if ((hi - lo) // source + 1) * keys <= _CELLS_PER_POINT * points:
                return _Masks(views[0], lo, hi, source, target)
    return _Sets(views[0])


def _extent(views: Iterable[PointView]) -> Tuple[int, int]:
    """The least and the greatest last coordinate of the points of
    views, not all empty."""
    ends = [view._line_ends() for view in views if view]
    return min([end[0] for end in ends]), max([end[1] for end in ends])


#: The gate of the bit boards of `pairs.validate` and of the cores of
#: `lifted`: most bits of a board per point of the pair, or of the
#: result's order for an interpolation.
_BITS_PER_POINT = 64
#: A byte mask's cells as binary digits, and binary digits as cells.
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_CELLS = bytes.maketrans(b"01", b"\0\1")


class _Board:
    """The layout of a bit board, an int of one bit per cell.  Its rows
    are the lines of the box of the views' line keys, padded by `pad`
    blank lines at each end of each key axis, in lexicographic order.
    A row holds `width` cells from `lo` at `step`, `pad` free cells
    beyond the views' at each end, and a guard bit or more, in `row`
    bits, whole bytes; a stride shifts one step along a key axis, and
    `lows` and `counts` give each key axis's first row and its number of
    rows.  `at` gives the row of each line key, `every` and `starts`
    hold each row's cells, and its first cell.

    `build` lays points on a board, `grow` dilates it and `ones` finds
    the free cells of side 1; `grid` is the board of a coarser grid's
    cells, and `read` and `view` read a board's rows back on such a
    grid, one byte per cell.  A shift that moves a bit past the end of
    its row lands in the next row, so the padding must hold the growths
    from the views' cells, summed: `grow` by k steps of j cells reaches
    k * j cells further."""

    __slots__ = ("lo", "step", "width", "row", "rows", "lows", "counts",
                 "at", "strides", "starts", "every")

    @classmethod
    def of(cls, views: Tuple[PointView, ...], step: int, pad: int = 1,
           scale: int = 1) -> Optional["_Board"]:
        """The board of the views' line keys, padded by `pad` cells of
        `step`; None, before anything is built, where it has over
        `_BITS_PER_POINT` bits per point, `scale` points counted for
        each point of the views."""
        self, (first, last) = cls(), _extent(views)
        self.lo, self.step = first - pad * step, step
        self.width = (last - self.lo) // step + pad + 1
        self.row = 8 * (self.width // 8 + 1)
        keys = list(set().union(*[view._line_keys() for view in views]))
        axes = list(zip(*keys))
        self.lows = [min(axis) - pad * step for axis in axes]
        self.counts = [(max(axis) - low) // step + pad + 1
                       for axis, low in zip(axes, self.lows)]
        self.rows = prod(self.counts)
        if (self.row * self.rows
                > _BITS_PER_POINT * scale * sum(map(len, views))):
            return None
        rows = [0] * len(keys)
        for axis, low, count in zip(axes, self.lows, self.counts):
            rows = [i * count + (k - low) // step for i, k in zip(rows, axis)]
        self.at = dict(zip(keys, rows))
        self.strides = [self.row * prod(self.counts[j + 1:])
                        for j in range(len(axes))]
        self.starts = int.from_bytes(
            (1).to_bytes(self.row // 8, "little") * self.rows, "little")
        self.every = self.starts * ((1 << self.width) - 1)
        return self

    def build(self, view: PointView) -> int:
        """The board of a view's points: a dense view's masks, whose
        cells are steps of the board's, spread to the board's cells and
        read as the digits of one numeral, or point by point."""
        lo, step, row = self.lo, self.step, self.row
        if view._masks is not None:
            first, every, width = view._window
            start, every = (first - lo) // step, every // step
            digits = [bytes(row)] * self.rows
            for key, mask in view._masks.items():
                if every == 1:
                    shift = 8 * start
                    mask = mask << shift if shift >= 0 else mask >> -shift
                else:
                    mask = int.from_bytes(_spread(
                        mask.to_bytes(width, "little"), start, every, row),
                        "little")
                digits[~self.at[key]] = mask.to_bytes(row, "big")
            return int(b"".join(digits).translate(_DIGITS), 2)
        cells = bytearray(self.rows * row // 8)
        first = lo // step
        rows = self.at
        for key, line in view.lines.items():
            base = rows[key] * row - first
            for c in line:
                at = base + c // step
                cells[at >> 3] |= 1 << (at & 7)
        return int.from_bytes(cells, "little")

    def grow(self, board: int, cells: int, step: int = 1) -> int:
        """Each bit spread to the cells within `cells` steps of `step`
        cells along every axis: the OR of its shifts by -cells..cells
        such steps, by doubling, along the line and each key axis."""
        shifts = _doublings(cells)
        for unit in (step, *[stride * step for stride in self.strides]):
            for shift in shifts:
                board |= board << shift * unit
            board >>= cells * unit
        return board

    def ones(self, occupied: int, b1: int,
             side: Optional[int] = None) -> Tuple[int, int, int]:
        """The free cells of the rows, the left rays (all of a blank
        row), and the free cells of side 1, for the cells of d0 | d1
        (`occupied`) and of d1 (`b1`) of a pair whose runs agree.

        A run has side 1 where a cell of d1 comes before it, found by a
        carry through each run; the left rays take `side`, where it is
        None that of the rows' first cells: 1 where any is of d1."""
        free = self.every ^ occupied
        ones = free & ~(free + (free & b1 << 1))
        left = free & ~(free + self.starts)
        if side is None:
            side = left << 1 & b1
        return free, left, ones | left if side else ones

    def grid(self, every: int) -> int:
        """The board of the cells on the grid of every `every`-th step,
        whose coordinates are multiples of every * step, by doubling
        along the line and each key axis."""
        board = 1
        for low, count, unit in ((self.lo, self.width, 1), *reversed(
                list(zip(self.lows, self.counts, self.strides)))):
            board <<= -(low // self.step) % every * unit
            span = every
            while span < count:
                board |= board << span * unit
                span *= 2
            board &= (1 << count * unit) - 1
        return board

    def read(self, board: int,
             every: int = 1) -> Tuple[Dict[Point, bytes], int, int]:
        """The rows of a board on the grid of every `every`-th step, as
        one byte per cell of that grid from its first cell in the row,
        by line key, blank rows left out; that first cell, and the
        cells per row.  Blank rows are skipped by a search for the next
        set cell, so the cost follows the rows that are not."""
        step, row = self.step, self.row
        # the rows up to the last set bit, one byte per cell
        digits = -(-board.bit_length() // row) * row
        cells = format(board, f"0{digits}b").encode().translate(_CELLS)[::-1]
        first = -(self.lo // step) % every
        width = len(range(first, self.width, every))
        span = width * every
        axes = list(zip(self.lows, self.counts))[::-1]
        lines = {}
        at = cells.find(1)
        while at >= 0:
            index = at // row
            at = index * row + first
            line = cells[at:at + span:every]
            key = ()
            for low, count in axes:
                index, i = divmod(index, count)
                key = (low + i * step, *key)
            if 1 in line and (every == 1 or not any(
                    [c // step % every for c in key])):
                lines[key] = line
            at = cells.find(1, at - first + row)
        return lines, self.lo + first * step, width

    def view(self, board: int, every: int = 1) -> PointView:
        """The dense view of a board's cells on the grid of every
        `every`-th step, one byte per cell of that grid."""
        lines, lo, width = self.read(board, every)
        return PointView._of_masks(
            {key: int.from_bytes(line, "little")
             for key, line in lines.items()}, (lo, every * self.step, width))


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
