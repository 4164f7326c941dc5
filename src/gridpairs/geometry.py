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
not short, so the cost keeps following the points.  It takes one line
index, or both sets of a pair for `pairs.validate`, which lays them on
one window.  Callers build the form once, run a whole operation on it
and read it back once (`lines`, `of`, `read`); the masks live only for
that operation.

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
                    Iterable, Iterator, List, Set, Tuple)

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
    sorted list, and a kernel's lines are sets.  `of` takes another
    line index as it is, and `read` turns a stream of lines into a line
    index of sorted lists.

    The kernels are written once, here, over a few steps on one line
    each, which the dense form (`_Masks`) replaces: `_along`, the growth
    within a line (`_spans`), `_union` and `_meet` across lines, and
    `_cut`, a line less another.  Each kernel takes its lines as an
    argument, in this form, and yields them one at a time.
    """

    __slots__ = ("lines",)
    read = staticmethod(sorted_lines)
    _union = staticmethod(set().union)
    _meet = staticmethod(lambda first, *rest: set(first).intersection(*rest))

    def __init__(self, lines: Lines):
        self.lines = lines

    @staticmethod
    def of(lines: Lines) -> Lines:
        return lines

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

    The window starts on the coarser of the source and target grids,
    and its cells are steps of the finer; `targets` are its cells on
    the target grid, ascending, and `of` builds the masks of another
    line index on it.  The kernels are those of `_Sets`, and a mask
    they yield holds cells of their target grid only, so that one
    kernel's output can be the next one's input.  Along the last axis a
    dilation ORs and an erosion ANDs the mask's byte shifts, by
    doubling; cells beyond the window count as not stored, and an
    erosion from a grid coarser than the cells sets the cells off that
    grid first, so that only its cells are tested.  Across the key axes
    the sweeps OR or AND the masks in reach, and a mask less another is
    one AND-NOT.  `read` cuts the sorted lines from the target cells of
    each mask by `compress`, so no line is sorted.
    """

    __slots__ = ("targets", "_lo", "_step", "_width", "_every")
    _union = staticmethod(lambda *row: reduce(or_, row))
    _meet = staticmethod(lambda *row: reduce(and_, row))
    _cut = staticmethod(lambda line, off: line & ~off)

    def __init__(self, lines: Lines, lo: int, width: int, source: int,
                 target: int):
        self._lo, self._step = lo, min(source, target)
        self._width, self._every = width, target // self._step
        self.targets = list(range(lo, lo + width * self._step, target))
        self.lines = self.of(lines)

    def of(self, lines: Lines) -> Dict[Point, int]:
        """The masks of a line index whose points lie in the window."""
        lo, step = self._lo, self._step
        blank = bytes(self._width)
        masks: Dict[Point, int] = {}
        for key, line in lines.items():
            cells = bytearray(blank)
            if step == 1:  # a quarter of the loop is the division
                for c in line:
                    cells[c - lo] = 1
            else:
                for c in line:
                    cells[(c - lo) // step] = 1
            masks[key] = int.from_bytes(cells, "little")
        return masks

    def read(self, masks: LineStream) -> Lines:
        targets, width, every = self.targets, self._width, self._every
        lines = {}
        for key, mask in masks:
            line = list(compress(targets,
                                 mask.to_bytes(width, "little")[::every]))
            if line:
                lines[key] = line
        return lines

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
        shifts, span = [], 1
        while span <= 2 * cells:
            step = min(span, 2 * cells + 1 - span)
            shifts.append(8 * step)
            span += step
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


def _form(indexes: Tuple[Lines, ...], radius: int, source: int,
          target: int, once: bool = False) -> _Sets:
    """The first of `indexes` (line indexes of sorted lists on the
    source grid) in the form for growing it by radius onto the target
    grid and taking one more step of the coarser grid: its masks, on a
    window that all of `indexes` share, where they pay, the sets
    otherwise.

    The window spans their last coordinates, padded by radius plus that
    step on each side.  This is the one gate of the dense form: masks
    need at least `_MIN_POINTS` stored points in all and at most
    `_CELLS_PER_POINT` source cells of the window, once per line, per
    point, so that the cost follows the points where they are few or
    far apart.  An operation that grows the points `once` (a transfer,
    the walk of `pairs.validate`, the core of `lifted.lift_restrict`)
    also needs `_POINTS_PER_LINE` points per line: on shorter lines
    building and reading the masks costs more than the one growth
    saves.  `layers` takes a ring after its growth and wins on masks at
    every line length."""
    lines = [line for index in indexes for line in index.values()]
    points = sum(map(len, lines))
    if points >= _MIN_POINTS:
        keys = (len(indexes[0]) if len(indexes) == 1
                else len(set().union(*indexes)))
        if not once or points >= _POINTS_PER_LINE * keys:
            coarse = max(source, target)
            pad = radius + coarse
            lo = (min([line[0] for line in lines]) - pad) // coarse * coarse
            hi = max([line[-1] for line in lines]) + pad
            if ((hi - lo) // source + 1) * keys <= _CELLS_PER_POINT * points:
                return _Masks(indexes[0], lo,
                              (hi - lo) // min(source, target) + 1,
                              source, target)
    return _Sets(indexes[0])


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
