"""Finite and cofinite subsets of a grid, with set algebra and metrics.

A GridSet represents a subset of the grid (spacing * Z^m) that is either
finite (the stored points are the members) or cofinite (the stored points
are the finitely many grid points *excluded* from the set).  Cofinite
sets close the data model under complement and make the full grid
representable.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import chain, product
from operator import add
from typing import (AbstractSet, Callable, Container, Dict,
                    Iterable, Iterator, List, Optional, Tuple)

from .geometry import (
    Lines,
    Point,
    PointView,
    check_on_grid,
    grid_range,
    is_integer,
    lines_of,
    moore_neighbors,
    moore_offsets,
    points_of,
)


class Mode(enum.Enum):
    FINITE = "finite"
    COFINITE = "cofinite"


class Document:
    """The constructors and point storage shared by GridSet and BoundaryPair.

    The public constructors check the dimension, the spacing, a
    GridSet's mode and the grid alignment of every point field, named
    with its label in `_point_fields`.  The parser checks each record as it reads it, and
    the library builds its results from points it made itself, so both
    use `_trusted`, which skips these checks: outside points are checked
    exactly once.

    A point field is stored once, as a `PointView` of its line index
    (`doc.<field>.lines`): sorted lists of distinct values, none of them
    empty, which nothing changes later, so the index is canonical and
    documents compare and hash by their fields.
    """

    _point_fields: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        for name, value in (("dim", self.dim), ("spacing", self.spacing)):
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dim}")
        if self.spacing < 1:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        for name, label in self._point_fields:
            pts = getattr(self, name)
            if not isinstance(pts, frozenset):
                pts = frozenset(pts)
            check_on_grid(pts, self.dim, self.spacing, label)
            object.__setattr__(self, name, PointView(lines_of(pts)))

    @classmethod
    def _trusted(cls, *values):
        # Stores fields that are already checked, each point field given
        # as its line index; skips __post_init__.
        self = object.__new__(cls)
        self.__dict__.update(zip([f.name for f in fields(cls)], values))
        for name, _ in cls._point_fields:
            self.__dict__[name] = PointView(self.__dict__[name])
        return self


def dim_of(points: AbstractSet[Point], dim: Optional[int], what: str) -> int:
    """`dim` if given, else the dimension of the (nonempty) points."""
    if dim is None:
        if not points:
            raise ValueError(f"dim is required for an empty {what}")
        dim = len(next(iter(points)))
    return dim


@dataclass(frozen=True)
class GridSet(Document):
    """A finite or cofinite subset of the grid spacing * Z^dim.

    In FINITE mode the stored points are the members; in COFINITE mode
    they are the excluded grid points.  FINITE with no points is the
    empty set, COFINITE with no points is the full grid.
    """

    dim: int
    spacing: int
    mode: Mode
    points: AbstractSet[Point]

    _point_fields = (("points", "point"),)

    def __post_init__(self) -> None:
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")
        super().__post_init__()

    @classmethod
    def finite(cls, points: Iterable[Point], spacing: int = 1,
               dim: Optional[int] = None) -> "GridSet":
        pts = frozenset(tuple(p) for p in points)
        return cls(dim_of(pts, dim, "point set"), spacing, Mode.FINITE, pts)

    @classmethod
    def cofinite(cls, excluded: Iterable[Point], spacing: int = 1,
                 dim: Optional[int] = None) -> "GridSet":
        pts = frozenset(tuple(p) for p in excluded)
        return cls(dim_of(pts, dim, "point set"), spacing, Mode.COFINITE, pts)

    @classmethod
    def empty(cls, dim: int, spacing: int = 1) -> "GridSet":
        return cls(dim, spacing, Mode.FINITE, frozenset())

    @classmethod
    def full_grid(cls, dim: int, spacing: int = 1) -> "GridSet":
        return cls(dim, spacing, Mode.COFINITE, frozenset())

    @property
    def is_empty(self) -> bool:
        return self.mode is Mode.FINITE and not self.points.lines

    @property
    def is_full_grid(self) -> bool:
        return self.mode is Mode.COFINITE and not self.points.lines


@dataclass(frozen=True)
class Window:
    """Inclusive axis-aligned box in fine units, used to bound enumerations."""

    lower: Point
    upper: Point

    def __post_init__(self) -> None:
        if not all(map(is_integer, chain(self.lower, self.upper))):
            raise ValueError(f"window corners {self.lower}..{self.upper} "
                             f"are not integer points")
        if len(self.lower) != len(self.upper):
            raise ValueError("window corners have different dimensions")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError(f"degenerate window {self.lower}..{self.upper}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def inflate(self, amount: int) -> "Window":
        return Window(
            tuple(c - amount for c in self.lower),
            tuple(c + amount for c in self.upper),
        )

    def __contains__(self, point: Point) -> bool:
        return all(lo <= c <= hi
                   for lo, c, hi in zip(self.lower, point, self.upper))

    def grid_points(self, spacing: int) -> Iterator[Point]:
        """All points of the spacing-grid inside the window."""
        if spacing < 1:
            raise ValueError(f"spacing must be positive, got {spacing}")
        return product(*[grid_range(lo, hi, spacing)
                         for lo, hi in zip(self.lower, self.upper)])


def window_of(points: Iterable[Point]) -> Window:
    """The bounding box of a nonempty point collection."""
    return window_of_lines(lines_of(points))


def window_of_lines(*indexes: Lines) -> Window:
    """The bounding box of the points of line indexes, not all empty,
    whose lines are sorted: the extents of the keys and the line ends."""
    keys = set().union(*indexes)
    every_line = [line for index in indexes for line in index.values()]
    if not every_line:
        raise ValueError("bounding box of an empty point set")
    lower = [min(axis) for axis in zip(*keys)]
    upper = [max(axis) for axis in zip(*keys)]
    lower.append(min(line[0] for line in every_line))
    upper.append(max(line[-1] for line in every_line))
    return Window(tuple(lower), tuple(upper))


def member(gridset: GridSet, point: Point) -> bool:
    """Membership under the finite/cofinite semantics.

    The query point must lie on the set's grid.  It is looked up in the
    stored points' view: one dict lookup and one bisection.
    """
    point = tuple(point)
    check_on_grid((point,), gridset.dim, gridset.spacing)
    return (point in gridset.points) is (gridset.mode is Mode.FINITE)


def complement(gridset: GridSet) -> GridSet:
    """Complement within the grid; an exact involution."""
    mode = Mode.COFINITE if gridset.mode is Mode.FINITE else Mode.FINITE
    return GridSet._trusted(gridset.dim, gridset.spacing, mode,
                            gridset.points.lines)


def distance_map(sources: Iterable[Point], within: Optional[Container[Point]],
                 spacing: int, limit: Optional[int] = None) -> Dict[Point, int]:
    """Multi-source Chebyshev distances by breadth-first Moore steps.

    Each round adds one spacing to the distance and settles the new
    neighbours that lie in `within`, any container (None: no bound);
    the sources are settled at 0 wherever they lie.  The values are the
    lengths of the shortest Moore paths whose later nodes stay in
    `within`: the true distances to the sources when `within` is None,
    or a box containing them, since Chebyshev geodesics between points
    of a box stay inside it.  `limit` stops the propagation beyond that
    distance.
    """
    dist: Dict[Point, int] = {}
    frontier = []
    for p in sources:
        if p not in dist:
            dist[p] = 0
            frontier.append(p)
    bounded = within is not None
    current = 0
    while frontier:
        current += spacing
        if limit is not None and current > limit:
            break
        new_frontier = []
        for p in frontier:
            for q in moore_neighbors(p, spacing):
                if q not in dist and (not bounded or q in within):
                    dist[q] = current
                    new_frontier.append(q)
        frontier = new_frontier
    return dist


@dataclass(frozen=True, eq=False)
class Component:
    """A connected piece of the grid complement of two finite sets.

    `lowest` is the least point of the component in lexicographic
    order.  A bounded component lists its `runs`, the maximal stretches
    of its cells along the last axis, as (key, first, last) in
    lexicographic order.  An unbounded component lists none: it holds
    every free cell outside the bounded ones.
    """

    unbounded: bool
    adjacent_d0: bool
    adjacent_d1: bool
    lowest: Point
    runs: List[Tuple[Point, int, int]] = field(repr=False)


class Components(tuple):
    """The components of `components_within`.  `containing(q)` is the one
    holding q, a grid point off d0 and d1, in the window or beyond it."""

    containing: Callable[[Point], Component]


def components_within(window: Window, spacing: int,
                      d0: AbstractSet[Point], d1: AbstractSet[Point]
                      ) -> Components:
    """Connected components of the window grid minus d0 and d1.

    Components touching the window frame are merged into designated
    unbounded components: one for dim >= 2 (the exterior of a box is
    Moore-connected), two (left and right rays) for dim == 1.  Each
    component carries flags for Moore adjacency to d0 and to d1.  The
    unbounded components come first, then the bounded ones by their
    least point.

    The window must contain every point of d0 and d1 inflated by one
    grid step, so that all relevant adjacencies are realized inside it.

    Everything is decided on one line index of d0 and of d1, each line
    sorted, from `lines_of`, which hands over a view's own index, so
    nothing is rebuilt from a document's fields.  A line is the set of
    window cells sharing their first m-1 coordinates.  The frame
    check reads the extents of the keys and the ends of the lines.  A
    run is a maximal stretch of free cells along the last axis.  Only
    lines holding a point of d0 | d1 are split into runs, from their
    merged points; every other line is one free run spanning the window
    and, for dim >= 2, lies in the unbounded component, as do the first
    and last run of each line.  Runs of neighbouring lines [a, b] and
    [c, d] are Moore-adjacent when a <= d + s and c <= b + s; a
    union-find over the runs, fed by one two-pointer merge per pair of
    neighbouring occupied lines, joins them.  A run [a, b] is adjacent
    to a point of its own or a neighbouring line whose last coordinate
    lies in [a - s, b + s], which one bisection per run, neighbouring
    line and set decides, for runs whose component is not yet flagged;
    a line of d0 or d1 with a neighbouring line off d0 | d1 touches the
    unbounded component.  The cost is O(|D| 3^(m-1) log |D|) for
    D = d0 | d1, whatever the window's area.  Each bounded component
    carries its runs, gathered in lexicographic order; an unbounded one
    carries none, so no cell of the window is enumerated.

    The runs also locate points: `containing(q)` finds q's line by one
    dict lookup and its run by one bisection.  A line off d0 | d1 lies
    in the unbounded component for dim >= 2, and in 1-D a point past
    either end of the window lies in that end's ray.
    """
    s = spacing
    l0, l1 = lines_of(d0), lines_of(d1)
    keys = l0.keys() | l1.keys()
    if keys:
        box = window_of_lines(l0, l1)
        for j, (least, most) in enumerate(zip(box.lower, box.upper)):
            lo, hi = window.lower[j] + s, window.upper[j] - s
            if least < lo or most > hi:
                p = min(p for p in points_of(chain(l0.items(), l1.items()))
                        if not lo <= p[j] <= hi)
                raise ValueError(
                    f"window too small: {p} is within one step of the frame")
    axes = [grid_range(lo, hi, s)
            for lo, hi in zip(window.lower, window.upper)]
    if not all(axes):
        raise ValueError("window contains no grid points")
    lower = tuple(axis[0] for axis in axes)
    upper = tuple(axis[-1] for axis in axes)
    dim = window.dim
    first, last = lower[-1], upper[-1]
    # Run ids: 0 is the unbounded component (dim >= 2), or the left ray
    # with 1 the right ray (dim == 1); bounded runs follow.
    rays = 1 if dim > 1 else 2
    left, right = 0, rays - 1
    parent = list(range(rays))

    runs: Dict[Point, Tuple[List[int], List[int], List[int]]] = {}
    for key in keys:
        a, b = l0.get(key), l1.get(key)
        occ = sorted(a + b) if a and b else a or b
        starts, ends, ids = [first], [occ[0] - s], [left]
        prev = occ[0]
        for c in occ:
            if c - prev > s:
                starts.append(prev + s)
                ends.append(c - s)
                ids.append(len(parent))
                parent.append(len(parent))
            prev = c
        starts.append(prev + s)
        ends.append(last)
        ids.append(right)
        runs[key] = (starts, ends, ids)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(x: int, y: int) -> None:
        x, y = find(x), find(y)
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y

    zero = (0,) * (dim - 1)
    offsets = moore_offsets(dim - 1, s) if dim > 1 else ()
    neighbours = {
        key: [tuple(map(add, key, off)) for off in offsets]
        for key in runs
    }
    forward = [off > zero for off in offsets]
    free_side = set()  # lines with a neighbouring line off d0 | d1
    for key, (sa, ea, ia) in runs.items():
        for nkey, ahead in zip(neighbours[key], forward):
            other = runs.get(nkey)
            if other is None:
                free_side.add(key)
            elif ahead:
                sb, eb, ib = other
                i = j = 0
                na, nb = len(sa), len(sb)
                while i < na and j < nb:
                    if sa[i] <= eb[j] + s and sb[j] <= ea[i] + s:
                        union(ia[i], ib[j])
                    if ea[i] < eb[j]:
                        i += 1
                    else:
                        j += 1
        if key in free_side:
            for r in ia:
                union(r, 0)
    root = [find(r) for r in range(len(parent))]

    adj0 = bytearray(len(parent))
    adj1 = bytearray(len(parent))
    for lines, flags in ((l0, adj0), (l1, adj1)):
        if not free_side.isdisjoint(lines):
            flags[0] = 1
        for key, (starts, ends, ids) in runs.items():
            for nkey in [key, *neighbours[key]]:
                coords = lines.get(nkey)
                if coords is None:
                    continue
                n = len(coords)
                for a, b, r in zip(starts, ends, ids):
                    r = root[r]
                    if not flags[r]:
                        i = bisect_left(coords, a - s)
                        if i < n and coords[i] <= b + s:
                            flags[r] = 1

    # Visiting the runs in lexicographic order lists each bounded
    # component's runs from its least point on.
    groups: Dict[int, List[Tuple[Point, int, int]]] = defaultdict(list)
    for key in sorted(runs):
        for a, b, r in zip(*runs[key]):
            if root[r] >= rays:
                groups[root[r]].append((key, a, b))

    if dim == 1 and runs:
        starts = runs[()][0]
        found = {r: Component(True, bool(adj0[r]), bool(adj1[r]), (a,), [])
                 for r, a in ((left, starts[0]), (right, starts[-1]))}
    else:  # with no stored point, a 1-D line is one unbounded component
        found = {0: Component(True, bool(adj0[0]), bool(adj1[0]), lower, [])}
    for r, group in groups.items():
        found[r] = Component(False, bool(adj0[r]), bool(adj1[r]),
                             group[0][0] + (group[0][1],), group)

    def containing(q: Point) -> Component:
        line = runs.get(q[:-1])
        if line is None:
            return found[0]
        # past the last run lies the right ray, the last run's component
        i = min(bisect_left(line[1], q[-1]), len(line[2]) - 1)
        return found[root[line[2][i]]]

    located = Components(found.values())
    located.containing = containing
    return located
