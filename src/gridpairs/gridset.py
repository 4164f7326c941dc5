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
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import add
from typing import (Callable, Container, Dict, FrozenSet, Iterable, Iterator,
                    List, Optional, Tuple)

from .geometry import (
    INFINITE,
    Distance,
    Point,
    ball_points,
    bounding_box,
    box_grid_points,
    chebyshev,
    check_on_grid,
    grid_range,
    moore_neighbors,
    _offsets,
)


class Mode(enum.Enum):
    FINITE = "finite"
    COFINITE = "cofinite"


@dataclass(frozen=True)
class GridSet:
    """A finite or cofinite subset of the grid spacing * Z^dim.

    In FINITE mode the stored points are the members; in COFINITE mode
    they are the excluded grid points.  FINITE with no points is the
    empty set, COFINITE with no points is the full grid.

    The public constructors check the dimension, the spacing and the
    grid alignment of every point.  The parser checks each record as it
    reads it, and the library builds its results from points it made
    itself, so both use `_trusted`, which skips these checks: outside
    points are checked exactly once.
    """

    dim: int
    spacing: int
    mode: Mode
    points: FrozenSet[Point]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dim}")
        if self.spacing < 1:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if not isinstance(self.points, frozenset):
            object.__setattr__(self, "points", frozenset(self.points))
        check_on_grid(self.points, self.dim, self.spacing)

    @classmethod
    def _trusted(cls, dim: int, spacing: int, mode: Mode,
                 points: FrozenSet[Point]) -> "GridSet":
        # Stores fields that are already checked; skips __post_init__.
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "points", points)
        return self

    @classmethod
    def finite(cls, points: Iterable[Point], spacing: int = 1,
               dim: Optional[int] = None) -> "GridSet":
        pts = frozenset(tuple(p) for p in points)
        if dim is None:
            if not pts:
                raise ValueError("dim is required for an empty point set")
            dim = len(next(iter(pts)))
        return cls(dim, spacing, Mode.FINITE, pts)

    @classmethod
    def cofinite(cls, excluded: Iterable[Point], spacing: int = 1,
                 dim: Optional[int] = None) -> "GridSet":
        pts = frozenset(tuple(p) for p in excluded)
        if dim is None:
            if not pts:
                raise ValueError("dim is required for an empty point set")
            dim = len(next(iter(pts)))
        return cls(dim, spacing, Mode.COFINITE, pts)

    @classmethod
    def empty(cls, dim: int, spacing: int = 1) -> "GridSet":
        return cls(dim, spacing, Mode.FINITE, frozenset())

    @classmethod
    def full_grid(cls, dim: int, spacing: int = 1) -> "GridSet":
        return cls(dim, spacing, Mode.COFINITE, frozenset())

    @property
    def is_empty(self) -> bool:
        return self.mode is Mode.FINITE and not self.points

    @property
    def is_full_grid(self) -> bool:
        return self.mode is Mode.COFINITE and not self.points


@dataclass(frozen=True)
class Window:
    """Inclusive axis-aligned box in fine units, used to bound enumerations."""

    lower: Point
    upper: Point

    def __post_init__(self) -> None:
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
        return box_grid_points(self.lower, self.upper, spacing)


def window_of(points: Iterable[Point]) -> Window:
    lower, upper = bounding_box(points)
    return Window(lower, upper)


def member(gridset: GridSet, point: Point) -> bool:
    """Membership under the finite/cofinite semantics.

    The query point must lie on the set's grid.
    """
    point = tuple(point)
    check_on_grid((point,), gridset.dim, gridset.spacing)
    if gridset.mode is Mode.FINITE:
        return point in gridset.points
    return point not in gridset.points


def complement(gridset: GridSet) -> GridSet:
    """Complement within the grid; an exact involution."""
    mode = Mode.COFINITE if gridset.mode is Mode.FINITE else Mode.FINITE
    return GridSet._trusted(gridset.dim, gridset.spacing, mode, gridset.points)


def _nearest_on_grid_distance(point: Point, spacing: int) -> int:
    # Chebyshev distance from an integer point to the nearest grid point.
    best = 0
    for c in point:
        r = c % spacing
        best = max(best, min(r, spacing - r))
    return best


def dist_point_set(point: Point, gridset: GridSet) -> Distance:
    """Chebyshev distance from a point to a grid set; INFINITE for the empty set."""
    point = tuple(point)
    if gridset.mode is Mode.FINITE:
        if not gridset.points:
            return INFINITE
        return min(chebyshev(point, q) for q in gridset.points)
    # Cofinite: a member among the grid points nearest the point, or else
    # a nearest member q beyond them.  One grid step from q toward the
    # point brings every farthest axis nearer, since q is not the nearest
    # grid value on it, so that Moore neighbour of q is excluded.
    excluded, spacing = gridset.points, gridset.spacing
    radius = _nearest_on_grid_distance(point, spacing)
    if not ball_points(point, 2 * radius, spacing) <= excluded:
        return radius
    return min(chebyshev(point, q) for p in excluded
               for q in moore_neighbors(p, spacing) if q not in excluded)


def hausdorff_semi(first: GridSet, second: GridSet) -> Distance:
    """One-sided Hausdorff distance sup_{x in first} dist(x, second).

    Exact for every finite/cofinite combination.  When both sets are
    cofinite they must share a spacing.
    """
    if first.is_empty:
        return 0
    if second.is_empty:
        return INFINITE
    if first.mode is Mode.FINITE:
        return max(dist_point_set(p, second) for p in first.points)
    if second.mode is Mode.FINITE:
        # A cofinite set has members arbitrarily far from any finite set.
        return INFINITE
    if first.spacing != second.spacing:
        raise ValueError("cofinite sets must share a spacing for Hausdorff distances")
    # Both cofinite: only members of `first` that are excluded from
    # `second` contribute a positive distance.
    contributors = second.points - first.points
    if not contributors:
        return 0
    return max(dist_point_set(p, second) for p in contributors)


def hausdorff(first: GridSet, second: GridSet) -> Distance:
    """Symmetric Hausdorff distance, max of the two semi-distances."""
    return max(hausdorff_semi(first, second), hausdorff_semi(second, first))


def is_connected(gridset: GridSet) -> bool:
    """Whether any two members are joined by a Moore path inside the set.

    Defined for finite nonempty sets only.
    """
    if gridset.mode is not Mode.FINITE or not gridset.points:
        raise ValueError("connectivity is defined for finite nonempty sets")
    points = gridset.points
    return len(distance_map([min(points)], points, gridset.spacing)) \
        == len(points)


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
    order.  `points` is built from `cells` on first use; for unbounded
    components it holds only the in-window part, which is as large as
    the window.
    """

    unbounded: bool
    adjacent_d0: bool
    adjacent_d1: bool
    lowest: Point
    cells: Callable[[], Iterable[Point]] = field(repr=False)

    @cached_property
    def points(self) -> FrozenSet[Point]:
        return frozenset(self.cells())


def _run_cells(runs: List[Tuple[Point, int, int]],
               spacing: int) -> Iterator[Point]:
    for key, a, b in runs:
        for c in range(a, b + 1, spacing):
            yield key + (c,)


def components_within(window: Window, spacing: int,
                      d0: FrozenSet[Point],
                      d1: FrozenSet[Point]) -> Tuple[Component, ...]:
    """Connected components of the window grid minus d0 and d1.

    Components touching the window frame are merged into designated
    unbounded components: one for dim >= 2 (the exterior of a box is
    Moore-connected), two (left and right rays) for dim == 1.  Each
    component carries flags for Moore adjacency to d0 and to d1.  The
    unbounded components come first, then the bounded ones by their
    least point.

    The window must contain every point of d0 and d1 inflated by one
    grid step, so that all relevant adjacencies are realized inside it.

    The labelling works on runs, not cells.  A line is the set of window
    cells sharing their first m-1 coordinates, and a run is a maximal
    stretch of free cells along the last axis.  Only lines holding a
    point of d0 | d1 are split into runs; every other line is one free
    run spanning the window and, for dim >= 2, lies in the unbounded
    component, as do the first and last run of each line.  Runs of
    neighbouring lines [a, b] and [c, d] are Moore-adjacent when
    a <= d + s and c <= b + s; a union-find over the runs, fed by one
    two-pointer merge per pair of neighbouring occupied lines, joins
    them.  The adjacency flags come from the Moore neighbours of d0 and
    d1, each located in its line by bisection.  The cost is
    O(|D| 3^(m-1) log |D|) for D = d0 | d1, whatever the window's area;
    only reading `points` of an unbounded component visits the window.
    """
    s = spacing
    occupied = d0 | d1
    for j, axis in enumerate(zip(*occupied)):
        lo, hi = window.lower[j] + s, window.upper[j] - s
        if min(axis) < lo or max(axis) > hi:
            p = min(p for p in occupied if not lo <= p[j] <= hi)
            raise ValueError(
                f"window too small: {p} is within one step of the frame")
    axes = [grid_range(lo, hi, s)
            for lo, hi in zip(window.lower, window.upper)]
    if not all(axes):
        raise ValueError("window contains no grid points")
    lower = tuple(axis[0] for axis in axes)
    upper = tuple(axis[-1] for axis in axes)
    if not occupied:
        return (Component(True, False, False, lower,
                          lambda: window.grid_points(s)),)

    dim = window.dim
    first, last = lower[-1], upper[-1]
    # Run ids: 0 is the unbounded component (dim >= 2), or the left ray
    # with 1 the right ray (dim == 1); bounded runs follow.
    rays = 1 if dim > 1 else 2
    left, right = 0, rays - 1
    parent = list(range(rays))

    lines: Dict[Point, List[int]] = defaultdict(list)
    for p in occupied:
        lines[p[:-1]].append(p[-1])
    runs: Dict[Point, Tuple[List[int], List[int], List[int]]] = {}
    for key, occ in lines.items():
        occ.sort()
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
    offsets = _offsets(dim - 1, s) if dim > 1 else ()
    neighbours = {
        key: [tuple(map(add, key, off)) for off in offsets]
        for key in runs
    }
    forward = [off > zero for off in offsets]
    for key, (sa, ea, ia) in runs.items():
        free_side = False
        for nkey, ahead in zip(neighbours[key], forward):
            other = runs.get(nkey)
            if other is None:
                free_side = True
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
        if free_side:
            for r in ia:
                union(r, 0)
    root = [find(r) for r in range(len(parent))]

    adj0 = bytearray(len(parent))
    adj1 = bytearray(len(parent))
    for points, flags in ((d0, adj0), (d1, adj1)):
        by_line: Dict[Point, List[int]] = defaultdict(list)
        for p in points:
            by_line[p[:-1]].append(p[-1])
        for key, coords in by_line.items():
            for nkey in [key, *neighbours[key]]:
                other = runs.get(nkey)
                if other is None:
                    flags[0] = 1
                    continue
                starts, ends, ids = other
                n = len(starts)
                for c in coords:
                    i = bisect_left(ends, c - s)
                    while i < n and starts[i] <= c + s:
                        flags[root[ids[i]]] = 1
                        i += 1

    # Visiting the runs in lexicographic order lists each bounded
    # component's runs from its least point on.
    groups: Dict[int, List[Tuple[Point, int, int]]] = defaultdict(list)
    for key in sorted(runs):
        for a, b, r in zip(*runs[key]):
            if root[r] >= rays:
                groups[root[r]].append((key, a, b))

    if dim == 1:
        starts, ends, _ = runs[()]
        components = [
            Component(True, bool(adj0[r]), bool(adj1[r]), (a,),
                      partial(_run_cells, [((), a, b)], s))
            for r, a, b in ((left, starts[0], ends[0]),
                            (right, starts[-1], ends[-1]))
        ]
    else:
        def unbounded_cells() -> Iterator[Point]:
            for key in box_grid_points(lower[:-1], upper[:-1], s):
                for a, b, r in zip(*runs.get(key, ([first], [last], [0]))):
                    if root[r] == 0:
                        yield from _run_cells([(key, a, b)], s)

        components = [Component(True, bool(adj0[0]), bool(adj1[0]), lower,
                                unbounded_cells)]
    components.extend(
        Component(False, bool(adj0[r]), bool(adj1[r]),
                  group[0][0] + (group[0][1],), partial(_run_cells, group, s))
        for r, group in groups.items())
    return tuple(components)
