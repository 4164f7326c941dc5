"""Finite and cofinite subsets of a grid, with set algebra and metrics.

A GridSet represents a subset of the grid (spacing * Z^m) that is either
finite (the stored points are the members) or cofinite (the stored points
are the finitely many grid points *excluded* from the set).  Cofinite
sets close the data model under complement and make the full grid
representable.

`components_within` labels the complement components of two finite sets
from their free runs, only to name a failing pair's separation witness.
`random_set` draws seeded random finite sets.
"""

from __future__ import annotations

import enum
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, fields
from itertools import chain, product
from typing import (AbstractSet, Container, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Tuple)

from .geometry import (
    Point,
    PointView,
    _lines_beside,
    check_on_grid,
    grid_range,
    is_integer,
    lines_of,
    moore_neighbors,
    points_of,
    run_ends,
)


#: Most cells an ASCII grid or rendering may draw, as it spans the
#: bounding box, and most cells `random_set` may expect to draw.
ASCII_CELL_BUDGET = 10**7


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
    documents compare and hash by their fields.  A dense field's view
    may hold the index as line masks until it is first read.
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
        # as its line index or as a view, which is kept; skips
        # __post_init__.
        self = object.__new__(cls)
        self.__dict__.update(zip([f.name for f in fields(cls)], values))
        for name, _ in cls._point_fields:
            points = self.__dict__[name]
            if not isinstance(points, PointView):
                self.__dict__[name] = PointView(points)
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
        return self.mode is Mode.FINITE and not self.points

    @property
    def is_full_grid(self) -> bool:
        return self.mode is Mode.COFINITE and not self.points


@dataclass(frozen=True)
class Window:
    """Inclusive axis-aligned box in fine units, used to bound enumerations.

    The corners are stored as tuples, whatever sequences they were given
    as, so that windows compare and hash by their coordinates.
    """

    lower: Point
    upper: Point

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(self.lower))
        object.__setattr__(self, "upper", tuple(self.upper))
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
    return window_of_lines(PointView(lines_of(points)))


def window_of_lines(*views: PointView) -> Window:
    """The bounding box of the points of views, not all empty: the
    extents of the keys and the line ends, which a dense view gives
    from its masks."""
    ends = [view._line_ends() for view in views if view]
    if not ends:
        raise ValueError("bounding box of an empty point set")
    keys = set().union(*[view._line_keys() for view in views])
    lower = [min(axis) for axis in zip(*keys)]
    upper = [max(axis) for axis in zip(*keys)]
    lower.append(min(end[0] for end in ends))
    upper.append(max(end[1] for end in ends))
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
                            gridset.points)


def random_set(window: Window, density: float, seed: int,
               spacing: int = 1) -> GridSet:
    """A random finite subset of the window grid points.

    Each grid point is included independently with the given probability,
    drawn from a Mersenne Twister (random.Random) seeded with
    seed * 1_000_003 + attempt; an empty draw is retried with the next
    attempt counter, so the result is nonempty and reproducible.

    Over c grid points, the attempts draw c / (1 - (1 - density)^c)
    cells in expectation; a request expecting more than
    `ASCII_CELL_BUDGET` is refused before any draw.
    """
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if spacing < 1:
        raise ValueError(f"spacing must be positive, got {spacing}")
    cells = math.prod(max(0, hi // spacing + (-lo) // spacing + 1)
                      for lo, hi in zip(window.lower, window.upper))
    if not cells:
        raise ValueError("window contains no grid points")
    draws = cells
    if density < 1 and cells <= ASCII_CELL_BUDGET:
        # the chance of a nonempty draw, exact for tiny densities
        draws = cells / -math.expm1(cells * math.log1p(-density))
    if draws > ASCII_CELL_BUDGET:
        raise ValueError(
            f"a window of {cells} grid points at density {density:g} "
            f"expects more than {ASCII_CELL_BUDGET} cell draws")
    attempt = 0
    while True:
        rng = random.Random(seed * 1_000_003 + attempt)
        points = frozenset(p for p in window.grid_points(spacing)
                           if rng.random() < density)
        if points:
            return GridSet(window.dim, spacing, Mode.FINITE, points)
        attempt += 1


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


class Component(NamedTuple):
    """A connected piece of the grid complement of two finite sets: its
    Moore adjacency to each and `lowest`, its lexicographically least point."""

    unbounded: bool
    adjacent_d0: bool
    adjacent_d1: bool
    lowest: Point


def components_within(window: Window, spacing: int,
                      d0: AbstractSet[Point], d1: AbstractSet[Point]
                      ) -> Tuple[Component, ...]:
    """Connected components of the window grid minus d0 and d1, with
    their Moore adjacency to each set.

    Components touching the window frame merge into the unbounded ones:
    one for dim >= 2 (the exterior of a box is Moore-connected), the
    left and right rays for dim == 1.  They come first, from the
    window's least grid point (in 1-D the right ray from the first cell
    past d0 | d1), then the bounded ones by their least point.  The
    window must hold d0 | d1 inflated by one grid step, so that every
    adjacency is realized in it; `pairs.validate` calls this only to
    name the separation witness of a pair that fails.

    Only the lines holding a point of d0 | d1 are split, by
    `geometry.run_ends` on their merged cells, into free runs: the open
    intervals (p, q) between those cells, the rays reaching the frame.
    Every other line, and both rays of each line, lie in the unbounded
    component for dim >= 2.  Runs (p, q) and (p', q') of neighbouring
    lines touch when p < q' and p' < q; one two-pointer merge per pair
    of neighbouring lines feeds a union-find whose roots are the least
    runs, numbered in lexicographic order.  A run (p, q) touches a set
    with a cell in [p, q] on its own or a neighbouring line, one
    bisection each, until its component is flagged; a line off d0 | d1
    touches the sets on the lines beside it.  The lines beside a line
    are its 3^(m-1) - 1 Moore neighbours, or, where those outnumber the
    K occupied lines, the occupied ones and one off them, so the cost is
    O(|D| min(3^(m-1), K) log |D|) for D = d0 | d1, whatever the
    window's area and the dimension.
    """
    s = spacing
    l0, l1 = lines_of(d0), lines_of(d1)
    keys = sorted(l0.keys() | l1.keys())
    if keys:
        box = window_of_lines(PointView(l0), PointView(l1))
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
    dim = window.dim
    before, after = axes[-1][0] - s, axes[-1][-1] + s
    # Run ids: 0 is the unbounded component (dim >= 2, or a 1-D line
    # with no stored point), or the left ray with 1 the right ray
    # (dim == 1); the bounded runs follow in lexicographic order.
    rays = 2 if dim == 1 and keys else 1
    parent = list(range(rays))

    runs: Dict[Point, Tuple[List[int], List[int], List[int]]] = {}
    for key in keys:
        a, b = l0.get(key), l1.get(key)
        cells = a or b
        if a and b:  # run_ends needs distinct cells; the sets may overlap
            cells = sorted(set(a).union(b))
        ends = run_ends(cells, s)
        n = len(parent)
        bounded = range(n, n + len(ends) // 2 - 1)
        parent.extend(bounded)
        runs[key] = ([before, *ends[1::2]], [*ends[::2], after],
                     [0, *bounded, rays - 1])

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(x: int, y: int) -> None:
        x, y = find(x), find(y)
        parent[max(x, y)] = min(x, y)

    beside = _lines_beside(runs)
    neighbours = {key: beside(key, s) for key in runs}
    free_side = set()  # lines with a neighbouring line off d0 | d1
    for key, (pa, qa, ia) in runs.items():
        for nkey in neighbours[key]:
            other = runs.get(nkey)
            if other is None:
                free_side.add(key)
            elif nkey > key:
                pb, qb, ib = other
                i = j = 0
                na, nb = len(pa), len(pb)
                while i < na and j < nb:
                    if pa[i] < qb[j] and pb[j] < qa[i] and ia[i] != ib[j]:
                        union(ia[i], ib[j])
                    if qa[i] < qb[j]:
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
        for key, (starts, stops, ids) in runs.items():
            near = [c for c in map(lines.get, [key, *neighbours[key]]) if c]
            for p, q, r in zip(starts, stops, ids):
                r = root[r]
                if not flags[r]:
                    for coords in near:
                        i = bisect_left(coords, p)
                        if i < len(coords) and coords[i] <= q:
                            flags[r] = 1
                            break

    found = [Component(True, bool(adj0[0]), bool(adj1[0]), lower)]
    if rays == 2:
        found.append(Component(True, bool(adj0[1]), bool(adj1[1]),
                               (runs[()][0][-1] + s,)))
    # the runs in order: each component comes at its root, its least run
    found += [Component(False, bool(adj0[r]), bool(adj1[r]), key + (p + s,))
              for key, (starts, _, ids) in runs.items()
              for p, r in zip(starts[1:-1], ids[1:-1]) if root[r] == r]
    return tuple(found)
