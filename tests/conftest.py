"""Shared test helpers, and the predicates that only the tests use."""

import math
import os
import random
from dataclasses import dataclass
from itertools import product
from typing import AbstractSet, FrozenSet, Iterator, Set, Tuple, Union

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from gridpairs import geometry
from gridpairs.geometry import (Point, check_on_grid, grid_range,
                                moore_neighbors, run_ends)
from gridpairs.gridset import (GridSet, Mode, Window, distance_map, random_set,
                               window_of)
from gridpairs.pairs import AxiomCheck, validate

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def fixture_text(name: str) -> str:
    with open(fixture_path(name), "r", encoding="utf-8") as handle:
        return handle.read()


def canonical_lines(doc) -> None:
    """Assert that every line of a document's point fields is non-empty,
    ascending and distinct, since documents compare and hash by them."""
    fields = (doc.points,) if isinstance(doc, GridSet) else (doc.d0, doc.d1)
    for field in fields:
        for line in field.lines.values():
            assert line and all(a < b for a, b in zip(line, line[1:])), line


def each_form(compute, cells=math.inf):
    """compute() with the dense form's gate forced open, so that every
    `layers`, `transfer` and `lift_restrict` call and every walk of
    `validate` whose window holds at most `cells` cells per point runs
    on masks, then forced shut, so that none does: the two values."""
    values = []
    for cap, per_line, floor in ((cells, 0, 1), (0, math.inf, math.inf)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_CELLS_PER_POINT", cap)
            patch.setattr(geometry, "_POINTS_PER_LINE", per_line)
            patch.setattr(geometry, "_MIN_POINTS", floor)
            values.append(compute())
    return values


def in_both_forms(compute, cells=math.inf):
    """compute() in both forms of `each_form`.  The two values must be
    equal, and so must every document in them, line by line; the value
    on masks is returned."""
    masks, sets = each_form(compute, cells)
    assert masks == sets
    for doc in masks if isinstance(masks, (list, tuple)) else (masks,):
        canonical_lines(doc)
    return masks


def sides_of(report, pair):
    """The free cells' sides of a pair's report as plain data, or None:
    per occupied line its run ends, rebuilt by `run_ends`, and the sides
    that `Sides.of` gives its left ray, the first free cell of each
    bounded run and its right ray, with the exterior sides.  Sides held
    as run ends must hold these."""
    sides = report.sides
    if sides is None:
        return None
    s, l0, l1 = pair.spacing, pair.d0.lines, pair.d1.lines
    lines = {}
    for key in l0.keys() | l1.keys():
        ends = run_ends(sorted([*l0.get(key, ()), *l1.get(key, ())]), s)
        firsts = [ends[0] - s, *[c + s for c in ends[1:-1:2]], ends[-1] + s]
        lines[key] = ends, bytes([sides.of(key + (c,)) for c in firsts])
    if sides.lines is not None:
        assert lines == sides.lines
    return lines, sides.exterior


def validated_in_both_forms(pair, cells=math.inf):
    """validate(pair) in both forms of `each_form`: the two reports must
    be equal, witnesses, description and `Sides` alike; the report on
    masks is returned."""
    masks, sets = each_form(lambda: validate(pair), cells)
    assert masks == sets
    assert masks.describe() == sets.describe()
    assert sides_of(masks, pair) == sides_of(sets, pair)
    return masks


def never_masks(compute):
    """compute(), failing if it builds masks."""
    def refuse(*args):
        raise AssertionError("masks built")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_Masks", refuse)
        return compute()


def masks_built(compute):
    """How many times compute() builds masks."""
    built = []
    real = geometry._Masks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_Masks",
                      lambda *args: built.append(args) or real(*args))
        compute()
    return len(built)


def lines_built(compute):
    """How many times compute() cuts the lines of a dense point view
    from its masks."""
    built = []
    real = geometry._cut_lines
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_cut_lines",
                      lambda *args: built.append(args) or real(*args))
        compute()
    return len(built)


def far_clusters_blobs():
    """2-D sets like the far-clusters documents: 3^2 cores with a fringe
    at density 0.3, the first two at opposite corners, at each of the
    workload's spreads 72, 80 and 88."""
    rng = random.Random(5)
    for spread in (72, 80, 88):
        points = set()
        for index in range(3):
            corner = ((0, spread)[index] | 1,) * 2 if index < 2 else (
                rng.randint(0, spread) | 1, rng.randint(0, spread) | 1)
            box = Window(corner, tuple(c + 2 for c in corner))
            points.update(box.grid_points(1))
            points |= random_set(box.inflate(1), 0.3,
                                 rng.randrange(1 << 30)).points
        yield GridSet.finite(points)


#: Box side per dimension, and the budget of fine points, (n + 1)^m per
#: coarse point, that caps a cluster's size: one point in 4-D at n >= 7.
CLUSTER_SPANS = {1: 6, 2: 4, 3: 3, 4: 2}
FINE_BUDGET = 5_000


@st.composite
def two_clusters(draw):
    """Two clusters, the second shifted by 0, 10^6 or 10^23 (past int64)."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(2, 9))
    cell = st.tuples(*[st.integers(0, CLUSTER_SPANS[dim] - 1)] * dim)
    size = max(1, min(CLUSTER_SPANS[dim] ** dim,
                      FINE_BUDGET // (n + 1) ** dim))
    first = draw(st.frozensets(cell, min_size=1, max_size=size))
    second = draw(st.frozensets(cell, max_size=size))
    shift = draw(st.sampled_from([0, 10**6, 10**23]))
    points = first | {tuple(c + shift for c in p) for p in second}
    return dim, n, draw(st.sampled_from(list(Mode))), points


#: Box side in steps and the farthest cluster shift per dimension; the
#: reference flood fill visits every window cell, so 4-D stays small.
LABELLING_SPANS = {1: 10, 2: 6, 3: 4, 4: 3}
LABELLING_FAR = {1: 40, 2: 16, 3: 6, 4: 1}


@st.composite
def labelling_cases(draw):
    """A window and two point sets, dense or sparse, that may overlap."""
    dim = draw(st.integers(1, 4))
    s = draw(st.integers(1, 3))
    span = LABELLING_SPANS[dim]
    if draw(st.booleans()):
        # dense: bit 0 of a cell's mark puts it in d0, bit 1 in d1
        box = [tuple(t * s for t in cell)
               for cell in product(range(span), repeat=dim)]
        marks = draw(st.lists(st.integers(0, 3), min_size=len(box),
                              max_size=len(box)))
        d0 = frozenset(p for p, m in zip(box, marks) if m & 1)
        d1 = frozenset(p for p, m in zip(box, marks) if m & 2)
    else:
        steps = st.integers(0, span - 1).map(lambda t: t * s)
        point = st.tuples(*[steps] * dim)
        d0 = draw(st.frozensets(point, max_size=2 * span))
        d1 = draw(st.frozensets(point, max_size=2 * span))
        if d0 and draw(st.booleans()):
            d1 |= draw(st.frozensets(st.sampled_from(sorted(d0))))
    shift = draw(st.integers(0, LABELLING_FAR[dim])) * s
    if shift:
        # a translated copy of part of the cluster, far along every axis
        d0 |= {tuple(c + shift for c in p) for p in sorted(d0)[::2]}
        d1 |= {tuple(c + shift for c in p) for p in sorted(d1)[::2]}
    occupied = d0 | d1
    if occupied:
        core = window_of(occupied).inflate(s)
    else:
        origin = tuple(draw(st.lists(st.integers(-5, 5), min_size=dim,
                                     max_size=dim)))
        core = Window(origin, origin)
    slack = st.integers(0, 2 * s if dim < 4 else s)
    lower = tuple(c - draw(slack) for c in core.lower)
    upper = tuple(c + draw(slack) + (0 if occupied else s)
                  for c in core.upper)
    return Window(lower, upper), s, d0, d1


#: Coordinate span per dimension of the drawn point sets, in grid steps.
GRID_SET_SPANS = {1: 20, 2: 6, 3: 2, 4: 1}


@st.composite
def grid_sets(draw, on_grid=True):
    """A random point set of dimension 1-4 at density 0-0.9 and its grid
    spacing 1-3, shifted by 0, 10^6 or 10^23 steps; off the grid, the
    points are any integers near the grid points."""
    dim = draw(st.integers(1, 4))
    s = draw(st.integers(1, 3))
    density = draw(st.sampled_from([0, 0.1, 0.5, 0.9]))
    rng = draw(st.randoms(use_true_random=False))
    span = GRID_SET_SPANS[dim]
    shift = draw(st.sampled_from([0, 10**6, 10**23]))
    jitter = 0 if on_grid else draw(st.integers(-1, 1))
    return dim, s, frozenset(
        tuple(s * (c + shift) + jitter * c for c in p)
        for p in product(range(-span, span + 1), repeat=dim)
        if rng.random() < density)


#: Largest side of the excluded block, in grid steps, per dimension.
HOLE_SIDES = {1: 400, 2: 60, 3: 12}


@st.composite
def large_cofinite_holes(draw):
    """A cofinite set whose excluded points fill one large block, minus
    member islands inside it and bites out of its faces, shifted by the
    spacing times 0, 10^6 or 10^23."""
    dim = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    sides = draw(st.tuples(*[st.integers(1, HOLE_SIDES[dim])] * dim))
    cell = st.tuples(*[st.integers(0, side - 1) for side in sides])
    islands = draw(st.lists(cell, max_size=30))
    # a bite is a cell moved onto the near or the far face of one axis
    bites = [p[:j] + (far * (sides[j] - 1),) + p[j + 1:]
             for p, j, far in draw(st.lists(
                 st.tuples(cell, st.integers(0, dim - 1), st.booleans()),
                 max_size=20))]
    excluded = set(product(*[range(side) for side in sides]))
    excluded.difference_update(islands, bites)
    shift = s * draw(st.sampled_from([0, 10**6, 10**23]))
    return GridSet.cofinite(
        {tuple(s * c + shift for c in p) for p in excluded}, s, dim)


def largest_component(gridset):
    remaining = set(gridset.points)
    best = frozenset()
    while remaining:
        comp = frozenset(distance_map([min(remaining)], remaining,
                                      gridset.spacing))
        remaining -= comp
        if len(comp) > len(best):
            best = comp
    return GridSet(gridset.dim, gridset.spacing, Mode.FINITE, best)


def coarse_dilation(coarse, n):
    # one coarse Moore step around every point, computed directly
    out = set()
    for p in coarse.points:
        out.update(ball_points(p, 2 * n, n))
    return GridSet(coarse.dim, n, Mode.FINITE, frozenset(out))


def box_around(center: Point, half: int, spacing: int) -> Iterator[Point]:
    """Grid points within Chebyshev distance `half` of center, lazily."""
    return product(*[grid_range(c - half, c + half, spacing) for c in center])


def moore_ring(stored: AbstractSet[Point],
               spacing: int) -> Tuple[Set[Point], Set[Point]]:
    """The stored points with a Moore neighbor outside, and those
    neighbors, by a scan of every stored point's Moore neighbors."""
    inner: Set[Point] = set()
    outer: Set[Point] = set()
    for p in stored:
        for q in moore_neighbors(p, spacing):
            if q not in stored:
                inner.add(p)
                outer.add(q)
    return inner, outer


def adjacency_check(origin: FrozenSet[Point], target: FrozenSet[Point],
                    spacing: int) -> AxiomCheck:
    """Reference for the adjacency axioms: the least point of origin with
    no Moore neighbour in target, by a scan of every point's neighbours."""
    isdisjoint = target.isdisjoint
    failing = [p for p in origin if isdisjoint(moore_neighbors(p, spacing))]
    return AxiomCheck(False, min(failing)) if failing else AxiomCheck(True)


def ball_points(center: Point, radius_doubled: int, spacing: int) -> frozenset:
    """Grid points within Chebyshev distance radius_doubled/2 of center.

    The comparison is 2*dist <= radius_doubled, evaluated exactly, which
    makes half-integer radii representable without fractions: for an
    integer center it keeps the offsets up to radius_doubled // 2.
    """
    if spacing < 1:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if radius_doubled < 0:
        raise ValueError(f"radius must be nonnegative, got {radius_doubled}")
    return frozenset(box_around(center, radius_doubled // 2, spacing))


#: Extended distance: a nonnegative integer, or INFINITE for distances to
#: the empty set.  INFINITE compares greater than every finite value.
Distance = Union[int, float]
INFINITE: float = math.inf


def chebyshev(u: Point, v: Point) -> int:
    """Chebyshev (maximum-coordinate) distance between two lattice points."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    # Unrolled small dimensions: the test references call this about 10^7
    # times.  The generic form took acceptance criterion 8 from 4.1-4.6 s
    # to 12.2-14.5 s and criterion 5 from 1.6-2.4 s to 3.2-3.8 s (2 vCPUs,
    # Python 3.11).
    if len(u) == 2:
        a = u[0] - v[0]
        b = u[1] - v[1]
        if a < 0:
            a = -a
        if b < 0:
            b = -b
        return a if a > b else b
    if len(u) == 3:
        a = u[0] - v[0]
        b = u[1] - v[1]
        c = u[2] - v[2]
        if a < 0:
            a = -a
        if b < 0:
            b = -b
        if c < 0:
            c = -c
        if b > a:
            a = b
        return a if a > c else c
    if len(u) == 1:
        a = u[0] - v[0]
        return -a if a < 0 else a
    return max(abs(a - b) for a, b in zip(u, v))


def rd(p: int, q: int) -> int:
    """Round the rational p/q to an integer, ties rounding up.

    Returns floor(p/q) when the fractional part is below 1/2 and
    ceil(p/q) otherwise.  Evaluated exactly in integer arithmetic, so the
    tie case (fractional part exactly 1/2) is handled correctly for
    negative p as well: rd(-1, 2) == 0.
    """
    if q <= 0:
        raise ValueError(f"denominator must be positive, got {q}")
    quot, rem = divmod(p, q)
    return quot + (1 if 2 * rem >= q else 0)


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
    excluded, spacing = frozenset(gridset.points), gridset.spacing
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
        if second.mode is Mode.FINITE:
            # dist_point_set's finite case, with second's points listed once
            stored = frozenset(second.points)
            return max(min(chebyshev(p, q) for q in stored)
                       for p in first.points)
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
    points = frozenset(gridset.points)
    return len(distance_map([min(points)], points, gridset.spacing)) \
        == len(points)


@dataclass(frozen=True)
class Path:
    """A sequence of grid points with steps of at most one spacing.

    Steps of size zero are allowed, so nodes may repeat.  The length of
    a path is its node count minus one.
    """

    spacing: int
    nodes: Tuple[Point, ...]

    def __post_init__(self) -> None:
        if self.spacing < 1:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if not self.nodes:
            raise ValueError("a path needs at least one node")
        check_on_grid(self.nodes, len(self.nodes[0]), self.spacing, "node")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if chebyshev(a, b) > self.spacing:
                raise ValueError(f"step {a} -> {b} exceeds one grid step")

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    @property
    def start(self) -> Point:
        return self.nodes[0]

    @property
    def end(self) -> Point:
        return self.nodes[-1]


def concatenate(first: Path, second: Path) -> Path:
    """Join two paths; the first must end where the second starts."""
    if first.spacing != second.spacing:
        raise ValueError("cannot concatenate paths with different spacings")
    if first.end != second.start:
        raise ValueError(
            f"endpoint mismatch: {first.end} vs {second.start}")
    return Path(first.spacing, first.nodes + second.nodes[1:])


def straight_path(x: Point, z: Point, spacing: int) -> Path:
    """The digital straight segment from x to z.

    Node l is the componentwise rounding of the affine interpolation
    ((k-l)*x + l*z) / k with k = chebyshev(x, z) / spacing, computed in
    exact rational arithmetic.  Consecutive nodes are exactly one step
    apart, and node l sits at distance l steps from x and k - l steps
    from z.
    """
    if spacing < 1:
        raise ValueError(f"spacing must be positive, got {spacing}")
    check_on_grid((x, z), len(x), spacing)
    if x == z:
        return Path(spacing, (tuple(x),))
    k = chebyshev(x, z) // spacing
    nodes = []
    for step in range(k + 1):
        nodes.append(tuple(
            rd((k - step) * xj + step * zj, k * spacing) * spacing
            for xj, zj in zip(x, z)
        ))
    return Path(spacing, tuple(nodes))


def _in_box_union(v: Point, centers_scaled: frozenset, half_width: int,
                  stride: int) -> bool:
    # Is the scaled point v inside any closed box of the given half-width
    # around a center?  Centers are multiples of stride, so at most two
    # candidates per axis need checking.
    axis_ranges = []
    for vj in v:
        lo = -((half_width - vj) // stride)
        hi = (vj + half_width) // stride
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


def recover_boundaries(h0: GridSet, h1: GridSet) -> Tuple[GridSet, GridSet]:
    """Recover a boundary pair from supersets of its two components.

    Assuming the inner boundary of some set M is sandwiched between h0
    and M, and its first outer layer between h1 and the complement of M,
    the boundaries are exactly the points of each superset at distance
    one step from the other superset.
    """
    if h0.mode is not Mode.FINITE or h1.mode is not Mode.FINITE:
        raise ValueError("boundary recovery expects finite sets")
    if h0.spacing != h1.spacing or h0.dim != h1.dim:
        raise ValueError("the two sets must live on the same grid")
    s = h0.spacing
    return (GridSet.finite(moore_ring(h1.points, s)[1] & h0.points, s, h0.dim),
            GridSet.finite(moore_ring(h0.points, s)[1] & h1.points, s, h1.dim))
