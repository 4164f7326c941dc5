import copy
import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridpairs import geometry
from gridpairs.geometry import (_form, _Masks, dilate, erode, grid_range,
                                lines_of, moore_neighbors, points_of, ring,
                                run_ends, sorted_lines)
from gridpairs.gridset import Window, window_of

from conftest import (INFINITE, ball_points, chebyshev, grid_sets, moore_ring,
                      rd)


def masks_of(lines, radius_doubled, source, target):
    # the dense form of lines for a growth by radius_doubled/2, its gate
    # forced open
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_CELLS_PER_POINT", math.inf)
        patch.setattr(geometry, "_POINTS_PER_LINE", 0)
        patch.setattr(geometry, "_MIN_POINTS", 1)
        form = _form(lines, radius_doubled // 2, source, target)
    assert isinstance(form, _Masks) or not lines
    return form


def read_points(form, lines):
    # the points of a stream of lines in form, each line checked to be
    # non-empty, ascending and distinct
    index = form.read(lines)
    for line in index.values():
        assert line and all(a < b for a, b in zip(line, line[1:]))
    return points_of(index.items())


def on_masks(kernel, lines, radius_doubled, source, target):
    """The points of `kernel` (dilate or erode) on the dense form."""
    form = masks_of(lines, radius_doubled, source, target)
    return read_points(form, getattr(form, kernel)(
        form.lines, radius_doubled, source, target))


def brute_ball(center, radius_doubled, spacing):
    # independent oracle: scan a box of fine points, keep on-grid ones
    reach = radius_doubled  # generous: 2*dist <= r implies dist <= r
    axes = [range(c - reach, c + reach + 1) for c in center]
    return frozenset(
        p for p in product(*axes)
        if all(v % spacing == 0 for v in p)
        and 2 * max(abs(a - b) for a, b in zip(p, center)) <= radius_doubled
    )


class TestChebyshev:
    def test_identity(self):
        assert chebyshev((0, 0), (0, 0)) == 0

    def test_plain(self):
        assert chebyshev((0, 0), (3, -1)) == 3
        assert chebyshev((1, 2, 3), (4, 2, 1)) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            chebyshev((0, 0), (1, 2, 3))


class TestRd:
    def test_integers_fixed(self):
        assert rd(7, 1) == 7

    def test_half_ties_round_up(self):
        assert rd(3, 2) == 2
        assert rd(-1, 2) == 0

    def test_two_thirds(self):
        assert rd(2, 3) == 1

    def test_bad_denominator(self):
        for q in (0, -1):
            with pytest.raises(ValueError):
                rd(1, q)

    def test_matches_definition_exhaustive(self):
        # floor when fractional part < 1/2, ceil otherwise
        for q in range(1, 13):
            for p in range(-100, 101):
                frac = p / q - math.floor(p / q)
                expected = math.floor(p / q) if frac < 0.5 else math.ceil(p / q)
                # p, q are small enough for float to be exact here except
                # at ties, which we recheck in rationals
                if 2 * (p % q) == q:
                    expected = p // q + 1
                assert rd(p, q) == expected, (p, q)

    def test_five_properties_exhaustive(self):
        qs = range(1, 13)
        ps = range(-100, 101)
        for q in qs:
            values = {p: rd(p, q) for p in ps}
            for p in ps:
                # integers map to themselves
                if p % q == 0:
                    assert values[p] == p // q
                # adding an integer commutes with rounding
                for k in (-3, 1, 7):
                    if p + k * q in values:
                        assert values[p + k * q] == values[p] + k
                # absolute value bound
                assert abs(values[p]) <= values.get(abs(p), rd(abs(p), q))
                # monotone
                if p + 1 in values:
                    assert values[p] <= values[p + 1]
            # Lipschitz on integer multiples of q
            for p in ps:
                for k in (1, 2, 5):
                    other = p + k * q - 1  # |p - other| <= k*q
                    assert abs(rd(other, q) - values[p]) <= k


class TestBallPoints:
    def test_coarse_point_alone(self):
        assert ball_points((0, 0), 2, 2) == frozenset({(0, 0)})

    def test_fine_center_four_coarse(self):
        expected = brute_ball((1, 1), 2, 2)
        assert expected == frozenset({(0, 0), (2, 0), (0, 2), (2, 2)})
        assert ball_points((1, 1), 2, 2) == expected

    def test_half_integer_radius(self):
        expected = brute_ball((0, 0), 3, 1)
        assert len(expected) == 9
        assert ball_points((0, 0), 3, 1) == expected

    @given(
        center=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
        radius=st.integers(0, 9),
        spacing=st.integers(1, 4),
    )
    def test_matches_brute_force(self, center, radius, spacing):
        assert ball_points(center, radius, spacing) == brute_ball(
            center, radius, spacing)

    @given(
        radius=st.integers(0, 7),
        spacing=st.integers(1, 3),
    )
    def test_symmetry(self, radius, spacing):
        pts = ball_points((0, 0, 0), radius, spacing)
        for p in pts:
            assert tuple(-c for c in p) in pts
            assert (p[1], p[0], p[2]) in pts

    @given(
        small=st.integers(0, 6),
        extra=st.integers(0, 6),
        spacing=st.integers(1, 3),
    )
    def test_monotone_in_radius(self, small, extra, spacing):
        assert ball_points((1, -2), small, spacing) <= ball_points(
            (1, -2), small + extra, spacing)


#: Source and target spacings as multiples of the drawn spacing s, for
#: a ratio n: fine to coarse, coarse to fine, and one grid.
TRANSFERS = [lambda s, n: (s, n * s), lambda s, n: (n * s, s),
             lambda s, n: (s, s)]


@given(grid_sets(), st.integers(2, 4), st.sampled_from(TRANSFERS),
       st.integers(0, 7))
def test_dilate_is_the_union_of_balls(case, n, transfer, radius):
    # coarse to fine widens the lines before the sweeps, the others after
    _, s, cells = case
    source, target = transfer(s, n)
    centers = {tuple(source // s * c for c in p) for p in cells}
    expected = set().union(*[ball_points(c, radius, target) for c in centers])
    assert points_of(dilate(lines_of(centers), radius, source, target)) == \
        expected
    assert on_masks("dilate", lines_of(centers), radius, source, target) == \
        expected


@given(grid_sets(), st.integers(2, 4), st.sampled_from(TRANSFERS),
       st.integers(0, 3))
def test_erode_keeps_the_points_whose_ball_is_stored(case, n, transfer,
                                                     extra):
    _, s, cells = case
    source, target = transfer(s, n)
    points = {tuple(source // s * c for c in p) for p in cells}  # on source
    radius = source + extra  # every ball holds a source point
    near = set().union(*[ball_points(p, radius, target) for p in points])
    expected = {v for v in near if ball_points(v, radius, source) <= points}
    assert points_of(erode(lines_of(points), radius, source, target)) == \
        expected
    assert on_masks("erode", lines_of(points), radius, source, target) == \
        expected


def eroded_by_brute_force(points, radius, source, target):
    near = set().union(*[ball_points(p, radius, target) for p in points])
    return {v for v in near if ball_points(v, radius, source) <= points}


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("transfer", TRANSFERS)
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_erode_at_the_runs_that_narrow_to_nothing(dim, s, transfer, n,
                                                  extra):
    # A run [a, b] of source steps narrows by h - source + 1 at both
    # ends, to nothing when b - a < 2 (h - source + 1), which the kernel
    # skips.  The runs here are one cell shorter than, as long as and
    # one cell longer than the shortest run that keeps its interval, at
    # every start modulo the target spacing: on one grid with spacing 1
    # they are 2h, 2h + 1 and 2h + 2 cells long, and a run at the edge
    # keeps one point, on the target grid or off it.  In 2-D the line
    # is repeated across a band of keys, so the sweep meets the runs.
    source, target = transfer(s, n)
    radius = source + extra
    keep = 2 * (radius // 2 - source + 1)
    at_edge = max(0, -(-keep // source)) + 1
    lengths = range(max(1, at_edge - 1), at_edge + 2)
    stride = 2 * (at_edge + 2 + n) * source
    line = []
    for i, (cells, j) in enumerate(product(lengths, range(n + 1))):
        start = i * stride + j * source
        line += range(start, start + cells * source, source)
    keys = [(source * k,) for k in range(-3, 4)] if dim == 2 else [()]
    points = {key + (c,) for key in keys for c in line}
    expected = eroded_by_brute_force(points, radius, source, target)
    assert points_of(erode(lines_of(points), radius, source, target)) == \
        expected
    assert on_masks("erode", lines_of(points), radius, source, target) == \
        expected


def test_erode_coarsening_a_run_whose_narrowed_interval_misses_the_grid():
    # [0, 3] narrows by one at both ends to [1, 2], which holds no
    # multiple of 3; one step along, [2, 3] holds 3
    assert sorted_lines(erode({(): [0, 1, 2, 3]}, 3, 1, 3)) == {}
    assert sorted_lines(erode({(): [1, 2, 3, 4]}, 3, 1, 3)) == {(): [3]}


@given(grid_sets(), st.integers(2, 4), st.sampled_from(TRANSFERS),
       st.integers(0, 7), st.booleans())
def test_kernels_yield_no_line_of_their_input(case, n, transfer, extra,
                                              as_sets):
    # A document's index holds sorted lists; `layer` and `lift_restrict`
    # pass the sets a kernel made.  The sweeps share one line between
    # targets, so no line they yield may be a line of the input, and
    # the input is unchanged once the stream is read.
    _, s, cells = case
    source, target = transfer(s, n)
    lines = lines_of({tuple(source // s * c for c in p) for p in cells})
    if as_sets:
        lines = {key: set(line) for key, line in lines.items()}
    before = copy.deepcopy(lines)
    given_lines = {id(line) for line in lines.values()}
    for kernel in (dilate, erode):
        for _, line in kernel(lines, source + extra, source, target):
            assert id(line) not in given_lines
    assert lines == before


@given(grid_sets())
def test_ring_matches_the_moore_neighbour_scan(case):
    _, s, points = case
    expected = moore_ring(points, s)
    assert tuple(map(points_of, ring(lines_of(points), s))) == expected
    form = masks_of(lines_of(points), 0, s, s)
    assert tuple(read_points(form, part)
                 for part in form.ring(form.lines, s)) == expected


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("spacing", [1, 3])
def test_moore_neighbors_are_the_ring_one_step_out(dim, spacing):
    point = tuple(spacing * (j - 2) for j in range(dim))
    ring = moore_neighbors(point, spacing)
    assert len(set(ring)) == len(ring) == 3 ** dim - 1
    assert all(chebyshev(point, q) == spacing for q in ring)


def test_infinite_compares_greater():
    assert INFINITE > 10**18
    assert not INFINITE < 5


def test_window_of():
    assert window_of([(1, 5), (-2, 3)]) == Window((-2, 3), (1, 5))
    assert window_of([(4,), (-7,)]) == Window((-7,), (4,))
    with pytest.raises(ValueError, match="bounding box of an empty point set"):
        window_of([])


def test_box_grid_points_off_alignment():
    pts = list(Window((-1, -1), (2, 2)).grid_points(2))
    assert pts == [(0, 0), (0, 2), (2, 0), (2, 2)]


@given(st.integers(-10**25, 10**25), st.integers(-10**25, 10**25),
       st.integers(-10, 60), st.integers(1, 7))
def test_grid_range_holds_the_multiples_in_the_interval(lo, far, span, s):
    for hi in (far, lo + span):
        r = grid_range(lo, hi, s)
        assert r.step == s
        assert r.start % s == 0
        assert lo <= r.start < lo + s
        if r:
            assert hi - s < r[-1] <= hi
        if hi - lo <= 60:
            assert list(r) == [v for v in range(lo, hi + 1) if v % s == 0]


@given(st.integers(-10**30, 10**30), st.integers(1, 5),
       st.lists(st.one_of(st.integers(1, 3), st.integers(1, 10**30)),
                max_size=30))
def test_run_ends_match_a_linear_scan(start, s, steps):
    cells = [start * s]
    for step in steps:
        cells.append(cells[-1] + step * s)
    expected = [cells[0]]
    for prev, c in zip(cells, cells[1:]):
        if c - prev > s:
            expected += prev, c
    expected.append(cells[-1])
    assert run_ends(cells, s) == expected
