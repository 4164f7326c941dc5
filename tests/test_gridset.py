import copy
import pickle
import random
import re
from dataclasses import fields
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpairs.geometry import lines_of, moore_neighbors
from gridpairs.gridset import (
    GridSet,
    Mode,
    PointView,
    Window,
    complement,
    components_within,
    distance_map,
    member,
    window_of,
    window_of_lines,
)
from gridpairs.layers import trace
from gridpairs.pairs import BoundaryPair, validate
from gridpairs.oracle import components_bfs
from gridpairs.transfer import GridRatio, restrict

from conftest import (INFINITE, chebyshev, dist_point_set, fixture_text,
                      grid_sets, hausdorff, hausdorff_semi, is_connected,
                      labelling_cases, two_clusters)
from gridpairs import formats


def random_points(rng, span=8, count=10):
    return frozenset(
        (rng.randrange(-span, span), rng.randrange(-span, span))
        for _ in range(count)
    )


FIG1A_POINTS = {(x, y) for x in range(2, 10) for y in range(2, 7)} \
    - {(x, y) for x in range(3, 6) for y in range(3, 6)}


class TestMember:
    def test_finite(self):
        assert member(GridSet.finite({(0, 0)}), (0, 0))

    def test_full_grid(self):
        assert member(GridSet.full_grid(2), (42, -7))

    def test_cofinite_excluded(self):
        assert not member(GridSet.cofinite({(0, 0)}), (0, 0))

    def test_off_grid_query(self):
        with pytest.raises(ValueError):
            member(GridSet.finite({(0, 0)}, spacing=2), (1, 0))


class TestComplement:
    def test_finite_to_cofinite(self):
        M = GridSet.finite({(0, 0)})
        assert complement(M) == GridSet.cofinite({(0, 0)})

    def test_full_grid_to_empty(self):
        assert complement(GridSet.full_grid(2)) == GridSet.empty(2)

    @given(st.frozensets(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=12),
        st.booleans())
    def test_involution(self, points, cofinite):
        mode = Mode.COFINITE if cofinite else Mode.FINITE
        M = GridSet(2, 1, mode, points)
        assert complement(complement(M)) == M


class TestDistPointSet:
    def test_finite(self):
        assert dist_point_set((5, 0), GridSet.finite({(0, 0), (3, 0)})) == 2

    def test_empty_is_infinite(self):
        assert dist_point_set((1, 2), GridSet.empty(2)) == INFINITE

    def test_cofinite_nearest_survivor(self):
        assert dist_point_set((0, 0), GridSet.cofinite({(0, 0)})) == 1

    def test_cofinite_inside_hole(self):
        hole = {(x, y) for x in range(-2, 3) for y in range(-2, 3)}
        assert dist_point_set((0, 0), GridSet.cofinite(hole)) == 3

    def test_off_grid_point_to_coarse_grid(self):
        # nearest spacing-2 point not excluded
        M = GridSet.cofinite({(0, 0)}, spacing=2)
        assert dist_point_set((1, 0), M) == 1

    def test_centre_of_a_large_excluded_block(self):
        block = {(x, y) for x in range(160) for y in range(160)}
        assert dist_point_set((80, 80), GridSet.cofinite(block)) == 80

    def test_off_grid_point_in_a_spacing_3_hole(self):
        # Members at x = 9 are 8 away, those at y = 9 only 7.
        hole = {(3 * i, 3 * j) for i in range(-2, 3) for j in range(-2, 3)}
        assert dist_point_set((1, 2), GridSet.cofinite(hole, spacing=3)) == 7

    @given(
        excluded=st.frozensets(st.tuples(*[st.integers(-3, 3)] * 2),
                               max_size=20),
        query=st.tuples(*[st.integers(-12, 12)] * 2),
        spacing=st.integers(1, 3),
    )
    def test_cofinite_matches_a_scan_of_the_box(self, excluded, query,
                                                spacing):
        # The nearest member lies in the box around the query and the
        # excluded points, widened by one step: clamping into it only
        # brings a point nearer and keeps it outside the excluded set.
        excluded = frozenset(tuple(spacing * c for c in p) for p in excluded)
        lo = [min([c[j] for c in excluded | {query}]) - spacing
              for j in range(2)]
        hi = [max([c[j] for c in excluded | {query}]) + spacing
              for j in range(2)]
        members = [q for q in Window(tuple(lo), tuple(hi)).grid_points(spacing)
                   if q not in excluded]
        assert dist_point_set(query, GridSet.cofinite(excluded, spacing, 2)) \
            == min(chebyshev(query, q) for q in members)


class TestHausdorff:
    def test_equal_sets(self):
        M = GridSet.finite({(0, 0), (1, 1)})
        assert hausdorff(M, M) == 0

    def test_two_singletons(self):
        M = GridSet.finite({(0, 0)})
        N = GridSet.finite({(3, 0)})
        assert hausdorff_semi(M, N) == 3
        assert hausdorff_semi(N, M) == 3
        assert hausdorff(M, N) == 3

    def test_cofinite_versus_finite_is_infinite(self):
        assert hausdorff_semi(GridSet.full_grid(2), GridSet.finite({(0, 0)})) \
            == INFINITE

    def test_finite_versus_cofinite(self):
        M = GridSet.finite({(0, 0), (4, 0)})
        N = GridSet.cofinite({(0, 0), (1, 0)})
        assert hausdorff_semi(M, N) == 1

    def test_cofinite_pair(self):
        M = GridSet.cofinite({(0, 0)})
        N = GridSet.cofinite({(5, 5), (6, 5)})
        # members of N excluded from ... both directions small
        assert hausdorff(M, N) == 1

    def test_cofinite_pair_spacing_mismatch(self):
        with pytest.raises(ValueError):
            hausdorff_semi(GridSet.cofinite({(0, 0)}, 1),
                           GridSet.cofinite({(0, 0)}, 2))

    def test_restriction_stays_within_half_step(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(30):
                pts = random_points(rng, span=6, count=12)
                if not pts:
                    continue
                M = GridSet.finite(pts)
                R = restrict(M, GridRatio(n))
                assert 2 * hausdorff(R, M) <= n

    def test_symmetry_zero_triangle_on_random_triples(self):
        rng = random.Random(5)
        for _ in range(40):
            sets = [GridSet.finite(random_points(rng, count=6) or {(0, 0)})
                    for _ in range(3)]
            a, b, c = sets
            assert hausdorff(a, b) == hausdorff(b, a)
            assert hausdorff(a, a) == 0
            assert hausdorff_semi(a, c) <= \
                hausdorff_semi(a, b) + hausdorff_semi(b, c)


def connectivity_oracle(points, spacing):
    # independent reachability check: iterative DFS with explicit stack
    points = set(points)
    start = next(iter(sorted(points)))
    stack, seen = [start], {start}
    while stack:
        x, y = stack.pop()
        for dx in (-spacing, 0, spacing):
            for dy in (-spacing, 0, spacing):
                q = (x + dx, y + dy)
                if q != (x, y) and q in points and q not in seen:
                    seen.add(q)
                    stack.append(q)
    return len(seen) == len(points)


class TestIsConnected:
    def test_singleton(self):
        assert is_connected(GridSet.finite({(3, 3)}))

    def test_gap_of_two_steps(self):
        for s in (1, 2):
            assert not is_connected(GridSet.finite({(0, 0), (2 * s, 0)}, s))

    def test_rectangle_with_hole(self):
        assert is_connected(GridSet.finite(FIG1A_POINTS))

    def test_rejects_empty_and_cofinite(self):
        with pytest.raises(ValueError):
            is_connected(GridSet.empty(2))
        with pytest.raises(ValueError):
            is_connected(GridSet.full_grid(2))

    def test_agrees_with_oracle_on_random_sets(self):
        rng = random.Random(23)
        for _ in range(120):
            pts = frozenset(
                (rng.randrange(10), rng.randrange(10))
                for _ in range(rng.randrange(1, 18)))
            assert is_connected(GridSet.finite(pts)) == \
                connectivity_oracle(pts, 1)


class TestComponentsWithin:
    def test_empty_occupancy_single_unbounded(self):
        for window in (Window((0, 0), (5, 5)), Window((-3,), (4,)),
                       Window((0, 0, 0), (2, 2, 2))):
            comps = components_within(window, 1, frozenset(), frozenset())
            assert len(comps) == 1
            assert comps[0].unbounded
            assert not comps[0].adjacent_d0 and not comps[0].adjacent_d1
            assert comps[0].lowest == window.lower
            assert comps == components_bfs(window, 1, frozenset(),
                                           frozenset())

    def test_rectangle_with_hole_pair(self):
        pair = trace(GridSet.finite(FIG1A_POINTS))
        window = window_of(pair.d0 | pair.d1).inflate(1)
        comps = components_within(window, 1, pair.d0, pair.d1)
        outside, hole, interior = comps
        assert outside.unbounded and outside.lowest == window.lower
        assert not hole.unbounded and not interior.unbounded
        # the hole center sees only the outer-layer ring around it
        assert hole.lowest == (4, 4)
        assert not hole.adjacent_d0
        assert hole.adjacent_d1
        # the solid interior of the set touches the inner boundary
        assert interior.lowest == (7, 3)
        assert interior.adjacent_d0
        assert not interior.adjacent_d1
        assert outside.adjacent_d1
        assert not outside.adjacent_d0
        # the walk's sides put each free cell on its component's side
        sides = validate(pair).sides
        assert sides.of((4, 4)) == 1
        assert all(sides.of((x, y)) == 0 for x in (7, 8) for y in (3, 4, 5))
        assert all(sides.of(q) == 1
                   for q in (window.lower, (-10**9, 3), (4, 10**9)))

    def test_one_dimensional_two_rays(self):
        comps = components_within(
            Window((-2,), (2,)), 1, frozenset({(0,)}), frozenset({(-1,), (1,)}))
        assert len(comps) == 2
        assert all(c.unbounded for c in comps)
        assert all(c.adjacent_d1 and not c.adjacent_d0 for c in comps)

    def test_sets_sharing_cells_on_a_line(self):
        # d0 and d1 share (1, 0) and (1, 2), the cells of the line x = 1
        # around the free cell (1, 1), which must still be a component
        window = Window((-1, -1), (3, 3))
        d0 = frozenset(moore_neighbors((1, 1), 1))
        d1 = frozenset({(0, 0), (1, 0), (1, 2), (2, 1)})
        comps = components_within(window, 1, d0, d1)
        assert comps == components_bfs(window, 1, d0, d1)
        assert comps[1:] == ((False, True, True, (1, 1)),)

    def test_window_too_small(self):
        # the key axes are checked first, then the last; on the first
        # failing axis the least point outside the frame is named
        square, cube = Window((0, 0), (5, 5)), Window((0, 0, 0), (5, 5, 5))
        for window, d0, d1, offender in [
                (square, {(2, 0), (3, 3)}, {(5, 2)}, (5, 2)),
                (square, {(3, 3), (2, 0)}, {(1, 5)}, (1, 5)),
                (cube, {(2, 2, 0)}, {(2, 5, 2), (3, 3, 3)}, (2, 5, 2)),
                (cube, {(2, 2, 5), (3, 3, 3)}, {(2, 3, 0)}, (2, 2, 5))]:
            with pytest.raises(ValueError) as excinfo:
                components_within(window, 1, frozenset(d0), frozenset(d1))
            assert str(excinfo.value) == f"window too small: {offender} " \
                "is within one step of the frame"

    @pytest.mark.parametrize("dim", [2, 3])
    def test_frame_is_one_unbounded_component(self, dim):
        rng = random.Random(31 + dim)
        for _ in range(20):
            pts = frozenset(
                tuple(rng.randrange(1, 5) for _ in range(dim))
                for _ in range(rng.randrange(1, 7)))
            window = Window((0,) * dim, (5,) * dim)
            comps = components_within(window, 1, pts, frozenset())
            unbounded = [c for c in comps if c.unbounded]
            assert unbounded == [comps[0]]
            assert comps[0].lowest == window.lower
            assert comps == components_bfs(window, 1, pts, frozenset())
            # the frame of a window around the traced set has the side
            # of the flood fill's unbounded component
            pair = trace(GridSet.finite(pts))
            window = window.inflate(1)
            outside = components_bfs(window, 1, pair.d0, pair.d1)[0]
            assert outside.adjacent_d0 != outside.adjacent_d1
            sides = validate(pair).sides
            assert all(sides.of(cell) == outside.adjacent_d1
                       for cell in window.grid_points(1)
                       if any(c in (-1, 6) for c in cell))


def component_key(comp):
    return (comp.unbounded, comp.adjacent_d0, comp.adjacent_d1,
            comp.lowest)


def line_index(points):
    # Built here, independently of geometry.lines_of: sorted lists by key.
    lines = {}
    for p in sorted(points):
        lines.setdefault(p[:-1], []).append(p[-1])
    return lines


class TestLineStorage:
    """A document given its line indexes is the document of its points."""

    @staticmethod
    def documents(case, cofinite):
        # Pairs of factories: from the points, and from the lines.
        dim, s, points = case
        mode = Mode.COFINITE if cofinite else Mode.FINITE
        d0 = frozenset(sorted(points)[::2])
        d1 = points - d0
        return [
            (lambda: GridSet(dim, s, mode, points),
             lambda: GridSet._trusted(dim, s, mode, line_index(points))),
            (lambda: BoundaryPair(dim, s, d0, d1),
             lambda: BoundaryPair._trusted(dim, s, line_index(d0),
                                           line_index(d1))),
        ]

    @given(grid_sets(), st.booleans())
    def test_equal_hash_repr_and_text(self, case, cofinite):
        dim = case[0]
        fmts = formats.FORMATS if dim == 2 else (formats.COORDS,)
        for by_points, by_lines in self.documents(case, cofinite):
            expected = by_points()
            names = [name for name, _ in expected._point_fields]
            # each check on a fresh document, before its points are built
            for fmt in fmts:
                assert formats.serialize(by_lines(), fmt) == \
                    formats.serialize(expected, fmt)
            # the same repr: a view lists its points sorted
            assert repr(by_lines()) == repr(expected)
            doc = by_lines()
            values = [getattr(doc, f.name) for f in fields(doc)]
            assert type(doc)(*values) == expected
            assert hash(by_lines()) == hash(expected)
            assert by_lines() == expected and expected == by_lines()
            doc = by_lines()
            for name in names:
                view = getattr(doc, name)
                assert type(view) is PointView and vars(doc)[name] is view
                assert lines_of(view) is view.lines
                assert view == frozenset(getattr(expected, name))
                assert hash(view) == hash(frozenset(view)) == hash(view)
                assert getattr(expected, name).lines == view.lines
            if isinstance(expected, GridSet):
                assert complement(by_lines()) == complement(expected)
                assert (by_lines().is_empty, by_lines().is_full_grid) == \
                    (expected.is_empty, expected.is_full_grid)
            else:
                assert by_lines().is_empty == expected.is_empty

    @given(grid_sets())
    def test_components_from_a_handed_over_index(self, case):
        _, s, points = case
        d0 = frozenset(sorted(points)[::2])
        d1 = points - d0
        if not points:
            return
        l0, l1 = line_index(d0), line_index(d1)
        window = window_of_lines(l0, l1).inflate(s)
        assert window == window_of(points).inflate(s)
        built = components_within(window, s, d0, d1)
        handed = components_within(window, s, PointView(l0), PointView(l1))
        assert [component_key(c) for c in handed] == \
            [component_key(c) for c in built]

    @given(grid_sets(), st.booleans())
    def test_copies_and_pickles(self, case, cofinite):
        def read(doc):
            for name, _ in doc._point_fields:
                getattr(doc, name)
            return doc

        for by_points, by_lines in self.documents(case, cofinite):
            # each clone restores the stored views, read or not
            for clone in (copy.copy, copy.deepcopy,
                          lambda doc: pickle.loads(pickle.dumps(doc))):
                kinds = [by_lines(), read(by_lines()), by_points()]
                if isinstance(kinds[0], GridSet):
                    kinds.append(complement(by_lines()))
                for doc in kinds:
                    copied = clone(doc)
                    assert vars(copied).keys() == vars(doc).keys()
                    for name, _ in doc._point_fields:
                        assert getattr(copied, name).lines == \
                            getattr(doc, name).lines
                    assert copied == doc and hash(copied) == hash(doc)


def view_cases():
    """(dim, spacing, points) from grid_sets() and two_clusters()."""
    return st.one_of(
        grid_sets(),
        two_clusters().map(lambda case: (case[0], 1, case[3])))


class TestPointView:
    """A point field reads as a view of its line index that behaves as
    the frozenset of its points."""

    @staticmethod
    def documents(dim, s, points, mode=Mode.FINITE):
        d0 = frozenset(sorted(points)[::2])
        return [GridSet(dim, s, mode, points),
                BoundaryPair(dim, s, d0, points - d0)]

    @staticmethod
    def queries(dim, s, points):
        # the points, grid points next to them, off the grid, far away
        # and, for tuples of another length, never on the set
        near = set(points)
        for p in sorted(points)[:8]:
            near.update(tuple(c + d for c, d in zip(p, off))
                        for off in product((-s, 0, s, 1), repeat=dim))
        near.add((10**30,) * dim)
        other = [(), (0,) * (dim + 1), *(p[:-1] for p in sorted(points)[:3]),
                 *(p + (0,) for p in sorted(points)[:3])]
        return near, other

    @given(view_cases())
    def test_behaves_as_the_frozenset_of_its_points(self, case):
        dim, s, points = case
        near, other = self.queries(dim, s, points)
        extra = frozenset([(s * 10**25,) * dim])
        for doc in self.documents(dim, s, points):
            for name, _ in doc._point_fields:
                view = getattr(doc, name)
                frozen = frozenset(view)
                listed = list(view)
                assert len(listed) == len(frozen) == len(view)
                assert bool(view) == bool(frozen)
                assert all((q in view) == (q in frozen) for q in near)
                assert not any(q in view for q in other)
                assert view == frozen and frozen == view
                assert not (view != frozen or frozen != view)
                bigger = frozen | extra
                assert view != bigger and bigger != view
                assert not (view == bigger or bigger == view)
                assert view == getattr(doc, name)
                assert hash(view) == hash(frozen)
                some = frozenset(sorted(near)[::3]) | extra
                for got, expected in [
                        (view | some, frozen | some),
                        (view & some, frozen & some),
                        (view - some, frozen - some),
                        (view ^ some, frozen ^ some),
                        (some | view, some | frozen),
                        (some & view, some & frozen),
                        (some - view, some - frozen),
                        (some ^ view, some ^ frozen)]:
                    assert type(got) is set and got == expected
                assert view <= frozen and frozen <= view
                assert view <= bigger and not bigger <= view
                assert (view <= some) == (frozen <= some)
                assert (some <= view) == (some <= frozen)
                grown = set()
                grown |= view
                assert type(grown) is set and grown == frozen
                grown.update(extra)
                assert grown == bigger

    @given(grid_sets(), st.booleans())
    def test_documents_compare_as_their_points(self, case, cofinite):
        dim, s, points = case
        fmts = formats.FORMATS if dim == 2 else (formats.COORDS,)
        mode = Mode.COFINITE if cofinite else Mode.FINITE

        def key(doc):
            return (type(doc), doc.dim, doc.spacing,
                    getattr(doc, "mode", None),
                    [frozenset(getattr(doc, name))
                     for name, _ in doc._point_fields])

        docs = []
        for doc in self.documents(dim, s, points, mode):
            if isinstance(doc, GridSet):
                docs += [complement(doc), complement(complement(doc))]
            docs += [doc, copy.copy(doc), copy.deepcopy(doc),
                     pickle.loads(pickle.dumps(doc)),
                     *(formats.parse_text(formats.serialize(doc, fmt))
                       for fmt in fmts)]
        docs += [GridSet(dim, 2 * s, mode, {tuple(2 * c for c in p)
                                            for p in points}),
                 GridSet(dim, s, mode, points | {(s * 10**25,) * dim})]
        keys = [key(doc) for doc in docs]
        for doc, doc_key in zip(docs, keys):
            stored = dict(vars(doc))
            for first, first_key in zip(docs, keys):
                same = doc_key == first_key
                assert (doc == first) == same and (doc != first) != same
                if same:
                    assert hash(doc) == hash(first)
            assert vars(doc) == stored
        views = [getattr(doc, name) for doc in docs
                 for name, _ in doc._point_fields]
        frozen = [frozenset(view) for view in views]
        for view, points in zip(views, frozen):
            for other, other_points in zip(views, frozen):
                assert (view == other) == (points == other_points)


class TestRunKernelAgainstFloodFill:
    @settings(max_examples=100)
    @given(labelling_cases())
    def test_matches_reference(self, case):
        window, s, d0, d1 = case
        fast = components_within(window, s, d0, d1)
        reference = components_bfs(window, s, d0, d1)
        assert [component_key(c) for c in fast] == \
            [component_key(c) for c in reference]

    @settings(max_examples=100)
    @given(labelling_cases())
    def test_containing_matches_reference(self, case):
        # The walk gives sides exactly to a nonempty pair of disjoint
        # sets that no flood-fill component touches on both sides.  Then
        # each free window cell has the side of the component holding
        # it, flood-filled from its least cell, which names the record.
        window, s, d0, d1 = case
        if not d0 | d1:
            return
        reference = components_bfs(window, s, d0, d1)
        sides = validate(BoundaryPair(window.dim, s, d0, d1)).sides
        assert (sides is not None) == (d0.isdisjoint(d1) and not any(
            comp.adjacent_d0 and comp.adjacent_d1 for comp in reference))
        if sides is None:
            return
        by_lowest = {comp.lowest: comp for comp in reference}
        free = set(window.grid_points(s)) - d0 - d1
        while free:
            lowest = min(free)
            held = distance_map([lowest], free, s)
            side = int(by_lowest[lowest].adjacent_d1)
            assert all(sides.of(q) == side for q in held)
            free.difference_update(held)

    def test_far_apart_blocks_without_filling_the_box(self):
        block = {(x, y) for x in range(3) for y in range(3)}
        far = {(x + 10**6, y + 10**6) for x, y in block}
        pair = trace(GridSet.finite(block | far))
        window = window_of(pair.d0 | pair.d1).inflate(1)
        comps = components_within(window, 1, pair.d0, pair.d1)
        assert [c.unbounded for c in comps] == [True, False, False]
        assert comps[0].lowest == (-2, -2)  # the window corner
        assert [c.lowest for c in comps[1:]] == [(1, 1), (10**6 + 1,) * 2]
        assert all(c.adjacent_d0 and not c.adjacent_d1 for c in comps[1:])
        # each block's centre is inside, the gap between them outside
        sides = validate(pair).sides
        assert [sides.of(q) for q in [(1, 1), (10**6 + 1,) * 2,
                                      (5 * 10**5,) * 2, (1, 10**6 + 1)]] \
            == [0, 0, 1, 1]


class TestDistanceMap:
    def test_matches_direct_chebyshev_in_free_space(self):
        window = Window((-4, -4), (4, 4))
        sources = [(0, 0), (3, 2)]
        dmap = distance_map(sources, window, 1)
        for cell in window.grid_points(1):
            direct = min(
                max(abs(a - b) for a, b in zip(cell, s)) for s in sources)
            assert dmap[cell] == direct

    def test_limit_cuts_propagation(self):
        window = Window((-5, -5), (5, 5))
        dmap = distance_map([(0, 0)], window, 1, limit=2)
        assert max(dmap.values()) == 2


def test_window_degenerate():
    with pytest.raises(ValueError):
        Window((0, 0), (-1, 0))


def test_window_corners_given_as_lists_are_stored_as_tuples():
    window = Window([0, 0], [1, 1])
    assert window.lower == (0, 0) and window.upper == (1, 1)
    assert window == Window((0, 0), (1, 1))
    assert hash(window) == hash(Window((0, 0), (1, 1)))


@pytest.mark.parametrize("spacing", [0, -1])
def test_window_grid_points_rejects_nonpositive_spacing(spacing):
    with pytest.raises(ValueError, match="spacing must be positive"):
        Window((0, 0), (3, 3)).grid_points(spacing)


@pytest.mark.parametrize("build, named", [
    (lambda: GridSet.finite({(1.0, 0.0)}), "(1.0, 0.0)"),
    (lambda: BoundaryPair.of([(0, 0)], [(1, 0.5)]), "(1, 0.5)"),
    (lambda: member(GridSet.finite({(0, 0)}), (0.0, 0)), "(0.0, 0)"),
    (lambda: GridSet(2, 1.0, Mode.FINITE, frozenset()), "1.0"),
    (lambda: GridSet(2.0, 1, Mode.FINITE, frozenset()), "2.0"),
    (lambda: GridRatio(2.5), "2.5"),
    (lambda: GridRatio(2.0), "2.0"),
    (lambda: Window((0, 0), (1.5, 2)), "1.5"),
    (lambda: Window((True, 0), (1, 1)), "(True, 0)"),
    (lambda: GridRatio(True), "must be an integer"),
    (lambda: GridSet(True, 1, Mode.FINITE, [(0,)]), "dim must be an integer"),
    (lambda: GridSet(2, True, Mode.FINITE, [(0, 0)]),
     "spacing must be an integer"),
    (lambda: BoundaryPair.of([(0, False)], [(1, 0)]), "(0, False)"),
    (lambda: member(GridSet.finite([(1, 0)]), (True, False)),
     "(True, False)"),
])
def test_non_integer_values_are_rejected(build, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        build()


@pytest.mark.parametrize("mode", ["finite", "cofinite", None, 1])
def test_gridset_refuses_a_mode_that_is_not_a_mode(mode):
    with pytest.raises(ValueError, match=re.escape(f"got {mode!r}")):
        GridSet(2, 1, mode, [(0, 0)])


def test_gridset_rejects_off_grid_points():
    with pytest.raises(ValueError):
        GridSet.finite({(1, 0)}, spacing=2)


def test_gridset_parse_helpers_roundtrip():
    M = GridSet.cofinite({(2, 4), (0, 0)}, spacing=2)
    text = formats.serialize_ascii(M)
    assert formats.parse_text(text) == M
    assert fixture_text("fig1a.grid")  # fixtures are reachable
