import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridpairs import formats
from gridpairs.geometry import moore_neighbors
from gridpairs.gridset import (GridSet, Mode, Window, complement,
                               distance_map, member)
from gridpairs.layers import boundary0, boundary1, layer, trace
from gridpairs.oracle import random_set
from gridpairs.transfer import GridRatio, interpolate, restrict

from conftest import (ball_points, chebyshev, far_clusters_blobs,
                      fixture_text, grid_sets, in_both_forms, masks_built,
                      moore_ring, never_masks, recover_boundaries,
                      two_clusters)

FIG1A_POINTS = {(x, y) for x in range(2, 10) for y in range(2, 7)} \
    - {(x, y) for x in range(3, 6) for y in range(3, 6)}


def random_gridset(rng, span=6, allow_cofinite=True, dim=2, spacing=1):
    pts = frozenset(
        tuple(spacing * rng.randrange(-span, span) for _ in range(dim))
        for _ in range(rng.randrange(1, 14)))
    mode = Mode.COFINITE if allow_cofinite and rng.random() < 0.3 \
        else Mode.FINITE
    return GridSet(dim, spacing, mode, pts)


def layer_by_definition(gridset, k):
    """Independent route: distance to the inner boundary.

    For k >= 1, complement points at distance k steps from the inner
    boundary; for k <= 0, members at distance |k| steps from it, so
    layer 0 is the inner boundary itself.  This is the defining form, as
    opposed to the distance-to-set form the library propagates.  The
    candidates are the stored points when they are the wanted side, and
    otherwise the points within |k| steps of the inner boundary but not
    within |k| - 1 steps.
    """
    s = gridset.spacing
    b0 = frozenset(boundary0(gridset).points)
    if not b0:
        return frozenset()
    want = abs(k) * s
    inside = k <= 0
    if inside == (gridset.mode is Mode.FINITE):
        dist = {c: min(chebyshev(c, b) for b in b0) for c in gridset.points}
    else:
        def within(r):
            return {c for b in b0 for c in ball_points(b, 2 * r, s)} \
                if r >= 0 else set()
        dist = dict.fromkeys(within(want) - within(want - s), want)
    return frozenset(c for c, d in dist.items()
                     if d == want and member(gridset, c) == inside)


class TestBoundary0:
    def test_singleton_is_all_boundary(self):
        M = GridSet.finite({(0, 0)})
        assert boundary0(M) == M

    def test_full_grid_has_none(self):
        assert boundary0(GridSet.full_grid(2)).points == frozenset()

    def test_rectangle_with_hole(self):
        pair = formats.parse_text(fixture_text("fig1trace.pair"))
        assert boundary0(GridSet.finite(FIG1A_POINTS)).points == pair.d0


class TestBoundary1:
    def test_singleton_moore_ring(self):
        M = GridSet.finite({(0, 0)})
        assert boundary1(M).points == frozenset(moore_neighbors((0, 0), 1))

    def test_full_grid_has_none(self):
        assert boundary1(GridSet.full_grid(2)).points == frozenset()

    def test_rectangle_with_hole(self):
        pair = formats.parse_text(fixture_text("fig1trace.pair"))
        assert boundary1(GridSet.finite(FIG1A_POINTS)).points == pair.d1


class TestLayer:
    # boundary1 and boundary0 are layers 1 and 0, so both are checked
    # against a scan of the Moore neighbours of every stored point: the
    # non-members next to a member, and the members next to a non-member.
    def test_layer_one_equals_boundary1(self):
        rng = random.Random(3)
        for _ in range(40):
            M = random_gridset(rng)
            inner, outer = moore_ring(frozenset(M.points), M.spacing)
            expected = outer if M.mode is Mode.FINITE else inner
            assert layer(M, 1) == GridSet.finite(expected, M.spacing, M.dim)

    def test_layer_zero_equals_boundary0(self):
        rng = random.Random(4)
        for _ in range(40):
            M = random_gridset(rng)
            inner, outer = moore_ring(frozenset(M.points), M.spacing)
            expected = inner if M.mode is Mode.FINITE else outer
            assert layer(M, 0) == GridSet.finite(expected, M.spacing, M.dim)

    @pytest.mark.parametrize("s", [1, 3])
    def test_five_by_five_block(self, s):
        block = GridSet.finite(
            {(x * s, y * s) for x in range(5) for y in range(5)}, s)
        inner_ring = {(x * s, y * s) for x in range(1, 4) for y in range(1, 4)} \
            - {(2 * s, 2 * s)}
        assert layer(block, -1).points == frozenset(inner_ring)
        assert layer(block, -2).points == frozenset({(2 * s, 2 * s)})
        assert layer(block, -3).points == frozenset()

    def test_flip_between_set_and_complement(self):
        rng = random.Random(9)
        for _ in range(30):
            M = random_gridset(rng)
            if M.is_empty or M.is_full_grid:
                continue
            for k in range(-3, 5):
                assert layer(M, k) == layer(complement(M), 1 - k), (M, k)

    @staticmethod
    def check_against_definition(rng, trials, **shape):
        for _ in range(trials):
            M = random_gridset(rng, **shape)
            if M.is_empty or M.is_full_grid:
                continue
            for k in range(-3, 5):
                if k == 0:
                    continue
                assert layer(M, k).points == layer_by_definition(M, k), (M, k)

    def test_agrees_with_definition_by_inner_boundary_distance(self):
        self.check_against_definition(random.Random(10), 25)

    @pytest.mark.parametrize("dim,s,span,trials", [
        (2, 2, 6, 10), (2, 3, 6, 10), (3, 1, 2, 10)])
    def test_agrees_with_definition_on_coarse_and_3d_grids(
            self, dim, s, span, trials):
        self.check_against_definition(random.Random(10 + 10 * dim + s),
                                      trials, span=span, dim=dim, spacing=s)

    def test_trivial_sets_have_no_layers(self):
        for M in (GridSet.empty(2), GridSet.full_grid(2)):
            for k in range(-2, 3):
                assert layer(M, k).points == frozenset()

    @pytest.mark.parametrize("k", [1.5, 2.0, -0.5, True, False, "1"])
    def test_layer_index_must_be_an_integer(self, k):
        # refused before the shortcut for the empty set and the full grid
        block = GridSet.finite({(x, y) for x in range(3) for y in range(3)})
        for M in (block, GridSet.empty(2), GridSet.full_grid(2)):
            with pytest.raises(ValueError, match="layer index must be an "
                                                 "integer"):
                layer(M, k)

    def test_integer_layer_index_unchanged(self):
        block = GridSet.finite({(x, y) for x in range(3) for y in range(3)})
        assert layer(block, 1) == boundary1(block)
        assert layer(block, 0) == boundary0(block)
        assert layer(block, -1).points == frozenset({(1, 1)})
        assert layer(block, 2).points == frozenset(
            {(x, y) for x in range(-2, 5) for y in range(-2, 5)}
            - {(x, y) for x in range(-1, 4) for y in range(-1, 4)})


class TestFarApart:
    # The bounding box of these sets has about 10^12 cells; layers must
    # follow the stored points instead.
    FAR = (10**6, 10**6)

    @pytest.mark.parametrize("k", [0, -1, 2])
    def test_two_points_layer_as_their_union(self, k):
        M = GridSet.finite({(0, 0), self.FAR})
        expected = layer(GridSet.finite({(0, 0)}), k).points | \
            layer(GridSet.finite({self.FAR}), k).points
        assert layer(M, k).points == expected
        assert layer(complement(M), k) == layer(M, 1 - k)


class TestTrace:
    def test_full_grid_traces_to_empty_pair(self):
        pair = trace(GridSet.full_grid(2))
        assert pair.is_empty

    def test_singleton(self):
        pair = trace(GridSet.finite({(0, 0)}))
        assert pair.d0 == frozenset({(0, 0)})
        assert len(pair.d1) == 8

    def test_figure_pair(self):
        expected = formats.parse_text(fixture_text("fig1trace.pair"))
        assert trace(GridSet.finite(FIG1A_POINTS)) == expected

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            trace(GridSet.empty(2))


class TestRecoverBoundaries:
    def test_idempotent_on_true_boundaries(self):
        M = GridSet.finite(FIG1A_POINTS)
        b0, b1 = boundary0(M), boundary1(M)
        assert recover_boundaries(b0, b1) == (b0, b1)

    def test_empty_h1(self):
        h0 = GridSet.finite({(0, 0), (1, 0)})
        h1 = GridSet.empty(2)
        r0, r1 = recover_boundaries(h0, h1)
        assert r0.points == frozenset() and r1.points == frozenset()

    def test_supersets_reduce_to_trace(self):
        rng = random.Random(21)
        for _ in range(30):
            M = random_gridset(rng, allow_cofinite=False)
            pts = M.points
            lo = tuple(min(p[j] for p in pts) - 2 for j in range(2))
            hi = tuple(max(p[j] for p in pts) + 2 for j in range(2))
            complement_window = frozenset(
                c for c in Window(lo, hi).grid_points(1) if c not in pts)
            h0 = GridSet.finite(pts, dim=2)
            h1 = GridSet(2, 1, Mode.FINITE, complement_window)
            r0, r1 = recover_boundaries(h0, h1)
            pair = trace(M)
            assert r0.points == pair.d0
            assert r1.points == pair.d1


class TestStructuralIdentities:
    def test_boundaries_empty_only_for_trivial_sets(self):
        rng = random.Random(13)
        for _ in range(40):
            M = random_gridset(rng)
            empty0 = not boundary0(M).points
            empty1 = not boundary1(M).points
            trivial = M.is_empty or M.is_full_grid
            assert empty0 == empty1 == trivial
        for dim, spacing in ((1, 1), (2, 3)):
            empty = GridSet.empty(dim, spacing)
            assert boundary0(empty) == boundary1(empty) == empty

    def test_boundary_swap_under_complement(self):
        rng = random.Random(14)
        for _ in range(40):
            M = random_gridset(rng)
            assert boundary0(M) == boundary1(complement(M))
            assert boundary1(M) == boundary0(complement(M))

    def test_membership_dichotomy_by_boundary_distances(self):
        # membership is equivalent to being strictly closer to the inner
        # boundary than to the outer layer
        rng = random.Random(15)
        for _ in range(25):
            M = random_gridset(rng)
            if M.is_empty or M.is_full_grid:
                continue
            b0 = frozenset(boundary0(M).points)
            b1 = frozenset(boundary1(M).points)
            lo = tuple(min(p[j] for p in M.points) - 2 for j in range(2))
            hi = tuple(max(p[j] for p in M.points) + 2 for j in range(2))
            for cell in Window(lo, hi).grid_points(1):
                d0 = min(chebyshev(cell, b) for b in b0)
                d1 = min(chebyshev(cell, b) for b in b1)
                assert member(M, cell) == (d0 < d1)

    def test_neighbor_characterization_of_boundaries(self):
        rng = random.Random(16)
        for _ in range(25):
            M = random_gridset(rng)
            if M.is_empty or M.is_full_grid:
                continue
            b0, b1 = boundary0(M).points, boundary1(M).points
            probe = set(b0) | set(b1)
            for p in b0 | b1:
                probe.update(moore_neighbors(p, 1))
            for cell in probe:
                in_b0 = any(q in b1 for q in moore_neighbors(cell, 1)) \
                    and member(M, cell)
                assert (cell in b0) == in_b0
                in_b1 = any(q in b0 for q in moore_neighbors(cell, 1)) \
                    and not member(M, cell)
                assert (cell in b1) == in_b1


@given(two_clusters())
def test_layers_match_the_definition_on_two_clusters(case):
    dim, _, mode, points = case
    M = GridSet(dim, 1, mode, points)
    for k in range(-2, 4):
        assert layer(M, k).points == layer_by_definition(M, k), k


def layer_by_distance_map(M, k):
    # breadth-first Moore steps from the set, or inside the excluded
    # points from the members next to them
    if k <= 0:
        M, k = complement(M), 1 - k
    s, stored = M.spacing, frozenset(M.points)
    if M.mode is Mode.FINITE:
        dmap = distance_map(stored, None, s, limit=k * s)
    else:
        dmap = distance_map(moore_ring(stored, s)[1], stored, s, limit=k * s)
    return {p for p, d in dmap.items() if d == k * s}


@given(grid_sets(), st.sampled_from(list(Mode)))
def test_layers_match_the_distance_map(case, mode):
    dim, s, points = case
    M = GridSet(dim, s, mode, points)
    if M.is_empty or M.is_full_grid:
        return
    layers = in_both_forms(lambda: [layer(M, k) for k in range(-3, 4)])
    for k, found in zip(range(-3, 4), layers):
        assert found.points == layer_by_distance_map(M, k), k


def dense_cases(seed, count):
    """Seeded sets of dims 1-3 and spacings 1-3 at densities 0.05-0.95,
    finite and cofinite, in windows around negative origins, shifted by
    0 or +-10^23 steps."""
    rng = random.Random(seed)
    for _ in range(count):
        dim, s = rng.randint(1, 3), rng.randint(1, 3)
        side = {1: 90, 2: 16, 3: 7}[dim]
        shift = s * rng.choice([0, 10**23, -10**23])
        low = tuple(s * rng.randint(-2 * side, -1) + shift
                    for _ in range(dim))
        window = Window(low, tuple(c + s * (side - 1) for c in low))
        M = random_set(window, rng.choice([0.05, 0.3, 0.5, 0.7, 0.95]),
                       rng.randrange(1 << 30), spacing=s)
        if rng.random() < 0.5:
            M = complement(M)
        yield M


class TestDenseForm:
    # Every kernel call of `layers` and `transfer` on masks against the
    # set kernels: the same documents, line by line.
    def test_layers_and_trace(self):
        for M in dense_cases(31, 60):
            if M.is_empty:
                continue
            in_both_forms(lambda: [layer(M, k) for k in range(-3, 4)]
                          + [boundary0(M), boundary1(M), trace(M)])

    def test_transfers(self):
        for M in dense_cases(32, 60):
            if M.is_empty:
                continue
            for n in (2, 3, 4):
                fine = GridSet(M.dim, 1, M.mode,
                               [tuple(c // M.spacing for c in p)
                                for p in M.points])
                coarse = GridSet(M.dim, n, M.mode, [tuple(n * c for c in p)
                                                    for p in fine.points])
                ratio = GridRatio(n)
                in_both_forms(lambda: [restrict(fine, ratio),
                                       interpolate(coarse, ratio)])

    def test_the_noise_inputs_take_masks(self):
        # the gate admits a 128^2 set at density 0.3 for each operation,
        # with the windows of layer(M, 3) and of interpolation by 3
        M = random_set(Window((0, 0), (127, 127)), 0.3, 5)
        C = random_set(Window((0, 0), (126, 126)), 0.3, 5, spacing=3)
        for compute in (lambda: trace(M), lambda: layer(M, 3),
                        lambda: layer(complement(M), -1),
                        lambda: restrict(M, GridRatio(2)),
                        lambda: interpolate(C, GridRatio(3))):
            assert masks_built(compute), compute


class TestDenseGate:
    # Inputs whose window is far larger than their points, or that are
    # few, never build masks, so the cost keeps following the points.
    never_masks = staticmethod(never_masks)

    @staticmethod
    def operations(M):
        yield lambda: trace(M)
        for k in (-2, 0, 1, 3):
            yield lambda k=k: layer(M, k)
        if M.spacing == 1:
            yield lambda: restrict(M, GridRatio(2))
        else:
            yield lambda: interpolate(M, GridRatio(M.spacing))

    @pytest.mark.parametrize("cofinite", [False, True])
    def test_two_points_far_apart_on_one_line(self, cofinite):
        for s in (1, 3):
            M = GridSet.finite({(0, 0), (0, s * 10**9)}, s)
            for compute in self.operations(complement(M) if cofinite else M):
                self.never_masks(compute)

    def test_far_clusters_blobs(self):
        for M in far_clusters_blobs():
            for compute in self.operations(M):
                self.never_masks(compute)
            for compute in self.operations(complement(M)):
                self.never_masks(compute)

    def test_criterion_3_block(self):
        M = GridSet.finite({(x, y) for x in range(3) for y in range(3)})
        for compute in self.operations(M):
            self.never_masks(compute)

    def test_large_k_and_ratio(self):
        # few points, and a dense 24^2 block whose window the radius of
        # layer 200 or of restriction by 10^6 would make large
        small = GridSet.finite({(x, y) for x in range(4) for y in range(4)})
        block = GridSet.finite({(x, y) for x in range(24) for y in range(24)})
        for M in (small, block, complement(block)):
            self.never_masks(lambda: layer(M, 200))
            self.never_masks(lambda: layer(M, -200))
            self.never_masks(lambda: restrict(M, GridRatio(10**6)))
