import random
from itertools import combinations, product

import pytest

from gridpairs import formats
from gridpairs.gridset import GridSet, Window, complement, member
from gridpairs.layers import boundary0
from gridpairs.oracle import best_approx_bruteforce, random_set
from gridpairs.transfer import GridRatio, interpolate, restrict

from conftest import (ball_points, coarse_dilation, fixture_text, hausdorff,
                      in_both_forms, is_connected, is_voronoi_cover,
                      largest_component)


def random_fine_set(rng, span=8):
    window = Window((0, 0), (span - 1, span - 1))
    return random_set(window, rng.choice((0.3, 0.5, 0.7)),
                      rng.randrange(10**6))


def random_coarse_set(rng, n, span=5):
    window = Window((0, 0), ((span - 1) * n,) * 2)
    return random_set(window, rng.choice((0.3, 0.6)),
                      rng.randrange(10**6), spacing=n)


class TestRestrict:
    def test_singleton_on_site(self):
        got = restrict(GridSet.finite({(0, 0)}), GridRatio(2))
        assert got == GridSet.finite({(0, 0)}, 2)

    def test_cell_center_hits_four(self):
        got = restrict(GridSet.finite({(1, 1)}), GridRatio(2))
        assert got.points == frozenset({(0, 0), (2, 0), (0, 2), (2, 2)})

    def test_full_grid(self):
        assert restrict(GridSet.full_grid(2), GridRatio(3)) == \
            GridSet.full_grid(2, 3)

    def test_rejects_empty_and_coarse_input(self):
        with pytest.raises(ValueError):
            restrict(GridSet.empty(2), GridRatio(2))
        with pytest.raises(ValueError):
            restrict(GridSet.finite({(0, 0)}, 2), GridRatio(2))


class TestInterpolate:
    @pytest.mark.parametrize("n", [2, 3])
    def test_singleton_becomes_block(self, n):
        got = interpolate(GridSet.finite({(0, 0)}, n), GridRatio(n))
        assert got.points == frozenset(product((-1, 0, 1), repeat=2))

    def test_contains_input(self):
        rng = random.Random(51)
        for n in (2, 3, 4, 5):
            M = random_coarse_set(rng, n)
            assert M.points <= interpolate(M, GridRatio(n)).points

    def test_full_grid(self):
        assert interpolate(GridSet.full_grid(2, 4), GridRatio(4)) == \
            GridSet.full_grid(2, 1)

    def test_rejects_wrong_spacing(self):
        with pytest.raises(ValueError):
            interpolate(GridSet.finite({(0, 0)}), GridRatio(2))
        # the spacing is right, but the empty set is refused as by restrict
        with pytest.raises(ValueError,
                           match="interpolation of the empty set"):
            interpolate(GridSet.empty(2, 2), GridRatio(2))


def near_by_definition(point, source_spacing, n):
    # Source grid points within n/2 of the point, one axis at a time:
    # a Chebyshev ball is the product of its axis intervals.
    axes = [[c for c in range(x - n, x + n + 1)
             if c % source_spacing == 0 and 2 * abs(c - x) <= n]
            for x in point]
    return product(*axes)


def check_transfer_by_definition(op, source, n, target_spacing):
    """A target point belongs to the output iff a member of the source
    lies within n/2 of it, decided over a window around the stored
    points; outside the window the answer is that of the empty set
    (finite source) or of the full grid (cofinite source)."""
    got = in_both_forms(lambda: op(source, GridRatio(n)))
    assert (got.dim, got.spacing, got.mode) == \
        (source.dim, target_spacing, source.mode)
    axes = list(zip(*source.points))
    lower = tuple(min(a) - n for a in axes)
    upper = tuple(max(a) + n for a in axes)
    assert all(lo <= c <= hi for p in got.points
               for lo, c, hi in zip(lower, p, upper)), (source, n)
    for q in Window(lower, upper).grid_points(target_spacing):
        expected = any(member(source, p)
                       for p in near_by_definition(q, source.spacing, n))
        assert member(got, q) == expected, (source, n, q)


class TestDefinition:
    # (dim, span in source grid steps) keeps every window small
    SHAPES = [(1, 10), (2, 6), (3, 3)]

    @pytest.mark.parametrize("dim,span", SHAPES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("cofinite", [False, True])
    def test_restrict(self, dim, span, n, cofinite):
        rng = random.Random(1000 * dim + 10 * n + cofinite)
        for _ in range(3):
            M = random_set(Window((0,) * dim, (span - 1,) * dim),
                           rng.choice((0.3, 0.6, 0.9)), rng.randrange(10**6))
            if cofinite:
                M = complement(M)
            check_transfer_by_definition(restrict, M, n, n)

    @pytest.mark.parametrize("dim,span", SHAPES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("cofinite", [False, True])
    def test_interpolate(self, dim, span, n, cofinite):
        rng = random.Random(2000 * dim + 10 * n + cofinite)
        for _ in range(3):
            M = random_set(Window((0,) * dim, ((span - 1) * n,) * dim),
                           rng.choice((0.3, 0.6, 0.9)), rng.randrange(10**6),
                           spacing=n)
            if cofinite:
                M = complement(M)
            check_transfer_by_definition(interpolate, M, n, 1)


class TestSetAlgebraProperties:
    @pytest.mark.parametrize("n", [2, 3])
    def test_union_monotone_translation(self, n):
        rng = random.Random(60 + n)
        ratio = GridRatio(n)
        for _ in range(25):
            A = random_fine_set(rng)
            B = random_fine_set(rng)
            union = GridSet.finite(A.points | B.points)
            assert restrict(union, ratio).points == \
                restrict(A, ratio).points | restrict(B, ratio).points
            sub = GridSet.finite(A.points | B.points)
            assert restrict(A, ratio).points <= restrict(sub, ratio).points
            shift = (n * rng.randrange(-2, 3), n * rng.randrange(-2, 3))
            moved = GridSet.finite(
                {tuple(c + d for c, d in zip(p, shift)) for p in A.points})
            assert restrict(moved, ratio).points == {
                tuple(c + d for c, d in zip(p, shift))
                for p in restrict(A, ratio).points}

    @pytest.mark.parametrize("n", [2, 3])
    def test_interpolate_union_monotone_translation(self, n):
        rng = random.Random(70 + n)
        ratio = GridRatio(n)
        for _ in range(25):
            A = random_coarse_set(rng, n)
            B = random_coarse_set(rng, n)
            union = GridSet.finite(A.points | B.points, n)
            assert interpolate(union, ratio).points == \
                interpolate(A, ratio).points | interpolate(B, ratio).points
            assert interpolate(A, ratio).points <= \
                interpolate(union, ratio).points
            shift = (n * rng.randrange(-2, 3), n * rng.randrange(-2, 3))
            moved = GridSet.finite(
                {tuple(c + d for c, d in zip(p, shift)) for p in A.points}, n)
            assert interpolate(moved, ratio).points == {
                tuple(c + d for c, d in zip(p, shift))
                for p in interpolate(A, ratio).points}


class TestApproximation:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_half_step_error_bounds(self, n):
        rng = random.Random(80 + n)
        ratio = GridRatio(n)
        for _ in range(20):
            M = random_fine_set(rng)
            assert 2 * hausdorff(restrict(M, ratio), M) <= n
            C = random_coarse_set(rng, n)
            assert 2 * hausdorff(interpolate(C, ratio), C) <= n

    @pytest.mark.parametrize("n", [2, 3])
    def test_best_approximation_and_maximality(self, n):
        rng = random.Random(90 + n)
        ratio = GridRatio(n)
        for _ in range(12):
            window = Window((0, 0), (2 * n - 1, 2 * n - 1))
            M = random_set(window, 0.5, rng.randrange(10**6))
            R = restrict(M, ratio)
            lo = tuple(min(p[j] for p in M.points) - (n + 1) // 2
                       for j in range(2))
            hi = tuple(max(p[j] for p in M.points) + (n + 1) // 2
                       for j in range(2))
            minimizers = best_approx_bruteforce(M, ratio, Window(lo, hi))
            assert R.points in minimizers
            for other in minimizers:
                assert other <= R.points


class TestVoronoiCover:
    def test_covers_itself(self):
        M = GridSet.finite({(0, 0), (2, 2)}, 2)
        assert is_voronoi_cover(M, M)

    def test_published_example(self):
        fine = formats.parse_text(fixture_text("fig3a.grid"))
        coarse = formats.parse_text(fixture_text("fig3c.grid"))
        assert is_voronoi_cover(fine, coarse)

    def test_fine_set_not_covered_by_distant_point(self):
        M = GridSet.finite({(0, 0)})
        assert not is_voronoi_cover(M, GridSet.finite({(4, 0)}, 2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_restriction_is_minimal_cover(self, n):
        rng = random.Random(100 + n)
        ratio = GridRatio(n)
        for _ in range(10):
            M = random_fine_set(rng, span=5)
            R = restrict(M, ratio)
            assert is_voronoi_cover(M, R)
            for removed in sorted(R.points):
                smaller = R.points - {removed}
                if not smaller:
                    continue
                assert not is_voronoi_cover(
                    M, GridSet.finite(smaller, n, dim=2))

    def test_enumerated_coarse_covers_contain_restriction(self):
        # a coarse point can only help cover if its half-step box meets
        # the half-step inflation of M, so those points are the only
        # candidates worth enumerating
        ratio = GridRatio(2)
        rng = random.Random(104)
        checked = 0
        while checked < 4:
            M = random_set(Window((0, 0), (2, 2)), 0.5, rng.randrange(10**6))
            R = restrict(M, ratio)
            useful = set()
            for p in M.points:
                useful |= ball_points(p, ratio.n + 1, ratio.n)
            candidates = sorted(useful)
            if len(candidates) > 12:
                continue
            covers_found = 0
            for size in range(1, len(candidates) + 1):
                for chosen in combinations(candidates, size):
                    cover = GridSet.finite(chosen, 2, dim=2)
                    if is_voronoi_cover(M, cover):
                        covers_found += 1
                        assert R.points <= cover.points
            assert covers_found >= 1
            checked += 1

    def test_enumerated_fine_covers_contain_interpolation(self):
        ratio = GridRatio(2)
        coarse = GridSet.finite({(0, 0)}, 2)
        interior = interpolate(coarse, ratio)
        candidates = sorted(interior.points)  # only these can help cover
        covers_found = 0
        for size in range(1, len(candidates) + 1):
            for chosen in combinations(candidates, size):
                cover = GridSet.finite(chosen, 1, dim=2)
                if is_voronoi_cover(coarse, cover):
                    covers_found += 1
                    assert interior.points <= cover.points
        assert covers_found == 1  # exactly the interpolation itself

    def test_interpolation_is_cover(self):
        rng = random.Random(105)
        for n in (2, 3):
            C = random_coarse_set(rng, n, span=4)
            assert is_voronoi_cover(C, interpolate(C, GridRatio(n)))

    def test_rejects_cofinite_and_empty(self):
        with pytest.raises(ValueError):
            is_voronoi_cover(GridSet.full_grid(2), GridSet.finite({(0, 0)}))
        with pytest.raises(ValueError):
            is_voronoi_cover(GridSet.finite({(0, 0)}), GridSet.empty(2))


class TestTopologyPreservation:
    @pytest.mark.parametrize("n", [2, 3])
    def test_connectedness(self, n):
        rng = random.Random(110 + n)
        ratio = GridRatio(n)
        for _ in range(20):
            M = largest_component(random_fine_set(rng))
            assert is_connected(restrict(M, ratio))
            C = largest_component(random_coarse_set(rng, n))
            assert is_connected(interpolate(C, ratio))

    @pytest.mark.parametrize("n", [2, 3])
    def test_boundary_stability(self, n):
        rng = random.Random(120 + n)
        ratio = GridRatio(n)
        for _ in range(20):
            M = random_fine_set(rng)
            assert boundary0(restrict(M, ratio)).points <= \
                restrict(boundary0(M), ratio).points
            C = random_coarse_set(rng, n)
            assert boundary0(interpolate(C, ratio)).points <= \
                interpolate(boundary0(C), ratio).points

    def test_identity_embedding_is_no_interpolation(self):
        # refusing the cheap choice: embedding the coarse points as a
        # fine set makes every point a fine boundary point, so the
        # boundary-stability inclusion collapses
        block = {(2 * x, 2 * y) for x in range(4) for y in range(4)}
        coarse = GridSet.finite(block, 2)
        embedded = GridSet.finite(block, 1)
        fine_boundary = boundary0(embedded)
        assert fine_boundary == embedded  # everything is boundary
        coarse_ring = boundary0(coarse).points
        assert not fine_boundary.points <= coarse_ring


class TestComposition:
    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_ratio_is_identity(self, n):
        rng = random.Random(130 + n)
        ratio = GridRatio(n)
        for _ in range(25):
            C = random_coarse_set(rng, n)
            assert restrict(interpolate(C, ratio), ratio) == C

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_ratio_is_one_step_dilation(self, n):
        rng = random.Random(140 + n)
        ratio = GridRatio(n)
        for _ in range(25):
            C = random_coarse_set(rng, n)
            assert restrict(interpolate(C, ratio), ratio) == \
                coarse_dilation(C, n)

    def test_full_grid_composition(self):
        for n in (2, 3):
            full = GridSet.full_grid(2, n)
            assert restrict(interpolate(full, GridRatio(n)), GridRatio(n)) \
                == full


class TestFarApart:
    # Cofinite sets whose excluded blocks are far apart: the transfer
    # must follow the excluded points, not their bounding box.
    @staticmethod
    def check_union_of_blocks(op, n, source_spacing, target_spacing, gap,
                              dim):
        block = frozenset(product((-source_spacing, 0, source_spacing),
                                  repeat=dim))
        far = frozenset(tuple(c + gap for c in p) for p in block)
        excluded = set()
        for part in (block, far):
            got = op(GridSet.cofinite(part, source_spacing), GridRatio(n))
            assert got.points  # some point is excluded in each block
            excluded |= got.points
        got = op(GridSet.cofinite(block | far, source_spacing), GridRatio(n))
        assert got == GridSet.cofinite(excluded, target_spacing, dim=dim)

    @pytest.mark.parametrize("dim,gap", [(2, 10**6), (3, 10**4)])
    def test_restrict(self, dim, gap):
        self.check_union_of_blocks(restrict, 2, 1, 2, gap, dim)

    @pytest.mark.parametrize("dim,gap", [(2, 10**6), (3, 10**4)])
    def test_interpolate(self, dim, gap):
        # a gap on the coarse grid, within 3 of the stated one
        self.check_union_of_blocks(interpolate, 3, 3, 1, 3 * (gap // 3), dim)


def test_grid_ratio_validation():
    with pytest.raises(ValueError):
        GridRatio(1)
    GridRatio(2)
