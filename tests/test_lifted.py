import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridpairs import formats
from gridpairs.gridset import GridSet, Mode, Window
from gridpairs.layers import trace
from gridpairs.lifted import lift_interpolate, lift_restrict
from gridpairs.oracle import Direction, lifted_via_full, random_set
from gridpairs.pairs import (BoundaryPair, InvalidPairError, reconstruct,
                            validate)
from gridpairs.transfer import GridRatio, interpolate, restrict

from conftest import (fixture_text, in_both_forms, large_cofinite_holes,
                      two_clusters)


def empty_pair(spacing, dim=2):
    return BoundaryPair(dim, spacing, frozenset(), frozenset())


def random_fine_instance(rng, dim=2, span=6):
    window = Window((0,) * dim, (span - 1,) * dim)
    M = random_set(window, rng.choice((0.3, 0.5, 0.7)), rng.randrange(10**6))
    if rng.random() < 0.15:
        M = GridSet(dim, 1, Mode.COFINITE, M.points)
    return M


class TestEmptyPair:
    @pytest.mark.parametrize("n", [2, 3])
    def test_both_directions(self, n):
        ratio = GridRatio(n)
        assert lift_restrict(empty_pair(1), ratio) == empty_pair(n)
        assert lift_interpolate(empty_pair(n), ratio) == empty_pair(1)
        assert lifted_via_full(empty_pair(1), ratio, Direction.RESTRICT) \
            == empty_pair(n)
        assert lifted_via_full(empty_pair(n), ratio, Direction.INTERPOLATE) \
            == empty_pair(1)


class TestPublishedExample:
    def test_refine_then_coarsen_chain(self):
        ratio = GridRatio(2)
        coarse = formats.parse_text(fixture_text("fig6a.pair"))
        fine = formats.parse_text(fixture_text("fig6b.pair"))
        back = formats.parse_text(fixture_text("fig6c.pair"))
        assert lift_interpolate(coarse, ratio) == fine
        assert lift_restrict(fine, ratio) == back


class TestOracleEquivalence:
    @pytest.mark.parametrize("dim,n", [(1, 2), (1, 5), (2, 2), (2, 3),
                                       (3, 2), (3, 4)])
    def test_matches_full_set_route(self, dim, n):
        rng = random.Random(200 + 10 * dim + n)
        ratio = GridRatio(n)
        span = {1: 10, 2: 6, 3: 4}[dim]
        for _ in range(25):
            M = random_fine_instance(rng, dim, span)
            pair = trace(M)
            assert lift_restrict(pair, ratio) == trace(restrict(M, ratio))
            coarse = restrict(M, ratio)
            cpair = trace(coarse)
            assert lift_interpolate(cpair, ratio) == \
                trace(interpolate(coarse, ratio))

    def test_oracle_module_agrees_too(self):
        rng = random.Random(209)
        cases = [(trace(random_fine_instance(rng)), GridRatio(3))
                 for _ in range(10)]
        # a ratio far beyond the pair's extent, which the cost must not follow
        cases.append((formats.parse_text(fixture_text("fig1trace.pair")),
                      GridRatio(10**6)))
        for pair, ratio in cases:
            assert lift_restrict(pair, ratio) == \
                lifted_via_full(pair, ratio, Direction.RESTRICT)


class TestOutputsAreValidPairs:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_both_directions(self, n):
        rng = random.Random(210 + n)
        ratio = GridRatio(n)
        for _ in range(15):
            pair = trace(random_fine_instance(rng))
            out = lift_restrict(pair, ratio)
            assert validate(out).valid
            if not out.is_empty:
                back = lift_interpolate(out, ratio)
                assert validate(back).valid


class TestCommutativeDiagram:
    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_ratio_round_trip_is_identity(self, n):
        rng = random.Random(220 + n)
        ratio = GridRatio(n)
        for _ in range(15):
            window = Window((0, 0), (3 * n, 3 * n))
            C = random_set(window, 0.4, rng.randrange(10**6), spacing=n)
            cpair = trace(C)
            assert lift_restrict(lift_interpolate(cpair, ratio), ratio) \
                == cpair

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_ratio_round_trip_is_dilation(self, n):
        rng = random.Random(230 + n)
        ratio = GridRatio(n)
        for _ in range(15):
            window = Window((0, 0), (3 * n, 3 * n))
            C = random_set(window, 0.4, rng.randrange(10**6), spacing=n)
            cpair = trace(C)
            got = lift_restrict(lift_interpolate(cpair, ratio), ratio)
            assert got == trace(restrict(interpolate(C, ratio), ratio))


class TestLocality:
    def test_far_components_lift_independently(self):
        rng = random.Random(240)
        ratio = GridRatio(2)
        for _ in range(15):
            near = random_set(Window((0, 0), (4, 4)), 0.5,
                              rng.randrange(10**6))
            shift = 40
            far_raw = random_set(Window((0, 0), (4, 4)), 0.5,
                                 rng.randrange(10**6))
            far = GridSet.finite(
                {(x + shift, y + shift) for x, y in far_raw.points})
            p_near, p_far = trace(near), trace(far)
            p_union = BoundaryPair(2, 1, p_near.d0 | p_far.d0,
                                   p_near.d1 | p_far.d1)
            assert validate(p_union).valid
            lifted_union = lift_restrict(p_union, ratio)
            a = lift_restrict(p_near, ratio)
            b = lift_restrict(p_far, ratio)
            assert lifted_union.d0 == a.d0 | b.d0
            assert lifted_union.d1 == a.d1 | b.d1

    def test_blocks_a_million_cells_apart(self):
        block = GridSet.finite({(x, y) for x in range(3) for y in range(3)})
        far = GridSet.finite({(x + 10**6, y + 10**6) for x, y in block.points})
        union = GridSet.finite(block.points | far.points)
        ratio = GridRatio(2)
        a = lift_restrict(trace(block), ratio)
        b = lift_restrict(trace(far), ratio)
        lifted_union = lift_restrict(trace(union), ratio)
        assert lifted_union.d0 == a.d0 | b.d0
        assert lifted_union.d1 == a.d1 | b.d1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_half_line_restricts_like_a_long_segment(self, n):
        # (-inf, 0] is a valid 1-D pair whose rays lie on opposite sides,
        # so no full set stands behind it; near 0 it restricts as
        # [-60, 0] does, on masks, where the candidates beyond the walk's
        # board take each ray's side, and on sets
        half = in_both_forms(lambda: lift_restrict(
            BoundaryPair.of([(0,)], [(1,)]), GridRatio(n)))
        segment = lift_restrict(trace(GridSet.finite(
            {(c,) for c in range(-60, 1)})), GridRatio(n))
        assert half.d0 == {p for p in segment.d0 if p[0] > -30}
        assert half.d1 == {p for p in segment.d1 if p[0] > -30}

    @pytest.mark.parametrize("n", [2, 3])
    def test_far_coarse_blocks_interpolate_independently_in_3d(self, n):
        rng = random.Random(245 + n)
        ratio = GridRatio(n)
        shift = 1000 * n
        for _ in range(6):
            near, far_raw = [
                random_set(Window((0, 0, 0), (2 * n, 2 * n, 2 * n)), 0.6,
                           rng.randrange(10**6), spacing=n)
                for _ in range(2)]
            far = GridSet.finite(
                {tuple(c + shift for c in p) for p in far_raw.points}, n)
            p_near, p_far = trace(near), trace(far)
            p_union = BoundaryPair(3, n, p_near.d0 | p_far.d0,
                                   p_near.d1 | p_far.d1)
            lifted_union = lift_interpolate(p_union, ratio)
            a = lift_interpolate(p_near, ratio)
            b = lift_interpolate(p_far, ratio)
            assert lifted_union.d0 == a.d0 | b.d0
            assert lifted_union.d1 == a.d1 | b.d1
            assert lifted_union == \
                lifted_via_full(p_union, ratio, Direction.INTERPOLATE)


@given(two_clusters())
def test_both_lifts_match_the_full_set_route(case):
    dim, n, mode, points = case
    ratio = GridRatio(n)
    fine = trace(GridSet(dim, 1, mode, points))
    assert lift_restrict(fine, ratio) == \
        lifted_via_full(fine, ratio, Direction.RESTRICT)
    coarse = trace(GridSet(dim, n, mode,
                           frozenset(tuple(n * c for c in p) for p in points)))
    assert lift_interpolate(coarse, ratio) == \
        lifted_via_full(coarse, ratio, Direction.INTERPOLATE)


@given(large_cofinite_holes(), st.integers(2, 4))
def test_large_cofinite_holes(M, n):
    pair = trace(M)
    assert validate(pair).valid
    assert reconstruct(pair) == M
    if M.spacing == 1:
        ratio = GridRatio(n)
        assert lift_restrict(pair, ratio) == \
            lifted_via_full(pair, ratio, Direction.RESTRICT)
    else:
        ratio = GridRatio(M.spacing)
        assert lift_interpolate(pair, ratio) == \
            lifted_via_full(pair, ratio, Direction.INTERPOLATE)


class TestInputChecking:
    def test_invalid_pair_rejected(self):
        with pytest.raises(InvalidPairError):
            lift_restrict(BoundaryPair.of([(0, 0)], [(9, 9)]), GridRatio(2))
        with pytest.raises(InvalidPairError):
            lift_interpolate(
                BoundaryPair.of([(0, 0)], [(18, 18)], spacing=2), GridRatio(2))

    def test_wrong_spacing_rejected(self):
        fine_pair = trace(GridSet.finite({(0, 0)}))
        with pytest.raises(ValueError):
            lift_interpolate(fine_pair, GridRatio(2))
        coarse_pair = trace(GridSet.finite({(0, 0)}, 2))
        with pytest.raises(ValueError):
            lift_restrict(coarse_pair, GridRatio(2))
