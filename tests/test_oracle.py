import hashlib
import random

import pytest

from gridpairs import formats
from gridpairs.cli import main
from gridpairs.gridset import GridSet, Window
from gridpairs.layers import trace
from gridpairs.oracle import (
    Direction,
    separation_bruteforce,
    best_approx_bruteforce,
    lifted_via_full,
    random_set,
)
from gridpairs.pairs import BoundaryPair, validate
from gridpairs.transfer import GridRatio, restrict

from conftest import fixture_text


class TestRandomSet:
    def test_density_one_fills_window(self):
        window = Window((0, 0), (3, 3))
        M = random_set(window, 1, seed=5)
        assert M.points == frozenset(window.grid_points(1))

    def test_reseeding_reproduces(self):
        window = Window((-4, -4), (8, 8))
        a = random_set(window, 0.5, seed=123)
        b = random_set(window, 0.5, seed=123)
        assert a == b
        c = random_set(window, 0.5, seed=124)
        assert a != c  # overwhelmingly likely; fixed seeds keep it stable

    def test_respects_spacing(self):
        window = Window((0, 0), (9, 9))
        M = random_set(window, 0.8, seed=9, spacing=3)
        assert M.points
        assert all(x % 3 == 0 and y % 3 == 0 for x, y in M.points)

    def test_never_empty(self):
        window = Window((0, 0), (0, 0))
        M = random_set(window, 0.001, seed=1)
        assert M.points == frozenset({(0, 0)})

    def test_trace_of_draw_validates(self):
        window = Window((0, 0), (15, 15))
        M = random_set(window, 0.5, seed=77)
        assert validate(trace(M)).valid

    def test_bad_density(self):
        for density in (0, -0.5, 1.5):
            with pytest.raises(ValueError):
                random_set(Window((0, 0), (3, 3)), density, seed=1)

    def test_degenerate_window(self):
        with pytest.raises(ValueError):
            random_set(Window((1, 1), (1, 1)), 0.5, seed=1, spacing=2)

    @pytest.mark.parametrize("window, density, cells", [
        # about 10^8 cells to list and draw, and a draw that is
        # never nonempty: both refused before any draw
        (Window((0, 0), (9999, 9999)), 0.001, 10**8),
        (Window((0, 0), (3, 3)), 1e-300, 16),
    ])
    def test_refuses_draws_over_the_budget(self, window, density, cells):
        with pytest.raises(ValueError, match=f"window of {cells} grid points"):
            random_set(window, density, seed=1)

    @pytest.mark.parametrize("argv, digest", [
        ("--window 0,0:255,255 --density 0.5 --seed 7",
         "e1883105aeb17c75dbeb4f103af4a8744c0609e173ca14253b691f076f87afc2"),
        # empty at attempts 0 and 1, two points at attempt 2
        ("--window 0,0,0:8,8,8 --spacing 2 --density 0.01 --seed 18 "
         "--format coords",
         "1e0ac4a8132c73e5f150aa3b552140629f100b424ad6324f97dbcceb3b40675a"),
    ])
    def test_pinned_draws(self, argv, digest, capsys):
        assert main(["random", *argv.split()]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestLiftedViaFull:
    def test_empty_pair(self):
        pair = BoundaryPair(2, 1, frozenset(), frozenset())
        out = lifted_via_full(pair, GridRatio(2), Direction.RESTRICT)
        assert out == BoundaryPair(2, 2, frozenset(), frozenset())

    def test_published_refinement(self):
        coarse = formats.parse_text(fixture_text("fig6a.pair"))
        fine = formats.parse_text(fixture_text("fig6b.pair"))
        assert lifted_via_full(coarse, GridRatio(2),
                               Direction.INTERPOLATE) == fine


class TestAxiom11Bruteforce:
    def test_counterexample_fixture(self):
        pair = formats.parse_text(fixture_text("fig2a.pair"))
        assert separation_bruteforce(pair, 6) is False

    def test_solid_block_trace(self):
        block = GridSet.finite({(x, y) for x in range(3) for y in range(3)})
        assert separation_bruteforce(trace(block), 6) is True

    def test_agreement_sample(self):
        rng = random.Random(55)
        for _ in range(40):
            M = random_set(Window((0, 0), (3, 3)), 0.5, rng.randrange(10**6))
            pair = trace(M)
            assert separation_bruteforce(pair, 6) is True
            if len(pair.d1) > 1:
                dropped = min(pair.d1)
                broken = BoundaryPair(2, 1, pair.d0, pair.d1 - {dropped})
                report = validate(broken)
                if report.failed == ("separation",):
                    assert separation_bruteforce(broken, 6) is False

    def test_budget_checks(self):
        pair = trace(GridSet.finite({(0, 0)}))
        with pytest.raises(ValueError):
            separation_bruteforce(pair, 99)
        wide = trace(GridSet.finite({(0, 0), (120, 120)}))
        with pytest.raises(ValueError):
            separation_bruteforce(wide, 6)


class TestBestApproxBruteforce:
    def test_single_point_at_coarse_site(self):
        M = GridSet.finite({(0, 0)})
        minimizers = best_approx_bruteforce(
            M, GridRatio(2), Window((-2, -2), (2, 2)))
        assert all((0, 0) in sub for sub in minimizers)

    def test_restriction_is_maximal_minimizer(self):
        rng = random.Random(66)
        for n in (2, 3):
            for _ in range(8):
                M = random_set(Window((0, 0), (n, n)), 0.6,
                               rng.randrange(10**6))
                R = restrict(M, GridRatio(n))
                lo = tuple(min(p[j] for p in M.points) - (n + 1) // 2
                           for j in range(2))
                hi = tuple(max(p[j] for p in M.points) + (n + 1) // 2
                           for j in range(2))
                minimizers = best_approx_bruteforce(M, GridRatio(n),
                                                    Window(lo, hi))
                assert R.points in minimizers
                assert all(sub <= R.points for sub in minimizers)

    def test_minimal_value_within_half_step(self):
        rng = random.Random(67)
        n = 2
        for _ in range(8):
            M = random_set(Window((0, 0), (2, 2)), 0.7, rng.randrange(10**6))
            minimizers = best_approx_bruteforce(
                M, GridRatio(n), Window((-1, -1), (3, 3)))
            some = min(minimizers)
            # recompute the achieved Hausdorff value by hand
            def cheb(a, b):
                return max(abs(x - y) for x, y in zip(a, b))
            out = max(min(cheb(c, x) for x in M.points) for c in some)
            back = max(min(cheb(x, c) for c in some) for x in M.points)
            assert 2 * max(out, back) <= n

    def test_budget(self):
        M = GridSet.finite({(0, 0)})
        with pytest.raises(ValueError):
            best_approx_bruteforce(M, GridRatio(2), Window((-8, -8), (8, 8)))
