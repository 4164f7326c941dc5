import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpairs import formats
from gridpairs.gridset import GridSet, Mode, Window, member, window_of
from gridpairs.layers import trace
from gridpairs.oracle import (
    closer_set_window,
    random_set,
    separation_bruteforce,
)
from gridpairs.pairs import (AxiomCheck, BoundaryPair, InvalidPairError,
                             reconstruct, validate)

from conftest import (adjacency_check, fixture_text, labelling_cases,
                      large_cofinite_holes, two_clusters)

FIG1A_POINTS = frozenset(
    {(x, y) for x in range(2, 10) for y in range(2, 7)}
    - {(x, y) for x in range(3, 6) for y in range(3, 6)})


def random_trace(rng, span=8, spacing=1, cofinite_share=0.25):
    window = Window((0, 0), (span * spacing - spacing,) * 2)
    M = random_set(window, rng.choice((0.3, 0.5, 0.7)),
                   rng.randrange(10**6), spacing)
    if rng.random() < cofinite_share:
        M = GridSet(2, spacing, Mode.COFINITE, M.points)
    return M, trace(M)


class TestValidate:
    def test_empty_pair_is_the_full_grid_pair(self):
        report = validate(BoundaryPair.of((), (), dim=2))
        assert report.is_empty_pair and report.valid
        assert report.failed == ()

    def test_overlap_fails_disjointness(self):
        report = validate(BoundaryPair.of([(0, 0)], [(0, 0)]))
        assert not report.valid
        assert "disjoint" in report.failed
        assert report.disjoint.witness == (0, 0)

    def test_single_empty_side_fails_nonempty(self):
        report = validate(BoundaryPair.of([(0, 0)], [], dim=2))
        assert not report.valid
        assert "nonempty" in report.failed

    def test_isolated_point_fails_adjacency(self):
        report = validate(BoundaryPair.of([(0, 0), (9, 9)],
                                          [(1, 0)]))
        assert "d0_touches_d1" in report.failed
        assert report.d0_touches_d1.witness == (9, 9)

    def test_a_point_of_both_sets_is_not_its_own_neighbour(self):
        # (1, 0) lies in d0 and d1, and no other d1 point is next to it
        report = validate(BoundaryPair.of([(0, 0), (1, 0)], [(1, 0)]))
        assert report.d0_touches_d1 == AxiomCheck(False, (1, 0))
        assert report.d1_touches_d0.passed

    @pytest.mark.parametrize("name", ["fig2a.pair", "fig2b.pair", "fig2c.pair"])
    def test_published_counterexamples_fail_only_separation(self, name):
        pair = formats.parse_text(fixture_text(name))
        report = validate(pair)
        assert report.failed == ("separation",)

    def test_traces_always_validate(self):
        rng = random.Random(41)
        for _ in range(60):
            _, pair = random_trace(rng)
            assert validate(pair).valid


@settings(max_examples=150)
@given(labelling_cases(), st.sampled_from(["both", "no d0", "no d1"]),
       st.sampled_from([0, 10**6, 10**23]))
def test_adjacency_axioms_match_the_neighbour_scan(case, sides, far):
    window, s, d0, d1 = case
    if sides == "no d0":
        d0 = frozenset()
    elif sides == "no d1":
        d1 = frozenset()
    # a translated copy of every third point, far along every axis
    d0 |= {tuple(c + far * s for c in p) for p in sorted(d0)[::3]}
    d1 |= {tuple(c + far * s for c in p) for p in sorted(d1)[1::3]}
    report = validate(BoundaryPair(window.dim, s, d0, d1))
    assert report.d0_touches_d1 == adjacency_check(d0, d1, s)
    assert report.d1_touches_d0 == adjacency_check(d1, d0, s)


class TestReconstruct:
    def test_empty_pair_gives_full_grid(self):
        got = reconstruct(BoundaryPair.of((), (), spacing=3, dim=2))
        assert got == GridSet.full_grid(2, 3)

    def test_singleton_round_trip(self):
        M = GridSet.finite({(0, 0)})
        assert reconstruct(trace(M)) == M

    def test_figure_pair(self):
        pair = formats.parse_text(fixture_text("fig1trace.pair"))
        assert reconstruct(pair) == GridSet.finite(FIG1A_POINTS)

    def test_invalid_input_carries_report(self):
        with pytest.raises(InvalidPairError) as excinfo:
            reconstruct(BoundaryPair.of([(0, 0)], [(5, 5)]))
        assert excinfo.value.report.failed

    def test_round_trip_from_random_sets(self):
        rng = random.Random(42)
        for _ in range(80):
            M, pair = random_trace(rng)
            assert reconstruct(pair) == M

    def test_round_trip_from_random_pairs(self):
        rng = random.Random(43)
        for _ in range(60):
            _, pair = random_trace(rng)
            assert trace(reconstruct(pair)) == pair

    def test_nested_rings(self):
        # a block whose inner frame was carved out, leaving an island:
        # the pair has three nesting levels and two bounded components
        block = {(x, y) for x in range(9) for y in range(9)}
        frame = {(x, y) for x in range(2, 7) for y in range(2, 7)} \
            - {(x, y) for x in range(3, 6) for y in range(3, 6)}
        M = GridSet.finite(frozenset(block - frame))
        assert reconstruct(trace(M)) == M
        C = GridSet(2, 1, Mode.COFINITE, M.points)
        assert reconstruct(trace(C)) == C

    def test_one_dimensional_half_line_is_rejected(self):
        # the two rays reconstruct to different sides; such a set is
        # neither finite nor cofinite, which the data model cannot hold
        pair = BoundaryPair.of([(0,)], [(-1,)])
        assert validate(pair).valid
        with pytest.raises(ValueError, match="neither finite nor cofinite"):
            reconstruct(pair)

    def test_one_dimensional_representable_cases(self):
        M = GridSet.finite({(0,)}, dim=1)
        assert reconstruct(trace(M)) == M
        N = GridSet.cofinite({(0,)}, dim=1)
        assert reconstruct(trace(N)) == N


class TestCloserSetWindow:
    def test_far_window_on_the_outside(self):
        pair = trace(GridSet.finite({(0, 0)}))
        window = Window((10, 10), (14, 14))
        assert closer_set_window(pair, window) == frozenset()

    def test_requires_nonempty_sides(self):
        with pytest.raises(ValueError):
            closer_set_window(BoundaryPair.of((), (), dim=2),
                              Window((0, 0), (3, 3)))

    def test_agrees_with_reconstruction(self):
        rng = random.Random(44)
        for _ in range(40):
            M, pair = random_trace(rng)
            window = window_of(pair.d0 | pair.d1).inflate(2)
            got = closer_set_window(pair, window)
            expected = frozenset(
                c for c in window.grid_points(pair.spacing)
                if member(M, c))
            assert got == expected

    def test_coarse_spacing(self):
        rng = random.Random(47)
        for _ in range(10):
            M, pair = random_trace(rng, span=6, spacing=3)
            window = window_of(pair.d0 | pair.d1).inflate(6)
            got = closer_set_window(pair, window)
            expected = frozenset(
                c for c in window.grid_points(3) if member(M, c))
            assert got == expected

    def test_partition_no_ties(self):
        rng = random.Random(45)
        for _ in range(30):
            _, pair = random_trace(rng)
            swapped = BoundaryPair(pair.dim, pair.spacing, pair.d1, pair.d0)
            window = window_of(pair.d0 | pair.d1).inflate(2)
            side0 = closer_set_window(pair, window)
            side1 = closer_set_window(swapped, window)
            cells = frozenset(window.grid_points(pair.spacing))
            assert side0 | side1 == cells
            assert not side0 & side1


class TestSeparationCriterion:
    def test_matches_path_enumeration_on_tiny_instances(self):
        rng = random.Random(46)
        checked = 0
        for _ in range(60):
            window = Window((0, 0), (4, 4))
            M = random_set(window, rng.choice((0.3, 0.5)),
                           rng.randrange(10**6))
            pair = trace(M)
            mutated = pair
            roll = rng.random()
            if roll < 0.4 and len(pair.d1) > 1:
                dropped = rng.choice(sorted(pair.d1))
                mutated = BoundaryPair(2, 1, pair.d0,
                                       pair.d1 - {dropped})
            elif roll < 0.6:
                mutated = BoundaryPair(2, 1, pair.d0 | {(8, 8)},
                                       pair.d1 | {(9, 9)})
            report = validate(mutated)
            if report.failed and report.failed != ("separation",):
                continue  # mutation broke an earlier axiom; nothing to compare
            assert report.valid == separation_bruteforce(mutated, 6)
            checked += 1
        assert checked >= 40


class TestCostFollowsTheBoundary:
    """Pairs whose bounding box is far too large to visit cell by cell."""

    @pytest.mark.parametrize("far", [(10**6, 10**6), (10**4,) * 3])
    def test_far_two_point_pair_fails_separation(self, far):
        origin = (0,) * len(far)
        report = validate(BoundaryPair.of([origin], [far]))
        assert "separation" in report.failed
        # the unbounded component touches both points; its least point
        # is the lowest corner of the window
        assert report.separation.witness == (-1,) * len(far)

    def test_two_far_blocks_reconstruct_to_their_union(self):
        block = {(x, y) for x in range(3) for y in range(3)}
        far = {(x + 10**6, y + 10**6) for x, y in block}
        M = GridSet.finite(block | far)
        assert reconstruct(trace(M)) == M

    @pytest.mark.parametrize("mode", list(Mode))
    def test_far_points_on_a_line_reconstruct(self, mode):
        # in 1-D the gap between the two points is one bounded component
        M = GridSet(1, 1, mode, frozenset({(0,), (10**23,)}))
        assert reconstruct(trace(M)) == M


@given(two_clusters())
def test_trace_validates_and_reconstructs_on_two_clusters(case):
    dim, n, mode, points = case
    for s in (1, n):
        M = GridSet(dim, s, mode,
                    frozenset(tuple(s * c for c in p) for p in points))
        pair = trace(M)
        assert validate(pair).valid
        assert reconstruct(pair) == M


def _scaled_cluster(case):
    dim, n, mode, points = case
    return GridSet(dim, n, mode,
                   frozenset(tuple(n * c for c in p) for p in points))


@given(st.one_of(two_clusters().map(_scaled_cluster), large_cofinite_holes()),
       st.data())
def test_containing_component_decides_membership(M, data):
    # 1-D cases come from both strategies: their two rays lie on the
    # same side, as a finite or cofinite set needs
    pair = trace(M)
    report = validate(pair)
    members = reconstruct(pair)
    s, dim = pair.spacing, pair.dim
    stored = sorted(pair.d0 | pair.d1)
    window = window_of(stored).inflate(2 * s)

    def on_grid(coords):
        return tuple(s * c for c in coords)

    near = st.builds(lambda p, off: tuple(c + s * o for c, o in zip(p, off)),
                     st.sampled_from(stored),
                     st.tuples(*[st.integers(-3, 3)] * dim))
    inside = st.tuples(*[st.integers(lo // s, hi // s) for lo, hi in
                         zip(window.lower, window.upper)]).map(on_grid)
    far = st.tuples(*[st.sampled_from([-10**30, 0, 10**30])] * dim).map(on_grid)
    probes = data.draw(st.lists(st.one_of(near, inside, far), max_size=40))
    for q in probes:
        if q not in pair.d0 and q not in pair.d1:
            assert member(members, q) == \
                report.components.containing(q).adjacent_d0
