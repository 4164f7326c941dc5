import copy
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpairs import formats
from gridpairs.gridset import (GridSet, Mode, Window, complement, member,
                               window_of)
from gridpairs.layers import trace
from gridpairs.lifted import lift_restrict
from gridpairs.oracle import (
    MAX_BRUTE_CELLS,
    Direction,
    closer_set_window,
    components_bfs,
    lifted_via_full,
    random_set,
    separation_bruteforce,
)
from gridpairs.pairs import (AxiomCheck, BoundaryPair, InvalidPairError,
                             reconstruct, validate)
from gridpairs.transfer import GridRatio, restrict

from conftest import (adjacency_check, boards_built, each_form,
                      far_clusters_blobs, fixture_text, in_both_forms,
                      labelling_cases, large_cofinite_holes, masks_built,
                      never_masks, sides_of, two_clusters,
                      validated_in_both_forms)

#: Most window cells per point for which the forced-open gate builds
#: masks where clusters lie 10^6 or 10^23 steps apart; farther pairs
#: keep to sets in both runs, as their masks would not fit in memory.
FAR_CELLS = 2**10

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
        report = validated_in_both_forms(
            BoundaryPair.of([(0, 0), (1, 0)], [(1, 0)]))
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
    report = validated_in_both_forms(BoundaryPair(window.dim, s, d0, d1),
                                     FAR_CELLS)
    assert report.d0_touches_d1 == adjacency_check(d0, d1, s)
    assert report.d1_touches_d0 == adjacency_check(d1, d0, s)


@given(labelling_cases())
def test_validate_leaves_the_pair_lines_unchanged(case):
    # The walk grows a set of each shared line's d1 cells into the reach
    # of its d0 cells; the pair's own lines, sorted lists, stay as they
    # were, for a pair that may overlap and for the valid trace of d0.
    window, s, d0, d1 = case
    pairs = [BoundaryPair(window.dim, s, d0, d1)]
    if d0:
        pairs.append(trace(GridSet(window.dim, s, Mode.FINITE, d0)))
    for pair in pairs:
        before = copy.deepcopy((pair.d0.lines, pair.d1.lines))
        validate(pair)
        assert (pair.d0.lines, pair.d1.lines) == before


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


#: Box side in grid steps, per dimension, of the sets whose traces,
#: mutated, test the walk of `validate`.
WALK_SPANS = {1: 12, 2: 5, 3: 3}


def mutated(pair, rng):
    """The pair with one point moved one step along an axis, given the
    other label, given both labels or dropped, or with a lone point
    added three steps beyond the upper corner of its box."""
    s = pair.spacing
    d0, d1 = set(pair.d0), set(pair.d1)
    kind = rng.choice(("move", "flip", "both", "drop", "far"))
    if kind == "far":
        upper = window_of(d0 | d1).upper
        rng.choice((d0, d1)).add(tuple(c + 3 * s for c in upper))
    else:
        p = rng.choice(sorted(d0 | d1))
        own, other = (d0, d1) if p in d0 else (d1, d0)
        if kind != "both":
            own.discard(p)
        if kind == "move":
            j = rng.randrange(pair.dim)
            own.add(p[:j] + (p[j] + rng.choice((-s, s)),) + p[j + 1:])
        elif kind in ("flip", "both"):
            other.add(p)
    return BoundaryPair(pair.dim, s, frozenset(d0), frozenset(d1))


def reference_checks(pair):
    """The five checks of `validate`, decided by brute force: the
    adjacency axioms by a scan of every point's Moore neighbours, and
    separation by the first flood-filled complement component adjacent
    to both sets, whose least point is the witness."""
    d0, d1, s = frozenset(pair.d0), frozenset(pair.d1), pair.spacing
    both = d0 & d1
    separation = AxiomCheck(True)
    for comp in components_bfs(window_of(d0 | d1).inflate(s), s, d0, d1):
        if comp.adjacent_d0 and comp.adjacent_d1:
            separation = AxiomCheck(False, comp.lowest)
            break
    return (AxiomCheck(bool(d0 and d1)),
            AxiomCheck(False, min(both)) if both else AxiomCheck(True),
            adjacency_check(d0, d1, s), adjacency_check(d1, d0, s),
            separation)


def checks_of(report):
    return (report.nonempty, report.disjoint, report.d0_touches_d1,
            report.d1_touches_d0, report.separation)


@pytest.mark.parametrize("spacing", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_walk_matches_the_references_on_mutated_traces(dim, spacing):
    # in both forms, every third box shifted by 10^23 steps, and every
    # third by -10^23
    rng = random.Random(10 * dim + spacing)
    s = spacing
    leaks = 0
    for index in range(40):
        low = s * (0, 10**23, -10**23)[index % 3]
        box = Window((low,) * dim, (low + (WALK_SPANS[dim] - 1) * s,) * dim)
        M = random_set(box, rng.choice((0.3, 0.5, 0.7)),
                       rng.randrange(10**6), s)
        if rng.random() < 0.5:
            M = GridSet(dim, s, Mode.COFINITE, M.points)
        pair = trace(M)
        for candidate in (pair, mutated(pair, rng)):
            report = validated_in_both_forms(candidate)
            assert checks_of(report) == reference_checks(candidate)
            leaks += not report.separation.passed
            window = window_of(candidate.d0 | candidate.d1).inflate(s)
            cells = list(window.grid_points(s))
            if dim < 3 and len(cells) <= MAX_BRUTE_CELLS:
                # a short path from d0 to d1 through free cells is a leak
                assert (separation_bruteforce(candidate, 4)
                        or not report.separation.passed)
            if report.valid:
                # each free cell's side: the set it is strictly closer to
                inside = closer_set_window(candidate, window)
                assert all(report.sides.of(q) == (q not in inside)
                           for q in cells if q not in candidate.d0
                           and q not in candidate.d1)
    assert leaks >= 10


@pytest.mark.parametrize("spacing", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mask_sides_answer_as_the_run_ends_beyond_the_window(dim, spacing):
    # A walk on boards answers `Sides.of` from its board: beyond its
    # window by the rays' sides, and on a line off the board by the
    # exterior side.  Every free cell of the window of d0 | d1 inflated
    # by 2n + 2 steps, farther than the candidates of `lift_restrict`
    # at ratio n reach, and far out on the rays, has the side that the
    # walk point by point gives it, in traces of finite and cofinite
    # sets, every third box shifted by 10^23 steps, and every third by
    # -10^23.
    rng = random.Random(100 + 10 * dim + spacing)
    s, n = spacing, (5, 5, 2)[dim - 1]
    span = {1: 12, 2: 8, 3: 4}[dim]
    cofinite = 0
    for index in range(9):
        low = s * (0, 10**23, -10**23)[index % 3]
        box = Window((low,) * dim, (low + (span - 1) * s,) * dim)
        M = random_set(box, rng.choice((0.3, 0.5, 0.7)),
                       rng.randrange(10**6), s)
        if rng.random() < 0.3:
            M = GridSet(dim, s, Mode.COFINITE, M.points)
            cofinite += 1
        pair = trace(M)
        if pair.is_empty:
            continue
        boards, sets = each_form(lambda: validate(pair))
        assert boards.sides.lines is None and sets.sides.lines is not None
        window = window_of(pair.d0 | pair.d1).inflate((2 * n + 2) * s)
        free = [q for q in window.grid_points(s)
                if q not in pair.d0 and q not in pair.d1]
        # and on the rays of each line, 10^30 steps out
        free += [p[:-1] + (p[-1] + far * s,) for p in pair.d0 | pair.d1
                 for far in (-10**30, 10**30)]
        assert ([boards.sides.of(q) for q in free]
                == [sets.sides.of(q) for q in free]
                == [boards.sides.along(q[:-1])(q[-1]) for q in free])
        assert sides_of(boards, pair) == sides_of(sets, pair)
    assert cofinite


@pytest.mark.parametrize("dim, count", [(4, 12), (5, 9)])
def test_walk_matches_the_references_in_four_and_five_dimensions(dim, count):
    # Lone points of a small box, and the traces of 2-D sets laid flat
    # in the space, on fewer lines than the 3^(m-1) - 1 lines beside
    # each; and the traces of sets of the full dimension, on as many
    # lines or more.  Traces lose a point or give it the other label
    # now and then.  So the walk and the witness labeller list the lines
    # beside a line in both ways, and a flat trace fails separation only
    # beside the lines off d0 | d1.  The references flood the window
    # cell by cell, so the sets stay small: in 5-D a set of the full
    # dimension is one point.
    rng = random.Random(dim)
    box = Window((0,) * dim, (1,) * dim)
    cells = sorted(box.grid_points(1))
    regimes = set()
    for index in range(count):
        kind = index % 3
        if kind == 0:
            sets = set(), set()
            for p in rng.sample(cells, rng.randint(2, 5)):
                sets[rng.randrange(2)].add(p)
            if rng.random() < 0.25:
                sets[0].add(rng.choice(sorted(sets[1] or sets[0])))
        else:
            if kind == 1:
                flat = trace(random_set(Window((0, 0), (2, 2)), 0.6,
                                        rng.randrange(10**6)))
                pad = (0,) * (dim - 2)
                sets = ({pad + p for p in flat.d0}, {pad + p for p in flat.d1})
            else:
                M = (random_set(box, 0.5, rng.randrange(10**6)) if dim == 4
                     else GridSet.finite({rng.choice(cells)}))
                pair = trace(M)
                sets = set(pair.d0), set(pair.d1)
            if sets[0] and rng.random() < 0.5:
                p = rng.choice(sorted(sets[0] | sets[1]))
                own = sets[0] if p in sets[0] else sets[1]
                own.discard(p)
                if rng.random() < 0.5:
                    sets[own is sets[0]].add(p)
        pair = BoundaryPair(dim, 1, frozenset(sets[0]), frozenset(sets[1]))
        lines = {p[:-1] for p in pair.d0 | pair.d1}
        regimes.add(len(lines) < 3 ** (dim - 1) - 1)
        report = validated_in_both_forms(pair)
        assert checks_of(report) == reference_checks(pair)
    assert regimes == {False, True}


def _block_trace_edited(dim, edits):
    # The trace of the solid block {0, 1, 2}^dim, whose centre is a free
    # run of one cell inside the set, with each edited point moved to
    # the named set, or to neither.
    block = trace(GridSet.finite(product(range(3), repeat=dim)))
    sets = {"d0": set(block.d0), "d1": set(block.d1)}
    for p, to in edits:
        for points in sets.values():
            points.discard(p)
        if to is not None:
            sets[to].add(p)
    return BoundaryPair(dim, 1, frozenset(sets["d0"]), frozenset(sets["d1"]))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("rule, edits", [
    # (a): the run through the centre ends at a d0 and at a d1 cell
    ("a", lambda one: [(one + (2,), "d1")]),
    # (b): the last run of the centre line begins after a d0 cell
    ("b, first and last run", lambda one: [(one + (3,), None)]),
    # (b): a d0 cell on a line beside a line off d0 | d1
    ("b, beside a free line", lambda one: [((3,) + one, "d0")]),
    # (c): the centre run meets the d1 cell (2, ..., 2) only diagonally;
    # the outer corner (3, ..., 3), whose one d0 neighbour that cell
    # was, leaves d1 too, so both adjacency axioms still hold
    ("c", lambda one: [((2,) * len(one) + (2,), "d1"),
                       ((3,) * len(one) + (3,), None)]),
])
def test_each_rule_of_the_walk_alone_finds_a_leak(dim, rule, edits):
    pair = _block_trace_edited(dim, edits((1,) * (dim - 1)))
    for shift in (0, 10**23, -10**23):
        moved = BoundaryPair.of(
            [tuple(c + shift for c in p) for p in pair.d0],
            [tuple(c + shift for c in p) for p in pair.d1], dim=dim)
        report = validated_in_both_forms(moved)
        assert report.failed == ("separation",)
        assert report.sides is None
        assert checks_of(report) == reference_checks(moved)


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
        assert validated_in_both_forms(pair, FAR_CELLS).valid
        assert in_both_forms(lambda: reconstruct(pair), FAR_CELLS) == M


class TestWalkGate:
    # The walk builds no masks, and the lifted core after it builds them
    # for dense pairs only: pairs whose window is far larger than their
    # points, whose lines are short, or that are few keep the core to
    # sets.  The walk takes one board per set where the board fits.
    @staticmethod
    def lifted_and_walked(pair):
        yield lambda: validate(pair)
        yield lambda: reconstruct(pair)
        yield lambda: lift_restrict(pair, GridRatio(2))

    def test_two_points_far_apart(self):
        for pair in (BoundaryPair.of([(0, 0)], [(10**6, 10**6)]),
                     BoundaryPair.of([(0,)], [(10**6,)])):
            never_masks(lambda: validate(pair))

    def test_disk_of_radius_128(self):
        # the size of the largest disk-lift pair: about 2,000 points on
        # 257 lines
        r = 128
        M = GridSet.finite({(x, y) for x in range(-r, r + 1)
                            for y in range(-r, r + 1)
                            if x * x + y * y <= r * r})
        pair = trace(M)
        for compute in self.lifted_and_walked(pair):
            never_masks(compute)
        assert boards_built(lambda: validate(pair)) == 2

    def test_the_board_is_sized_before_it_is_built(self):
        # The gate reads the line keys and line ends: the trace of two
        # 3^2 blocks 10^9 apart and the two-point pair in 20 dimensions,
        # each on a board of about 10^18 bits, build none, and the trace
        # of a 96^2 box, on 14 bits per point, one per set.
        # Each report is the one the walk on sets gives.
        block = list(product(range(3), repeat=2))
        far = block + [(x + 10**9, y + 10**9) for x, y in block]
        box = product(range(96), repeat=2)
        for pair, boards in (
                (trace(GridSet.finite(far)), 0),
                (BoundaryPair.of([(0,) * 20], [(5,) * 20]), 0),
                (trace(GridSet.finite(box)), 2)):
            assert boards_built(lambda: validate(pair)) == boards
            report, sets = validate(pair), each_form(lambda: validate(pair),
                                                     0)[1]
            assert report == sets and report.describe() == sets.describe()
            assert sides_of(report, pair) == sides_of(sets, pair)

    def test_far_clusters_blobs(self):
        for M in far_clusters_blobs():
            for pair in (trace(M), trace(complement(M))):
                for compute in self.lifted_and_walked(pair):
                    never_masks(compute)

    def test_criterion_3_block(self):
        pair = trace(GridSet.finite(product(range(3), repeat=2)))
        for compute in self.lifted_and_walked(pair):
            never_masks(compute)

    @pytest.mark.parametrize("side, density", [(96, 0.3), (128, 0.5),
                                               (128, 0.7)])
    def test_dense_noise_pairs_take_masks(self, side, density):
        # the noise-fullset sizes, and a cofinite set: one walk per
        # validation, on one board per set, and masks for the core of
        # lift_restrict
        M = random_set(Window((0, 0), (side - 1, side - 1)), density, 11)
        for pair in (trace(M), trace(complement(M))):
            assert masks_built(lambda: validate(pair)) == 0
            assert boards_built(lambda: validate(pair)) == 2
            assert masks_built(lambda: lift_restrict(pair, GridRatio(2))) == 1
            assert boards_built(
                lambda: lift_restrict(pair, GridRatio(2))) == 2

    def test_core_follows_the_walk(self):
        # The core of lift_restrict takes masks where the dense form's
        # gate takes the whole pair, also where D0 alone would not pass
        # it: at 24^2 D0 alone has too few points for them and at 48^2
        # too few for its window at n >= 4, a window that the points of
        # the whole pair cover.  Where the gate keeps the pair to sets,
        # so does the core.
        sets = [random_set(Window((0, 0), (side - 1, side - 1)), 0.3, 9)
                for side in (24, 48)]
        sets.append(GridSet(2, 1, Mode.COFINITE, random_set(
            Window((0, 0), (23, 23)), 0.7, 9).points))
        pairs = [(M, trace(M)) for M in sets]
        sparse = trace(next(far_clusters_blobs()))
        for n in range(2, 6):
            ratio = GridRatio(n)
            for M, pair in pairs:
                assert masks_built(lambda: lift_restrict(pair, ratio)) == 1
                assert lift_restrict(pair, ratio) == trace(restrict(M, ratio))
            never_masks(lambda: lift_restrict(sparse, ratio))

    def test_core_keeps_to_the_pair_at_a_large_ratio(self):
        # At ratio 10^6 the core's window would hold about 3 * 10^6
        # cells per line, whatever the pair: a dense pair then runs its
        # core on sets, reading its candidates' sides from the walk's
        # boards, so no masks are built.
        ratio = GridRatio(10**6)
        M = random_set(Window((0, 0), (23, 23)), 0.3, 9)
        for M in (M, GridSet(2, 1, Mode.COFINITE, M.points)):
            pair = trace(M)
            assert validate(pair).sides.lines is None
            assert masks_built(lambda: lift_restrict(pair, ratio)) == 0
            assert (lift_restrict(pair, ratio)
                    == lifted_via_full(pair, ratio, Direction.RESTRICT))


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
    if pair.is_empty:
        # a hole filled by its islands: the full grid, with no free runs
        assert members.is_full_grid
        return
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
            assert member(members, q) == (report.sides.of(q) == 0)
