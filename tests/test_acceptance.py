"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance
(everything here is exact: set equality, byte equality, or boolean
agreement) and prints one PASS/FAIL line.  Run with `pytest -s
tests/test_acceptance.py` to see the lines and per-criterion timings.

Instance sizes are chosen so the whole file stays well inside its
runtime budget on a laptop while the counts meet the stated minimums.
"""

import random
import time
from contextlib import contextmanager

from gridpairs import formats
from gridpairs.gridset import GridSet, Mode, Window, complement, member
from gridpairs.layers import boundary0, layer, trace
from gridpairs.lifted import lift_interpolate, lift_restrict
from gridpairs.oracle import (
    separation_bruteforce,
    best_approx_bruteforce,
    random_set,
)
from gridpairs.pairs import BoundaryPair, reconstruct, validate
from gridpairs.transfer import GridRatio, interpolate, restrict

from conftest import (ball_points, chebyshev, coarse_dilation, fixture_text,
                      hausdorff, is_connected, is_voronoi_cover,
                      largest_component, rd, straight_path)

DENSITIES = (0.2, 0.5, 0.8)


@contextmanager
def criterion(number, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {label} ({elapsed:.1f}s)")


def finite_variant(gridset):
    return GridSet(gridset.dim, gridset.spacing, Mode.FINITE, gridset.points)


def test_criterion_1_figure_exact_golden():
    with criterion(1, "figure-exact golden tests"):
        ratio = GridRatio(2)
        fig6a = fixture_text("fig6a.pair")
        fig6b = fixture_text("fig6b.pair")
        fig6c = fixture_text("fig6c.pair")
        refined = lift_interpolate(formats.parse_text(fig6a), ratio)
        assert formats.serialize_ascii(refined) == fig6b
        coarsened = lift_restrict(formats.parse_text(fig6b), ratio)
        assert formats.serialize_ascii(coarsened) == fig6c

        fig1a = formats.parse_text(fixture_text("fig1a.grid"))
        assert formats.serialize_ascii(trace(fig1a)) == \
            fixture_text("fig1trace.pair")

        for name in ("fig2a.pair", "fig2b.pair", "fig2c.pair"):
            report = validate(formats.parse_text(fixture_text(name)))
            assert report.failed == ("separation",), name


def test_criterion_2_bijection():
    with criterion(2, "trace/reconstruct bijection on random sets"):
        count_2d = 0
        for index in range(1002):
            M = random_set(Window((0, 0), (15, 15)),
                           DENSITIES[index % 3], seed=index)
            assert reconstruct(trace(M)) == M
            count_2d += 1
            if index % 5 == 0:
                C = complement(M)
                assert reconstruct(trace(C)) == C
        assert count_2d >= 1000

        count_3d = 0
        for index in range(102):
            M = random_set(Window((0, 0, 0), (5, 5, 5)),
                           DENSITIES[index % 3], seed=5000 + index)
            assert reconstruct(trace(M)) == M
            count_3d += 1
            if index % 5 == 0:
                C = complement(M)
                assert reconstruct(trace(C)) == C
        assert count_3d >= 100

        for dim, spacing in ((1, 1), (2, 1), (2, 3), (3, 2)):
            full = GridSet.full_grid(dim, spacing)
            assert reconstruct(trace(full)) == full


def test_criterion_3_lifted_operator_oracle_equivalence():
    spans = {1: 12, 2: 6, 3: 4}
    coarse_cells = {1: 4, 2: 3, 3: 2}
    with criterion(3, "lifted operators match the full-set route"):
        for dim in (1, 2, 3):
            for n in (2, 3, 4, 5):
                ratio = GridRatio(n)
                window = Window((0,) * dim, (spans[dim] - 1,) * dim)
                coarse_window = Window(
                    (0,) * dim, (n * (coarse_cells[dim] - 1),) * dim)
                for index in range(1000):
                    seed = 10**6 * dim + 10**4 * n + index
                    M = random_set(window, DENSITIES[index % 3], seed)
                    if index % 10 == 9:
                        M = complement(M)
                    pair = trace(M)
                    assert lift_restrict(pair, ratio) == \
                        trace(restrict(M, ratio)), (dim, n, index)

                    if index % 2 == 0:
                        C = restrict(finite_variant(M), ratio)
                    else:
                        C = random_set(coarse_window,
                                       DENSITIES[(index + 1) % 3],
                                       seed + 7, spacing=n)
                        if index % 10 == 4:
                            C = complement(C)
                    cpair = trace(C)
                    assert lift_interpolate(cpair, ratio) == \
                        trace(interpolate(C, ratio)), (dim, n, index)


def test_criterion_4_composition_law():
    with criterion(4, "restriction after interpolation"):
        for n in (3, 5):
            ratio = GridRatio(n)
            for index in range(250):
                C = random_set(Window((0, 0), (3 * n, 3 * n)),
                               DENSITIES[index % 3], seed=20000 + index,
                               spacing=n)
                assert restrict(interpolate(C, ratio), ratio) == C
        for n in (2, 4):
            ratio = GridRatio(n)
            for index in range(250):
                C = random_set(Window((0, 0), (3 * n, 3 * n)),
                               DENSITIES[index % 3], seed=30000 + index,
                               spacing=n)
                got = restrict(interpolate(C, ratio), ratio)
                assert got == coarse_dilation(C, n)


def translated(points, shift):
    return frozenset(tuple(c + d for c, d in zip(p, shift)) for p in points)


def test_criterion_5_operator_property_battery():
    with criterion(5, "transfer operator property battery"):
        for n in (2, 3):
            ratio = GridRatio(n)
            rng = random.Random(40 + n)
            for index in range(300):
                A = random_set(Window((0, 0), (7, 7)),
                               DENSITIES[index % 3], seed=40000 + index)
                B = random_set(Window((0, 0), (7, 7)),
                               DENSITIES[(index + 1) % 3], seed=41000 + index)
                union = GridSet.finite(A.points | B.points)
                # union additivity and monotonicity
                assert restrict(union, ratio).points == \
                    restrict(A, ratio).points | restrict(B, ratio).points
                assert restrict(A, ratio).points <= \
                    restrict(union, ratio).points
                # translation equivariance by a coarse vector
                shift = (n * rng.randrange(-2, 3), n * rng.randrange(-2, 3))
                moved = GridSet.finite(translated(A.points, shift))
                assert restrict(moved, ratio).points == \
                    translated(restrict(A, ratio).points, shift)
                # half-step approximation, both directions
                R = restrict(A, ratio)
                assert 2 * hausdorff(R, A) <= n
                I = interpolate(R, ratio)
                assert 2 * hausdorff(I, R) <= n
                # interpolation side of additivity and equivariance
                R2 = restrict(B, ratio)
                coarse_union = GridSet.finite(R.points | R2.points, n)
                assert interpolate(coarse_union, ratio).points == \
                    interpolate(R, ratio).points | \
                    interpolate(R2, ratio).points
                assert interpolate(
                    GridSet.finite(translated(R.points, shift), n),
                    ratio).points == translated(I.points, shift)
                # connectedness preservation
                blob = largest_component(A)
                assert is_connected(restrict(blob, ratio))
                assert is_connected(
                    interpolate(restrict(blob, ratio), ratio))
                # boundary stability, both directions
                assert boundary0(R).points <= \
                    restrict(boundary0(A), ratio).points
                assert boundary0(I).points <= \
                    interpolate(boundary0(R), ratio).points


def box_cover_masks(M, candidates, n):
    """Bitmask per coarse candidate marking which sample points of the
    half-step inflation of M its half-step box contains (scaled by 4)."""
    samples = set()
    for p in M.points:
        base = (4 * p[0], 4 * p[1])
        for dx in range(-2, 3):
            for dy in range(-2, 3):
                samples.add((base[0] + dx, base[1] + dy))
    samples = sorted(samples)
    index_of = {v: i for i, v in enumerate(samples)}
    full = (1 << len(samples)) - 1
    masks = []
    for c in candidates:
        mask = 0
        cx, cy = 4 * c[0], 4 * c[1]
        for v in samples:
            if abs(v[0] - cx) <= 2 * n and abs(v[1] - cy) <= 2 * n:
                mask |= 1 << index_of[v]
        masks.append(mask)
    return masks, full


def test_criterion_6_voronoi_cover_membership_and_minimality():
    with criterion(6, "Voronoi cover membership and minimality"):
        for index in range(300):
            n = 2 + index % 2
            ratio = GridRatio(n)
            M = random_set(Window((0, 0), (7, 7)), DENSITIES[index % 3],
                           seed=50000 + index)
            assert is_voronoi_cover(M, restrict(M, ratio))

        # deleting any single point breaks the cover
        for index in range(60):
            n = 2 + index % 2
            ratio = GridRatio(n)
            M = random_set(Window((0, 0), (4, 4)), 0.5, seed=51000 + index)
            R = restrict(M, ratio)
            for removed in sorted(R.points):
                rest = R.points - {removed}
                if not rest:
                    continue
                assert not is_voronoi_cover(
                    M, GridSet.finite(rest, n, dim=2))

        # full enumeration on small instances: every cover contains the
        # restriction (candidates limited to points whose box can help)
        enumerated = 0
        seed = 52000
        while enumerated < 12:
            seed += 1
            n = 2
            ratio = GridRatio(n)
            M = random_set(Window((0, 0), (2, 2)), 0.5, seed=seed)
            useful = set()
            for p in M.points:
                useful |= ball_points(p, n + 1, n)
            candidates = sorted(useful)
            if len(candidates) > 12:
                continue
            R = restrict(M, ratio)
            masks, full = box_cover_masks(M, candidates, n)
            r_indices = {candidates.index(p) for p in R.points}
            covers = 0
            for mask in range(1, 1 << len(candidates)):
                combined = 0
                for i in range(len(candidates)):
                    if mask >> i & 1:
                        combined |= masks[i]
                if combined == full:
                    covers += 1
                    assert all(mask >> i & 1 for i in r_indices), \
                        "a cover misses a restriction point"
            assert covers >= 1
            # spot-check the mask decision against the library predicate
            rng = random.Random(seed)
            for _ in range(10):
                mask = rng.randrange(1, 1 << len(candidates))
                subset = [candidates[i] for i in range(len(candidates))
                          if mask >> i & 1]
                combined = 0
                for i in range(len(candidates)):
                    if mask >> i & 1:
                        combined |= masks[i]
                assert (combined == full) == is_voronoi_cover(
                    M, GridSet.finite(subset, n, dim=2))
            enumerated += 1


def test_criterion_7_best_approximation_oracle():
    with criterion(7, "restriction is the maximal best approximation"):
        done = 0
        seed = 60000
        while done < 100:
            seed += 1
            n = 2 + done % 2
            ratio = GridRatio(n)
            M = random_set(Window((0, 0), (n, n)), 0.6, seed=seed)
            lo = tuple(min(p[j] for p in M.points) - (n + 1) // 2
                       for j in range(2))
            hi = tuple(max(p[j] for p in M.points) + (n + 1) // 2
                       for j in range(2))
            window = Window(lo, hi)
            if len(list(window.grid_points(n))) > 12:
                continue
            minimizers = best_approx_bruteforce(M, ratio, window)
            R = restrict(M, ratio)
            assert R.points in minimizers
            assert all(sub <= R.points for sub in minimizers)
            done += 1


def layer_by_inner_boundary_distance(M, k):
    s = M.spacing
    b0 = boundary0(M).points
    if not b0:
        return frozenset()
    lo = tuple(min(p[j] for p in b0) - (abs(k) + 1) * s for j in range(M.dim))
    hi = tuple(max(p[j] for p in b0) + (abs(k) + 1) * s for j in range(M.dim))
    out = set()
    for cell in Window(lo, hi).grid_points(s):
        d = min(chebyshev(cell, b) for b in b0)
        if k >= 1 and not member(M, cell) and d == k * s:
            out.add(cell)
        elif k <= -1 and member(M, cell) and d == -k * s:
            out.add(cell)
    return frozenset(out)


def test_criterion_8_layer_identities():
    with criterion(8, "layer flip and dual characterizations"):
        for index in range(200):
            M = random_set(Window((0, 0), (7, 7)), DENSITIES[index % 3],
                           seed=70000 + index)
            if index % 4 == 0:
                M = complement(M)
            flipped = complement(M)
            for k in range(-3, 5):
                this = layer(M, k)
                assert this == layer(flipped, 1 - k), (index, k)
                if k != 0:
                    assert this.points == \
                        layer_by_inner_boundary_distance(M, k), (index, k)
                else:
                    assert this == boundary0(M)


def test_criterion_9_separation_axiom_equivalence():
    with criterion(9, "component criterion matches path enumeration"):
        compared = 0
        rng = random.Random(80001)
        for index in range(260):
            M = random_set(Window((0, 0), (4, 4)), DENSITIES[index % 3],
                           seed=80000 + index)
            pair = trace(M)
            choice = index % 3
            if choice == 1 and len(pair.d1) > 1:
                dropped = sorted(pair.d1)[rng.randrange(len(pair.d1))]
                pair = BoundaryPair(2, 1, pair.d0, pair.d1 - {dropped})
            elif choice == 2:
                pair = BoundaryPair(2, 1, pair.d0 | {(8, 8)},
                                    pair.d1 | {(9, 9)})
            report = validate(pair)
            assert report.separation.passed == \
                separation_bruteforce(pair, 6), index
            compared += 1
        assert compared >= 200


def test_criterion_10_rounding_and_path_properties():
    with criterion(10, "rounding function and straight-path properties"):
        for q in range(1, 13):
            rounded = {p: rd(p, q) for p in range(-150, 151)}
            for p in range(-100, 101):
                if p % q == 0:
                    assert rounded[p] == p // q
                for k in (-2, 1, 3):
                    assert rounded[p + k * q] == rounded[p] + k
                assert abs(rounded[p]) <= rounded[abs(p)]
                assert rounded[p] <= rounded[p + 1]
                for k in (1, 3):
                    assert abs(rounded[p + k * q - 1] - rounded[p]) <= k

        for dim in (1, 2, 3):
            rng = random.Random(90 + dim)
            for _ in range(500):
                x = tuple(rng.randrange(-9, 10) for _ in range(dim))
                z = tuple(rng.randrange(-9, 10) for _ in range(dim))
                path = straight_path(x, z, 1)
                k = chebyshev(x, z)
                assert path.start == x and path.end == z
                assert path.length == k
                for step, node in enumerate(path.nodes):
                    assert chebyshev(node, x) == step
                    assert chebyshev(node, z) == k - step
                for a, b in zip(path.nodes, path.nodes[1:]):
                    assert chebyshev(a, b) == 1
                for _ in range(3):
                    y = tuple(rng.randrange(-9, 10) for _ in range(dim))
                    bound = max(chebyshev(x, y), chebyshev(y, z))
                    assert all(chebyshev(node, y) <= bound
                               for node in path.nodes)
