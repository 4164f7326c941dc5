"""Brute-force reference implementations.

Everything here is deliberately independent of the efficient code paths
it is used to check.  The references traverse the grid point by point
with `gridset.distance_map`, which no operation calls, stepping to the
Moore neighbours of `geometry.moore_neighbors`, so the differential
tests compare the walk of `validate`, the witness labelling of
`gridset.components_within` and the line kernels against a traversal
they do not share.  The oracles may be exponential; they enforce
explicit budgets.  `random_set`, which draws the random test sets,
lives beside the set model in `gridset`; it is also importable from
here.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import FrozenSet, List, Set, Tuple

from .geometry import Point, moore_neighbors
from .gridset import Component, GridSet, Mode, Window, distance_map
from .gridset import random_set  # noqa: F401  (importable from here)
from .layers import trace
from .pairs import BoundaryPair, reconstruct
from .transfer import GridRatio, interpolate, restrict

#: Limits for the path-enumeration oracle.
MAX_BRUTE_CELLS = 1600
MAX_BRUTE_LEN = 8

#: Limit for the best-approximation enumeration (2**12 subsets).
MAX_BRUTE_CANDIDATES = 12


class Direction(enum.Enum):
    RESTRICT = "restrict"
    INTERPOLATE = "interpolate"


def lifted_via_full(pair: BoundaryPair, ratio: GridRatio,
                    direction: Direction) -> BoundaryPair:
    """The definitional route: reconstruct, transfer the full set, trace.

    This is the composition the fast boundary-only operators are judged
    against.
    """
    full = reconstruct(pair)
    if direction is Direction.RESTRICT:
        moved = restrict(full, ratio)
    else:
        moved = interpolate(full, ratio)
    return trace(moved)


def components_bfs(window: Window, spacing: int, d0: FrozenSet[Point],
                   d1: FrozenSet[Point]) -> Tuple[Component, ...]:
    """Reference for `gridset.components_within`: a flood fill per cell.

    Visits every grid point of the window, so its cost follows the
    window's volume.  The frame-touching cells are merged into the
    unbounded components by the same rules: one for dim >= 2, the left
    and right rays for dim == 1.  Each component's least point is the
    least of its own flood-filled points.
    """
    d0, d1 = frozenset(d0), frozenset(d1)
    occupied = d0 | d1
    for p in occupied:
        if not all(lo + spacing <= c <= hi - spacing for lo, c, hi
                   in zip(window.lower, p, window.upper)):
            raise ValueError(
                f"window too small: {p} is within one step of the frame")

    cells = sorted(window.grid_points(spacing))
    if not cells:
        raise ValueError("window contains no grid points")
    axis_lo = tuple(min(c[j] for c in cells) for j in range(window.dim))
    axis_hi = tuple(max(c[j] for c in cells) for j in range(window.dim))

    free = set(cells).difference(occupied)
    raw = []
    for seed in cells:
        if seed not in free:
            continue
        comp = frozenset(distance_map([seed], free, spacing))
        free.difference_update(comp)
        touches_lo = any(c == lo for p in comp for c, lo in zip(p, axis_lo))
        touches_hi = any(c == hi for p in comp for c, hi in zip(p, axis_hi))
        near = set().union(*[moore_neighbors(p, spacing) for p in comp])
        # not exclusive: the sets may overlap
        raw.append((min(comp), touches_lo, touches_hi,
                    not d0.isdisjoint(near), not d1.isdisjoint(near)))

    if window.dim == 1 and not any(e[1] and e[2] for e in raw):
        groups = [[e for e in raw if e[1]], [e for e in raw if e[2]]]
    else:
        groups = [[e for e in raw if e[1] or e[2]]]
    found = [Component(True, any(e[3] for e in group),
                       any(e[4] for e in group), min(e[0] for e in group))
             for group in groups if group]
    found += sorted((Component(False, adj0, adj1, lowest)
                     for lowest, lo, hi, adj0, adj1 in raw if not (lo or hi)),
                    key=attrgetter("lowest"))
    return tuple(found)


def closer_set_window(pair: BoundaryPair, window: Window) -> FrozenSet[Point]:
    """Window grid points strictly closer to d0 than to d1.

    Computed from two multi-source distance propagations over a box
    enclosing the window and both sets; serves as the distance-based
    oracle for `reconstruct`.
    """
    if not pair.d0 or not pair.d1:
        raise ValueError("both sets of the pair must be nonempty")
    everything = list(pair.d0 | pair.d1)
    everything.extend((window.lower, window.upper))
    lower = tuple(min(p[j] for p in everything) for j in range(pair.dim))
    upper = tuple(max(p[j] for p in everything) for j in range(pair.dim))
    domain = Window(lower, upper)
    dist0 = distance_map(pair.d0, domain, pair.spacing)
    dist1 = distance_map(pair.d1, domain, pair.spacing)
    return frozenset(
        p for p in window.grid_points(pair.spacing)
        if dist0[p] < dist1[p]
    )


def separation_bruteforce(pair: BoundaryPair, max_len: int) -> bool:
    """Search for a path from d0 to d1 avoiding both sets in its interior.

    Enumerates simple paths of length up to max_len whose interior stays
    inside the bounding box of the pair inflated by one step; returns
    True when no such path of length above one exists.  Repeated nodes
    never help a violating path, so pruning revisits loses nothing.
    Only tiny instances are accepted (see MAX_BRUTE_CELLS, MAX_BRUTE_LEN).
    """
    if max_len > MAX_BRUTE_LEN:
        raise ValueError(f"max_len {max_len} exceeds budget {MAX_BRUTE_LEN}")
    d0, d1 = frozenset(pair.d0), frozenset(pair.d1)
    if not d0 or not d1:
        return True
    s = pair.spacing
    occupied = d0 | d1
    lower = tuple(min(p[j] for p in occupied) - s for j in range(pair.dim))
    upper = tuple(max(p[j] for p in occupied) + s for j in range(pair.dim))
    size = 1
    for lo, hi in zip(lower, upper):
        size *= (hi - lo) // s + 1
    if size > MAX_BRUTE_CELLS:
        raise ValueError(f"instance with {size} cells exceeds budget")

    free = {
        p for p in Window(lower, upper).grid_points(s)
        if p not in occupied
    }

    def reaches_d1(p: Point) -> bool:
        return any(q in d1 for q in moore_neighbors(p, s))

    def search(node: Point, depth: int, visited: Set[Point]) -> bool:
        # node is an interior point of a candidate path; depth counts
        # interior nodes used so far (path length = depth + 1).
        if depth + 1 > max_len:
            return False
        if reaches_d1(node):
            return True
        if depth + 2 > max_len:
            return False
        for q in moore_neighbors(node, s):
            if q in free and q not in visited:
                visited.add(q)
                if search(q, depth + 1, visited):
                    return True
                visited.remove(q)
        return False

    for x in sorted(d0):
        for u in moore_neighbors(x, s):
            if u in free:
                if search(u, 1, {u}):
                    return False
    return True


def best_approx_bruteforce(gridset: GridSet, ratio: GridRatio,
                           window: Window) -> FrozenSet[FrozenSet[Point]]:
    """All nonempty coarse subsets of the window minimizing the Hausdorff
    distance to a fine set.

    The window must contain at most MAX_BRUTE_CANDIDATES coarse points;
    it should be large enough to contain every minimizer (inflating the
    bounding box of the set by half a coarse step suffices, because any
    minimizer stays within that distance).  Hausdorff distances are
    recomputed here with plain double loops.
    """
    if gridset.mode is not Mode.FINITE or not gridset.points:
        raise ValueError("the approximated set must be finite and nonempty")
    if gridset.spacing != 1:
        raise ValueError("the approximated set must live on the fine grid")
    candidates = sorted(window.grid_points(ratio.n))
    if len(candidates) > MAX_BRUTE_CANDIDATES:
        raise ValueError(
            f"{len(candidates)} candidate points exceed the budget of "
            f"{MAX_BRUTE_CANDIDATES}")
    members = sorted(gridset.points)

    def cheb(a: Point, b: Point) -> int:
        return max(abs(x - y) for x, y in zip(a, b))

    # distance tables: candidate -> dist to set, member x candidate matrix
    cand_to_set = [min(cheb(c, x) for x in members) for c in candidates]
    member_to_cand = [[cheb(x, c) for c in candidates] for x in members]

    best_value: float = float("inf")
    minimizers: List[FrozenSet[Point]] = []
    for mask in range(1, 1 << len(candidates)):
        chosen = [i for i in range(len(candidates)) if mask >> i & 1]
        semi_out = max(cand_to_set[i] for i in chosen)
        semi_in = max(min(row[i] for i in chosen) for row in member_to_cand)
        value = max(semi_out, semi_in)
        if value < best_value:
            best_value = value
            minimizers = []
        if value == best_value:
            minimizers.append(frozenset(candidates[i] for i in chosen))
    return frozenset(minimizers)
