"""Boundary pairs: axiom validation and reconstruction of the full set.

A boundary pair (D0, D1) consists of the inner boundary of a set (members
with a neighbor outside) and the first outer layer (non-members adjacent
to the set).  The five axioms checked by `validate` characterize exactly
the pairs arising this way, and `reconstruct` inverts the boundary
extraction.  Both read the free runs of the pair's occupied lines: by
the separation axiom each complement component of D0 | D1 lies wholly
inside or outside the set, so each free run has the side of the cells
at its ends, and `Sides` records it.  The runs of a line come from
`geometry.run_ends`, which also splits the lines that
`gridset.components_within` labels to name a failing pair's witness.
Where the pair is dense (the gate of `geometry._form`), the walk runs
on line masks instead, one int per line with one byte per cell of a
window that all lines share: every test of a line is then a few
operations on its mask and on the OR of its neighbouring lines' masks,
and the run ends are cut from the masks by `compress`, as `run_ends`
gives them, so the report is the same in both forms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, repeat
from operator import or_
from typing import (AbstractSet, Callable, Dict, Iterable, List, Optional,
                    Set, Tuple)

from .geometry import Lines, Point, _form, _Masks, moore_neighbors, run_ends
from .gridset import (Document, GridSet, Mode, components_within, dim_of,
                      window_of_lines)


@dataclass(frozen=True)
class BoundaryPair(Document):
    """Two disjoint finite point sets on a common grid.

    d0 plays the role of the inner boundary, d1 of the first outer
    layer.  Whether the pair is a genuine boundary pair is decided by
    `validate`.
    """

    dim: int
    spacing: int
    d0: AbstractSet[Point]
    d1: AbstractSet[Point]

    _point_fields = (("d0", "d0 point"), ("d1", "d1 point"))

    @classmethod
    def of(cls, d0: Iterable[Point], d1: Iterable[Point], spacing: int = 1,
           dim: Optional[int] = None) -> "BoundaryPair":
        d0 = frozenset(tuple(p) for p in d0)
        d1 = frozenset(tuple(p) for p in d1)
        return cls(dim_of(d0 | d1, dim, "pair"), spacing, d0, d1)

    @property
    def is_empty(self) -> bool:
        return not self.d0.lines and not self.d1.lines


class Sides:
    """The side of every free cell of a pair whose runs agree: 0 when
    its complement component of d0 | d1 is adjacent to d0, 1 when to d1.

    `lines` maps each occupied line to the end cells of its free runs
    and their sides.  The ends, sorted, are the first cell of d0 | d1
    on the line, the two cells around each bounded run, and the last
    cell; the sides, as bytes, are those of the left ray, of each
    bounded run and of the right ray, so one bisection among the ends
    finds a free cell's side: `along` looks a line up once and maps its
    free cells, `of` one point.  `exterior` holds the sides of the left
    and the right ray: in 1-D each has its own, and for dim >= 2 both
    are the side of the unbounded component, which holds both rays of
    every line and every line off d0 | d1.
    """

    __slots__ = ("lines", "exterior", "_off")

    def __init__(self, lines: Dict[Point, Tuple[List[int], bytes]],
                 exterior: Tuple[int, ...]):
        self.lines = lines
        self.exterior = exterior
        # a line off d0 | d1: no ends, and one run of the exterior side
        self._off = (), bytes(exterior[:1])

    def along(self, key: Point) -> Callable[[int], int]:
        """The side of each free cell of line key, by its last coordinate."""
        ends, sides = self.lines.get(key, self._off)
        return lambda c: sides[(bisect_left(ends, c) + 1) // 2]

    def of(self, q: Point) -> int:
        """The side of q, a grid point off d0 and d1."""
        return self.along(q[:-1])(q[-1])


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: Optional[Point] = None


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the five boundary-pair axioms, with failure witnesses.

    The pair (empty, empty) is the distinguished boundary pair of the
    full grid and passes by definition.  `sides` are the `Sides` of the
    free cells, which `reconstruct` and `lift_restrict` read; they are
    None for the empty pair and for a pair that is not disjoint or
    fails separation.
    """

    is_empty_pair: bool
    nonempty: AxiomCheck
    disjoint: AxiomCheck
    d0_touches_d1: AxiomCheck
    d1_touches_d0: AxiomCheck
    separation: AxiomCheck
    sides: Optional[Sides] = field(default=None, compare=False, repr=False)

    _NAMES = ("nonempty", "disjoint", "d0_touches_d1", "d1_touches_d0",
              "separation")

    @property
    def valid(self) -> bool:
        return not self.failed

    @property
    def failed(self) -> Tuple[str, ...]:
        return tuple(name for name in self._NAMES
                     if not getattr(self, name).passed)

    def describe(self) -> str:
        if self.is_empty_pair:
            return "empty pair: represents the full grid, valid by definition"
        lines = []
        for index, name in enumerate(self._NAMES, start=1):
            check = getattr(self, name)
            status = "pass" if check.passed else "FAIL"
            line = f"axiom {index} ({name}): {status}"
            if not check.passed and check.witness is not None:
                line += f"  witness: {check.witness}"
            lines.append(line)
        return "\n".join(lines)


class InvalidPairError(ValueError):
    """Raised when an operation requires a valid boundary pair."""

    def __init__(self, report: AxiomReport):
        self.report = report
        super().__init__(
            "invalid boundary pair; failed axioms: "
            + ", ".join(report.failed))


_PASS = AxiomCheck(True)


_Walk = Tuple[List[Point], List[Point], List[Point], Optional[Sides]]


def _walk(l0: Lines, l1: Lines, dim: int, s: int) -> _Walk:
    # One pass over the occupied lines.  It gathers the least point of
    # each line of d0 (of d1) with no point of the other set one step
    # away, the least point of each line in both sets, and, while no
    # such point is found, the sides of the free runs, or None once one
    # of the rules (a)-(c) of `validate` fails.  Where the pair is
    # dense, the pass runs on masks (`_walk_masks`), else point by point.
    keys = l0.keys() | l1.keys()
    form = _form((l0, l1), 0, s, s, once=True)
    if isinstance(form, _Masks):
        return _walk_masks(form, form.of(l1), keys, dim, s)
    get0, get1 = l0.get, l1.get
    failing0: List[Point] = []
    failing1: List[Point] = []
    overlap: List[Point] = []
    found: Dict[Point, Tuple[List[int], bytes]] = {}
    agree = True
    exterior = None
    for key in keys:
        beside = moore_neighbors(key, s)
        own = a, b = get0(key), get1(key)
        # each neighbouring line of d0 and of d1, None where it is empty
        around0, around1 = list(map(get0, beside)), list(map(get1, beside))
        # d1's line as a set, where the line holds both sets: the
        # overlap test and the labels of the run ends read it first,
        # and then it grows into the reach of d0's cells
        in_b = set(b) if a and b else None
        shared = in_b is not None and not in_b.isdisjoint(a)
        if shared:
            overlap.append(key + (min(in_b.intersection(a)),))
            agree = False
        if agree and in_b is not None:
            ends = run_ends(sorted(a + b), s)
            # a cell's side is 1 when it lies in d1
            labels = bytes(map(in_b.__contains__, ends))
        # A point touches the other set when that set holds a point at
        # c - s, c or c + s on a neighbouring line, or at c - s or c + s
        # on its own.  On a line without a point of both sets no point
        # lies on its own line of the other set, so one set of cells
        # serves both tests; a point of both sets is not its own
        # neighbour.  The lines are sorted: the first failing point is
        # the least on its line.
        if a:
            # without in_b, b is empty
            reach = set() if in_b is None else in_b
            near = set().union(*filter(None, around1)) if shared else reach
            reach.update(*filter(None, around1))
            for c in a:
                if not (c in near or c - s in reach or c + s in reach):
                    failing0.append(key + (c,))
                    break
        if b:
            reach = set().union(a or (), *filter(None, around0))
            near = set().union(*filter(None, around0)) if shared else reach
            for c in b:
                if not (c in near or c - s in reach or c + s in reach):
                    failing1.append(key + (c,))
                    break
        if not agree:
            continue
        if in_b is not None:
            # (a): the two end cells of each bounded run
            if labels[1:-1:2] != labels[2:-1:2]:
                agree = False
                continue
            sides = labels[::2] + labels[-1:]
        else:
            ends = run_ends(a or b, s)
            sides = (b"\1" if b else b"\0") * (len(ends) // 2 + 1)
        found[key] = ends, sides
        if dim == 1:
            continue
        # (b): both rays, and every cell beside a line off d0 | d1
        if exterior is None:
            exterior = sides[0]
        if sides[0] != exterior or sides[-1] != exterior:
            agree = False
            continue
        # (c): the window [a - s, b + s] of the bounded run [a, b] between
        # ends[k - 1] and ends[k] spans those cells; that of the left
        # (right) ray ends (starts) at the first (last) cell
        first, last = ends[0], ends[-1]
        for near0, near1 in zip(around0, around1):
            if near0 is None and near1 is None:
                if own[1 - exterior]:
                    agree = False
                    break
                continue
            # the cells that a run of side 0 (of side 1) must not meet
            others = near1, near0
            other = others[exterior]
            if other and (other[0] <= first or other[-1] >= last):
                agree = False
                break
            for k in range(2, len(ends) - 1, 2):
                other = others[sides[k // 2]]
                if other:
                    i = bisect_left(other, ends[k - 1])
                    if i < len(other) and other[i] <= ends[k]:
                        agree = False
                        break
            if not agree:
                break
    return _walked(failing0, failing1, overlap, found if agree else None,
                   dim, exterior)


def _walked(failing0: List[Point], failing1: List[Point],
            overlap: List[Point],
            found: Optional[Dict[Point, Tuple[List[int], bytes]]],
            dim: int, exterior: Optional[int]) -> _Walk:
    # The walk's result: its `Sides` are those of the free runs found,
    # or None once a rule failed.
    if found is None:
        return failing0, failing1, overlap, None
    rays = found[()][1] if dim == 1 else bytes([exterior])
    return failing0, failing1, overlap, Sides(found, (rays[0], rays[-1]))


def _least(mask: int) -> int:
    # the index of the lowest set byte of a nonzero mask
    return ((mask & -mask).bit_length() - 1) >> 3


def _walk_masks(form: _Masks, m1: Dict[Point, int], keys: Set[Point],
                dim: int, s: int) -> _Walk:
    # `_walk` on the masks of a dense pair: d0's are form.lines, d1's
    # m1, on one window of cells `form.targets`, whose first and last
    # cells hold no point.  Each test of a line is a few operations on
    # its mask and on the ORs of its neighbouring lines' masks, u0 and
    # u1; a shift by 8 bits moves every cell one step along the line.
    m0, cells = form.lines, form.targets
    get0, get1 = m0.get, m1.get
    width = len(cells)
    every = form._grid(s)
    zero = repeat(0)
    failing0: List[Point] = []
    failing1: List[Point] = []
    overlap: List[Point] = []
    found: Dict[Point, Tuple[List[int], bytes]] = {}
    agree = True
    exterior = None
    for key in keys:
        beside = moore_neighbors(key, s)
        o0, o1 = get0(key, 0), get1(key, 0)
        u0 = reduce(or_, map(get0, beside, zero), 0)
        u1 = reduce(or_, map(get1, beside, zero), 0)
        # A point touches the other set when that set holds a cell one
        # step along its own line, or within one step on a neighbouring
        # line; a point of both sets is not its own neighbour.
        if o0:
            near = u1 | o1
            bad = o0 & ~(u1 | near << 8 | near >> 8)
            if bad:
                failing0.append(key + (cells[_least(bad)],))
        if o1:
            near = u0 | o0
            bad = o1 & ~(u0 | near << 8 | near >> 8)
            if bad:
                failing1.append(key + (cells[_least(bad)],))
        if o0 & o1:
            overlap.append(key + (cells[_least(o0 & o1)],))
            agree = False
        if not agree:
            continue
        # the run ends, as `run_ends` gives them: the first and the last
        # cell of each run of d0 | d1, the cells without a neighbour
        # before (after) them on the line
        occ = o0 | o1
        starts = (occ & ~(occ << 8)).to_bytes(width, "little")
        stops = (occ & ~(occ >> 8)).to_bytes(width, "little")
        firsts = list(compress(cells, starts))
        ends = firsts * 2
        ends[::2] = firsts
        ends[1::2] = list(compress(cells, stops))
        if o0 and o1:
            # a cell's side is 1 when it lies in d1
            in1 = o1.to_bytes(width, "little")
            heads = bytes(compress(in1, starts))
            tails = bytes(compress(in1, stops))
            # (a): the two end cells of each bounded run
            if heads[1:] != tails[:-1]:
                agree = False
                continue
            sides = heads + tails[-1:]
        else:
            sides = (b"\1" if o1 else b"\0") * (len(firsts) + 1)
        found[key] = ends, sides
        if dim == 1:
            continue
        # (b): both rays, and every cell beside a line off d0 | d1
        if exterior is None:
            exterior = sides[0]
        if (sides[0] != exterior or sides[-1] != exterior
                or (o1, o0)[exterior] and not keys.issuperset(beside)):
            agree = False
            continue
        # (c): the free cells of side 1 are the runs after a cell of d1,
        # found by a carry through the run's bytes filled with ones, and
        # the left ray when the exterior side is 1; each side's windows
        # are its runs widened by one cell, and they must not meet the
        # other set on a neighbouring line
        free = every & ~occ
        filled = free * 255
        ones = filled & ~(filled + (free & o1 << 8)) & every
        if exterior:
            ones |= every & (occ & -occ) - 1
        zeros = free & ~ones
        if ((zeros | zeros << 8 | zeros >> 8) & u1
                or (ones | ones << 8 | ones >> 8) & u0):
            agree = False
    return _walked(failing0, failing1, overlap, found if agree else None,
                   dim, exterior)


def validate(pair: BoundaryPair) -> AxiomReport:
    """Check the five boundary-pair axioms and report per-axiom results.

    One walk over the pair's line index decides them.  On a line that
    holds both sets, one set of d1's cells serves the overlap test, the
    adjacency of d0 and the sides of the runs; the disjointness witness
    is the least point of both sets.  A point touches
    the other set when that set holds a point one step along its own
    line or within one step on a neighbouring line; the adjacency
    witnesses are the least failing points.  The separation axiom (no
    short-cut from d0 to d1 through free space) holds exactly when no
    connected component of the grid complement of d0 | d1 is
    Moore-adjacent to both sets.  The walk reads it off the free runs of
    the occupied lines: a run is a maximal stretch of free cells along
    the last axis, and a bounded one lies between two cells of d0 | d1,
    which give it its side.  For disjoint sets separation holds exactly
    when

    - (a) the two end cells of each bounded run lie in one set;
    - (b) for dim >= 2, the first and last run of every line and every
      cell on a line beside a line off d0 | d1 share one exterior side,
      as all of them meet the unbounded component;
    - (c) no run [a, b] meets a cell of the other side in [a - s, b + s]
      on a neighbouring line, one bisection per run and neighbouring
      line, against the other set only.

    In 1-D only (a) applies, and the two rays keep their own sides.
    Moore-adjacent runs need no union: one run's end cell always lies
    in the other run's window, so (b) or (c) already catches a side
    mismatch.  Point by point the cost is O(|D| 3^(m-1) log |D|) for
    D = d0 | d1, whatever the bounding box.  A dense pair (at least 256
    points, 10 per occupied line, and at most 4 cells of the window
    that the lines share per point) is walked on line masks: each test
    of a line is a few operations on ints of one byte per window cell,
    O(3^(m-1) |D|) bytes in all, with no per-point loop but the one
    that builds the masks.  The report carries the `Sides`.  Only
    when a rule fails, or the sets overlap, are the components labelled
    (`gridset.components_within`, on the same `geometry.run_ends`), to
    name the separation witness: the least point of the first component
    adjacent to both sets, the unbounded ones first.
    """
    if pair.is_empty:
        return AxiomReport(True, _PASS, _PASS, _PASS, _PASS, _PASS)

    l0, l1 = pair.d0.lines, pair.d1.lines
    nonempty = _PASS if l0 and l1 else AxiomCheck(False)

    s = pair.spacing
    failing0, failing1, overlap, sides = _walk(l0, l1, pair.dim, s)
    disjoint = AxiomCheck(False, min(overlap)) if overlap else _PASS
    d0_touches_d1 = AxiomCheck(False, min(failing0)) if failing0 else _PASS
    d1_touches_d0 = AxiomCheck(False, min(failing1)) if failing1 else _PASS

    separation = _PASS
    if sides is None:
        window = window_of_lines(l0, l1).inflate(s)
        for comp in components_within(window, s, pair.d0, pair.d1):
            if comp.adjacent_d0 and comp.adjacent_d1:
                separation = AxiomCheck(False, comp.lowest)
                break

    return AxiomReport(False, nonempty, disjoint, d0_touches_d1,
                       d1_touches_d0, separation, sides)


def require_valid(pair: BoundaryPair) -> AxiomReport:
    """The report of `validate` for a valid pair, else InvalidPairError."""
    report = validate(pair)
    if not report.valid:
        raise InvalidPairError(report)
    return report


def reconstruct(pair: BoundaryPair) -> GridSet:
    """The unique grid set whose boundary pair is the given pair.

    Each complement component of d0 | d1 lies entirely inside or outside
    the set and, for a valid pair, is adjacent to exactly one of d0/d1,
    which validation's `Sides` record for each free run.  The result is
    finite when the exterior side is d1 and cofinite when it is d0; in
    1-D the two rays must have one side.  The empty pair reconstructs to the full grid.  The result's line index
    is that of d0 (d1 when cofinite) plus the bounded runs of that side:
    only the lines that grow are copied, and only those runs' cells are
    enumerated.  In 1-D the gap between two far clusters is one bounded
    run.
    """
    report = require_valid(pair)
    if pair.is_empty:
        return GridSet.full_grid(pair.dim, pair.spacing)

    exterior = report.sides.exterior
    if len(set(exterior)) > 1:
        raise ValueError(
            "the two infinite rays reconstruct to different sides, so the "
            "set is neither finite nor cofinite and cannot be represented")
    cofinite = exterior[0] == 0
    mode, stored = (Mode.COFINITE, 1) if cofinite else (Mode.FINITE, 0)
    s = pair.spacing
    lines = dict((pair.d1 if cofinite else pair.d0).lines)
    # the bounded runs on the stored side: inside a finite set, outside
    # a cofinite one
    for key, (ends, sides) in report.sides.lines.items():
        grown: List[int] = []
        for j in range(1, len(sides) - 1):
            if sides[j] == stored:
                grown.extend(range(ends[2 * j - 1] + s, ends[2 * j], s))
        if grown:
            grown.extend(lines.get(key, ()))
            grown.sort()
            lines[key] = grown
    return GridSet._trusted(pair.dim, pair.spacing, mode, lines)
