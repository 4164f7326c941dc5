"""Boundary pairs: axiom validation and reconstruction of the full set.

A boundary pair (D0, D1) consists of the inner boundary of a set (members
with a neighbor outside) and the first outer layer (non-members adjacent
to the set).  The five axioms checked by `validate` characterize exactly
the pairs arising this way, and `reconstruct` inverts the boundary
extraction.  Both read the free runs of the pair's occupied lines: by
the separation axiom each complement component of D0 | D1 lies wholly
inside or outside the set, so each free run has the side of the cells
at its ends, and `Sides` records it.

`validate` decides the axioms in one walk over the occupied lines.  The
walk owns the loop, the lines beside each line, the witnesses, the
rules that span lines and the `Sides`; the tests of one line come in
two forms, picked once per walk by the gate of `geometry._form`.  Point
by point, a line is its sorted cells, tested by membership and
bisection, and its runs come from `geometry.run_ends`, which also splits
the lines that `gridset.components_within` labels to name a failing
pair's witness.  On a dense pair a line is a mask, one int with one
byte per cell of a window that all lines share, tested by a few
operations on it and on the OR of its neighbouring lines' masks, and
its run ends are cut from it by `compress`, as `run_ends` gives them, so
the report is the same in both forms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, repeat
from operator import or_
from typing import (AbstractSet, Callable, Dict, Iterable, List, Optional,
                    Set, Tuple)

from .geometry import Lines, Point, _form, _lines_beside, _Masks, run_ends
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
#: The run ends of a line and their sides, as `Sides.lines` holds them.
_Line = Tuple[List[int], bytes]


def _walk(l0: Lines, l1: Lines, dim: int, s: int) -> _Walk:
    # One pass over the occupied lines.  It gathers the least point of
    # each line of d0 (of d1) with no point of the other set one step
    # away, the least point of each line in both sets, and, while no
    # such point is found, the sides of the free runs, or None once one
    # of the rules (a)-(c) of `validate` fails.  The tests of one line
    # come in two forms, chosen once: point by point (`_tests`,
    # `_leaks`), or, where the pair is dense, on masks (`_mask_steps`).
    # `tests` gives the least cell of each set that touches no cell of
    # the other, the least cell of both, the run ends with their sides
    # (None unless asked for, or where (a) fails) and what `leaks`, the
    # rules (b) and (c) of a line, reads of the neighbouring lines.
    keys = l0.keys() | l1.keys()
    form = _form((l0, l1), 0, s, s, once=True)
    if isinstance(form, _Masks):
        get0, get1, empty = form.lines.get, form.of(l1).get, 0
        tests, leaks = _mask_steps(form, keys, s)
    else:
        get0, get1, empty = l0.get, l1.get, ()
        tests, leaks = _tests, _leaks
    lines_beside, nothing = _lines_beside(keys), repeat(empty)
    failing0, failing1, overlap = [], [], []
    found: Dict[Point, _Line] = {}
    agree, exterior = True, None
    for key in keys:
        beside = lines_beside(key, s)
        o0, o1 = get0(key, empty), get1(key, empty)
        # each neighbouring line of d0 and of d1, `empty` off the set
        lonely0, lonely1, both, line, near0, near1 = tests(
            o0, o1, map(get0, beside, nothing), map(get1, beside, nothing),
            s, agree)
        if lonely0 is not None:
            failing0.append(key + (lonely0,))
        if lonely1 is not None:
            failing1.append(key + (lonely1,))
        if both is not None:
            overlap.append(key + (both,))
        if not agree or line is None:  # None: an overlap, or (a) failed
            agree = False
            continue
        found[key] = line
        # (b): both rays, which in 1-D keep their own sides; then (c),
        # and (b) beside a line off d0 | d1 (a 1-D line has none beside)
        sides = line[1]
        if exterior is None:
            exterior = sides[0]
        if (sides[0] != exterior or sides[-1] != exterior and dim > 1
                or leaks(o0, o1, near0, near1, beside, line, exterior)):
            agree = False
    if not agree:
        return failing0, failing1, overlap, None
    rays = found[()][1] if dim == 1 else bytes([exterior])
    return failing0, failing1, overlap, Sides(found, (rays[0], rays[-1]))


def _tests(a: List[int], b: List[int], around0: Iterable, around1: Iterable,
           s: int, runs: bool) -> tuple:
    # The tests of one line point by point, on the cells a of d0 and b
    # of d1, sorted, () where empty: the least cell of a (of b) that
    # touches no cell of the other set, the least cell of both, the run
    # ends with their sides, when `runs` and the line passes (a), and
    # the neighbouring lines, listed, which `_leaks` reads.
    around0, around1 = list(around0), list(around1)
    # d1's line as a set, where the line holds both sets: the overlap
    # test and the labels of the run ends read it first, and then it
    # grows into the reach of d0's cells
    in_b = set(b) if a and b else None
    lonely0 = lonely1 = both = line = None
    if in_b is not None and not in_b.isdisjoint(a):
        both = min(in_b.intersection(a))
    elif runs:
        if in_b is not None:
            ends = run_ends(sorted(a + b), s)
            # a cell's side is 1 when it lies in d1; (a): the two end
            # cells of each bounded run
            labels = bytes(map(in_b.__contains__, ends))
            if labels[1:-1:2] == labels[2:-1:2]:
                line = ends, labels[::2] + labels[-1:]
        else:
            ends = run_ends(a or b, s)
            line = ends, (b"\1" if b else b"\0") * (len(ends) // 2 + 1)
    # A point touches the other set when that set holds a point at
    # c - s, c or c + s on a neighbouring line, or at c - s or c + s on
    # its own.  On a line without a point of both sets no point lies on
    # its own line of the other set, so one set of cells serves both
    # tests; a point of both sets is not its own neighbour.  The lines
    # are sorted: the first failing point is the least on its line.
    if a:
        # without in_b, b is empty
        reach = set() if in_b is None else in_b
        near = reach if both is None else set().union(*around1)
        reach.update(*around1)
        for c in a:
            if not (c in near or c - s in reach or c + s in reach):
                lonely0 = c
                break
    if b:
        reach = set().union(a, *around0)
        near = reach if both is None else set().union(*around0)
        for c in b:
            if not (c in near or c - s in reach or c + s in reach):
                lonely1 = c
                break
    return lonely0, lonely1, both, line, around0, around1


def _leaks(a: List[int], b: List[int], around0: list, around1: list,
           beside: Tuple[Point, ...], line: _Line, exterior: int) -> bool:
    # Rule (c) point by point, and rule (b) beside a line off d0 | d1:
    # the window [a - s, b + s] of the bounded run [a, b] between
    # ends[k - 1] and ends[k] spans the cells of (c); that of the left
    # (right) ray ends (starts) at the first (last) cell.
    ends, sides = line
    first, last = ends[0], ends[-1]
    bounded = range(2, len(ends) - 1, 2)
    for near0, near1 in zip(around0, around1):
        if not near0 and not near1:
            if (a, b)[1 - exterior]:
                return True
            continue
        # the cells that a run of side 0 (of side 1) must not meet
        others = near1, near0
        other = others[exterior]
        if other and (other[0] <= first or other[-1] >= last):
            return True
        for k in bounded:
            other = others[sides[k // 2]]
            if other:
                i = bisect_left(other, ends[k - 1])
                if i < len(other) and other[i] <= ends[k]:
                    return True
    return False


def _least(mask: int) -> int:
    # the index of the lowest set byte of a nonzero mask
    return ((mask & -mask).bit_length() - 1) >> 3


def _mask_steps(form: _Masks, keys: Set[Point], s: int) -> tuple:
    # `_tests` and `_leaks` on the masks of a dense pair, on one window
    # of cells `form.targets`, whose first and last cells hold no point.
    # Each test of a line is a few operations on its masks o0 and o1
    # and on the ORs of its neighbouring lines' masks, u0 and u1; a
    # shift by 8 bits moves every cell one step along the line.
    cells, every = form.targets, form._grid(s)
    width = len(cells)

    def tests(o0: int, o1: int, around0: Iterable, around1: Iterable,
              s: int, runs: bool) -> tuple:
        u0 = reduce(or_, around0, 0)
        u1 = reduce(or_, around1, 0)
        # A point touches the other set when that set holds a cell one
        # step along its own line, or within one step on a neighbouring
        # line; a point of both sets is not its own neighbour.
        near0, near1 = u0 | o0, u1 | o1
        bad0 = o0 & ~(u1 | near1 << 8 | near1 >> 8)
        bad1 = o1 & ~(u0 | near0 << 8 | near0 >> 8)
        lonely0 = cells[_least(bad0)] if bad0 else None
        lonely1 = cells[_least(bad1)] if bad1 else None
        both = line = None
        if o0 & o1:
            both = cells[_least(o0 & o1)]
        elif runs:
            # the run ends, as `run_ends` gives them: the first and the
            # last cell of each run of d0 | d1, the cells without a
            # neighbour before (after) them on the line
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
                if heads[1:] == tails[:-1]:
                    line = ends, heads + tails[-1:]
            else:
                line = ends, (b"\1" if o1 else b"\0") * (len(firsts) + 1)
        return lonely0, lonely1, both, line, u0, u1

    def leaks(o0: int, o1: int, u0: int, u1: int, beside: Tuple[Point, ...],
              line: _Line, exterior: int) -> int:
        # (b) beside a line off d0 | d1, then (c), nonzero where it
        # fails: the free cells of side 1 are the runs after a cell of d1,
        # found by a carry through the run's bytes filled with ones, and
        # the left ray when the exterior side is 1; each side's windows
        # are its runs widened by one cell, and they must not meet the
        # other set on a neighbouring line
        if (o1, o0)[exterior] and not keys.issuperset(beside):
            return True
        occ = o0 | o1
        free = every & ~occ
        filled = free * 255
        ones = filled & ~(filled + (free & o1 << 8)) & every
        if exterior:
            ones |= every & (occ & -occ) - 1
        zeros = free & ~ones
        return ((zeros | zeros << 8 | zeros >> 8) & u1
                or (ones | ones << 8 | ones >> 8) & u0)

    return tests, leaks


def validate(pair: BoundaryPair) -> AxiomReport:
    """Check the five boundary-pair axioms and report per-axiom results.

    One walk over the occupied lines decides them.  A point touches the
    other set when that set holds a point one step along its own line or
    within one step on a neighbouring line; the adjacency witnesses are
    the least failing points, and the disjointness witness is the least
    point of both sets.  The separation axiom (no short-cut from d0 to
    d1 through free space) holds exactly when no connected component of
    the grid complement of d0 | d1 is Moore-adjacent to both sets.  The
    walk reads it off the free runs of the occupied lines: a run is a
    maximal stretch of free cells along the last axis, and a bounded one
    lies between two cells of d0 | d1, which give it its side.  For
    disjoint sets separation holds exactly when

    - (a) the two end cells of each bounded run lie in one set;
    - (b) for dim >= 2, the first and last run of every line and every
      cell on a line beside a line off d0 | d1 share one exterior side,
      as all of them meet the unbounded component;
    - (c) no run [a, b] meets a cell of the other side in [a - s, b + s]
      on a neighbouring line.

    In 1-D only (a) applies, and the two rays keep their own sides.
    Moore-adjacent runs need no union: one run's end cell always lies
    in the other run's window, so (b) or (c) already catches a side
    mismatch.  The tests of a line come in two forms, one per form of a
    line that `geometry._form` picks: point by point, with one
    bisection per run and neighbouring line for (c), or, on a dense
    pair, a few operations on line masks, with no per-point loop but the
    one that builds them.  The lines beside a line are its 3^(m-1) - 1
    Moore neighbours, or, where those outnumber the K occupied lines
    (and the pair cannot be valid), the occupied ones and one off them.
    The cost is O(|D| min(3^(m-1), K) log |D|) for D = d0 | d1, whatever
    the bounding box.  The report carries the `Sides`.  Only when a rule
    fails, or the sets overlap, are the components labelled
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
