"""Boundary pairs: axiom validation and reconstruction of the full set.

A boundary pair (D0, D1) consists of the inner boundary of a set (members
with a neighbor outside) and the first outer layer (non-members adjacent
to the set).  The five axioms checked by `validate` characterize exactly
the pairs arising this way, and `reconstruct` inverts the boundary
extraction.  Both read the free runs of the pair's occupied lines: by
the separation axiom each complement component of D0 | D1 lies wholly
inside or outside the set, so each free run has the side of the cells
at its ends, and `Sides` records it.

`validate` decides the axioms in one walk.  Where the gate of
`geometry._Board` takes the pair, it runs on one bit board per set: each
test is a few big-int operations, with no loop over the lines, and the
`Sides` are the board of the cells in d1 or free of side 1.  Wider
windows, and every pair that fails a test there, are walked on sets,
line by line: a line is its sorted cells, tested by membership and
bisection, and its runs come from `geometry.run_ends`, which also splits
the lines that `gridset.components_within` labels to name a failing
pair's witness.  So an invalid pair's report is the walk on sets' alone.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from typing import (AbstractSet, Callable, Dict, Iterable, List, Optional,
                    Tuple)

from .geometry import (_CELLS, Point, PointView, _Board, _lines_beside,
                       run_ends)
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
        return not self.d0 and not self.d1


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

    The walk on bit boards keeps a `geometry._Board` of its cells in d1
    or free of side 1 instead, and `lines` is None; `of` and `along`
    read a line of it bit by bit, and `_outside` as a byte mask.
    """

    __slots__ = ("lines", "exterior", "_off", "_board", "_bits", "_bytes")

    def __init__(self, lines: Optional[Dict[Point, _Line]],
                 exterior: Tuple[int, ...],
                 board: Optional[Tuple[_Board, int]] = None):
        self.lines, self.exterior = lines, exterior
        # a line off d0 | d1: no ends, and one run of the exterior side
        self._off = (), bytes(exterior[:1])
        if board is not None:
            self._board, self._bits = board
            self._bytes = self._bits.to_bytes(
                self._board.rows * self._board.row // 8, "little")

    def along(self, key: Point) -> Callable[[int], int]:
        """The side of each free cell of line key, by its last coordinate."""
        if self.lines is not None:
            ends, sides = self.lines.get(key, self._off)
            return lambda c: sides[(bisect_left(ends, c) + 1) // 2]
        board, (left, right) = self._board, self.exterior
        row = self._row(key)
        if row is None:
            return lambda c: left
        row |= -right << board.width  # beyond the window: the right ray
        lo, step = board.lo, board.step
        return lambda c: row >> (c - lo) // step & 1 if c >= lo else left

    def of(self, q: Point) -> int:
        """The side of q, a grid point off d0 and d1."""
        return self.along(q[:-1])(q[-1])

    def _row(self, key: Point) -> Optional[int]:
        # the bits of line key on the board, None off its lines, all of
        # whose cells take the exterior side
        index, size = self._board.at.get(key), self._board.row // 8
        return None if index is None else int.from_bytes(
            self._bytes[index * size:index * size + size], "little")

    def _outside(self, key: Point, lo: int) -> int:
        # The cells of line key from lo, at the board's step, outside
        # the set that a valid pair bounds, in d1 or free of side 1, as
        # the low bit of a byte per cell, beyond the board by the rays.
        board, (left, right) = self._board, self.exterior
        row = self._row(key)
        if row is None:
            return -left
        line = int.from_bytes(format(row, f"0{board.row}b").encode()
                              .translate(_CELLS), "big")
        if right:
            line |= -1 << 8 * board.width
        shift = 8 * ((board.lo - lo) // board.step)
        if shift < 0:
            return line >> -shift
        return line << shift | (1 << shift) - 1 if left else line << shift


#: The run ends of a line and their sides, as `Sides.lines` holds them.
_Line = Tuple[List[int], bytes]


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


def _board_walk(d0: PointView, d1: PointView, dim: int,
                s: int) -> Optional[Sides]:
    # The walk on one bit board per set, where they fit: the `Sides` of
    # a pair that passes every test of `_walk`, else None.  A shift by
    # one bit moves every cell a step along its line.
    board = _Board.of((d0, d1), d0._line_keys() | d1._line_keys(), s)
    if board is None:
        return None
    b0, b1 = board.build(d0), board.build(d1)
    near0, near1 = board.box(b0), board.box(b1)
    if (b0 & b1 or b0 & ~(near1 | near1 << 1 | near1 >> 1)
            or b1 & ~(near0 | near0 << 1 | near0 >> 1)):
        return None
    # The free cells of side 1 are the runs after a cell of d1, found by
    # a carry through each run, and the left rays (all of a blank line)
    # where the first cell is of d1.  (a): no run after a cell of d1
    # ends before one of d0, and no bounded run after d0 before d1.
    occupied = b0 | b1
    free = board.every ^ occupied
    ones = free & ~(free + (free & b1 << 1))
    left = free & ~(free + board.starts)
    if ones & b0 >> 1 or free & ~ones & ~left & b1 >> 1:
        return None
    first = left << 1 & occupied
    right = free & ~left & board.starts << board.width - 1
    exterior = (first & b1 and 1, right & ones and 1)
    if dim > 1:
        # (b): all rays take one side, as the blank lines do, for (c)
        side = exterior[0]
        if first & (b1, b0)[side] or right & (ones, ~ones)[side]:
            return None
        exterior = side, side
    if exterior[0]:
        ones |= left
    if dim > 1:
        # (c): no cell of a side is a neighbour of the other side's set
        zeros = free & ~ones
        if ((zeros | zeros << 1 | zeros >> 1) & near1
                or (ones | ones << 1 | ones >> 1) & near0):
            return None
    return Sides(None, exterior, (board, b1 | ones))


def _walk(d0: PointView, d1: PointView, dim: int, s: int) -> _Walk:
    # One pass over the occupied lines, on sets.  It gathers the least
    # point of each line of d0 (of d1) with no point of the other set one
    # step away, the least point of each line in both sets, and, while
    # no such point is found, the sides of the free runs (`_tests`), or
    # None once one of the rules (a)-(c) of `validate` fails (`_leaks`).
    keys = d0._line_keys() | d1._line_keys()
    get0, get1 = d0.lines.get, d1.lines.get
    lines_beside = _lines_beside(keys)
    failing0, failing1, overlap = [], [], []
    found: Dict[Point, _Line] = {}
    agree, exterior = True, None
    for key in keys:
        beside = lines_beside(key, s)
        o0, o1 = get0(key, ()), get1(key, ())
        lonely0, lonely1, both, line, near = _tests(
            o0, o1, map(get0, beside, repeat(())),
            map(get1, beside, repeat(())), s, agree)
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
        rays = line[1]
        if exterior is None:
            exterior = rays[0]
        if (rays[0] != exterior or rays[-1] != exterior and dim > 1
                or _leaks(o0, o1, near, line, exterior)):
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
    return lonely0, lonely1, both, line, (around0, around1)


def _leaks(a: List[int], b: List[int], near: Tuple[list, list], line: _Line,
           exterior: int) -> bool:
    # Rule (c) point by point, and rule (b) beside a line off d0 | d1:
    # the window [a - s, b + s] of the bounded run [a, b] between
    # ends[k - 1] and ends[k] spans the cells of (c); that of the left
    # (right) ray ends (starts) at the first (last) cell.
    ends, sides = line
    first, last = ends[0], ends[-1]
    bounded = range(2, len(ends) - 1, 2)
    for near0, near1 in zip(*near):
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
    mismatch.  Where a `geometry._Board` fits, at most `_BITS_PER_POINT`
    bits per point, the walk runs first on one board per set: about 60
    big-int operations, each linear in the board, and 0.1 us per point
    to build the boards.  Otherwise, and where a test fails there, it
    runs on sets, with one bisection per run and neighbouring line for
    (c); the lines beside a line are its 3^(m-1) - 1 Moore neighbours,
    or, where those outnumber the K occupied lines (and the pair cannot
    be valid), the occupied ones and one off them, so the cost is
    O(|D| min(3^(m-1), K) log |D|) for D = d0 | d1, whatever the
    bounding box.  Only when a rule fails, or the sets overlap, are the
    components labelled (`gridset.components_within`, on the same
    `geometry.run_ends`), to name the separation witness: the least
    point of the first component adjacent to both sets, the unbounded
    ones first.
    """
    if pair.is_empty:
        return AxiomReport(True, _PASS, _PASS, _PASS, _PASS, _PASS)

    s = pair.spacing
    sides = _board_walk(pair.d0, pair.d1, pair.dim, s)
    if sides is not None:
        return AxiomReport(False, _PASS, _PASS, _PASS, _PASS, _PASS, sides)

    nonempty = _PASS if pair.d0 and pair.d1 else AxiomCheck(False)
    failing0, failing1, overlap, sides = _walk(pair.d0, pair.d1, pair.dim, s)
    disjoint = AxiomCheck(False, min(overlap)) if overlap else _PASS
    d0_touches_d1 = AxiomCheck(False, min(failing0)) if failing0 else _PASS
    d1_touches_d0 = AxiomCheck(False, min(failing1)) if failing1 else _PASS

    separation = _PASS
    if sides is None:
        window = window_of_lines(pair.d0, pair.d1).inflate(s)
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
    1-D the two rays must have one side.  The empty pair reconstructs
    to the full grid.

    The result's line index is that of d0 (d1 when cofinite) plus the
    bounded runs of that side: only the lines that grow are copied, and
    only those runs' cells are enumerated.  In 1-D the gap between two
    far clusters is one bounded run.  From a board of `Sides`, the
    result is its cells outside the set (inside, if finite) as a byte
    per cell per line, which `PointView._of_cells` keeps as masks or
    lists, so no line is sorted.
    """
    report = require_valid(pair)
    if pair.is_empty:
        return GridSet.full_grid(pair.dim, pair.spacing)

    sides = report.sides
    exterior = sides.exterior
    if len(set(exterior)) > 1:
        raise ValueError(
            "the two infinite rays reconstruct to different sides, so the "
            "set is neither finite nor cofinite and cannot be represented")
    cofinite = exterior[0] == 0
    mode, stored = (Mode.COFINITE, 1) if cofinite else (Mode.FINITE, 0)
    s = pair.spacing
    if sides.lines is None:  # held as a board
        board = sides._board
        # the cells outside the set are a cofinite set's stored points,
        # and the window's other cells a finite set's; a blank line
        # holds neither
        bits = sides._bits if cofinite else board.every & ~sides._bits
        row, width = board.row, board.width
        cells = format(bits, f"0{board.rows * row}b").encode().translate(
            _CELLS)[::-1]
        lines = {}
        for key in pair.d0._line_keys() | pair.d1._line_keys():
            at = board.at[key] * row
            if 1 in (line := cells[at:at + width]):
                lines[key] = line
        return GridSet._trusted(pair.dim, s, mode, PointView._of_cells(
            lines, board.lo, s, bits.bit_count()))
    lines = dict((pair.d1 if cofinite else pair.d0).lines)
    # the bounded runs on the stored side: inside a finite set, outside
    # a cofinite one
    for key, (ends, runs) in sides.lines.items():
        grown: List[int] = []
        for j in range(1, len(runs) - 1):
            if runs[j] == stored:
                grown.extend(range(ends[2 * j - 1] + s, ends[2 * j], s))
        if grown:
            grown.extend(lines.get(key, ()))
            grown.sort()
            lines[key] = grown
    return GridSet._trusted(pair.dim, s, mode, lines)
