"""Boundary pairs: axiom validation and reconstruction of the full set.

A boundary pair (D0, D1) consists of the inner boundary of a set (members
with a neighbor outside) and the first outer layer (non-members adjacent
to the set).  The five axioms checked by `validate` characterize exactly
the pairs arising this way, and `reconstruct` inverts the boundary
extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import add
from typing import FrozenSet, Iterable, Optional, Tuple

from .geometry import Lines, Point, moore_offsets
from .gridset import (Components, Document, GridSet, Mode, components_within,
                      dim_of, window_of)


@dataclass(frozen=True)
class BoundaryPair(Document):
    """Two disjoint finite point sets on a common grid.

    d0 plays the role of the inner boundary, d1 of the first outer
    layer.  Whether the pair is a genuine boundary pair is decided by
    `validate`.
    """

    dim: int
    spacing: int
    d0: FrozenSet[Point]
    d1: FrozenSet[Point]

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


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: Optional[Point] = None


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the five boundary-pair axioms, with failure witnesses.

    The pair (empty, empty) is the distinguished boundary pair of the
    full grid and passes by definition.  `components`, None for it, are
    the complement components of d0 | d1, which decide separation.
    """

    is_empty_pair: bool
    nonempty: AxiomCheck
    disjoint: AxiomCheck
    d0_touches_d1: AxiomCheck
    d1_touches_d0: AxiomCheck
    separation: AxiomCheck
    components: Optional[Components] = field(default=None, compare=False,
                                             repr=False)

    _NAMES = ("nonempty", "disjoint", "d0_touches_d1", "d1_touches_d0",
              "separation")

    @property
    def valid(self) -> bool:
        return self.is_empty_pair or all(
            getattr(self, name).passed for name in self._NAMES)

    @property
    def failed(self) -> Tuple[str, ...]:
        if self.is_empty_pair:
            return ()
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


def _touches(origin: Lines, target: Lines, dim: int,
             spacing: int) -> AxiomCheck:
    # Each point of origin needs a point of target one step away: at
    # c - s, c or c + s on a neighbouring line, or at c - s or c + s on
    # its own, since a point of both sets is not its own neighbour.
    s = spacing
    offsets = moore_offsets(dim - 1, s)
    failing = []
    for key, line in origin.items():
        near = set().union(*[target.get(tuple(map(add, key, off)), ())
                             for off in offsets])
        reach = near.union(target.get(key, ()))
        for c in line:
            if not (c in near or c - s in reach or c + s in reach):
                failing.append(key + (c,))
                break  # the lines are sorted: the least on this line
    return AxiomCheck(False, min(failing)) if failing else _PASS


def _checked(pair: BoundaryPair) -> AxiomReport:
    # One component pass shared by `validate` and `reconstruct`; its
    # line index decides the adjacency axioms too.
    if pair.is_empty:
        return AxiomReport(True, _PASS, _PASS, _PASS, _PASS, _PASS)

    if pair.d0 and pair.d1:
        nonempty = _PASS
    else:
        nonempty = AxiomCheck(False)

    overlap = pair.d0 & pair.d1
    disjoint = _PASS if not overlap else AxiomCheck(False, min(overlap))

    s = pair.spacing
    window = window_of(chain(pair.d0, pair.d1)).inflate(s)
    components = components_within(window, s, pair.d0, pair.d1)
    l0, l1 = components.lines
    d0_touches_d1 = _touches(l0, l1, pair.dim, s)
    d1_touches_d0 = _touches(l1, l0, pair.dim, s)

    separation = _PASS
    for comp in components:
        if comp.adjacent_d0 and comp.adjacent_d1:
            separation = AxiomCheck(False, comp.lowest)
            break

    return AxiomReport(False, nonempty, disjoint, d0_touches_d1,
                       d1_touches_d0, separation, components)


def validate(pair: BoundaryPair) -> AxiomReport:
    """Check the five boundary-pair axioms and report per-axiom results.

    The separation axiom (no short-cut from d0 to d1 through free space)
    is decided through the connected components of the grid complement
    of d0 | d1: a violating path exists if and only if some component is
    Moore-adjacent to both sets.  Its witness is the least point of the
    first such component.

    Validation builds one line index of d0 and d1, the one the component
    labelling sorts, and decides all five axioms from it: a point
    touches the other set when that set holds a point one step along
    its own line or within one step on a neighbouring line.  The
    adjacency witnesses are the least failing points.
    """
    return _checked(pair)


def reconstruct(pair: BoundaryPair) -> GridSet:
    """The unique grid set whose boundary pair is the given pair.

    Each complement component of d0 | d1 lies entirely inside or outside
    the set and, for a valid pair, is adjacent to exactly one of d0/d1;
    it is classified by that adjacency.  The result is finite when the
    unbounded components attach to d1 and cofinite when they attach to
    d0.  The empty pair reconstructs to the full grid.  Only the points
    of the bounded components on the stored side are enumerated: in 1-D
    the gap between two far clusters is one bounded component.
    """
    report = _checked(pair)
    if not report.valid:
        raise InvalidPairError(report)
    if pair.is_empty:
        return GridSet.full_grid(pair.dim, pair.spacing)

    unbounded_sides = set()
    inside_bounded = []
    outside_bounded = []
    for comp in report.components:
        if not (comp.adjacent_d0 or comp.adjacent_d1):
            raise AssertionError("complement component adjacent to neither set")
        side_d0 = comp.adjacent_d0
        if comp.unbounded:
            unbounded_sides.add(side_d0)
        elif side_d0:
            inside_bounded.append(comp)
        else:
            outside_bounded.append(comp)

    if len(unbounded_sides) > 1:
        raise ValueError(
            "the two infinite rays reconstruct to different sides, so the "
            "set is neither finite nor cofinite and cannot be represented")
    if unbounded_sides == {True}:
        excluded = pair.d1.union(*(c.points for c in outside_bounded))
        return GridSet._trusted(pair.dim, pair.spacing, Mode.COFINITE,
                                excluded)
    members = pair.d0.union(*(c.points for c in inside_bounded))
    return GridSet._trusted(pair.dim, pair.spacing, Mode.FINITE, members)

