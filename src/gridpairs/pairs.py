"""Boundary pairs: axiom validation and reconstruction of the full set.

A boundary pair (D0, D1) consists of the inner boundary of a set (members
with a neighbor outside) and the first outer layer (non-members adjacent
to the set).  The five axioms checked by `validate` characterize exactly
the pairs arising this way, and `reconstruct` inverts the boundary
extraction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import add
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple

from .geometry import Lines, Point, moore_offsets
from .gridset import (Components, Document, GridSet, Mode, components_within,
                      dim_of, window_of_lines)


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


def validate(pair: BoundaryPair) -> AxiomReport:
    """Check the five boundary-pair axioms and report per-axiom results.

    The separation axiom (no short-cut from d0 to d1 through free space)
    is decided through the connected components of the grid complement
    of d0 | d1: a violating path exists if and only if some component is
    Moore-adjacent to both sets.  Its witness is the least point of the
    first such component.

    Validation reads the pair's line index of d0 and d1, hands it to the
    component labelling, and decides all five axioms from it: a point
    touches the other set when that set holds a point one step along
    its own line or within one step on a neighbouring line.  The
    adjacency witnesses are the least failing points.  The report
    carries the components, which `reconstruct` and `lift_restrict` read.
    """
    if pair.is_empty:
        return AxiomReport(True, _PASS, _PASS, _PASS, _PASS, _PASS)

    l0, l1 = pair.d0.lines, pair.d1.lines
    nonempty = _PASS if l0 and l1 else AxiomCheck(False)

    overlap = [key + (c,) for key in l0.keys() & l1.keys()
               for c in set(l0[key]).intersection(l1[key])]
    disjoint = _PASS if not overlap else AxiomCheck(False, min(overlap))

    s = pair.spacing
    window = window_of_lines(l0, l1).inflate(s)
    components = components_within(window, s, pair.d0, pair.d1)
    d0_touches_d1 = _touches(l0, l1, pair.dim, s)
    d1_touches_d0 = _touches(l1, l0, pair.dim, s)

    separation = _PASS
    for comp in components:
        if comp.adjacent_d0 and comp.adjacent_d1:
            separation = AxiomCheck(False, comp.lowest)
            break

    return AxiomReport(False, nonempty, disjoint, d0_touches_d1,
                       d1_touches_d0, separation, components)


def require_valid(pair: BoundaryPair) -> AxiomReport:
    """The report of `validate` for a valid pair, else InvalidPairError."""
    report = validate(pair)
    if not report.valid:
        raise InvalidPairError(report)
    return report


def reconstruct(pair: BoundaryPair) -> GridSet:
    """The unique grid set whose boundary pair is the given pair.

    Each complement component of d0 | d1 lies entirely inside or outside
    the set and, for a valid pair, is adjacent to exactly one of d0/d1;
    it is classified by that adjacency.  The result is finite when the
    unbounded components attach to d1 and cofinite when they attach to
    d0.  The empty pair reconstructs to the full grid.  The result's
    line index is that of d0 (d1 when cofinite) plus the runs of the
    bounded components on that side: only the lines that grow are
    copied, and only those components' cells are enumerated.  In 1-D
    the gap between two far clusters is one bounded component.
    """
    report = require_valid(pair)
    if pair.is_empty:
        return GridSet.full_grid(pair.dim, pair.spacing)

    components = report.components
    if not all(comp.adjacent_d0 or comp.adjacent_d1 for comp in components):
        raise AssertionError("complement component adjacent to neither set")
    unbounded_sides = {comp.adjacent_d0 for comp in components
                       if comp.unbounded}
    if len(unbounded_sides) > 1:
        raise ValueError(
            "the two infinite rays reconstruct to different sides, so the "
            "set is neither finite nor cofinite and cannot be represented")
    cofinite = unbounded_sides == {True}
    mode, name = (Mode.COFINITE, "d1") if cofinite else (Mode.FINITE, "d0")
    # the bounded components on the stored side: inside a finite set,
    # outside a cofinite one
    grown: Dict[Point, List[int]] = defaultdict(list)
    for comp in components:
        if comp.adjacent_d0 != cofinite:
            for key, a, b in comp.runs:
                grown[key].extend(range(a, b + 1, pair.spacing))
    lines = dict(getattr(pair, name).lines)
    for key, line in grown.items():
        line.extend(lines.get(key, ()))
        line.sort()
        lines[key] = line
    return GridSet._trusted(pair.dim, pair.spacing, mode, lines)
