"""Text formats for grid sets and boundary pairs.

Two formats are supported.  The ASCII grid format (2-D only) mirrors the
goboard pictures this library is usually eyeballed with: one character
per grid cell, rows growing downward, `0` for members (or excluded
points of a cofinite set), `1` for the outer layer of a pair, `-` for
absent.  The coordinate-list format works in any dimension, one point
per line.  Serialization is normalized: the origin is the lower corner
of the bounding box, which makes serialize(parse(...)) idempotent.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple, Union

from .geometry import Point, bounding_box
from .gridset import GridSet, Mode
from .pairs import BoundaryPair

Document = Union[GridSet, BoundaryPair]

ASCII = "ascii"
COORDS = "coords"
FORMATS = (ASCII, COORDS)


class ParseError(ValueError):
    """A malformed document, with 1-based line and column when known."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (
                f", column {column})" if column is not None else ")")
        super().__init__(message + where)


def _parse_int(value: str, name: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"field {name} is not an integer: {value!r}", line)


def _parse_origin(value: str, dim: int, line: int) -> Point:
    parts = value.split(",")
    if len(parts) != dim:
        raise ParseError(f"origin {value!r} does not have {dim} coordinates",
                         line)
    return tuple(_parse_int(p, "origin", line) for p in parts)


def _parse_header(head: List[str],
                  expected: Tuple[str, ...]) -> Tuple[dict, int, int]:
    """Check the version; return the fields and the positive m and s."""
    if len(head) < 2 or head[1] != "v1":
        raise ParseError("expected format version v1", 1)
    fields = {}
    for token in head[2:]:
        if "=" not in token:
            raise ParseError(f"malformed header field {token!r}", 1)
        key, value = token.split("=", 1)
        if key in fields:
            raise ParseError(f"duplicate header field {key!r}", 1)
        fields[key] = value
    if set(fields) != set(expected):
        raise ParseError(
            f"header fields {sorted(fields)} do not match "
            f"expected {sorted(expected)}", 1)
    dim = _parse_int(fields["m"], "m", 1)
    spacing = _parse_int(fields["s"], "s", 1)
    if dim < 1 or spacing < 1:
        raise ParseError(
            f"m and s must be positive, got m={dim}, s={spacing}", 1)
    return fields, dim, spacing


def _parse_mode(value: str, line: int) -> Mode:
    if value == "finite":
        return Mode.FINITE
    if value == "cofinite":
        return Mode.COFINITE
    raise ParseError(f"unknown mode {value!r}", line)


def _body_rows(lines: List[str]) -> List[str]:
    rows = [line.rstrip(" \t\r") for line in lines]
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _parse_ascii_rows(rows: List[str], origin: Point, spacing: int,
                      allowed: str, first_line: int) -> dict:
    """Map each marker character to its set of points."""
    points: dict = {ch: set() for ch in allowed}
    width = len(rows[0]) if rows else 0
    for r, row in enumerate(rows):
        line_no = first_line + r
        if len(row) != width:
            raise ParseError(
                f"ragged row of width {len(row)}, expected {width}", line_no)
        for c, ch in enumerate(row):
            if ch == "-":
                continue
            if ch not in allowed:
                raise ParseError(f"unknown character {ch!r}", line_no, c + 1)
            points[ch].add((origin[0] + c * spacing,
                            origin[1] + r * spacing))
    return points


def parse_text(text: str) -> Document:
    """Parse either format, dispatching on the header line."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty document", 1)
    head = lines[0].split()
    if not head:
        raise ParseError("missing header", 1)
    kind = head[0]
    if kind in ("#gridset", "#gridpair"):
        return _parse_ascii(kind, head, lines)
    if kind == "#coords":
        return _parse_coords(head, lines)
    raise ParseError(f"unknown document kind {head[0]!r}", 1)


def _parse_ascii(kind: str, head: List[str], lines: List[str]) -> Document:
    expected = ("m", "s", "origin") + (("mode",) if kind == "#gridset" else ())
    fields, dim, spacing = _parse_header(head, expected)
    if dim != 2:
        raise ParseError(f"the ASCII grid format is 2-D only, got m={dim}", 1)
    origin = _parse_origin(fields["origin"], dim, 1)
    if any(c % spacing for c in origin):
        raise ParseError(f"origin {origin} is off the spacing-{spacing} grid", 1)
    rows = _body_rows(lines[1:])
    if kind == "#gridset":
        mode = _parse_mode(fields["mode"], 1)
        marks = _parse_ascii_rows(rows, origin, spacing, "0", 2)
        return GridSet._trusted(dim, spacing, mode, frozenset(marks["0"]))
    marks = _parse_ascii_rows(rows, origin, spacing, "01", 2)
    return BoundaryPair._trusted(dim, spacing, frozenset(marks["0"]),
                                 frozenset(marks["1"]))


def _parse_coords(head: List[str], lines: List[str]) -> Document:
    # the kind decides which fields the header must have
    kind = next((t[len("kind="):] for t in head[2:] if t.startswith("kind=")),
                None)
    expected = ("kind", "m", "s") + (("mode",) if kind == "gridset" else ())
    fields, dim, spacing = _parse_header(head, expected)
    if kind not in ("gridset", "gridpair"):
        raise ParseError(f"unknown kind {kind!r}", 1)

    labels = ("M",) if kind == "gridset" else ("D0", "D1")
    sets: dict = {label: set() for label in labels}
    for index, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        label = tokens[0]
        if label not in labels:
            raise ParseError(f"unexpected record label {label!r}", index)
        if len(tokens) != dim + 1:
            raise ParseError(
                f"record has {len(tokens) - 1} coordinates, expected {dim}",
                index)
        point = tuple(_parse_int(t, "coordinate", index) for t in tokens[1:])
        if any(c % spacing for c in point):
            raise ParseError(
                f"point {point} is off the spacing-{spacing} grid", index)
        if point in sets[label]:
            raise ParseError(f"duplicate point {point}", index)
        sets[label].add(point)

    if kind == "gridset":
        mode = _parse_mode(fields["mode"], 1)
        return GridSet._trusted(dim, spacing, mode, frozenset(sets["M"]))
    return BoundaryPair._trusted(dim, spacing, frozenset(sets["D0"]),
                                 frozenset(sets["D1"]))


def _ascii_grid(points_by_char: List[Tuple[str, FrozenSet[Point]]],
                spacing: int) -> Tuple[Point, List[str]]:
    everything: Set[Point] = set()
    for _, pts in points_by_char:
        everything |= pts
    if not everything:
        return (0, 0), []
    lower, upper = bounding_box(everything)
    width = (upper[0] - lower[0]) // spacing + 1
    height = (upper[1] - lower[1]) // spacing + 1
    grid = [["-"] * width for _ in range(height)]
    for ch, pts in points_by_char:
        for p in pts:
            grid[(p[1] - lower[1]) // spacing][(p[0] - lower[0]) // spacing] = ch
    return lower, ["".join(row) for row in grid]


def serialize_ascii(doc: Document) -> str:
    """Normalized ASCII rendering; 2-D documents only."""
    if doc.dim != 2:
        raise ValueError("the ASCII grid format is 2-D only")
    if isinstance(doc, GridSet):
        origin, rows = _ascii_grid([("0", doc.points)], doc.spacing)
        header = (f"#gridset v1 m=2 s={doc.spacing} "
                  f"origin={origin[0]},{origin[1]} mode={doc.mode.value}")
    else:
        if doc.d0 & doc.d1:
            raise ValueError(
                "overlapping d0/d1 cannot be rendered as an ASCII grid")
        origin, rows = _ascii_grid([("0", doc.d0), ("1", doc.d1)], doc.spacing)
        header = (f"#gridpair v1 m=2 s={doc.spacing} "
                  f"origin={origin[0]},{origin[1]}")
    return "\n".join([header] + rows) + "\n"


def serialize_coords(doc: Document) -> str:
    if isinstance(doc, GridSet):
        header = (f"#coords v1 kind=gridset m={doc.dim} s={doc.spacing} "
                  f"mode={doc.mode.value}")
        body = [f"M {' '.join(map(str, p))}" for p in sorted(doc.points)]
    else:
        header = f"#coords v1 kind=gridpair m={doc.dim} s={doc.spacing}"
        body = [f"D0 {' '.join(map(str, p))}" for p in sorted(doc.d0)]
        body += [f"D1 {' '.join(map(str, p))}" for p in sorted(doc.d1)]
    return "\n".join([header] + body) + "\n"


def serialize(doc: Document, fmt: str = ASCII) -> str:
    if fmt == ASCII:
        return serialize_ascii(doc)
    if fmt == COORDS:
        return serialize_coords(doc)
    raise ValueError(f"unknown format {fmt!r}")
