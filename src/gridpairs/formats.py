"""Text formats for grid sets and boundary pairs, and their rendering.

Two formats are supported.  The ASCII grid format (2-D only) mirrors the
goboard pictures this library is usually eyeballed with: one character
per grid cell, rows growing downward, `0` for members (or excluded
points of a cofinite set), `1` for the outer layer of a pair, `-` for
absent.  The coordinate-list format works in any dimension, one point
per line.  Serialization is normalized: the origin is the lower corner
of the bounding box, which makes serialize(parse(...)) idempotent.

The ASCII reader's Python work follows the marks, not the cells.  A
canonical body, as the writer writes it, is checked in C-level passes
over its cells, and each column is cut from it in C.  A sparse grid's
marks are then found one by one, Python work per mark, into sorted
lists.  A denser grid's columns are mapped by each character's byte
table to one byte per cell, 1 at a mark and 0 elsewhere: per-cell work
only in C.  `geometry` keeps these bytes as line masks where they are
dense enough for its operations to run on masks, and no list is built
unless the points are read one by one; elsewhere it picks the marks
from them into sorted lists (`PointView._of_cells`).
CRLF ends, trailing blanks, tabs and "\r", and trailing blank rows
still parse: such a body is split into rows first.

The ASCII writer writes a dense field column by column: `geometry`
gives each column's cells, one byte per cell with a bit per field
(`geometry._cell_columns`), which one `translate` turns into marks and
one strided slice assignment puts into the grid.  A field held as
lists is scattered into the grid point by point.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import chain, repeat
from typing import List, Optional, Tuple

from .geometry import Lines, Point, PointView, _cell_columns, sorted_lines
from .gridset import (ASCII_CELL_BUDGET, Document, GridSet, Mode,
                      window_of_lines)
from .pairs import BoundaryPair

ASCII = "ascii"
COORDS = "coords"
FORMATS = (ASCII, COORDS)

#: An integer as the formats write it: an optional minus sign and ASCII
#: digits.  `int` also takes a plus sign, underscores between digits and
#: the digits of other scripts, which no writer produces.
_INTEGER = re.compile(r"-?[0-9]+")

#: Why a pair whose d0 and d1 share a point has no ASCII grid.
_OVERLAP = "overlapping d0/d1 cannot be rendered as an ASCII grid"

#: Per marker character, the byte table that maps it to 1 and all else to 0.
_MARK_TABLES = {ch: bytes(int(i == ord(ch)) for i in range(256))
                for ch in "01"}

#: The marks of a column's cells as `geometry._cell_columns` gives them:
#: a cell of the first field is "0", of the second only "1", of none "-".
_CELL_MARKS = bytes.maketrans(b"\0\1\2\3", b"-010")

#: Marks per cell, per marker character, below which an ASCII grid is
#: sparse: its columns' marks are found one by one (`bytes.find`, about
#: 120 ns a mark), not picked from every cell by each character's byte
#: table (`translate`, then `compress` into lists by
#: `PointView._of_cells`, 6-8 ns a cell a character).  On random 64^2 to
#: 256^2 grids the two cost the same at about 0.07 marks per cell for
#: one character and 0.14 for two.  Masks, which `_of_cells` keeps only
#: where a field's columns hold at least 1/4 marks per cell, cost less
#: than either there.
_SPARSE = 1 / 16

#: Grid bytes sampled to estimate the marks per cell.
_SAMPLE = 256


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
    if not _INTEGER.fullmatch(value):
        raise ParseError(f"field {name} is not an integer: {value!r}", line)
    return int(value)


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


def _ascii_grid(body: str, known: str) -> Tuple[bytes, int]:
    """The body's cells and its width: rows of `width` bytes, each
    followed by a newline, so column c is every (width + 1)-th byte
    from c on.

    A canonical body, whose rows are of one width, end in "\n" and hold
    only known characters, is the grid itself, checked in C-level
    passes.  Any other body is split into rows as `str.splitlines`
    splits it, trailing blanks, tabs and "\r" and trailing blank rows
    are dropped, and the rows are checked: first their widths, then
    their characters, all at once unless one is wrong, which only then
    is located.
    """
    width = body.find("\n")
    if width > 0 and body.isascii():
        data = body.encode()
        height, extra = divmod(len(data), width + 1)
        ends = b"\n" * height
        if (not extra and data[width::width + 1] == ends
                and data.translate(None, known.encode()) == ends):
            return data, width
    rows = [line.rstrip(" \t\r") for line in body.splitlines()]
    while rows and not rows[-1]:
        rows.pop()
    width = len(rows[0]) if rows else 0
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"ragged row of width {len(row)}, expected "
                             f"{width}", 2 + r)
    cells = "".join(rows)
    if not cells.isascii() or cells.encode().translate(None, known.encode()):
        for r, row in enumerate(rows):
            for c, ch in enumerate(row):
                if ch not in known:
                    raise ParseError(f"unknown character {ch!r}", 2 + r,
                                     c + 1)
    return "".join([row + "\n" for row in rows]).encode(), width


def _marks_per_cell(data: bytes, stride: int, marks: bytes = b"01") -> float:
    """The share of cells marked by one of `marks` among about `_SAMPLE`
    bytes of the grid, one every few, its newlines left out."""
    step = len(data) // _SAMPLE + 1
    if step % stride == 0:
        step += 1  # else every sampled byte is in one column
    sample = data[::step]
    cells = len(sample) - sample.count(b"\n")
    return sum(map(sample.count, marks)) / cells if cells else 0.0


def _read_columns(data: bytes, width: int, origin: Point, spacing: int,
                  allowed: str) -> List[PointView]:
    """The view of the points of each marker character, in `allowed`
    order.

    A line is a column: its key is the column's x and its last
    coordinates are the y of the column's marks.  Each column is cut
    from the grid in C.  On a sparse grid, `bytes.find` then finds its
    marks one by one, into an ascending list; on a denser one, each
    character's byte table maps its cells to 0 and 1, which the view
    keeps as masks or picks into lists, as the character's sampled
    share of the cells puts its points.  The views are equal either
    way.
    """
    stride = width + 1
    marks = [(ord(ch), _MARK_TABLES[ch], {}) for ch in allowed]
    if _marks_per_cell(data, stride) >= _SPARSE * len(marks):
        for c in range(width):
            column = data[c::stride]
            for mark, table, cells in marks:
                if mark in column:
                    cells[(origin[0] + c * spacing,)] = column.translate(table)
        area = len(data) - len(data) // stride
        return [PointView._of_cells(
                    cells, origin[1], spacing,
                    _marks_per_cell(data, stride, bytes([mark])) * area)
                for mark, _, cells in marks]
    height = len(data) // stride
    # the y of each row, looked up per mark
    ys = list(range(origin[1], origin[1] + height * spacing, spacing))
    for c in range(width):
        find = data[c::stride].find
        for mark, _, lines in marks:
            at = find(mark)
            if at >= 0:
                line = []
                while at >= 0:
                    line.append(ys[at])
                    at = find(mark, at + 1)
                lines[(origin[0] + c * spacing,)] = line
    return [PointView(lines) for _, _, lines in marks]


def parse_text(text: str) -> Document:
    """Parse either format, dispatching on the header line.

    The header line ends at the first line break, as `str.splitlines`
    ends it, and an ASCII body is the text after that break.
    """
    if not text:
        raise ParseError("empty document", 1)
    end = text.find("\n") + 1 or len(text)
    first = text[:end].splitlines(keepends=True)[0]
    head = first.splitlines()[0].split()
    if not head:
        raise ParseError("missing header", 1)
    kind = head[0]
    if kind in ("#gridset", "#gridpair"):
        return _parse_ascii(kind, head, text[len(first):])
    if kind == "#coords":
        return _parse_coords(head, text.splitlines())
    raise ParseError(f"unknown document kind {head[0]!r}", 1)


def _parse_ascii(kind: str, head: List[str], body: str) -> Document:
    expected = ("m", "s", "origin") + (("mode",) if kind == "#gridset" else ())
    fields, dim, spacing = _parse_header(head, expected)
    if dim != 2:
        raise ParseError(f"the ASCII grid format is 2-D only, got m={dim}", 1)
    origin = _parse_origin(fields["origin"], dim, 1)
    if any(c % spacing for c in origin):
        raise ParseError(f"origin {origin} is off the spacing-{spacing} grid", 1)
    mode = _parse_mode(fields["mode"], 1) if kind == "#gridset" else None
    allowed = "0" if kind == "#gridset" else "01"
    data, width = _ascii_grid(body, "-" + allowed)
    views = _read_columns(data, width, origin, spacing, allowed)
    if kind == "#gridset":
        return GridSet._trusted(dim, spacing, mode, *views)
    return BoundaryPair._trusted(dim, spacing, *views)


def _parse_coords(head: List[str], lines: List[str]) -> Document:
    """A coordinate list: the header, then one record per non-blank line.

    Every record is checked at once, one chunk of lines at a time
    (`_read_records`); only a document with a faulty record is scanned
    record by record (`_scan_records`), to name its first bad line.
    """
    # the kind decides which fields the header must have
    kind = next((t[len("kind="):] for t in head[2:] if t.startswith("kind=")),
                None)
    expected = ("kind", "m", "s") + (("mode",) if kind == "gridset" else ())
    fields, dim, spacing = _parse_header(head, expected)
    if kind not in ("gridset", "gridpair"):
        raise ParseError(f"unknown kind {kind!r}", 1)
    mode = _parse_mode(fields["mode"], 1) if kind == "gridset" else None

    labels = ("M",) if kind == "gridset" else ("D0", "D1")
    indexes = _read_records(lines, dim, spacing, labels)
    if indexes is None:
        indexes = _scan_records(lines, dim, spacing, labels)
    if kind == "gridset":
        return GridSet._trusted(dim, spacing, mode, *indexes)
    return BoundaryPair._trusted(dim, spacing, *indexes)


#: Lines split and checked at once by `_read_records`.  Only one chunk's
#: token lists are alive at a time: kept for a whole document, they are
#: one list per record, which the cyclic garbage collector walks again
#: at each collection; on a 238,127-record document one chunk for all
#: lines took 5x the peak memory and 1.3x the time.
_CHUNK = 4096


def _read_records(lines: List[str], dim: int, spacing: int,
                  labels: Tuple[str, ...]) -> Optional[List[Lines]]:
    """The line index of each label, or None if any record is faulty.

    A chunk's records are checked together, each check one pass in C:
    their arities, their labels, their coordinates as integers (`int`
    on tokens that are ASCII and hold no `_` or `+`), and their grid.
    Each label's lines are then plain lists, sorted once all records
    are read; a line holds a duplicate when its set is shorter than it.
    """
    width = dim + 1
    known = set(labels)
    indexes = {label: {} for label in labels}
    for start in range(1, len(lines), _CHUNK):
        rows = list(filter(None, map(str.split, lines[start:start + _CHUNK])))
        if not rows:
            continue
        tokens = list(chain.from_iterable(rows))
        names = tokens[::width]
        if set(map(len, rows)) != {width} or not known.issuperset(names):
            return None
        joined = "".join(tokens)
        if not joined.isascii() or "_" in joined or "+" in joined:
            return None
        try:
            columns = [list(map(int, tokens[k::width]))
                       for k in range(1, width)]
        except ValueError:
            return None
        if spacing > 1 and any(any(map(spacing.__rmod__, column))
                               for column in columns):
            return None
        keys = zip(*columns[:-1]) if dim > 1 else repeat((), len(rows))
        for name, key, c in zip(names, keys, columns[-1]):
            index = indexes[name]
            line = index.get(key)
            if line is None:
                index[key] = [c]
            else:
                line.append(c)
    for index in indexes.values():
        for line in index.values():
            line.sort()
            if len(set(line)) != len(line):
                return None
    return list(indexes.values())


def _scan_records(lines: List[str], dim: int, spacing: int,
                  labels: Tuple[str, ...]) -> List[Lines]:
    """The line index of each label, record by record: the first faulty
    record raises a ParseError at its line."""
    sets = {label: defaultdict(set) for label in labels}
    for index, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if not tokens:
            continue
        label = tokens[0]
        if label not in labels:
            raise ParseError(f"unexpected record label {label!r}", index)
        if len(tokens) != dim + 1:
            raise ParseError(
                f"record has {len(tokens) - 1} coordinates, expected {dim}",
                index)
        point = tuple([_parse_int(t, "coordinate", index)
                       for t in tokens[1:]])
        if any(c % spacing for c in point):
            raise ParseError(
                f"point {point} is off the spacing-{spacing} grid", index)
        on_line = sets[label][point[:-1]]
        if point[-1] in on_line:
            raise ParseError(f"duplicate point {point}", index)
        on_line.add(point[-1])
    return [sorted_lines(sets[label].items()) for label in labels]


def _ascii_body(doc: Document, unit: int) -> Tuple[Point, str]:
    """The lower corner of the document's marks and its grid, one
    character per `unit` fine units, each row ending in a newline.

    A pair whose d0 and d1 overlap is refused.  The unit divides the
    spacing, so distinct points fill distinct cells, and the sets
    overlap exactly when fewer cells of the filled grid are marked, that
    is not blank, than they have points: one count of the blanks.  Only
    a grid over the budget, which is never filled, is refused for an
    overlap found line by line.  Dense fields are written column by
    column, and the others point by point over them.
    """
    fields = ((doc.points,) if isinstance(doc, GridSet)
              else (doc.d0, doc.d1))
    if not any(fields):
        return (0, 0), ""
    box = window_of_lines(*fields)
    (left, bottom), (right, top) = box.lower, box.upper
    width = (right - left) // unit + 1
    height = (top - bottom) // unit + 1
    if width * height > ASCII_CELL_BUDGET:
        if len(fields) > 1:
            l0, l1 = doc.d0.lines, doc.d1.lines
            if any(not set(l0[key]).isdisjoint(l1[key])
                   for key in l0.keys() & l1.keys()):
                raise ValueError(_OVERLAP)
        raise ValueError(f"an ASCII grid of {width} x {height} cells exceeds "
                         f"the budget of {ASCII_CELL_BUDGET} cells")
    # Cell (x, y) is at row (y - bottom) / unit of the rows of width + 1
    # bytes, newline included, and at column (x - left) / unit; a
    # column's cells on the document's grid are `step` bytes apart.
    stride = width + 1
    step = doc.spacing // unit * stride
    grid = bytearray(b"-" * width + b"\n") * height
    cells = (top - bottom) // doc.spacing + 1
    for (x,), column in _cell_columns(fields, bottom, doc.spacing,
                                      cells).items():
        at = (x - left) // unit
        grid[at:at + (cells - 1) * step + 1:step] = column.translate(
            _CELL_MARKS)
    for mark, view in zip(b"01", fields):
        if not view._dense:
            for (x,), line in view.lines.items():
                at = (x - left) // unit - bottom // unit * stride
                for y in line:
                    grid[y // unit * stride + at] = mark
    if len(fields) > 1 and (width * height - grid.count(b"-")
                            != len(doc.d0) + len(doc.d1)):
        raise ValueError(_OVERLAP)
    return (left, bottom), grid.decode()


def check_format(fmt: str, dim: int) -> None:
    """Refuse a format that cannot hold a document of this dimension."""
    if fmt == ASCII and dim != 2:
        raise ValueError("the ASCII grid format is 2-D only")


def serialize_ascii(doc: Document) -> str:
    """Normalized ASCII rendering; 2-D documents only."""
    check_format(ASCII, doc.dim)
    origin, body = _ascii_body(doc, doc.spacing)
    if isinstance(doc, GridSet):
        header = (f"#gridset v1 m=2 s={doc.spacing} "
                  f"origin={origin[0]},{origin[1]} mode={doc.mode.value}")
    else:
        header = (f"#gridpair v1 m=2 s={doc.spacing} "
                  f"origin={origin[0]},{origin[1]}")
    return f"{header}\n{body}"


def render(doc: Document, unit: Optional[int] = None) -> str:
    """Goboard rendering with one character per `unit` fine units.

    The default unit is the document's spacing; unit 1 shows the
    sub-grid positions between coarse points, as the figures do.
    """
    if doc.dim != 2:
        raise ValueError("rendering is 2-D only")
    unit = doc.spacing if unit is None else unit
    if unit < 1 or doc.spacing % unit:
        raise ValueError(f"unit {unit} must divide the spacing {doc.spacing}")
    _, body = _ascii_body(doc, unit)
    if not body:
        return "(no points to draw)\n"
    if isinstance(doc, GridSet) and doc.mode is Mode.COFINITE:
        body += "(marks show excluded points)\n"
    return body


def _coords_records(label: str, lines: Lines) -> List[str]:
    # One record per point, in lexicographic order: by line, then along it.
    records = []
    for key in sorted(lines):
        head = " ".join([label, *map(str, key), ""])
        records += [head + str(c) for c in lines[key]]
    return records


def serialize_coords(doc: Document) -> str:
    if isinstance(doc, GridSet):
        header = (f"#coords v1 kind=gridset m={doc.dim} s={doc.spacing} "
                  f"mode={doc.mode.value}")
        body = _coords_records("M", doc.points.lines)
    else:
        header = f"#coords v1 kind=gridpair m={doc.dim} s={doc.spacing}"
        body = (_coords_records("D0", doc.d0.lines)
                + _coords_records("D1", doc.d1.lines))
    return "\n".join([header] + body) + "\n"


def serialize(doc: Document, fmt: str = ASCII) -> str:
    if fmt == ASCII:
        return serialize_ascii(doc)
    if fmt == COORDS:
        return serialize_coords(doc)
    raise ValueError(f"unknown format {fmt!r}")
