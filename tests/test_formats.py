import random

import pytest

from gridpairs import formats
from gridpairs.cli import main
from gridpairs.formats import (
    _CHUNK,
    ASCII_CELL_BUDGET,
    ParseError,
    _read_records,
    _scan_records,
    parse_text,
    render,
    serialize,
    serialize_ascii,
    serialize_coords,
)
from gridpairs.gridset import GridSet, Mode, Window, complement, random_set
from gridpairs.layers import trace
from gridpairs.pairs import BoundaryPair, validate

from conftest import fixture_text

#: The writers' message for a pair whose d0 and d1 share a point.
OVERLAP = "^overlapping d0/d1 cannot be rendered as an ASCII grid$"

FIG1A_POINTS = frozenset(
    {(x, y) for x in range(2, 10) for y in range(2, 7)}
    - {(x, y) for x in range(3, 6) for y in range(3, 6)})


def random_points(rng, dim, spacing, shift, most):
    # 1 to most points of the box [-5, 5]^dim, shifted by shift, in
    # grid steps
    return frozenset(
        tuple(spacing * (rng.randrange(-5, 6) + shift) for _ in range(dim))
        for _ in range(rng.randrange(1, most)))


def random_gridset(rng, dim=2, spacing=1, shift=0):
    pts = random_points(rng, dim, spacing, shift, 12)
    mode = Mode.COFINITE if rng.random() < 0.3 else Mode.FINITE
    return GridSet(dim, spacing, mode, pts)


def random_pair(rng, dim=2, spacing=1, shift=0):
    d0 = random_points(rng, dim, spacing, shift, 8)
    d1 = random_points(rng, dim, spacing, shift, 8) - d0
    return BoundaryPair(dim, spacing, d0, d1)


#: (shift, spacing) of the random ASCII documents: near the origin, and
#: far from it, where no coordinate is a cached small int.
PLACEMENTS = [(shift, spacing) for shift in (0, -300, 10**6, -10**23)
              for spacing in (1, 3)]


class TestAsciiFormat:
    def test_figure_file_parses(self):
        M = parse_text(fixture_text("fig1a.grid"))
        assert M == GridSet.finite(FIG1A_POINTS)

    def test_figure_file_is_normalized(self):
        text = fixture_text("fig1a.grid")
        assert serialize_ascii(parse_text(text)) == text

    def test_empty_pair_is_header_only(self):
        pair = BoundaryPair(2, 3, frozenset(), frozenset())
        assert serialize_ascii(pair) == "#gridpair v1 m=2 s=3 origin=0,0\n"
        assert parse_text(serialize_ascii(pair)) == pair

    def test_round_trip_random(self):
        rng = random.Random(71)
        for shift, spacing in PLACEMENTS:
            for _ in range(40):
                doc = random_gridset(rng, 2, spacing, shift) \
                    if rng.random() < 0.5 \
                    else random_pair(rng, 2, spacing, shift)
                assert parse_text(serialize_ascii(doc)) == doc

    def test_round_trip_cofinite_coarse(self):
        M = GridSet.cofinite({(2, -4), (6, 0)}, spacing=2)
        assert parse_text(serialize_ascii(M)) == M

    def test_trailing_spaces_ignored(self):
        text = "#gridset v1 m=2 s=1 origin=0,0 mode=finite\n0-   \n-0\n"
        assert parse_text(text) == GridSet.finite({(0, 0), (1, 1)})

    def test_unknown_character_position(self):
        for body, line, column in [
            ("0-\n-x\n", 3, 2),
            ("0-\n-\u00e9\n", 3, 2),  # not ASCII: a ParseError all the same
            ("0\t-\n---\n", 2, 2),  # a tab inside a row is a character
            ("x\u00e9\n", 2, 1),  # the first wrong character is named
        ]:
            text = "#gridset v1 m=2 s=1 origin=0,0 mode=finite\n" + body
            with pytest.raises(ParseError) as excinfo:
                parse_text(text)
            assert excinfo.value.line == line
            assert excinfo.value.column == column

    def test_one_marker_in_gridset_is_unknown(self):
        text = "#gridset v1 m=2 s=1 origin=0,0 mode=finite\n01\n"
        with pytest.raises(ParseError):
            parse_text(text)

    def test_ragged_rows(self):
        for body, line in [
            ("0-\n-0-\n", 3),
            ("0-1\n0-\n-1-\n", 3),  # a short row in the middle, not at the end
            ("01\n\n10\n", 3),  # a blank row inside the body
        ]:
            text = "#gridpair v1 m=2 s=1 origin=0,0\n" + body
            with pytest.raises(ParseError) as excinfo:
                parse_text(text)
            assert excinfo.value.line == line

    def test_header_only_body_parses(self):
        assert parse_text("#gridpair v1 m=2 s=1 origin=4,2\n") == \
            BoundaryPair(2, 1, frozenset(), frozenset())
        assert parse_text("#gridset v1 m=2 s=2 origin=0,0 mode=cofinite"
                          "\n\n\n") == GridSet.full_grid(2, 2)

    def test_header_mismatch(self):
        with pytest.raises(ParseError):
            parse_text("#gridset v1 m=2 s=1 origin=0,0\n")
        with pytest.raises(ParseError):
            parse_text("#gridset v2 m=2 s=1 origin=0,0 mode=finite\n")
        with pytest.raises(ParseError):
            parse_text("#gridset v1 m=3 s=1 origin=0,0,0 mode=finite\n")

    def test_off_grid_origin(self):
        with pytest.raises(ParseError):
            parse_text("#gridset v1 m=2 s=2 origin=1,0 mode=finite\n0\n")

    def test_overlapping_pair_cannot_serialize(self):
        # a shared point alone, one on a line past the first among
        # others, and one of a spacing-2 pair drawn at every unit
        for s, d0, d1 in [
                (1, {(0, 0)}, {(0, 0)}),
                (1, {(0, 0), (1, 0), (2, 2)}, {(0, 1), (2, 2), (3, 3)}),
                (2, {(0, 0), (2, 0)}, {(2, 0), (4, 4)})]:
            pair = BoundaryPair(2, s, frozenset(d0), frozenset(d1))
            with pytest.raises(ValueError, match=OVERLAP):
                serialize_ascii(pair)
            for unit in (None, 1, s):
                with pytest.raises(ValueError, match=OVERLAP):
                    render(pair, unit)

    def test_three_dimensional_rejected(self):
        with pytest.raises(ValueError):
            serialize_ascii(GridSet.finite({(0, 0, 0)}))

    def test_overlap_is_named_before_the_cell_budget(self):
        far = 10**6
        assert (far + 1) ** 2 > ASCII_CELL_BUDGET
        overlapping = BoundaryPair(2, 1, frozenset({(0, 0)}),
                                   frozenset({(0, 0), (far, far)}))
        disjoint = BoundaryPair(2, 1, frozenset({(0, 0)}),
                                frozenset({(far, far)}))
        for write in (serialize_ascii, render):
            with pytest.raises(ValueError, match=OVERLAP):
                write(overlapping)
            with pytest.raises(ValueError, match="exceeds the budget"):
                write(disjoint)

    def test_writers_refuse_exactly_the_overlapping_pairs(self):
        rng = random.Random(25)
        for _ in range(300):
            s = rng.choice((1, 2, 3))
            cells = [(s * x, s * y) for x in range(5) for y in range(5)]
            d0 = frozenset(rng.sample(cells, rng.randrange(1, 8)))
            d1 = frozenset(rng.sample(cells, rng.randrange(1, 8)))
            pair = BoundaryPair(2, s, d0, d1)
            for unit in (u for u in (1, 2, 3) if s % u == 0):
                if d0 & d1:
                    with pytest.raises(ValueError, match=OVERLAP):
                        render(pair, unit)
                else:
                    marks = render(pair, unit)
                    assert marks.count("0") == len(d0)
                    assert marks.count("1") == len(d1)


# The ASCII reader: a canonical body, rows of one width each ending in
# "\n", is read as it is; any other is split into rows first.  Either
# way its columns' marks are found one by one on a sparse grid and
# picked from every cell on a dense one.  A gate of 0 forces the dense
# column reader, and one of infinity the sparse one.
def read_both_ways(text):
    """The document each column reader reads from the text; they agree."""
    docs = []
    for gate in (0.0, float("inf")):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_SPARSE", gate)
            docs.append(parse_text(text))
    dense, sparse = docs
    assert dense == sparse
    assert line_indexes(dense) == line_indexes(sparse)
    return dense


def line_indexes(doc):
    fields = (doc.points,) if isinstance(doc, GridSet) else (doc.d0, doc.d1)
    return [list(field.lines.items()) for field in fields]


def disk_points(radius, offset):
    # a digital disk about a centre off the grid by offset / 7 steps
    fx, fy = offset
    return {(x, y) for x in range(-radius - 1, radius + 2)
            for y in range(-radius - 1, radius + 2)
            if (7 * x - fx) ** 2 + (7 * y - fy) ** 2 <= 49 * radius ** 2}


def box_points(rng):
    # one to three boxes, apart or overlapping, thin or wide
    points = set()
    for _ in range(rng.randrange(1, 4)):
        x, y = rng.randrange(0, 60), rng.randrange(0, 60)
        w, h = rng.randrange(1, 90), rng.randrange(1, 40)
        points |= {(x + i, y + j) for i in range(w) for j in range(h)}
    return points


#: Densities of the noise sets, from nearly empty to nearly full.
NOISE_DENSITIES = (0.005, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.9)


def reader_documents():
    """Random 2-D sets and their pairs, at every placement: traced boxes
    and disks, whose boundaries are thin, and noise at each density,
    finite and cofinite."""
    rng = random.Random(2026)
    docs = []
    for shift, spacing in PLACEMENTS + [(10**23, 1), (10**23, 3)]:
        shapes = [box_points(rng), box_points(rng),
                  disk_points(rng.randrange(2, 45),
                              (rng.randrange(7), rng.randrange(7)))]
        for density in NOISE_DENSITIES:
            side = rng.randrange(8, 48)
            shapes.append(random_set(Window((0, 0), (side, side)), density,
                                     rng.randrange(10**6)).points)
        for points in shapes:
            placed = {(spacing * (x + shift), spacing * (y + shift))
                      for x, y in points}
            shape = GridSet(2, spacing, Mode.FINITE, placed)
            if rng.random() < 0.4:
                shape = complement(shape)
            docs += [shape, trace(shape)]
    return docs


#: What each document's twins may end a line with instead of "\n": the
#: other breaks that str.splitlines splits at.
BREAKS = ("\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029")
#: Trailing junk a row may carry: blanks and tabs, then perhaps "\r",
#: which before a "\n" is part of its break.
TRAILS = ("", " ", "\t", " \t ", "\r", "  \r", "\t\r")


def twins(text, rng):
    """Non-canonical texts of the canonical text's document."""
    lines = text.split("\n")[:-1]
    yield "\r\n".join(lines) + "\r\n"
    yield "".join(line + rng.choice(TRAILS) + "\n" for line in lines)
    yield text + rng.choice(("\n", "\n\n", " \n\t\n", "\r\n\r\n"))
    yield "\n".join(lines)  # no break after the last row
    yield "".join(line + rng.choice(BREAKS) for line in lines)
    # the header ends in another break, and the body is canonical
    yield lines[0] + rng.choice(BREAKS) + text[len(lines[0]) + 1:]


class TestAsciiReader:
    def test_both_readers_and_every_twin_read_the_document(self):
        rng = random.Random(26)
        sides = {1: set(), 2: set()}
        for doc in reader_documents():
            text = serialize_ascii(doc)
            body = text[text.index("\n") + 1:].encode()
            if body:
                marks = 1 if isinstance(doc, GridSet) else 2
                share = formats._marks_per_cell(body, body.index(b"\n") + 1)
                sides[marks].add(share < formats._SPARSE * marks)
            canonical = read_both_ways(text)
            assert canonical == doc
            for twin in twins(text, rng):
                read = read_both_ways(twin)
                assert read == doc
                assert line_indexes(read) == line_indexes(canonical)
        # sets and pairs alike fell on both sides of the gate
        assert sides == {1: {False, True}, 2: {False, True}}

    @staticmethod
    def sparse_text():
        pair = trace(GridSet.finite(disk_points(40, (3, 5))))
        text = serialize_ascii(pair)
        body = text[text.index("\n") + 1:].encode()
        width = body.index(b"\n")
        assert formats._marks_per_cell(body, width + 1) < \
            2 * formats._SPARSE
        return text.split("\n")[:-1], width

    @pytest.mark.parametrize("fault", [
        "short", "long", "short-last", "short-then-long", "split", "byte",
        "tab", "non-ascii", "marker"])
    def test_a_fault_deep_in_a_sparse_body_is_named(self, fault):
        lines, width = self.sparse_text()
        r = len(lines) * 3 // 4
        c = width // 3
        row = lines[r]
        if fault == "short":
            lines[r] = row[:-1]
            expected = (f"ragged row of width {width - 1}, expected {width}",
                        r + 1, None)
        elif fault == "long":
            lines[r] = row + "-"
            expected = (f"ragged row of width {width + 1}, expected {width}",
                        r + 1, None)
        elif fault == "short-then-long":
            # the body keeps its length and its count of newlines
            lines[r] = row[:-1]
            lines[r + 1] += "-"
            expected = (f"ragged row of width {width - 1}, expected {width}",
                        r + 1, None)
        elif fault == "split":
            # a newline in place of a cell: every row end stays in place
            lines[r] = row[:c] + "\n" + row[c + 1:]
            expected = (f"ragged row of width {c}, expected {width}",
                        r + 1, None)
        elif fault == "short-last":
            r = len(lines) - 1
            lines[r] = lines[r][1:]
            expected = (f"ragged row of width {width - 1}, expected {width}",
                        r + 1, None)
        else:
            ch = {"byte": "x", "tab": "\t", "non-ascii": "\u00e9",
                  "marker": "2"}[fault]
            lines[r] = row[:c] + ch + row[c + 1:]
            expected = (f"unknown character {ch!r}", r + 1, c + 1)
        text = "\n".join(lines) + "\n"
        with pytest.raises(ParseError) as excinfo:
            parse_text(text)
        message, line, column = expected
        where = f"line {line}" + (f", column {column}" if column else "")
        assert str(excinfo.value) == f"{message} ({where})"
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    def test_a_gridset_refuses_the_pair_marker(self):
        text = serialize_ascii(GridSet.finite(disk_points(30, (0, 0))))
        lines = text.split("\n")
        lines[20] = lines[20].replace("-", "1", 1)
        column = lines[20].index("1") + 1
        with pytest.raises(ParseError) as excinfo:
            parse_text("\n".join(lines))
        assert str(excinfo.value) == \
            f"unknown character '1' (line 21, column {column})"


#: Integers that int() reads and no writer makes: an underscore between
#: digits, a plus sign, and Arabic-Indic digits.
NOT_WRITTEN = ["1_000", "+5", "\u0661\u0662"]


class TestCoordsFormat:
    def test_singleton_three_dimensional(self):
        M = GridSet.finite({(1, 2, 3)})
        text = serialize_coords(M)
        assert text == "#coords v1 kind=gridset m=3 s=1 mode=finite\nM 1 2 3\n"
        assert parse_text(text) == M

    def test_round_trip_random_dims(self):
        rng = random.Random(72)
        for dim in (1, 2, 3):
            for _ in range(15):
                doc = random_gridset(rng, dim) if rng.random() < 0.5 \
                    else random_pair(rng, dim)
                assert parse_text(serialize_coords(doc)) == doc

    def test_overlapping_pair_parses_but_fails_validation(self):
        text = "#coords v1 kind=gridpair m=2 s=1\nD0 0 0\nD1 0 0\nD1 1 0\n"
        pair = parse_text(text)
        assert pair.d0 & pair.d1
        assert not validate(pair).valid

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_text("#coords v1 kind=gridset m=2 s=1 mode=finite\nM 1\n")

    def test_non_integer_coordinate(self):
        # the first token that is not an integer is named, at its line
        with pytest.raises(ParseError) as excinfo:
            parse_text("#coords v1 kind=gridset m=3 s=1 mode=finite\n"
                       "M 1 2 3\nM 1 x 2.5\n")
        assert str(excinfo.value) == \
            "field coordinate is not an integer: 'x' (line 3)"

    @pytest.mark.parametrize("token", NOT_WRITTEN)
    def test_integer_forms_no_writer_makes_are_refused(self, token):
        # int() reads each of them, so a record that spells one would
        # name a point of its own: here the duplicate of "M 12"
        text = ("#coords v1 kind=gridset m=1 s=1 mode=finite\n"
                f"M {token}\nM 12\n")
        assert _read_records(text.splitlines(), 1, 1, ("M",)) is None
        with pytest.raises(ParseError) as excinfo:
            parse_text(text)
        assert str(excinfo.value) == \
            f"field coordinate is not an integer: {token!r} (line 2)"

    @pytest.mark.parametrize("token", NOT_WRITTEN)
    def test_integer_forms_past_the_first_chunk_are_refused(self, token):
        records = [f"D0 {x} {y}" for x in range(0, 130, 2)
                   for y in range(0, 130, 2)]
        assert len(records) > _CHUNK
        records[_CHUNK + 7] = f"D1 {token} 0"
        text = "#coords v1 kind=gridpair m=2 s=2\n" + "\n".join(records)
        lines = text.splitlines()
        assert _read_records(lines, 2, 2, ("D0", "D1")) is None
        with pytest.raises(ParseError) as excinfo:
            parse_text(text)
        assert str(excinfo.value) == (f"field coordinate is not an integer: "
                                      f"{token!r} (line {_CHUNK + 9})")

    @pytest.mark.parametrize("token", NOT_WRITTEN)
    @pytest.mark.parametrize("name, template", [
        ("m", "#coords v1 kind=gridset m={} s=1 mode=finite\nM 0\n"),
        ("s", "#coords v1 kind=gridpair m=1 s={}\nD0 0\nD1 1\n"),
        ("m", "#gridset v1 m={} s=1 origin=0,0 mode=finite\n0\n"),
        ("s", "#gridpair v1 m=2 s={} origin=0,0\n01\n"),
        ("origin", "#gridpair v1 m=2 s=1 origin=0,{}\n01\n"),
    ])
    def test_integer_forms_in_the_header_are_refused(self, name, template,
                                                      token):
        with pytest.raises(ParseError) as excinfo:
            parse_text(template.format(token))
        assert str(excinfo.value) == \
            f"field {name} is not an integer: {token!r} (line 1)"

    def test_off_grid_point(self):
        with pytest.raises(ParseError):
            parse_text("#coords v1 kind=gridset m=2 s=2 mode=finite\nM 1 0\n")

    def test_duplicates_rejected(self):
        # named at the second copy's own record line, past a record between
        with pytest.raises(ParseError) as excinfo:
            parse_text("#coords v1 kind=gridset m=2 s=1 mode=finite\n"
                       "M 1 0\nM 1 1\nM 1 0\n")
        assert str(excinfo.value) == "duplicate point (1, 0) (line 4)"
        assert excinfo.value.line == 4
        # the first faulty record is reported: a duplicate before an
        # off-grid record
        head = "#coords v1 kind=gridpair m=2 s=2\n"
        body = "D0 2 0\nD1 4 0\nD0 2 0\n"
        with pytest.raises(ParseError) as excinfo:
            parse_text(head + body + "D1 3 0\n")
        assert str(excinfo.value) == "duplicate point (2, 0) (line 4)"
        with pytest.raises(ParseError) as excinfo:
            parse_text(head + "D1 3 0\n" + body)
        assert str(excinfo.value) == \
            "point (3, 0) is off the spacing-2 grid (line 2)"

    @pytest.mark.parametrize("header", [
        "#coords v1 kind=gridpair m=2 m=3 s=1",
        "#coords v1 kind=gridpair kind=gridset m=2 s=1 mode=finite",
        "#coords v1 kind=gridset m=2 s=1 s=1 mode=finite",
    ])
    def test_duplicate_header_field(self, header):
        with pytest.raises(ParseError, match="duplicate header field"):
            parse_text(header + "\n")

    def test_unknown_label(self):
        with pytest.raises(ParseError):
            parse_text("#coords v1 kind=gridset m=2 s=1 mode=finite\nD0 1 0\n")


class TestConversion:
    def test_ascii_to_coords_to_ascii_is_lossless(self):
        rng = random.Random(73)
        for shift, spacing in PLACEMENTS:
            for _ in range(25):
                doc = random_gridset(rng, 2, spacing, shift) \
                    if rng.random() < 0.5 \
                    else random_pair(rng, 2, spacing, shift)
                ascii_once = serialize(doc, "ascii")
                through = parse_text(
                    serialize(parse_text(ascii_once), "coords"))
                assert serialize(through, "ascii") == ascii_once

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            serialize(GridSet.finite({(0, 0)}), "json")

    def test_unknown_document_kind(self):
        with pytest.raises(ParseError):
            parse_text("#stuff v1\n")
        with pytest.raises(ParseError):
            parse_text("")


COORDS_HEADERS = {
    "M": "#coords v1 kind=gridset m=2 s=2 mode=finite\nM 0 0\nM 2 0\n",
    "D0": "#coords v1 kind=gridpair m=2 s=2\nD0 0 0\nD1 2 0\n",
    "D1": "#coords v1 kind=gridpair m=2 s=2\nD0 0 0\nD1 2 0\n",
}
BAD_COORDINATES = {
    "off-grid": "2 3",
    "too-few-coordinates": "2",
    "too-many-coordinates": "2 2 2",
}
BAD_DOCUMENTS = [
    pytest.param(COORDS_HEADERS[label] + f"{label} {coords}\n", 4,
                 id=f"{label}-{kind}")
    for label in COORDS_HEADERS
    for kind, coords in BAD_COORDINATES.items()
] + [pytest.param("#gridpair v1 m=2 s=2 origin=1,0\n0-1\n", 1,
                  id="ascii-origin-off-grid")]


@pytest.mark.parametrize("text", [
    "#gridset v1 m=2 s=2 origin=0,0 mode=bogus\n0x\n",
    "#coords v1 kind=gridset m=2 s=2 mode=bogus\nM 1 0\n",
], ids=["ascii", "coords"])
def test_the_mode_is_checked_with_the_header(text):
    # before any record: the header's fault is the one reported
    with pytest.raises(ParseError) as excinfo:
        parse_text(text)
    assert str(excinfo.value) == "unknown mode 'bogus' (line 1)"


@pytest.mark.parametrize("text, line", BAD_DOCUMENTS)
def test_parser_rejects_every_bad_record(text, line, tmp_path, capsys):
    # The parser is the only check that outside points get.
    with pytest.raises(ParseError) as excinfo:
        parse_text(text)
    assert excinfo.value.line == line
    path = tmp_path / "bad.doc"
    path.write_text(text)
    assert main(["render", "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:")
    assert f"(line {line})" in captured.err


# The bulk reader against the per-record scan.  A coords document is
# drawn as token lists, one per record, and written out with blank and
# whitespace-only lines and odd gaps between its tokens.
LABELS = {"gridset": ("M",), "gridpair": ("D0", "D1")}
BLANKS = ("", " ", "\t", " \t  ")
GAPS = (" ", "  ", "\t", " \t ")
SHIFTS = (0, -300, 10**6, -10**23, 10**23)


def random_records(rng, kind, dim, spacing, count):
    """count records of distinct points, shuffled, about a shift of up
    to 10^23 grid steps; a pair also has one point in both sets."""
    shift = rng.choice(SHIFTS)
    side = max(2, round(2 * count ** (1 / dim)))
    points = set()
    while len(points) < count:
        points.add(tuple(spacing * (rng.randrange(side) + shift)
                         for _ in range(dim)))
    records = [[rng.choice(LABELS[kind]), *map(str, p)]
               for p in sorted(points)]
    if kind == "gridpair":
        label, *coords = records[0]
        records.append(["D1" if label == "D0" else "D0", *coords])
    rng.shuffle(records)
    return records


def coords_document(rng, kind, dim, spacing, records):
    """The document's text and the line number of each record."""
    header = f"#coords v1 kind={kind} m={dim} s={spacing}"
    lines = [header + (" mode=finite" if kind == "gridset" else "")]
    numbers = []
    for tokens in records:
        while rng.random() < 0.05:
            lines.append(rng.choice(BLANKS))
        body = "".join(t + rng.choice(GAPS) for t in tokens[:-1])
        lines.append(rng.choice(BLANKS) + body + tokens[-1]
                     + rng.choice(BLANKS))
        numbers.append(len(lines))
    return "\n".join(lines) + "\n", numbers


def record_sizes(rng):
    # small documents, and one past the first chunk of lines
    return [rng.randrange(1, 80) for _ in range(6)] + [
        _CHUNK + rng.randrange(1, 300)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bulk_reader_matches_the_scan_on_valid_documents(dim):
    rng = random.Random(90 + dim)
    for spacing in (1, 2, 3):
        for kind, labels in LABELS.items():
            for count in record_sizes(rng):
                records = random_records(rng, kind, dim, spacing, count)
                text, _ = coords_document(rng, kind, dim, spacing, records)
                lines = text.splitlines()
                read = _read_records(lines, dim, spacing, labels)
                scanned = _scan_records(lines, dim, spacing, labels)
                assert read is not None
                expected = [list(index.items()) for index in scanned]
                assert [list(index.items()) for index in read] == expected
                assert all(type(line) is list
                           for index in read for line in index.values())
                doc = parse_text(text)
                fields = ((doc.points,) if kind == "gridset"
                          else (doc.d0, doc.d1))
                assert [list(field.lines.items())
                        for field in fields] == expected
                for label, field in zip(labels, fields):
                    assert set(field) == {
                        tuple(map(int, coords))
                        for name, *coords in records if name == label}


def inject(rng, fault, records, at, sound, dim, spacing, labels):
    """Make record `at` faulty, a duplicate of one of the `sound` records
    before it or a record faulty by itself; return the message of its
    ParseError."""
    tokens = records[at]
    if fault == "label":
        name = rng.choice([label for label in ("M", "D0", "D1", "D2", "x")
                           if label not in labels])
        records[at] = [name, *tokens[1:]]
        return f"unexpected record label {name!r}"
    if fault == "arity":
        records[at] = tokens[:-1] if rng.random() < 0.5 else tokens + ["0"]
        return (f"record has {len(records[at]) - 1} coordinates, "
                f"expected {dim}")
    if fault == "integer":
        bad = rng.choice(("x", "1.5", "0x10", "--1", "1e3", *NOT_WRITTEN))
        records[at] = tokens[:]
        records[at][rng.randrange(1, dim + 1)] = bad
        return f"field coordinate is not an integer: {bad!r}"
    if fault == "grid":
        point = list(map(int, tokens[1:]))
        point[rng.randrange(dim)] += rng.randrange(1, spacing)
        records[at] = [tokens[0], *map(str, point)]
        return f"point {tuple(point)} is off the spacing-{spacing} grid"
    records[at] = records[rng.choice([i for i in sound if i < at])][:]
    return f"duplicate point {tuple(map(int, records[at][1:]))}"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bulk_reader_rejects_what_the_scan_rejects(dim):
    rng = random.Random(95 + dim)
    for spacing in (1, 2, 3):
        faults = ["label", "arity", "integer", "duplicate"] + (
            ["grid"] if spacing > 1 else [])
        for kind, labels in LABELS.items():
            for count in record_sizes(rng):
                records = random_records(rng, kind, dim, spacing,
                                         max(count, 3))
                # one or two faults of different kinds at different
                # records after the first, which stays sound; in a large
                # document, past the first chunk half the time
                chosen = rng.sample(faults, rng.choice((1, 2)))
                low = _CHUNK if count > _CHUNK and rng.random() < 0.5 else 1
                places = rng.sample(range(low, len(records)), len(chosen))
                sound = sorted(set(range(len(records))) - set(places))
                messages = {
                    at: inject(rng, fault, records, at, sound, dim, spacing,
                               labels)
                    for fault, at in zip(chosen, places)}
                text, numbers = coords_document(rng, kind, dim, spacing,
                                                records)
                at = min(messages)
                expected = f"{messages[at]} (line {numbers[at]})"
                lines = text.splitlines()
                assert _read_records(lines, dim, spacing, labels) is None
                with pytest.raises(ParseError) as scanned:
                    _scan_records(lines, dim, spacing, labels)
                with pytest.raises(ParseError) as parsed:
                    parse_text(text)
                assert str(parsed.value) == str(scanned.value) == expected
                assert parsed.value.line == numbers[at]
