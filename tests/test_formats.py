import random

import pytest

from gridpairs.cli import main
from gridpairs.formats import (
    ParseError,
    parse_text,
    serialize,
    serialize_ascii,
    serialize_coords,
)
from gridpairs.gridset import GridSet, Mode
from gridpairs.pairs import BoundaryPair, validate

from conftest import fixture_text

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
        pair = BoundaryPair(2, 1, frozenset({(0, 0)}), frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            serialize_ascii(pair)

    def test_three_dimensional_rejected(self):
        with pytest.raises(ValueError):
            serialize_ascii(GridSet.finite({(0, 0, 0)}))


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
