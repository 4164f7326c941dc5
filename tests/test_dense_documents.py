"""Dense documents keep their points as line masks from the ASCII text
they are read from to the text they are written to.

The ASCII reader hands a dense grid's columns to `geometry` as one byte
per cell, the operations keep their results' masks, and the writer asks
for each column's cells.  Every command must treat such a document
exactly as the same document built from its points, whose point views
hold sorted lists, and none of them may cut lists from the masks unless
it reads the points one by one.
"""

import io
import math
import random
import sys

import pytest

from gridpairs import formats, geometry
from gridpairs.cli import main
from gridpairs.formats import (ASCII_CELL_BUDGET, parse_text, render,
                               serialize, serialize_ascii)
from gridpairs.geometry import PointView, _form, lines_of
from gridpairs.gridset import GridSet, Mode, Window, complement, random_set
from gridpairs.layers import layer, trace
from gridpairs.lifted import lift_restrict
from gridpairs.pairs import AxiomReport, BoundaryPair, reconstruct, validate
from gridpairs.transfer import GridRatio, restrict

from conftest import (boards_built, each_form, fixture_text, lines_built,
                      masks_built)

FIGURES = ["fig1a.grid", "fig1trace.pair", "fig2a.pair", "fig2b.pair",
           "fig2c.pair", "fig3a.grid", "fig3c.grid", "fig6a.pair",
           "fig6b.pair", "fig6c.pair", "fig6d.grid", "fig6e.grid",
           "fig6f.grid"]


def fields(doc):
    return (doc.points,) if isinstance(doc, GridSet) else (doc.d0, doc.d1)


def rebuilt(doc):
    """The document built again from its points by the public
    constructor, so that its point views hold sorted lists."""
    if isinstance(doc, GridSet):
        return GridSet(doc.dim, doc.spacing, doc.mode, frozenset(doc.points))
    return BoundaryPair(doc.dim, doc.spacing, frozenset(doc.d0),
                        frozenset(doc.d1))


def read_dense(text):
    """The document of an ASCII text, read by the dense column reader."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_SPARSE", 0.0)
        patch.setattr(geometry, "_MIN_POINTS", 0)
        patch.setattr(geometry, "_CELLS_PER_POINT", 10**9)
        doc = parse_text(text)
    assert all(view._dense for view in fields(doc))
    return doc


def dense_view(points, lo, height, step=1):
    """The dense view of 2-D points on `height` cells from lo at step."""
    cells = {}
    for x, y in points:
        column = cells.setdefault((x,), bytearray(height))
        column[(y - lo) // step] = 1
    return PointView._of_masks(
        {key: int.from_bytes(column, "little")
         for key, column in cells.items()}, (lo, step, 1, height))


def padded(text, rows, columns):
    """The ASCII text with blank rows below and above its grid and blank
    columns left and right of it, its origin moved to match."""
    head, *body = text.split("\n")[:-1]
    tokens = head.split()
    values = dict(token.split("=", 1) for token in tokens[2:])
    s = int(values["s"])
    x, y = map(int, values["origin"].split(","))
    values["origin"] = f"{x - columns * s},{y - rows * s}"
    blank = "-" * (len(body[0]) + 2 * columns)
    side = "-" * columns
    grid = ([blank] * rows + [side + row + side for row in body]
            + [blank] * rows)
    head = " ".join(tokens[:2] + [f"{k}={v}" for k, v in values.items()])
    return "\n".join([head, *grid]) + "\n"


#: Densities of the drawn sets: below the reader's 1/16 marks per cell,
#: between it and the 1/4 from which the reader keeps masks where
#: `_form`'s gate may take them, about that, and well above it.
DENSITIES = (0.03, 0.1, 0.3, 0.6, 0.95)


def documents(density, spacing):
    """ASCII texts of random sets at the density, finite and cofinite,
    near the origin and about 10^23 from it, of their traces, and of
    their traces less a third of d1, which are invalid."""
    rng = random.Random(f"{density} {spacing}")
    texts = []
    for far, cofinite in ((False, False), (False, True), (True, False),
                          (True, True)):
        reach = 10**23 // spacing if far else 9
        x, y = (spacing * rng.randrange(-reach, reach) for _ in range(2))
        side = spacing * rng.randrange(18, 34)
        M = random_set(Window((x, y), (x + side, y + side)), density,
                       rng.randrange(10**6), spacing)
        if cofinite:
            M = complement(M)
        pair = trace(M)
        d1 = sorted(pair.d1)
        cut = BoundaryPair(2, spacing, frozenset(pair.d0),
                           frozenset(d1[len(d1) // 3:]))
        texts += [serialize_ascii(doc) for doc in (M, pair, cut)]
    return texts


def commands(doc):
    """The CLI requests of every document subcommand that takes doc,
    in both formats, with the ratio that fits its spacing or another."""
    ratio = ["--ratio", str(max(doc.spacing, 2))]
    if isinstance(doc, GridSet):
        names = [["trace"], ["restrict", *ratio], ["interpolate", *ratio]]
    else:
        names = [["reconstruct"], ["lift-restrict", *ratio],
                 ["lift-interpolate", *ratio]]
    requests = [name + fmt for name in names
                for fmt in ([], ["--format", "coords"])]
    if isinstance(doc, BoundaryPair):
        requests.append(["validate"])
    return requests + [["render"], ["render", "--unit", "1"]]


def outcomes(doc, capsys):
    """The exit code, output and error output of each request of
    `commands` on doc, as if the CLI had read it from its text, and the
    texts of `layer` k = -1 and 3 of a grid set in both formats."""
    got = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "parse_text", lambda text: doc)
        patch.setattr(sys, "stdin", io.StringIO())
        for argv in commands(doc):
            code = main(argv)
            got.append((argv, code, *capsys.readouterr()))
    if isinstance(doc, GridSet):
        got += [(k, fmt, serialize(layer(doc, k), fmt))
                for k in (-1, 3) for fmt in formats.FORMATS]
    return got


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("spacing", [1, 2, 3])
def test_dense_documents_act_as_their_points(density, spacing, capsys):
    # The parsed document, its padded twin and the document rebuilt
    # from its points write the same under the dense form's gate, and
    # with the gate forced open and forced shut.
    for text in documents(density, spacing):
        doc = parse_text(text)
        if isinstance(doc, GridSet):
            # the reader estimates the points from a sample: lists well
            # under 1/4 points per cell, masks well over it and over
            # the gate's floor of points
            if density < 0.2:
                assert not doc.points._dense
            elif (density > 0.5
                  and len(doc.points) > 1.5 * geometry._MIN_POINTS):
                assert doc.points._dense
        twin = rebuilt(doc)
        wide = padded(text, 9, 2)
        expected = outcomes(twin, capsys)
        assert outcomes(doc, capsys) == expected
        assert outcomes(parse_text(wide), capsys) == expected
        for got in each_form(lambda: [outcomes(parse_text(text), capsys),
                                      outcomes(parse_text(wide), capsys),
                                      outcomes(twin, capsys)]):
            assert got == [expected] * 3


def writes(doc):
    """What each writer writes of doc, or the error it raises."""
    got = []
    writers = [serialize_ascii, lambda doc: serialize(doc, "coords")]
    writers += [lambda doc, unit=unit: render(doc, unit)
                for unit in range(1, doc.spacing + 1)
                if doc.spacing % unit == 0]
    for write in writers:
        try:
            got.append(write(doc))
        except ValueError as exc:
            got.append(("error", str(exc)))
    return got


@pytest.mark.parametrize("name", FIGURES)
def test_the_writer_writes_every_figure_as_the_list_writer(name):
    doc = read_dense(fixture_text(name))
    twin = rebuilt(doc)
    assert writes(doc) == writes(twin)
    assert serialize_ascii(doc) == serialize_ascii(parse_text(
        fixture_text(name)))
    if isinstance(doc, GridSet):
        assert writes(complement(doc)) == writes(complement(twin))


def test_the_writer_refuses_dense_pairs_as_the_list_writer():
    # Overlapping pairs, and pairs over the cell budget, overlapping or
    # not, with d0 and d1 dense on one window, on two windows, and one
    # of them lists; then a disjoint pair on two windows, one of which
    # starts above the other's least point.
    rng = random.Random(33)
    points = {(x, y) for x in range(16) for y in range(16)
              if rng.random() < 0.5}
    other = {(x, y) for x in range(4, 20) for y in range(5, 30)
             if rng.random() < 0.5}
    far = (10**7, 3)
    a = dense_view(points, -3, 40)
    b = dense_view(other, -3, 40)
    shifted = dense_view(other, 5, 25)
    listed = PointView(lines_of(frozenset(other)))
    with_far = dense_view(other | {far}, -3, 40)
    far_listed = PointView(lines_of(frozenset(other | {far})))
    assert points & other and a._window == b._window != shifted._window
    pairs = [(a, a), (a, b), (a, shifted), (shifted, a), (a, listed),
             (listed, a), (a, with_far), (with_far, a), (a, far_listed),
             (far_listed, shifted)]
    apart = {(x, y + 40) for x, y in points}
    low, high = dense_view(points, -3, 40), dense_view(apart, 30, 30)
    high_far = dense_view(apart | {(10**7, 45)}, 30, 30)
    pairs += [(low, high), (high, low), (low, high_far)]
    for d0, d1 in pairs:
        pair = BoundaryPair._trusted(2, 1, d0, d1)
        assert writes(pair) == writes(rebuilt(pair))
    assert writes(BoundaryPair._trusted(2, 1, a, b))[0] == (
        "error", formats._OVERLAP)
    assert "exceeds the budget" in writes(
        BoundaryPair._trusted(2, 1, low, high_far))[0][1]
    assert (10**7 + 1) * 40 > ASCII_CELL_BUDGET
    for view in (a, with_far, high):
        for mode in Mode:
            gridset = GridSet._trusted(2, 1, mode, view)
            assert writes(gridset) == writes(rebuilt(gridset))


def test_dense_views_answer_as_their_lines():
    # length, emptiness, keys, ends, equality, hashing, iteration and
    # disjointness, on windows wider than the points
    rng = random.Random(34)
    for _ in range(60):
        step = rng.choice((1, 2, 3))
        points = {(step * rng.randrange(-8, 8), step * rng.randrange(-8, 8))
                  for _ in range(rng.randrange(0, 40))}
        other = {(step * rng.randrange(-8, 8), step * rng.randrange(-8, 8))
                 for _ in range(rng.randrange(0, 40))}
        lo = step * rng.randrange(-12, -8)
        view = dense_view(points, lo, rng.randrange(20, 30), step)
        same = dense_view(other, lo, 30, step)
        moved = dense_view(other, lo - step, 30, step)
        listed = PointView(lines_of(frozenset(points)))
        assert len(view) == len(points) and bool(view) == bool(points)
        assert set(view._line_keys()) == set(listed._line_keys())
        if points:
            assert view._line_ends() == listed._line_ends()
        for twin in (same, moved, PointView(lines_of(frozenset(other)))):
            assert view.isdisjoint(twin) == points.isdisjoint(other)
        assert view.isdisjoint(other) == points.isdisjoint(other)
        assert view == listed == frozenset(points)
        assert hash(view) == hash(listed)
        assert sorted(view) == sorted(listed) and view.lines == listed.lines


@pytest.mark.parametrize("source, target", [(1, 1), (2, 2), (3, 3), (1, 2),
                                            (1, 3), (2, 1), (3, 1)])
def test_a_form_takes_a_dense_view_as_its_lines(source, target):
    # by one shift per line on cells of the form's step, and from the
    # lines otherwise
    rng = random.Random(source * 10 + target)
    for _ in range(20):
        points = {(source * rng.randrange(-6, 6),
                   source * rng.randrange(-20, 20)) for _ in range(60)}
        listed = PointView(lines_of(frozenset(points)))
        radius = rng.randrange(0, 3) * max(source, target)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_CELLS_PER_POINT", math.inf)
            patch.setattr(geometry, "_MIN_POINTS", 1)
            form = _form((listed,), radius, source, target)
        for lo in (-25 * source, -20 * source, -21 * source):
            for step in {source, 1}:
                if lo % step == 0:
                    view = dense_view(points, lo, 50 * source // step, step)
                    assert form.of(view) == form.of(listed)


def test_dense_requests_build_no_lists():
    # parse, trace, layer(M, 3) or restriction by 2, and write, of a
    # dense 128^2 ASCII set, finite and cofinite, all on masks; then
    # parse, validate, reconstruct or lift_restrict by 2, 3 or 4, and
    # write, of its trace: the walk builds its two boards from the
    # masks and keeps its sides as a board, which reconstruct turns
    # into masks and the core of lift_restrict, on masks, reads
    M = random_set(Window((0, 0), (127, 127)), 0.5, 7)
    lifts = [lambda pair, n=n: lift_restrict(pair, GridRatio(n))
             for n in (2, 3, 4)]
    for gridset in (M, complement(M)):
        pair = trace(gridset)
        requests = [(gridset, operation, serialize_ascii, 1)
                    for operation in (trace, lambda M: layer(M, 3),
                                      lambda M: restrict(M, GridRatio(2)))]
        requests += [(pair, validate, AxiomReport.describe, 0),
                     (pair, reconstruct, serialize_ascii, 0)]
        requests += [(pair, lift, serialize_ascii, 1) for lift in lifts]
        for doc, operation, write, masks in requests:
            text = serialize_ascii(doc)

            def request():
                doc = parse_text(text)
                assert all(view._dense for view in fields(doc))
                return write(operation(doc))

            assert lines_built(request) == 0
            assert masks_built(request) == masks
            assert boards_built(request) == (2 if doc is pair else 0)
            # the list route: the document from its points, with the
            # dense form's gate forced open and forced shut
            assert each_form(lambda: write(operation(rebuilt(doc)))) == (
                [request()] * 2)


def test_thin_documents_are_read_into_lists():
    # A disk's boundary pair holds about 4/R marks per cell: more than
    # the reader finds one by one, fewer than it keeps as masks.  Its
    # lines are picked from the byte tables into lists at once, so
    # validating it cuts none from masks.
    disk = GridSet(2, 1, Mode.FINITE, frozenset(
        (x, y) for x in range(-24, 25) for y in range(-24, 25)
        if x * x + y * y <= 24 * 24))
    text = serialize_ascii(trace(disk))
    data, width = formats._ascii_grid(text.split("\n", 1)[1], "-01")
    assert 2 * formats._SPARSE <= formats._marks_per_cell(data, width + 1)
    pair = parse_text(text)
    assert not pair.d0._dense and not pair.d1._dense
    assert pair == trace(disk)
    assert lines_built(lambda: validate(parse_text(text))) == 0
