"""Outside points are checked once; the library's own results are not.

The parser and the public constructors check the dimension and grid
alignment of every point.  Results the library builds skip that check,
so these tests show that they would pass it, and that no CLI request
runs it again on a result.  Documents store each point field as a
view of its line index, and the last tests pin that no CLI request
builds point tuples from it.
"""

import sys

import pytest
from hypothesis import given

from gridpairs import geometry, gridset
from gridpairs.cli import main
from gridpairs.formats import parse_text, serialize
from gridpairs.gridset import GridSet, PointView, complement
from gridpairs.layers import layer, trace
from gridpairs.lifted import lift_interpolate, lift_restrict
from gridpairs.pairs import BoundaryPair, reconstruct, validate
from gridpairs.transfer import GridRatio, interpolate, restrict

from conftest import fixture_path, fixture_text, two_clusters


def assert_passes_public_checks(doc):
    """doc equals its rebuild through the public, checking constructor,
    its line index is canonical, which equality by index relies on, and
    each point field stores a view of its points, which reading returns."""
    points = {}
    for name, _ in doc._point_fields:
        view = getattr(doc, name)
        assert type(view) is PointView and vars(doc)[name] is view
        assert geometry.lines_of(view) is view.lines
        for key, line in view.lines.items():
            assert len(key) == doc.dim - 1
            assert type(line) is list and line
            assert all(a < b for a, b in zip(line, line[1:]))
            assert all(c % doc.spacing == 0 for c in line)
        points[name] = geometry.points_of(view.lines.items())
        assert view == points[name]
    if isinstance(doc, GridSet):
        assert GridSet(doc.dim, doc.spacing, doc.mode,
                       points["points"]) == doc
    else:
        assert BoundaryPair(doc.dim, doc.spacing, points["d0"],
                            points["d1"]) == doc
        assert validate(doc).valid
    hash(doc)


@given(two_clusters())
def test_every_built_result_passes_the_checks_it_skipped(case):
    dim, n, mode, points = case
    ratio = GridRatio(n)
    for s in (1, n):
        M = GridSet(dim, s, mode,
                    frozenset(tuple(s * c for c in p) for p in points))
        pair = trace(M)
        results = [pair, reconstruct(pair), complement(M),
                   *(layer(M, k) for k in range(-2, 4))]
        if s == 1:
            results += [restrict(M, ratio), lift_restrict(pair, ratio)]
        else:
            results += [interpolate(M, ratio), lift_interpolate(pair, ratio)]
        results += [parse_text(serialize(doc, "coords"))
                    for doc in (M, *results)]
        for doc in results:
            assert_passes_public_checks(doc)


def _coords(spacing, pair=False):
    """A 3-D coords document: a 3x3x2 block less one corner, or its pair."""
    M = GridSet.finite({(spacing * x, spacing * y, spacing * z)
                        for x in range(3) for y in range(3) for z in range(2)
                        if (x, y, z) != (0, 0, 0)}, spacing)
    return serialize(trace(M) if pair else M, "coords")


FINE_SETS = ["fig1a.grid", "fig3a.grid", "fig6e.grid", "cube-s1"]
COARSE_SETS = ["fig3c.grid", "fig6d.grid", "fig6f.grid", "cube-s2"]
FINE_PAIRS = ["fig1trace.pair", "fig6b.pair", "cube-s1.pair"]
COARSE_PAIRS = ["fig6a.pair", "fig6c.pair", "cube-s2.pair"]
THREE_D = {"cube-s1": _coords(1), "cube-s2": _coords(2),
           "cube-s1.pair": _coords(1, True), "cube-s2.pair": _coords(2, True)}

REQUESTS = (
    [("trace", name) for name in FINE_SETS + COARSE_SETS]
    + [(cmd, name) for cmd in ("reconstruct", "validate")
       for name in FINE_PAIRS + COARSE_PAIRS]
    + [("restrict", name) for name in FINE_SETS]
    + [("interpolate", name) for name in COARSE_SETS]
    + [("lift-restrict", name) for name in FINE_PAIRS]
    + [("lift-interpolate", name) for name in COARSE_PAIRS]
    + [("render", name) for name in FINE_SETS + COARSE_SETS
       + FINE_PAIRS + COARSE_PAIRS if name not in THREE_D]
)


def _argv(command, name, tmp_path, fmt=None):
    """The CLI request of `command` on the named input, as coords if
    `fmt` says so."""
    path = fixture_path(name)
    if name in THREE_D or fmt == "coords":
        text = THREE_D.get(name) or serialize(
            parse_text(fixture_text(name)), "coords")
        path = tmp_path / name
        path.write_text(text)
    argv = [command, "-i", str(path)]
    if command in ("restrict", "interpolate", "lift-restrict",
                   "lift-interpolate"):
        argv += ["--ratio", "2"]
    return argv


@pytest.mark.parametrize("command, name", REQUESTS)
def test_no_cli_request_rechecks_a_built_result(command, name, tmp_path,
                                                monkeypatch, capsys):
    argv = _argv(command, name, tmp_path)

    def run():
        code = main(argv)
        return code, capsys.readouterr()

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("check_on_grid ran on a built result")

    original = geometry.check_on_grid
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "gridpairs" and \
                getattr(module, "check_on_grid", None) is original:
            monkeypatch.setattr(module, "check_on_grid", refuse)
    assert expected[0] == 0
    assert run() == expected


#: Point tuples built per request: `validate`'s component pass is
#: handed D0 and D1 as views of the line index, and reads the index.
POINT_BUILDS = {"trace": 0, "restrict": 0, "interpolate": 0, "render": 0,
                "validate": 0, "reconstruct": 0, "lift-restrict": 0,
                "lift-interpolate": 0}


def count_point_builds(monkeypatch):
    """A list that gains an entry each time point tuples are built from
    a line index: by `points_of` or by iterating a point view."""
    calls = []

    def counted(function):
        def call(*args):
            calls.append(1)
            return function(*args)
        return call

    monkeypatch.setattr(gridset, "points_of", counted(gridset.points_of))
    monkeypatch.setattr(PointView, "__iter__", counted(PointView.__iter__))
    return calls


@pytest.mark.parametrize("command, name, fmt", [
    (command, name, fmt) for command, name in REQUESTS
    for fmt in ("ascii", "coords") if fmt == "coords" or name not in THREE_D])
def test_cli_requests_build_points_only_to_label_components(
        command, name, fmt, tmp_path, monkeypatch, capsys):
    argv = _argv(command, name, tmp_path, fmt)
    calls = count_point_builds(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == POINT_BUILDS[command]


def test_member_answers_from_the_line_index(monkeypatch):
    original = gridset.points_of
    calls = count_point_builds(monkeypatch)
    for name in ("fig1a.grid", "fig3c.grid"):
        M = parse_text(fixture_text(name))
        s = M.spacing
        box = gridset.window_of_lines(M.points.lines).inflate(s)
        queries = list(box.grid_points(s))
        answers = [gridset.member(M, q) for q in queries]
        flipped = [gridset.member(complement(M), q) for q in queries]
        assert not calls
        stored = original(M.points.lines.items())
        assert answers == [q in stored for q in queries]
        assert flipped == [q not in stored for q in queries]
