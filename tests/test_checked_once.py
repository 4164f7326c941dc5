"""Outside points are checked once; the library's own results are not.

The parser and the public constructors check the dimension and grid
alignment of every point.  Results the library builds skip that check,
so these tests show that they would pass it, and that no CLI request
runs it again on a result.
"""

import sys

import pytest
from hypothesis import given

from gridpairs import geometry
from gridpairs.cli import main
from gridpairs.formats import parse_text, serialize
from gridpairs.gridset import GridSet, complement
from gridpairs.layers import layer, trace
from gridpairs.lifted import lift_interpolate, lift_restrict
from gridpairs.pairs import BoundaryPair, reconstruct, validate
from gridpairs.transfer import GridRatio, interpolate, restrict

from conftest import fixture_path, two_clusters


def assert_passes_public_checks(doc):
    """doc equals its rebuild through the public, checking constructor."""
    if isinstance(doc, GridSet):
        assert type(doc.points) is frozenset
        assert GridSet(doc.dim, doc.spacing, doc.mode, doc.points) == doc
    else:
        assert type(doc.d0) is frozenset and type(doc.d1) is frozenset
        assert BoundaryPair(doc.dim, doc.spacing, doc.d0, doc.d1) == doc
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


@pytest.mark.parametrize("command, name", REQUESTS)
def test_no_cli_request_rechecks_a_built_result(command, name, tmp_path,
                                                monkeypatch, capsys):
    if name in THREE_D:
        path = tmp_path / name
        path.write_text(THREE_D[name])
    else:
        path = fixture_path(name)
    argv = [command, "-i", str(path)]
    if command in ("restrict", "interpolate", "lift-restrict",
                   "lift-interpolate"):
        argv += ["--ratio", "2"]

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
