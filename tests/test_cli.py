import io
import os
import random
import sys

import pytest

from gridpairs import cli
from gridpairs.cli import main
from gridpairs.formats import parse_text, serialize
from gridpairs.gridset import GridSet
from gridpairs.layers import trace

from conftest import FIXTURES, fixture_path, fixture_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTraceReconstruct:
    def test_round_trip_through_files(self, tmp_path, capsys):
        traced = tmp_path / "traced.pair"
        code, _, _ = run(capsys, "trace", "-i", fixture_path("fig1a.grid"),
                         "-o", str(traced))
        assert code == 0
        assert traced.read_text() == fixture_text("fig1trace.pair")
        code, out, _ = run(capsys, "reconstruct", "-i", str(traced))
        assert code == 0
        assert out == fixture_text("fig1a.grid")

    def test_wrong_document_kind(self, tmp_path, capsys):
        code, _, err = run(capsys, "trace", "-i",
                           fixture_path("fig1trace.pair"))
        assert code == 2
        assert "grid set" in err
        # render takes either kind, but only in 2-D
        doc = tmp_path / "cube.doc"
        doc.write_text(NOT_2D_SET)
        assert run(capsys, "render", "-i", str(doc)) == (
            2, "", "error: rendering is 2-D only\n")


class TestLiftedCommands:
    def test_refine_reproduces_published_output(self, capsys):
        code, out, _ = run(capsys, "lift-interpolate", "--ratio", "2",
                           "-i", fixture_path("fig6a.pair"))
        assert code == 0
        assert out == fixture_text("fig6b.pair")

    def test_coarsen_reproduces_published_output(self, capsys):
        code, out, _ = run(capsys, "lift-restrict", "--ratio", "2",
                           "-i", fixture_path("fig6b.pair"))
        assert code == 0
        assert out == fixture_text("fig6c.pair")

    def test_invalid_input_pair_reports_and_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.pair"
        bad.write_text("#gridpair v1 m=2 s=1 origin=0,0\n0----1\n")
        code, _, err = run(capsys, "lift-restrict", "--ratio", "2",
                           "-i", str(bad))
        assert code == 1
        assert "invalid boundary pair" in err.lower()


class TestValidateCommand:
    @pytest.mark.parametrize("name", ["fig2a.pair", "fig2b.pair",
                                      "fig2c.pair"])
    def test_counterexamples_fail_naming_separation(self, name, capsys):
        code, out, _ = run(capsys, "validate", "-i", fixture_path(name))
        assert code == 1
        assert "(separation): FAIL" in out
        assert out.count("FAIL") == 1
        assert "INVALID" in out

    def test_valid_pair_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "validate", "-i",
                           fixture_path("fig6a.pair"))
        assert code == 0
        assert "result: valid" in out
        empty = tmp_path / "empty.pair"
        empty.write_text("#coords v1 kind=gridpair m=3 s=2\n")
        assert run(capsys, "validate", "-i", str(empty)) == (
            0, "empty pair: represents the full grid, valid by definition\n"
               "result: valid\n", "")


class TestTransferCommands:
    def test_restrict_and_interpolate(self, tmp_path, capsys):
        code, out, _ = run(capsys, "interpolate", "--ratio", "2",
                           "-i", fixture_path("fig6d.grid"))
        assert code == 0
        assert out == fixture_text("fig6e.grid")
        fine = tmp_path / "fine.grid"
        fine.write_text(out)
        code, out, _ = run(capsys, "restrict", "--ratio", "2",
                           "-i", str(fine))
        assert code == 0
        assert out == fixture_text("fig6f.grid")


class TestOutputFormat:
    def test_3d_coords_trace_answers_in_coords(self, tmp_path, capsys):
        doc = tmp_path / "blob3d.coords"
        doc.write_text("#coords v1 kind=gridset m=3 s=1 mode=finite\n"
                       "M 0 0 0\nM 1 0 0\n")
        code, out, err = run(capsys, "trace", "-i", str(doc))
        assert code == 0, err
        assert out.startswith("#coords v1 kind=gridpair m=3 s=1\n")

    def test_explicit_format_wins(self, capsys):
        code, out, _ = run(capsys, "trace", "--format", "coords",
                           "-i", fixture_path("fig1a.grid"))
        assert code == 0
        assert out.startswith("#coords v1 kind=gridpair m=2 s=1\n")


class TestRandomCommand:
    def test_deterministic(self, capsys):
        args = ("random", "--window", "0,0:9,9", "--density", "0.5",
                "--seed", "42")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert out_a.startswith("#gridset v1 m=2 s=1")

    def test_coords_output_any_dim(self, capsys):
        code, out, _ = run(capsys, "random", "--window", "0,0,0:2,2,2",
                           "--density", "0.9", "--seed", "7",
                           "--format", "coords")
        assert code == 0
        assert out.startswith("#coords v1 kind=gridset m=3 s=1 mode=finite")

    def test_negative_window_is_written_with_equals(self, capsys):
        # a value that starts with "-" is read as an option unless it is
        # joined to the flag with "="
        code, out, _ = run(capsys, "random", "--window=-300,-260:-45,-5",
                           "--density", "0.5", "--seed", "5")
        assert code == 0
        drawn = parse_text(out)
        xs = [x for (x,) in drawn.points.lines]
        ys = [y for line in drawn.points.lines.values() for y in line]
        assert -300 <= min(xs) and max(xs) <= -45
        assert -260 <= min(ys) and max(ys) <= -5
        assert out.startswith(f"#gridset v1 m=2 s=1 origin={min(xs)},"
                              f"{min(ys)} mode=finite\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["random", "--help"])
        assert excinfo.value.code == 0
        assert "--window=-300,-260:-45,-5" in capsys.readouterr().out

    def test_bad_window_spec(self, capsys):
        code, _, err = run(capsys, "random", "--window", "zap",
                           "--density", "0.5", "--seed", "1")
        assert code == 2
        assert "window" in err
        assert run(capsys, "random", "--window", "0,0:5", "--density", "0.5",
                   "--seed", "1") == (
            2, "", "error: window corners have different dimensions\n")

    @pytest.mark.parametrize("spacing", ["0", "-2"])
    def test_nonpositive_spacing(self, spacing, capsys):
        code, out, err = run(capsys, "random", "--window", "0,0:3,3",
                             "--density", "0.5", "--seed", "1",
                             "--spacing", spacing)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestRenderCommand:
    def test_dense_render_of_coarse_set(self, capsys):
        code, out, _ = run(capsys, "render", "-i", fixture_path("fig3c.grid"))
        assert code == 0
        assert out == "00---\n00000\n00000\n"

    def test_subgrid_render_matches_figure_style(self, capsys):
        code, out, _ = run(capsys, "render", "--unit", "1",
                           "-i", fixture_path("fig3c.grid"))
        assert code == 0
        assert out == ("0-0------\n"
                       "---------\n"
                       "0-0-0-0-0\n"
                       "---------\n"
                       "0-0-0-0-0\n")

    @pytest.mark.parametrize("unit,expected", [
        (None, "0--\n--0\n"),
        ("1", "0----\n-----\n----0\n"),
    ])
    def test_cofinite_set_marks_excluded_points(self, unit, expected,
                                                tmp_path, capsys):
        doc = tmp_path / "cofinite.grid"
        doc.write_text("#gridset v1 m=2 s=2 origin=0,0 mode=cofinite\n"
                       "0--\n--0\n")
        args = ("--unit", unit) if unit else ()
        code, out, _ = run(capsys, "render", *args, "-i", str(doc))
        assert code == 0
        assert out == expected + "(marks show excluded points)\n"

    def test_empty_pair_has_nothing_to_draw(self, tmp_path, capsys):
        doc = tmp_path / "empty.pair"
        doc.write_text("#gridpair v1 m=2 s=3 origin=0,0\n")
        code, out, _ = run(capsys, "render", "-i", str(doc))
        assert code == 0
        assert out == "(no points to draw)\n"

    def test_unit_must_divide_spacing(self, capsys):
        code, _, err = run(capsys, "render", "--unit", "3",
                           "-i", fixture_path("fig3c.grid"))
        assert code == 2

    @pytest.mark.parametrize("args", [(), ("--unit", "1")])
    def test_overlapping_pair_is_refused(self, args, tmp_path, capsys):
        doc = tmp_path / "overlap.pair"
        doc.write_text("#coords v1 kind=gridpair m=2 s=1\n"
                       "D0 0 0\nD1 0 0\nD1 1 0\n")
        code, out, err = run(capsys, "render", *args, "-i", str(doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error: overlapping d0/d1 ")


class TestErrorPaths:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        mangled = tmp_path / "mangled.grid"
        mangled.write_text("#gridset v1 m=2 s=1 origin=0,0 mode=finite\n?-\n")
        code, _, err = run(capsys, "trace", "-i", str(mangled))
        assert code == 2
        assert "parse error" in err

    def test_stdin_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            fixture_text("fig1a.grid")))
        code, out, _ = run(capsys, "trace")
        assert code == 0
        assert out == fixture_text("fig1trace.pair")

    def test_missing_input_file(self, tmp_path, capsys):
        code, out, err = run(capsys, "validate", "-i",
                             str(tmp_path / "missing.pair"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_unwritable_output(self, tmp_path, capsys):
        code, _, err = run(capsys, "trace", "-i", fixture_path("fig1a.grid"),
                           "-o", str(tmp_path / "no-such-dir" / "out.pair"))
        assert code == 2
        assert err.startswith("error:")


def test_validate_far_two_point_pair_exits_invalid(tmp_path, capsys):
    doc = tmp_path / "far.pair"
    doc.write_text("#coords v1 kind=gridpair m=2 s=1\n"
                   "D0 0 0\nD1 1000000 1000000\n")
    code, out, _ = run(capsys, "validate", "-i", str(doc))
    assert code == 1
    assert "(separation): FAIL  witness: (-1, -1)" in out


@pytest.mark.parametrize("argv, text", [
    (["render"], "#coords v1 kind=gridpair m=2 s=1\n"
                 "D0 0 0\nD1 1000000 1000000\n"),
    (["trace", "--format", "ascii"],
     "#coords v1 kind=gridset m=2 s=1 mode=finite\nM 0 0\nM 1000000 1000000\n"),
])
def test_ascii_grid_over_the_cell_budget_exits_2(argv, text, tmp_path,
                                                  capsys):
    # the grid would span 10^12 cells; it is refused before any is drawn
    doc = tmp_path / "far.doc"
    doc.write_text(text)
    code, out, err = run(capsys, *argv, "-i", str(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error: an ASCII grid of ")
    assert err.rstrip().endswith("exceeds the budget of 10000000 cells")


NOT_2D_SET = "#coords v1 kind=gridset m=3 s=1 mode=finite\nM 0 0 0\nM 1 0 0\n"
NOT_2D_PAIR = "#coords v1 kind=gridpair m=3 s=2\nD0 0 0 0\nD1 2 0 0\n"


@pytest.mark.parametrize("argv, text", [
    (["random", "--window", "0,0,0:199,199,199", "--density", "0.5",
      "--seed", "1"], ""),
    (["random", "--window", "0:9", "--density", "0.5", "--seed", "1",
      "--format", "ascii"], ""),
    (["trace", "--format", "ascii"], NOT_2D_SET),
    (["trace", "--format", "ascii"],
     "#coords v1 kind=gridset m=1 s=1 mode=finite\nM 0\n"),
    (["reconstruct", "--format", "ascii"], NOT_2D_PAIR),
    (["restrict", "--ratio", "2", "--format", "ascii"], NOT_2D_SET),
    (["interpolate", "--ratio", "2", "--format", "ascii"], NOT_2D_SET),
    (["lift-restrict", "--ratio", "2", "--format", "ascii"], NOT_2D_PAIR),
    (["lift-interpolate", "--ratio", "2", "--format", "ascii"], NOT_2D_PAIR),
])
def test_ascii_output_of_a_non_2d_input_is_refused_before_the_work(
        argv, text, monkeypatch, capsys):
    # the draw and every operation fail the test if they run: a 200^3
    # draw took seconds and hundreds of MB before its refusal
    ran = []

    def forbidden(*args, **kwargs):
        ran.append(args)
        raise AssertionError("the work ran before the format was refused")

    for name in ("random_set", "trace", "reconstruct", "restrict",
                 "interpolate", "lift_restrict", "lift_interpolate"):
        monkeypatch.setattr(cli, name, forbidden)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, *argv) == (
        2, "", "error: the ASCII grid format is 2-D only\n")
    assert ran == []


def test_validate_ignores_the_ascii_format_of_a_3d_pair(monkeypatch,
                                                         capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(NOT_2D_PAIR))
    code, out, _ = run(capsys, "validate", "--format", "ascii")
    assert code == 1
    assert out.endswith("result: INVALID\n")


@pytest.mark.parametrize("operation, name, extra", [
    ("trace", "fig1a.grid", ()),
    ("reconstruct", "fig1trace.pair", ()),
    ("validate", "fig6a.pair", ()),
    ("restrict", "fig6e.grid", ("--ratio", "2")),
    ("interpolate", "fig6d.grid", ("--ratio", "2")),
    ("lift_restrict", "fig6b.pair", ("--ratio", "2")),
    ("lift_interpolate", "fig6a.pair", ("--ratio", "2")),
])
def test_each_operation_is_called_through_its_module_attribute(
        operation, name, extra, monkeypatch, capsys):
    # gridbench/tracer.py times the operations by swapping these attributes
    argv = [operation.replace("_", "-"), "-i", fixture_path(name), *extra]
    expected = run(capsys, *argv)
    original = getattr(cli, operation)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, operation, counting)
    assert run(capsys, *argv) == expected
    assert len(calls) == 1


FUZZ_ALPHABET = "#=,:-019_+\u0663\0\t\n"
FUZZ_COMMANDS = (
    ["trace"], ["reconstruct"], ["validate"], ["render"],
    ["restrict", "--ratio", "2"], ["interpolate", "--ratio", "2"],
    ["lift-restrict", "--ratio", "2"], ["lift-interpolate", "--ratio", "2"],
    ["random", "--window", "0,0:3,3", "--density", "0.5", "--seed", "1"],
)


def _mutate(text, rng):
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3) if i < len(chars) else 1
        if edit == 0:
            del chars[i]
        elif edit == 1:
            chars.insert(i, rng.choice(FUZZ_ALPHABET))
        else:
            chars[i] = rng.choice(FUZZ_ALPHABET)
    return "".join(chars)


def test_malformed_documents_keep_the_exit_code_contract(monkeypatch,
                                                         capsys):
    sources = [fixture_text(name) for name in sorted(os.listdir(FIXTURES))]
    sources += [
        serialize(trace(GridSet.finite({(0, 0, 0), (1, 0, 0)})), "coords"),
        serialize(GridSet.cofinite({(0, 0), (1, 0), (4, 4)}), "coords"),
    ]
    rng = random.Random(5)
    outcomes = set()
    for _ in range(1500):
        text = _mutate(rng.choice(sources), rng)
        argv = list(rng.choice(FUZZ_COMMANDS))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{argv} on {text!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, text)
        parse_errors = [line for line in err.splitlines()
                        if line.startswith("parse error:")]
        for line in parse_errors:
            assert "(line " in line, (argv, text, line)
        if argv[0] != "random":
            outcomes.add("rejected" if parse_errors else "accepted")
    assert outcomes == {"accepted", "rejected"}


# The two parsing routes: `main` hands a known subcommand's arguments to
# that subcommand's own parser, and the full parser must read every
# argv the same way, down to the text and exit code of its errors.
def _required(command):
    if command == "random":
        return ["--window", "0,0:3,3", "--density", "0.5", "--seed", "1"]
    if command == "render" or not cli._COMMANDS[command][2]:
        return []
    return ["--ratio", "2"]


SUBCOMMANDS = [*cli._COMMANDS, "render", "random"]
GOOD_ARGVS = [
    argv for command in SUBCOMMANDS for argv in (
        [command, *_required(command)],
        [command, "-o", "out", *_required(command),
         *(["--unit", "2", "-i", "in"] if command == "render" else
           ["--format", "coords"] if command == "random" else
           ["--input=in", "--format", "ascii"])],
    )
] + [["random", "--window=-300,-260:-45,-5", "--density", "0.5", "--seed",
      "1", "--spacing", "5"]]
BAD_ARGVS = [
    argv for command in SUBCOMMANDS for argv in (
        [command, *_required(command), "--bogus"],
        [command, *_required(command), "stray"],
        [command, "--format", "json", *_required(command)],
        [command, "-h"],
    )
] + [
    argv for command, (_, _, ratio) in cli._COMMANDS.items() if ratio
    for argv in ([command], [command, "--ratio"], [command, "--ratio", "x"],
                 [command, "--ratio", "2", "--ratio"])
] + [
    ["random", "--window", "0,0:3,3", "--density", "0.5", "--seed", "x"],
    ["random", "--window", "-3,-3:0,0", "--density", "0.5", "--seed", "1"],
    ["render", "--unit", "x"],
    ["trace", "--", "x"],
    [], ["bogus"], ["--help"], ["-h", "trace"], ["--bogus", "trace"],
]


def _outcome(parse, argv, capsys):
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", GOOD_ARGVS, ids=" ".join)
def test_both_parsing_routes_give_one_namespace(argv, capsys):
    routed = _outcome(cli._parse_args, argv, capsys)
    full = _outcome(cli._build_parsers()[0].parse_args, argv, capsys)
    assert routed == full
    assert routed[0].command == argv[0]


@pytest.mark.parametrize("argv", BAD_ARGVS,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_both_parsing_routes_report_one_usage_error(argv, capsys):
    routed = _outcome(cli._parse_args, argv, capsys)
    full = _outcome(cli._build_parsers()[0].parse_args, argv, capsys)
    assert routed == full
    assert routed[0] == ("exit", 0 if {"-h", "--help"} & set(argv) else 2)
    assert (routed[1] + routed[2]).startswith("usage: gridpairs")
