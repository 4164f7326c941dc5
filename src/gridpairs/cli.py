"""Command-line front end.

Every subcommand is a thin adapter around one library call: it parses a
document from --input (default stdin), applies the operation, and writes
the result to --output (default stdout) in the requested format, by
default the input's.  Exit codes: 0 success, 1 validation failure, 2
usage, parse or I/O error, or a result that does not fit in memory.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Dict, Optional, Tuple

from . import formats
from .formats import ParseError
from .gridset import GridSet, Window, random_set
from .layers import trace
from .lifted import lift_interpolate, lift_restrict
from .pairs import BoundaryPair, InvalidPairError, reconstruct, validate
from .transfer import GridRatio, interpolate, restrict

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2

# The document subcommands: help text, input kind, and whether the
# command takes --ratio.  Each runs the operation imported above under
# its name, dashes read as underscores.  `_run` looks it up in this
# module when the request runs, so a wrapper set on that attribute, as
# gridbench/tracer.py sets, is the one called.
_COMMANDS = {
    "trace": ("boundary pair of a grid set", "grid set", False),
    "reconstruct": ("grid set behind a boundary pair", "grid pair", False),
    "validate": ("check the boundary-pair axioms", "grid pair", False),
    "restrict": ("project a fine grid set to the coarse grid", "grid set",
                 True),
    "interpolate": ("refine a coarse grid set to the fine grid", "grid set",
                    True),
    "lift-restrict": ("project a fine boundary pair to the coarse grid",
                      "grid pair", True),
    "lift-interpolate": ("refine a coarse boundary pair to the fine grid",
                         "grid pair", True),
}
_KINDS = {"grid set": GridSet, "grid pair": BoundaryPair}


def _read(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _parse_window(spec: str) -> Window:
    try:
        low, high = spec.split(":")
        lower = tuple(int(c) for c in low.split(","))
        upper = tuple(int(c) for c in high.split(","))
    except ValueError:
        raise ValueError(
            f"window {spec!r} is not of the form x0,y0,...:x1,y1,...")
    return Window(lower, upper)


@lru_cache(maxsize=None)
def _build_parsers() -> Tuple[argparse.ArgumentParser,
                              Dict[str, argparse.ArgumentParser]]:
    # The full parser, and each subcommand's own parser by name.
    parser = argparse.ArgumentParser(
        prog="gridpairs",
        description="Digital images on integer lattices: boundary pairs "
                    "and multiresolution transfer.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, _, ratio) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("-i", "--input", default=None,
                         help="input file (default: stdin)")
        cmd.add_argument("-o", "--output", default=None,
                         help="output file (default: stdout)")
        cmd.add_argument("--format", choices=formats.FORMATS, default=None,
                         help="output format (default: the input's)")
        if ratio:
            cmd.add_argument("--ratio", type=int, required=True,
                             help="coarse-to-fine grid ratio (n >= 2)")

    render_cmd = sub.add_parser("render", help="pretty goboard view")
    render_cmd.add_argument("-i", "--input", default=None)
    render_cmd.add_argument("-o", "--output", default=None)
    render_cmd.add_argument("--unit", type=int, default=None,
                            help="fine units per character "
                                 "(default: the grid spacing)")

    random_cmd = sub.add_parser("random", help="draw a random grid set")
    random_cmd.add_argument("-o", "--output", default=None)
    random_cmd.add_argument("--format", choices=formats.FORMATS,
                            default=formats.ASCII)
    random_cmd.add_argument("--window", required=True,
                            help="inclusive box, e.g. 0,0:15,15; a box "
                                 "whose lower corner starts with a minus "
                                 "sign is written with =, e.g. "
                                 "--window=-300,-260:-45,-5")
    random_cmd.add_argument("--density", type=float, required=True)
    random_cmd.add_argument("--seed", type=int, required=True)
    random_cmd.add_argument("--spacing", type=int, default=1)
    return parser, sub.choices


def _parse_args(argv: Optional[list]) -> argparse.Namespace:
    """The arguments as the full parser reads them.

    A known subcommand's arguments go straight to its own parser, the
    one the full parser hands them to, which saves the full parser's
    own pass.  When that parser leaves an argument over, or argv names
    no subcommand, the full parser reads argv and reports the error.
    """
    parser, commands = _build_parsers()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _run(args: argparse.Namespace) -> int:
    command = args.command

    if command == "random":
        window = _parse_window(args.window)
        formats.check_format(args.format, window.dim)
        result = random_set(window, args.density, args.seed, args.spacing)
        _write(args.output, formats.serialize(result, args.format))
        return EXIT_OK

    text = _read(args.input)
    doc = formats.parse_text(text)

    if command == "render":
        _write(args.output, formats.render(doc, args.unit))
        return EXIT_OK

    _, kind, ratio = _COMMANDS[command]
    if not isinstance(doc, _KINDS[kind]):
        raise ValueError(f"this command expects a {kind} document")
    if command != "validate":
        # the document parsed, so its first token is the header's kind
        fmt = args.format or (formats.COORDS
                              if text.lstrip().startswith("#coords")
                              else formats.ASCII)
        formats.check_format(fmt, doc.dim)
    operation = globals()[command.replace("-", "_")]
    result = operation(doc, GridRatio(args.ratio)) if ratio else operation(doc)

    if command == "validate":
        verdict = "valid" if result.valid else "INVALID"
        _write(args.output, result.describe() + f"\nresult: {verdict}\n")
        return EXIT_OK if result.valid else EXIT_INVALID

    _write(args.output, formats.serialize(result, fmt))
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    args = _parse_args(argv)
    try:
        return _run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidPairError as exc:
        print(f"invalid boundary pair:\n{exc.report.describe()}",
              file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory for this request", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
