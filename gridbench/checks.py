"""Output checks: each operation against an independent route.

`check` runs once per distinct request, after the timed loop, on the
output the request produced.  It returns None when the output is right
and a one-line reason otherwise.  `sizes` reports what drives a
request's cost: |M|, |D0|+|D1| and the validation window's cells.
"""

from __future__ import annotations

from typing import Dict, Optional

from gridpairs import formats
from gridpairs.gridset import GridSet, Mode, window_of
from gridpairs.layers import boundary0, boundary1, trace
from gridpairs.lifted import lift_interpolate, lift_restrict
from gridpairs.oracle import Direction, lifted_via_full
from gridpairs.pairs import reconstruct
from gridpairs.transfer import GridRatio

from tracer import window_cells
from workloads import Request


def _with(gridset: GridSet, added=frozenset(), removed=frozenset()) -> GridSet:
    """The set with points added and removed, in either mode."""
    if gridset.mode is Mode.FINITE:
        points = (gridset.points | added) - removed
    else:
        points = (gridset.points - added) | removed
    return GridSet(gridset.dim, gridset.spacing, gridset.mode, points)


def layer_by_boundaries(gridset: GridSet, k: int) -> GridSet:
    """Layer k from the identities layer(M,1) = boundary1(M) and
    layer(M,0) = boundary0(M), applied to M dilated k-1 times (k >= 1)
    or eroded -k times (k <= 0) by one Moore step."""
    if k >= 1:
        for _ in range(k - 1):
            gridset = _with(gridset, added=boundary1(gridset).points)
        return boundary1(gridset)
    for _ in range(-k):
        gridset = _with(gridset, removed=boundary0(gridset).points)
    return boundary0(gridset)


# The full-set route that each lifted operator must agree with, and the
# lifted operator that each full-set transfer must agree with after trace.
_DIRECTION = {"lift-restrict": Direction.RESTRICT,
              "lift-interpolate": Direction.INTERPOLATE}
_LIFTED = {"restrict": lift_restrict, "interpolate": lift_interpolate}


def check(req: Request, in_text: str, out_text: str) -> Optional[str]:
    """None if `out_text` is the right output of `req` on `in_text`."""
    if req.op == "validate":
        verdict = "valid" if req.expect_exit == 0 else "INVALID"
        if not out_text.endswith(f"result: {verdict}\n"):
            return f"report does not end in 'result: {verdict}'"
        return None
    source = formats.parse_text(in_text)
    got = formats.parse_text(out_text)
    if req.op == "reconstruct":
        expected = req.source
    elif req.op == "trace":
        got, expected = reconstruct(got), source
    elif req.op in _DIRECTION:
        expected = lifted_via_full(source, GridRatio(req.param),
                                   _DIRECTION[req.op])
    elif req.op in _LIFTED:
        got = trace(got)
        expected = _LIFTED[req.op](trace(source), GridRatio(req.param))
    elif req.op == "layer":
        expected = layer_by_boundaries(source, req.param)
    else:
        return f"no check for operation {req.op!r}"
    if got != expected:
        return f"{req.op} output differs from the independent route"
    return None


def sizes(req: Request, in_text: str) -> Dict[str, object]:
    """|M| (stored points), its mode, |D0|+|D1| and window cells."""
    doc = formats.parse_text(in_text)
    gridset = req.source
    if isinstance(doc, GridSet):
        pair = trace(doc)
    else:
        pair = doc
        if gridset is None and req.expect_exit == 0:
            gridset = reconstruct(pair)
    cells = 0
    if not pair.is_empty:
        window = window_of(pair.d0 | pair.d1).inflate(pair.spacing)
        cells = window_cells(window, pair.spacing)
    return {
        "M": None if gridset is None else len(gridset.points),
        "mode": None if gridset is None else gridset.mode.value,
        "D": len(pair.d0) + len(pair.d1),
        "cells": cells,
    }
