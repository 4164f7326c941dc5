"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` wraps each layer's public functions at every name the
program's modules look them up by (`gridpairs.cli.lift_restrict`,
`gridpairs.lifted.validate`, `gridpairs.pairs.components_within`, ...),
so nested calls give self times and no file of the program changes.
`uninstall` puts the originals back.  A function that no longer exists
is reported as absent rather than as zero time, and so is a count whose
hook no longer fits the function's arguments.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

PACKAGE = "gridpairs"

SPANS = (
    "cli.main",
    "formats.parse_text",
    "formats.serialize",
    "pairs.validate",
    "pairs.reconstruct",
    "gridset.components_within",
    "gridset.distance_map",
    "layers.trace",
    "layers.layer",
    "transfer.restrict",
    "transfer.interpolate",
    "lifted.lift_restrict",
    "lifted.lift_interpolate",
)

LIFTS = ("lifted.lift_restrict", "lifted.lift_interpolate")


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def window_cells(window, spacing: int) -> int:
    """Grid points of the given spacing inside an inclusive box."""
    cells = 1
    for lo, hi in zip(window.lower, window.upper):
        cells *= max(0, hi // spacing + (-lo) // spacing + 1)
    return cells


class Tracer:
    """Aggregated spans and counts over the calls made while installed."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {name: Span() for name in SPANS}
        self.counts: Counter = Counter()
        self.absent: set = set()
        self._stack: List[list] = []  # [span name, time in child spans]
        self._patched: List[Tuple[object, str, object]] = []
        self._hooks: Dict[str, Callable] = {
            "formats.parse_text": self._parse_text,
            "formats.serialize": self._serialize,
            "pairs.validate": self._validate,
            "gridset.components_within": self._components_within,
            "gridset.distance_map": self._distance_map,
        }

    def install(self) -> None:
        modules = [module for name, module in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for name in SPANS:
            module_name, func_name = name.split(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, original: Callable) -> Callable:
        span = self.spans[name]
        stack = self._stack
        hook = self._hooks.get(name)
        signature = inspect.signature(original) if hook else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    hook(bound, result, elapsed)
                except (KeyError, TypeError, AttributeError):
                    self.absent.add(f"{name}.counts")
            return result

        return wrapper

    def _inside(self, *names: str) -> bool:
        return any(frame[0] in names for frame in self._stack)

    def _parse_text(self, args, result, elapsed) -> None:
        self.counts["formats.bytes_in"] += len(args["text"])

    def _serialize(self, args, result, elapsed) -> None:
        self.counts["formats.bytes_out"] += len(result)

    def _validate(self, args, result, elapsed) -> None:
        if self._inside(*LIFTS):
            self.counts["lifted.validate_in_lift_s"] += elapsed

    def _components_within(self, args, result, elapsed) -> None:
        self.counts["gridset.components_within.cells"] += window_cells(
            args["window"], args["spacing"])
        self.counts["gridset.components_within.boundary_pts"] += (
            len(args["d0"]) + len(args["d1"]))
        self.counts["gridset.components_within.components"] += len(result)
        if self._inside("pairs.reconstruct"):
            self.counts["gridset.components_within.in_reconstruct"] += 1

    def _distance_map(self, args, result, elapsed) -> None:
        self.counts["gridset.distance_map.settled"] += len(result)


def layer_metrics(tracer: Tracer, passes: int, requests: int,
                  time_scale: float) -> Dict[str, Tuple[float, str]]:
    """Per-pass figures by metric name, with units; absent ones omitted.

    `passes` traced passes ran `requests` requests in all; span times
    are multiplied by `time_scale`.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    for name, span in tracer.spans.items():
        if name in tracer.absent:
            continue
        metrics[f"{name}.calls"] = (span.calls / passes, "count")
        metrics[f"{name}.total_s"] = (
            span.total_s * time_scale / passes, "s")
        metrics[f"{name}.self_s"] = (span.self_s * time_scale / passes, "s")

    counts = tracer.counts
    spans = tracer.spans

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    derived = {
        "formats.bytes_in": (
            "formats.parse_text", counts["formats.bytes_in"] / passes,
            "bytes"),
        "formats.bytes_out": (
            "formats.serialize", counts["formats.bytes_out"] / passes,
            "bytes"),
        "gridset.components_within.cells": (
            "gridset.components_within",
            counts["gridset.components_within.cells"] / passes, "count"),
        "gridset.components_within.components": (
            "gridset.components_within",
            counts["gridset.components_within.components"] / passes,
            "count"),
        "gridset.cells_per_boundary_pt": (
            "gridset.components_within",
            ratio(counts["gridset.components_within.cells"],
                  counts["gridset.components_within.boundary_pts"]),
            "ratio"),
        "gridset.components_within.per_reconstruct": (
            "gridset.components_within",
            ratio(counts["gridset.components_within.in_reconstruct"],
                  spans["pairs.reconstruct"].calls),
            "count"),
        "gridset.distance_map.settled": (
            "gridset.distance_map",
            counts["gridset.distance_map.settled"] / passes, "count"),
        "pairs.validate.per_req": (
            "pairs.validate",
            ratio(spans["pairs.validate"].calls, requests), "count"),
        "lifted.validate_share": (
            "pairs.validate",
            ratio(counts["lifted.validate_in_lift_s"],
                  sum(spans[name].total_s for name in LIFTS)),
            "ratio"),
    }
    for name, (span_name, value, unit) in derived.items():
        if span_name in tracer.absent or f"{span_name}.counts" in tracer.absent:
            continue
        metrics[name] = (value, unit)
    return metrics
