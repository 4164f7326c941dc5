"""The baseline rows of ROADMAP.md, timed in-process on seeded inputs.

Disk R=128: trace, validate, the lift_restrict core (validate excluded),
reconstruct, and restrict+trace at n=2; lift_interpolate against
interpolate+trace at n=4.  Random 128^2 at density 0.5: lift_restrict
against the full-set route reconstruct+restrict+trace at n=2.  Each row
is one timed call, scaled to the reference speed timed around it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Tuple

from gridpairs import lifted
from gridpairs.gridset import Window
from gridpairs.layers import trace
from gridpairs.lifted import lift_interpolate, lift_restrict
from gridpairs.oracle import random_set
from gridpairs.pairs import reconstruct, validate
from gridpairs.transfer import GridRatio, interpolate, restrict

from calibration import Speed
from tracer import Tracer
from workloads import disk


def _time_s(fn: Callable[[], object], speed: Speed) -> float:
    return speed.timed(fn)[2]


def _lift_restrict_s(pair, ratio: GridRatio,
                     speed: Speed) -> Tuple[float, float]:
    """lift_restrict's total time and its core, validate excluded."""
    tracer = Tracer()
    tracer.install()
    try:
        _, seconds, scaled = speed.timed(
            lambda: lifted.lift_restrict(pair, ratio))
    finally:
        tracer.uninstall()
    span = tracer.spans["lifted.lift_restrict"]
    factor = scaled / seconds
    return span.total_s * factor, span.self_s * factor


def probe(seed: int, smoke: bool,
          speed: Speed) -> Dict[str, Tuple[float, str]]:
    """Baseline rows by metric name, with units."""
    rng = random.Random(seed)
    radius, side = (12, 16) if smoke else (128, 128)
    shape = disk(radius, (rng.randint(-64, 64), rng.randint(-64, 64)))
    pair = trace(shape)
    two, four = GridRatio(2), GridRatio(4)
    coarse4 = restrict(shape, four)
    coarse4_pair = trace(coarse4)
    noise = random_set(Window((0, 0), (side - 1, side - 1)), 0.5,
                       rng.randrange(1 << 30))
    noise_pair = trace(noise)
    lift_s, core_s = _lift_restrict_s(pair, two, speed)
    rows = {
        "baseline.disk_r128.trace_s": _time_s(lambda: trace(shape), speed),
        "baseline.disk_r128.validate_s":
            _time_s(lambda: validate(pair), speed),
        "baseline.disk_r128.lift_restrict_s": lift_s,
        "baseline.disk_r128.lift_restrict_core_s": core_s,
        "baseline.disk_r128.reconstruct_s":
            _time_s(lambda: reconstruct(pair), speed),
        "baseline.disk_r128.restrict_trace_s":
            _time_s(lambda: trace(restrict(shape, two)), speed),
        "baseline.disk_r128.lift_interpolate_n4_s":
            _time_s(lambda: lift_interpolate(coarse4_pair, four), speed),
        "baseline.disk_r128.interpolate_trace_n4_s":
            _time_s(lambda: trace(interpolate(coarse4, four)), speed),
        "baseline.noise_128.lift_restrict_s":
            _time_s(lambda: lift_restrict(noise_pair, two), speed),
        "baseline.noise_128.fullset_route_s":
            _time_s(lambda: trace(restrict(reconstruct(noise_pair), two)),
                    speed),
    }
    return {name: (value, "s") for name, value in rows.items()}
