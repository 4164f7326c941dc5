"""Seeded, download-free inputs and request lists for the three workloads.

A request is one document transformed by one operation.  `build` draws
every document from the seed, writes the input files into a work
directory and returns the fixed request list of one pass.  Sizes are
fixed per workload and only the content depends on the seed, so two
seeds cost about the same.

`lift-interpolate` requests read the file that the `lift-restrict`
request before them in the same pass wrote, so they run on the coarse
result itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from gridpairs import formats
from gridpairs.gridset import GridSet, Window, complement
from gridpairs.layers import trace
from gridpairs.oracle import random_set
from gridpairs.pairs import BoundaryPair


@dataclass
class Request:
    """One timed operation: a CLI subcommand, or `layer` run in-process."""

    name: str
    doc: str
    op: str
    infile: str
    outfile: str
    fmt: str
    param: Optional[int] = None  # grid ratio n, or layer index k
    expect_exit: int = 0
    source: Optional[GridSet] = None  # the set the input was generated from


# Disk radii: thin boundaries, |D| much smaller than the area.  The last
# is the R=128 disk of the baseline table.  Every center moves by a
# seeded integer and a seeded fraction of a cell, so seeds give different
# digital disks at nearly equal cost.
DISK_RADII = (24, 28, 32, 36, 48, 128)
DISK_RATIOS = (2, 3, 4)

# Noise sets: (side, density); odd entries are complemented to cofinite.
# Three sets share the largest side, so that their lift-restrict
# requests, the heaviest of the workload, make a plateau around p95.
NOISE_SETS = ((96, 0.3), (112, 0.7), (112, 0.5), (128, 0.5), (128, 0.7),
              (128, 0.3))
NOISE_LAYERS = (-1, 3)

# Far clusters: (dim, spread, blob count, core side, fringe density,
# cofinite).  The spread puts about 50x or more window cells behind
# each boundary point.  Documents with equal parameters are translated
# copies of one draw and cost the same, so the reconstruct requests of
# the three 3-D documents make a plateau around p95.
FAR_DOCS = tuple(
    (2, (72, 80, 88)[i % 3], 2 + i // 2 % 2, 3, 0.3, i % 2 == 1)
    for i in range(7)
) + ((3, 14, 2, 2, 0.01, False),) * 3
FAR_RATIO = 2
# Planted invalid pairs: one D0 point and one D1 point this far apart.
FAR_INVALID_GAPS = {2: 40, 3: 10}

SMOKE = {
    "disk": (6, 8, 12),
    "noise": ((16, 0.5), (16, 0.5)),
    "far": ((2, 14, 2, 3, 0.3, True), (3, 8, 2, 2, 0.01, False)),
    "gaps": {2: 6, 3: 4},
}


def disk(radius: int, center: Tuple[int, int],
         offset: Tuple[float, float] = (0.0, 0.0)) -> GridSet:
    """Solid disk of the given radius around center + offset, where
    center is a grid point and each offset lies in [0, 1)."""
    cx, cy = center
    fx, fy = offset
    r2 = radius * radius
    return GridSet.finite(
        (cx + x, cy + y)
        for x in range(-radius, radius + 2)
        for y in range(-radius, radius + 2)
        if (x - fx) ** 2 + (y - fy) ** 2 <= r2)


def blobs(dim: int, spread: int, count: int, core: int, fringe: float,
          rng: random.Random) -> GridSet:
    """Small random blobs, the first two at opposite box corners.

    Each blob is a solid core^dim box with random fringe points around
    it.  Core corners have odd coordinates, so a core of side 3 holds
    the whole half-step ball of an even point, and restricting the
    complement by 2 leaves a nonempty coarse boundary pair.
    """
    points = set()
    for index in range(count):
        if index < 2:
            low = ((0, spread)[index] | 1,) * dim
        else:
            low = tuple(rng.randint(0, spread) | 1 for _ in range(dim))
        box = Window(low, tuple(c + core - 1 for c in low))
        points.update(box.grid_points(1))
        points |= random_set(box.inflate(1), fringe,
                             rng.randrange(1 << 30)).points
    return GridSet.finite(points, dim=dim)


def _write(work: Path, name: str, doc, fmt: str) -> str:
    (work / name).write_text(formats.serialize(doc, fmt), encoding="utf-8")
    return name


def _disk_lift(rng: random.Random, work: Path, smoke: bool) -> List[Request]:
    radii = SMOKE["disk"] if smoke else DISK_RADII
    requests = []
    for index, radius in enumerate(radii):
        center = (rng.randint(-64, 64), rng.randint(-64, 64))
        shape = disk(radius, center, (rng.random(), rng.random()))
        doc = f"disk{index}-r{radius}"
        pair = _write(work, f"{doc}.pair", trace(shape), formats.ASCII)
        requests.append(Request(f"{doc}/validate", doc, "validate", pair,
                                f"{doc}.report", formats.ASCII,
                                source=shape))
        for n in DISK_RATIOS:
            coarse = f"{doc}.n{n}.pair"
            requests.append(Request(f"{doc}/lift-restrict-n{n}", doc,
                                    "lift-restrict", pair, coarse,
                                    formats.ASCII, n, source=shape))
            requests.append(Request(f"{doc}/lift-interpolate-n{n}", doc,
                                    "lift-interpolate", coarse,
                                    f"{doc}.n{n}.fine.pair", formats.ASCII,
                                    n))
    return requests


def _noise_fullset(rng: random.Random, work: Path,
                   smoke: bool) -> List[Request]:
    sets = SMOKE["noise"] if smoke else NOISE_SETS
    a = formats.ASCII
    requests = []
    for index, (side, density) in enumerate(sets):
        cofinite = index % 2 == 1
        window = Window((0, 0), (side - 1, side - 1))
        shape = random_set(window, density, rng.randrange(1 << 30))
        coarse = random_set(window, density, rng.randrange(1 << 30), 3)
        if cofinite:
            shape, coarse = complement(shape), complement(coarse)
        doc = f"noise{index}-{side}-d{int(density * 10)}" + (
            "-co" if cofinite else "")
        grid = _write(work, f"{doc}.grid", shape, formats.ASCII)
        pair = _write(work, f"{doc}.pair", trace(shape), formats.ASCII)
        coarse_grid = _write(work, f"{doc}.s3.grid", coarse, formats.ASCII)
        requests += [
            Request(f"{doc}/trace", doc, "trace", grid, f"{doc}.trace", a,
                    source=shape),
            Request(f"{doc}/reconstruct", doc, "reconstruct", pair,
                    f"{doc}.recon", a, source=shape),
            Request(f"{doc}/restrict-n2", doc, "restrict", grid,
                    f"{doc}.restrict", a, 2, source=shape),
            Request(f"{doc}/interpolate-n3", doc, "interpolate", coarse_grid,
                    f"{doc}.interp", a, 3, source=coarse),
            Request(f"{doc}/lift-restrict-n2", doc, "lift-restrict", pair,
                    f"{doc}.lift", a, 2, source=shape),
        ]
        requests += [
            Request(f"{doc}/layer-k{k}", doc, "layer", grid,
                    f"{doc}.layer{k}", a, k, source=shape)
            for k in NOISE_LAYERS
        ]
    return requests


def _far_clusters(rng: random.Random, work: Path,
                  smoke: bool) -> List[Request]:
    docs = SMOKE["far"] if smoke else FAR_DOCS
    c = formats.COORDS
    requests = []
    n = FAR_RATIO
    drawn = {}
    for index, spec in enumerate(docs):
        dim, spread, count, core, fringe, cofinite = spec
        if spec not in drawn:
            drawn[spec] = blobs(dim, spread, count, core, fringe, rng)
        shift = 2 * (spread + core) * index
        shape = GridSet.finite((tuple(c + shift for c in p)
                                for p in drawn[spec].points), dim=dim)
        if cofinite:
            shape = complement(shape)
        doc = f"far{index}-{dim}d-s{spread}" + ("-co" if cofinite else "")
        pair = _write(work, f"{doc}.pair", trace(shape), c)
        coarse = f"{doc}.n{n}.pair"
        requests += [
            Request(f"{doc}/validate", doc, "validate", pair,
                    f"{doc}.report", c, source=shape),
            Request(f"{doc}/reconstruct", doc, "reconstruct", pair,
                    f"{doc}.recon", c, source=shape),
            Request(f"{doc}/lift-restrict-n{n}", doc, "lift-restrict", pair,
                    coarse, c, n, source=shape),
            Request(f"{doc}/lift-interpolate-n{n}", doc, "lift-interpolate",
                    coarse, f"{doc}.n{n}.fine.pair", c, n),
        ]
    gaps = SMOKE["gaps"] if smoke else FAR_INVALID_GAPS
    for dim, gap in gaps.items():
        gap += rng.randint(0, 3)
        invalid = BoundaryPair.of([(0,) * dim], [(gap,) * dim])
        doc = f"invalid-{dim}d-gap{gap}"
        pair = _write(work, f"{doc}.pair", invalid, c)
        requests.append(Request(f"{doc}/validate", doc, "validate", pair,
                                f"{doc}.report", c, expect_exit=1))
    return requests


_BUILDERS = {
    "disk-lift": _disk_lift,
    "noise-fullset": _noise_fullset,
    "far-clusters": _far_clusters,
}


def build(workload: str, seed: int, work: Path,
          smoke: bool = False) -> List[Request]:
    """Write the workload's input files into `work`; return one pass."""
    return _BUILDERS[workload](random.Random(seed), work, smoke)
