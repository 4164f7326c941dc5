"""Paths on a grid and the canonical straight path between two points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .geometry import Point, check_on_grid, chebyshev, rd


@dataclass(frozen=True)
class Path:
    """A sequence of grid points with steps of at most one spacing.

    Steps of size zero are allowed, so nodes may repeat.  The length of
    a path is its node count minus one.
    """

    spacing: int
    nodes: Tuple[Point, ...]

    def __post_init__(self) -> None:
        if self.spacing < 1:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if not self.nodes:
            raise ValueError("a path needs at least one node")
        check_on_grid(self.nodes, len(self.nodes[0]), self.spacing, "node")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if chebyshev(a, b) > self.spacing:
                raise ValueError(f"step {a} -> {b} exceeds one grid step")

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    @property
    def start(self) -> Point:
        return self.nodes[0]

    @property
    def end(self) -> Point:
        return self.nodes[-1]


def concatenate(first: Path, second: Path) -> Path:
    """Join two paths; the first must end where the second starts."""
    if first.spacing != second.spacing:
        raise ValueError("cannot concatenate paths with different spacings")
    if first.end != second.start:
        raise ValueError(
            f"endpoint mismatch: {first.end} vs {second.start}")
    return Path(first.spacing, first.nodes + second.nodes[1:])


def straight_path(x: Point, z: Point, spacing: int) -> Path:
    """The digital straight segment from x to z.

    Node l is the componentwise rounding of the affine interpolation
    ((k-l)*x + l*z) / k with k = chebyshev(x, z) / spacing, computed in
    exact rational arithmetic.  Consecutive nodes are exactly one step
    apart, and node l sits at distance l steps from x and k - l steps
    from z.
    """
    if spacing < 1:
        raise ValueError(f"spacing must be positive, got {spacing}")
    check_on_grid((x, z), len(x), spacing)
    if x == z:
        return Path(spacing, (tuple(x),))
    k = chebyshev(x, z) // spacing
    nodes = []
    for step in range(k + 1):
        nodes.append(tuple(
            rd((k - step) * xj + step * zj, k * spacing) * spacing
            for xj, zj in zip(x, z)
        ))
    return Path(spacing, tuple(nodes))
