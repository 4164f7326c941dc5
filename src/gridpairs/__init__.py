"""Digital images on integer lattices and their boundary pairs.

The library represents subsets of grids s * Z^m exactly (finite or
cofinite point sets), extracts and validates boundary pairs, reconstructs
sets from their boundary pairs, transfers sets between nested grids with
the restriction and interpolation operators, and transfers boundary
pairs directly with the lifted variants of these operators.
"""

from .geometry import Point
from .gridset import (
    GridSet,
    Mode,
    Window,
    complement,
    member,
)
from .layers import boundary0, boundary1, layer, trace
from .lifted import lift_interpolate, lift_restrict
from .pairs import (
    AxiomCheck,
    AxiomReport,
    BoundaryPair,
    InvalidPairError,
    reconstruct,
    validate,
)
from .transfer import GridRatio, interpolate, restrict

__version__ = "0.1.0"

__all__ = [
    "Point",
    "GridSet",
    "Mode",
    "Window",
    "complement",
    "member",
    "boundary0",
    "boundary1",
    "layer",
    "trace",
    "lift_interpolate",
    "lift_restrict",
    "AxiomCheck",
    "AxiomReport",
    "BoundaryPair",
    "InvalidPairError",
    "reconstruct",
    "validate",
    "GridRatio",
    "interpolate",
    "restrict",
    "__version__",
]
