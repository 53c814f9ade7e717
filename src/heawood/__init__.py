"""Spin systems over GF(3) for counting Tait colorings of planar cubic graphs.

The package turns the faces of an embedded cubic graph into linear
equations over the three-element field, enumerates the everywhere-nonzero
solutions (Heawood vectors), converts them to and from explicit proper
3-edge-colorings, analyzes which vertex sets determine a solution, and
cross-checks every count against an independent brute-force oracle.
"""

from . import colorings, defining, errors, families, graphs, oracle, spins
from .colorings import *  # noqa: F403
from .defining import *  # noqa: F403
from .errors import *  # noqa: F403
from .families import *  # noqa: F403
from .graphs import *  # noqa: F403
from .oracle import *  # noqa: F403
from .spins import *  # noqa: F403

__version__ = "0.1.0"

# The submodules' public names, less the type aliases for edges and darts.
__all__ = [
    name
    for module in (colorings, defining, errors, families, graphs, oracle, spins)
    for name in module.__all__
    if name not in ("Edge", "Dart")
]
