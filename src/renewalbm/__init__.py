"""Renewal-reward transport paths coupled to Brownian motion.

Builds piecewise-linear transport paths from renewal-reward processes,
embeds their increments into a single Brownian path via first-exit times,
and measures pathwise sup distances, their four-term decomposition, and
deviation rates across scales. Transport paths alone (transport_paths) are
the transport side of a coupling, drawn without exit times. The package root exports the names README documents;
everything else is imported from its submodule.
"""

from ._version import __version__
from .coupling import build_coupled_realization, decompose_sup, sup_distance, transport_paths
from .errors import ConsistencyError
from .exit_times import grid_exit
from .experiments import rate_scale
from .laws import deterministic, exponential, two_point, uniform01
from .transport import scaling_constants

__all__ = [
    "ConsistencyError",
    "build_coupled_realization",
    "decompose_sup",
    "deterministic",
    "exponential",
    "grid_exit",
    "rate_scale",
    "scaling_constants",
    "sup_distance",
    "transport_paths",
    "two_point",
    "uniform01",
]
