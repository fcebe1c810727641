"""Renewal-reward transport paths coupled to Brownian motion.

Builds piecewise-linear transport paths from renewal-reward processes,
embeds their increments into a single Brownian path via first-exit times,
and measures pathwise sup distances, their four-term decomposition, and
deviation rates across scales. The package root exports the names README
documents; everything else is imported from its submodule.
"""

from ._version import __version__
from .coupling import build_coupled_realization, decompose_sup, sup_distance
from .errors import ConsistencyError
from .exit_times import grid_exit
from .experiments import rate_scale
from .laws import deterministic, exponential, two_point, uniform01
from .transport import build_transport_path, sample_renewal_path, scaling_constants

__all__ = [
    "ConsistencyError",
    "build_coupled_realization",
    "build_transport_path",
    "decompose_sup",
    "deterministic",
    "exponential",
    "grid_exit",
    "rate_scale",
    "sample_renewal_path",
    "scaling_constants",
    "sup_distance",
    "two_point",
    "uniform01",
]
