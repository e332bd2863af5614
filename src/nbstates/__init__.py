"""Fock-space numerics for negative binomial states.

Construction of the state family and its relatives, closed-form photon
statistics with brute-force cross-checks, SU(1,1) structure, quadrature
squeezing scans, quasiprobability distributions on phase-space grids,
and the generation-scheme dynamics, all on adaptively truncated bases.
"""

__version__ = "0.1.0"

from . import dynamics, fock, phasespace, squeeze, states, stats, su11
from .dynamics import *
from .fock import *
from .phasespace import *
from .squeeze import *
from .states import *
from .stats import *
from .su11 import *

__all__ = sorted(
    dynamics.__all__ + fock.__all__ + phasespace.__all__ + squeeze.__all__
    + states.__all__ + stats.__all__ + su11.__all__
)
