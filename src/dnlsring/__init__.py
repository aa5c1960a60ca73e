"""Bifurcation analysis of periodic solutions for a ring of coupled
discrete nonlinear Schrodinger oscillators.

The library computes the rotating-wave equilibrium of the ring, the
closed-form spectral theory of its symmetry-adapted 2x2 blocks, the full
classification of forced bifurcation points for cubic, saturable and custom
potentials, and numerically verifies predicted branches with a Fourier
collocation Newton solver and pseudo-arclength continuation.
"""

from . import blocks, classify, model, orbits, symmetry
from .blocks import *  # noqa: F401,F403
from .classify import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .orbits import *  # noqa: F401,F403
from .symmetry import *  # noqa: F401,F403

# every layer's public names, each declared once in its own __all__
__all__ = [*model.__all__, *symmetry.__all__, *blocks.__all__, *classify.__all__,
           *orbits.__all__]

__version__ = "0.1.0"
