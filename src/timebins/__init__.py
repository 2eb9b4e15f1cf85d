"""Collision-model laboratory for the quantum-optical master equation.

The package evolves a small quantum system colliding with a train of
coarse-grained waveguide time bins, extracts the Kraus operators of one
collision, and checks the emerging Markovian master equation against a
Lindblad reference integrator, closed-form solutions, an exact joint
system-plus-bins pure state, and an exact microscopic frequency-grid model.
"""

from . import chain, channel, config, errors, experiments, lindblad, microscopic, model, operators
from .chain import *
from .channel import *
from .config import *
from .errors import *
from .experiments import *
from .lindblad import *
from .microscopic import *
from .model import *
from .operators import *

__version__ = "0.1.0"

# the package exports every library module's __all__ (all but the cli driver)
_LIBRARY = (chain, channel, config, errors, experiments, lindblad, microscopic, model, operators)
__all__ = [name for module in _LIBRARY for name in module.__all__] + ["__version__"]
