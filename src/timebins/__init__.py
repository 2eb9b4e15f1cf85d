"""Collision-model laboratory for the quantum-optical master equation.

The package evolves a small quantum system colliding with a train of
coarse-grained waveguide time bins, extracts the Kraus operators of one
collision, and checks the emerging Markovian master equation against a
Lindblad reference integrator, closed-form solutions, an exact joint
system-plus-bins pure state, and an exact microscopic frequency-grid model.
"""

from .chain import (
    ChainState,
    FactorizationReport,
    factorization_report,
    init_chain,
    reduced_system,
    step_chain,
)
from .channel import (
    DensityMatrix,
    ExpansionReport,
    KrausFamily,
    apply_channel,
    expansion_report,
    extract_kraus,
    iterate_channel,
)
from .config import ConfigError, RunConfig, parse_config
from .errors import GuardError
from .experiments import fit_order, run_experiment
from .lindblad import LindbladModel, analytic_oracle, integrate_rk4
from .microscopic import (
    FrequencyGrid,
    build_microscopic,
    evolve_microscopic,
    fit_decay_rate,
)
from .model import (
    CoarseParams,
    SystemModel,
    bin_generator,
    coarse_map,
    dephasing_variant,
    lowering_matrix,
    ordering_residual,
    truncated_oscillator,
    two_level_system,
)
from .operators import (
    Operator,
    StateVector,
    basis_state,
    commutator,
    dagger,
    expm,
    identity,
    kron,
    partial_trace,
    vn_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "ChainState",
    "FactorizationReport",
    "factorization_report",
    "init_chain",
    "reduced_system",
    "step_chain",
    "DensityMatrix",
    "ExpansionReport",
    "KrausFamily",
    "apply_channel",
    "expansion_report",
    "extract_kraus",
    "iterate_channel",
    "ConfigError",
    "RunConfig",
    "parse_config",
    "GuardError",
    "fit_order",
    "run_experiment",
    "LindbladModel",
    "analytic_oracle",
    "integrate_rk4",
    "FrequencyGrid",
    "build_microscopic",
    "evolve_microscopic",
    "fit_decay_rate",
    "CoarseParams",
    "SystemModel",
    "bin_generator",
    "coarse_map",
    "dephasing_variant",
    "lowering_matrix",
    "ordering_residual",
    "truncated_oscillator",
    "two_level_system",
    "Operator",
    "StateVector",
    "basis_state",
    "commutator",
    "dagger",
    "expm",
    "identity",
    "kron",
    "partial_trace",
    "vn_entropy",
    "__version__",
]
