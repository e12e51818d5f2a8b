"""Cavity-mediated superradiance from sequentially injected single atoms.

A beam of prepared two-level atoms crosses a lossy single-mode cavity one
atom at a time. Each transit applies a short resonant Jaynes-Cummings kick;
photon loss acts between transits. When the atoms share a phase reference,
their coherences add up in the field and the cavity output grows with the
square of the atom flux, even though the atoms never overlap.

The package covers four complementary calculations: closed-form limits
(analytic), coarse-grained master-equation steady states and transients
(steady), quantum-jump trajectories resolving individual transits
(trajectory), and collective-rate comparisons for bunched ensembles (dicke,
interaction). experiments and cli wire these into reproducible sweeps.
"""

from ._version import __version__
from .analytic import (
    beta_factors,
    coherent_alpha,
    dominance_threshold,
    emission_rate_per_atom,
    mean_n_noncollective,
    mean_n_total,
    n_eff,
    pn_random_phase,
    saturation_nc,
)
from .atom import AtomState, dephase, pair_correlation, prepare
from .dicke import (
    EnsembleSpec,
    brute_force_rate,
    decompose_product_state,
    dicke_rate,
    ensemble_rate,
)
from .errors import (
    CavsrError,
    ConvergenceError,
    DegenerateBranchError,
    DivergenceError,
    ResourceError,
    TruncationError,
)
from .experiments import (
    RunConfig,
    SweepResult,
    fit_loglog_slope,
    load_config,
    lossless_emission,
    predicted_alpha,
    preset,
    read_sweep,
    steady_distribution,
    sweep_atoms,
    sweep_pump,
    trajectory_config,
    trajectory_ensemble,
    transient_buildup,
    write_sweep,
)
from .hilbert import (
    FieldState,
    PureFieldState,
    apply_decay,
    coherent,
    coherent_amplitudes,
    fidelity_to_coherent,
    mean_photon,
    photon_distribution,
    vacuum,
)
from .interaction import (
    JointState,
    KickParams,
    bunched_mean_n,
    jc_kick,
    jc_kick_pure,
    kick_stencil,
    lossless_sequence,
    measure_atom,
    rabi_tables,
)
from .steady import (
    EvolveResult,
    MasterParams,
    build_generator,
    evolve,
    steady_state,
    steady_state_auto,
    suggest_n_max,
)
from .trajectory import (
    EnsembleResult,
    TrajectoryConfig,
    TrajectoryResult,
    run_ensemble,
    run_trajectory,
)

__all__ = [
    "__version__",
    # errors
    "CavsrError",
    "TruncationError",
    "ConvergenceError",
    "ResourceError",
    "DivergenceError",
    "DegenerateBranchError",
    # hilbert
    "FieldState",
    "PureFieldState",
    "vacuum",
    "coherent",
    "coherent_amplitudes",
    "mean_photon",
    "photon_distribution",
    "fidelity_to_coherent",
    "apply_decay",
    # atom
    "AtomState",
    "prepare",
    "dephase",
    "pair_correlation",
    # interaction
    "KickParams",
    "JointState",
    "rabi_tables",
    "kick_stencil",
    "jc_kick",
    "jc_kick_pure",
    "measure_atom",
    "lossless_sequence",
    "bunched_mean_n",
    # dicke
    "EnsembleSpec",
    "dicke_rate",
    "decompose_product_state",
    "ensemble_rate",
    "brute_force_rate",
    # analytic
    "pn_random_phase",
    "mean_n_noncollective",
    "coherent_alpha",
    "mean_n_total",
    "n_eff",
    "emission_rate_per_atom",
    "dominance_threshold",
    "saturation_nc",
    "beta_factors",
    # steady
    "MasterParams",
    "build_generator",
    "steady_state",
    "steady_state_auto",
    "suggest_n_max",
    "EvolveResult",
    "evolve",
    # trajectory
    "TrajectoryConfig",
    "TrajectoryResult",
    "EnsembleResult",
    "run_trajectory",
    "run_ensemble",
    # experiments
    "RunConfig",
    "SweepResult",
    "sweep_pump",
    "sweep_atoms",
    "fit_loglog_slope",
    "write_sweep",
    "read_sweep",
    "load_config",
    "trajectory_config",
    "steady_distribution",
    "lossless_emission",
    "transient_buildup",
    "trajectory_ensemble",
    "predicted_alpha",
    "preset",
]
