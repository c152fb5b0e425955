"""Stochastic-mechanics toolkit for spin-1/2 particle ensembles.

Subpackages by concern:

* :mod:`spinmech.spin` -- two-level spin algebra and unitary evolution
* :mod:`spinmech.sde` -- Langevin drift specs, Euler-Maruyama ensembles,
  and the tail-window velocity estimator
* :mod:`spinmech.fokker_planck` -- conservative 1-D density solver
* :mod:`spinmech.stern_gerlach` -- spin-dependent beam deflection
* :mod:`spinmech.control` -- flatness-based open-loop velocity tracking
* :mod:`spinmech.scenarios` / :mod:`spinmech.cli` -- config-driven runs
"""

from .control import (
    ControlLaw,
    ReferenceTrajectory,
    TrackingReport,
    error_dynamics_fit,
    openloop_control,
    simulate_tracking,
)
from .errors import (
    FitWindowError,
    InvalidInputError,
    NumericalOverflowError,
    SpinmechError,
)
from .fokker_planck import (
    DensityField,
    Grid1D,
    fp_solve,
    fp_step,
    histogram_density,
    l1_distance,
)
from .scenarios import RunSummary, list_scenarios, parse_config, run_scenario
from .sde import (
    DriftSpec,
    MomentumEstimate,
    SdeConfig,
    TrajectoryBatch,
    drift_from_density,
    euler_maruyama_step,
    momentum_estimate,
    ou_analytic_moments,
    simulate_ensemble,
)
from .spin import (
    EnergyPair,
    SpinOperator,
    Spinor,
    energy_levels,
    equal_up_to_phase,
    evolve_spinor,
    measurement_probabilities,
    pauli,
    spin_hamiltonian,
)
from .stern_gerlach import (
    BeamConfig,
    PlateRecords,
    count_plate_modes,
    deflection,
    energy_transition,
    precess_moment,
    simulate_beam,
)

__version__ = "0.1.0"
