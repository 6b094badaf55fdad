"""Numerical laboratory for magnon counting with a dispersively coupled qubit.

The package simulates a transmon qubit that reads out the magnon occupation
of a coupled magnetostatic mode: spectroscopy, Ramsey, relaxation, and
magnon-decay tracking protocols produce shot-sampled datasets; estimators
turn them into calibrations, lifetimes, and magnon-number sensitivities; a
config-driven runner makes every run reproducible from a manifest.
"""

__version__ = "0.1.0"

from .analysis import (
    CalibrationResult,
    calibrate_magnon_number,
    dephasing_rate,
    linear_slope,
    magnon_dephasing_rate,
    snr,
    standard_error_of_mean,
    stark_shift,
)
from .config import (
    ExperimentConfig,
    from_resolved,
    load_config,
    parse_config,
    parse_quantity,
    resolved_hash,
)
from .errors import (
    BudgetError,
    CalibrationError,
    ConfigError,
    DegenerateDataError,
    EstimationError,
    FitRankError,
    HermiticityError,
    IntegrationError,
    MagsenseError,
    SchemaError,
    SpaceMismatchError,
    TruncationError,
    UnknownModeError,
    ValidityError,
)
from .fitting import (
    FitModel,
    FitResult,
    PolyInterpolant,
    fit_curve,
    fit_rows,
    interpolate_poly,
    unwrap_phases,
)
from .hamiltonians import (
    derived_chi_qm,
    dispersive_hamiltonian,
    full_hamiltonian,
    parametric_interaction,
)
from .lifetimes import (
    LifetimeEstimate,
    ParametricScanEstimate,
    extract_kappa_m_from_scan,
    lifetime_from_frequency,
    lifetime_from_phase,
    parametric_qubit_decay,
)
from .lindblad import CollapseTerm, Trajectory, evolve_lindblad
from .params import PumpSpec, SystemParams, gamma2_from_coherence
from .protocols import (
    ProtocolConfig,
    PulseSchedule,
    ScheduleElement,
    run_decay_phase_sense,
    run_decay_spectroscopy,
    run_parametric_decay_scan,
    run_qubit_spectroscopy,
    run_ramsey,
    run_relaxation,
)
from .readout import ReadoutModel, ShotRecord, fit_readout_histogram, sample_readout
from .runner import RunArtifact, load_artifact, read_report, run_experiment
from .sensitivity import (
    NoiseProfile,
    ResponseModel,
    SensingConfig,
    SensitivityCurve,
    build_response_model,
    fit_noise_profile,
    fit_power_spectra,
    qubit_response,
    sensitivity_curve,
    solve_sensitivity,
    threshold_for_budget,
)
from .spaces import (
    DensityMatrix,
    ModeSpace,
    Operator,
    build_mode_operators,
    coherent_state,
    expectation,
    expectation_real,
    fock_state,
    ket_state,
)
from .subsample import subsample_time_budget
from .sweep import Axis, SweepDataset, read_dataset, write_dataset
