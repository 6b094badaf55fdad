"""Pulse-sequence protocol simulations producing shot-sampled sweep datasets.

Protocols with large magnon occupations (spectroscopy, Ramsey, decay
tracking) are semiclassical: the magnon mode carries a deterministic mean
occupation n(t), the qubit line shifts by chi_qm * n, and magnon shot noise
enters as the dephasing rate from the analysis module. The parametric
conversion scan is the exception: it runs the full Lindblad evolution of the
exchange Hamiltonian with magnon and qubit collapse.

Every protocol samples its whole grid in one draw, reproducibly. A grid
whose shots are kept draws them in one ``readout.sample_grid`` pass, each
point from its own readout stream, seeded by (master seed, protocol tag,
flat point index) as ``sweep.point_seed`` spells it, so its shots are
independent of evaluation order. Any other grid draws its click counts
from their binomial law in one ``readout.sample_clicks`` call on the stream
``sweep.stream_seed(master seed, protocol tag)``. Every protocol returns
through ``_dataset``: a shot lasts the sequence before
readout, plus the readout window, plus the dead time, every dataset
records the master seed and readout threshold, and a true probability
clipped into [0, 1] is named in a dataset warning.

Every run function takes the device, then its leading argument if it has
one, then its grids in axis order, then its ``ProtocolConfig``.
``PROTOCOLS`` declares each kind's run function, its grids in axis order,
the default of a grid it may leave out, its leading argument (n0 or the
pump), and the pump fields it reads. Config parsing, the runner's one call
per protocol block, the dataset axes ``_dataset`` builds and the
estimators' input check (``require_protocol``) all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import dephasing_rate, magnon_dephasing_rate, stark_shift
from .errors import EstimationError
from .hamiltonians import parametric_interaction
from .lindblad import CollapseTerm, evolve_lindblad
from .params import PumpSpec, SystemParams
# sample_readout is not called here; the benchmark's tracer wraps it under
# this name (perfbench/layers.py, Tracer.install), so the name stays bound
from .readout import (  # noqa: F401
    ReadoutModel,
    click_estimates,
    sample_clicks,
    sample_grid,
    sample_readout,
)
from .spaces import ModeSpace, build_mode_operators, fock_state
from .sweep import Axis, SweepDataset, stream_seed

# probe bandwidth for a pulse of duration t is 1/t (rad/s)
DEFAULT_PROBE_DURATION = 1.0 / (2.0 * math.pi * 1.0e6)
# points of the relaxation scan when no delay grid is given
DEFAULT_RELAXATION_POINTS = 20
# fringe phase between adjacent decay-phase sense times above which the
# signal is flagged as blurred out, rad
BLUR_PHASE_LIMIT = math.pi

# protocol grid key -> (dataset axis that samples it, axis unit, config quantity)
GRIDS = {
    "pump_powers": ("pump_power", "W", "power"),
    "probe_freqs": ("probe_frequency", "rad/s", "frequency"),
    "delays": ("delay", "s", "time"),
    "sense_times": ("sense_time", "s", "time"),
    "second_pulse_phases": ("second_pulse_phase", "rad", "angle"),
    "deltas": ("pump_detuning", "rad/s", "frequency"),
    "durations": ("pump_duration", "s", "time"),
}


def relaxation_delays(params: SystemParams) -> np.ndarray:
    """The default relaxation grid: DEFAULT_RELAXATION_POINTS delays over [0, 4 T1]."""
    if math.isinf(params.t1):
        raise ValueError("relaxation scan needs an explicit grid for infinite T1")
    return np.linspace(0.0, 4.0 * params.t1, DEFAULT_RELAXATION_POINTS)


def require_protocol(dataset: SweepDataset, kind: str) -> None:
    """Raise ``EstimationError`` unless ``dataset`` is a ``kind`` dataset.

    Its axes must be the ones ``PROTOCOLS`` and ``GRIDS`` give the kind, in
    order.
    """
    if dataset.protocol != kind:
        raise EstimationError(f"expected a {kind} dataset, got {dataset.protocol!r}")
    axes = tuple(GRIDS[key][0] for key in PROTOCOLS[kind][1])
    names = tuple(axis.name for axis in dataset.axes)
    if names != axes:
        raise EstimationError(f"expected axes {axes}, got {names}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Shared knobs for all protocol simulations; durations are in seconds."""

    readout: ReadoutModel
    n_shots: int = 400
    master_seed: int = 1
    mode: str = "shots"  # "shots" samples the readout; "expectation" records p_e
    keep_shots: bool = False
    pump: PumpSpec = field(default_factory=PumpSpec)
    probe_duration: float = DEFAULT_PROBE_DURATION
    probe_amplitude: float = 0.9  # peak excitation of a resonant probe pulse
    pi_duration: float = 32e-9
    half_pi_duration: float = 16e-9
    artificial_detuning: float = 0.0  # rad/s, Ramsey fringe detuning
    dead_time: float = 0.0  # reset/settle time appended to each sequence

    def __post_init__(self) -> None:
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if self.mode not in ("shots", "expectation"):
            raise ValueError("mode must be 'shots' or 'expectation'")
        if self.probe_duration <= 0:
            raise ValueError("probe_duration must be > 0")
        if not 0.0 < self.probe_amplitude <= 1.0:
            raise ValueError("probe_amplitude must lie in (0, 1]")
        for name in ("pi_duration", "half_pi_duration", "dead_time"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def probe_sigma(self) -> float:
        """Probe pulse spectral width, rad/s."""
        return 1.0 / self.probe_duration


def _measure_grid(
    p_true: np.ndarray,
    config: ProtocolConfig,
    tag: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Sample (or pass through) true excited-state probabilities on a grid.

    Without ``keep_shots``, one ``sample_clicks`` call draws every point's
    clicks from their binomial law on the stream of
    ``stream_seed(master_seed, tag)``: no shot is drawn. With
    ``keep_shots``, one ``sample_grid`` call draws every point's voltages,
    each from the stream of its ``point_seed(master_seed, tag, flat index)``,
    and they are returned as a (grid, shots) array. The fractions and their
    errors follow from the click counts.
    """
    shape = p_true.shape
    flat = np.clip(p_true.reshape(-1), 0.0, 1.0)
    if config.mode == "expectation":
        return flat.reshape(shape), np.zeros(shape), None

    n_shots = config.n_shots
    stream = stream_seed(config.master_seed, tag)
    shots = None
    if config.keep_shots:
        clicks, shots = sample_grid(flat, config.readout, n_shots, stream)
        shots = shots.reshape(shape + (n_shots,))
    else:
        clicks = sample_clicks(flat, config.readout, n_shots, stream)
    p_hat, stderr = click_estimates(clicks, n_shots)
    return p_hat.reshape(shape), stderr.reshape(shape), shots


def _clip_warnings(p_true: np.ndarray) -> tuple:
    """A warning that counts the probabilities outside [0, 1], if any."""
    excursion = np.maximum(p_true - 1.0, -p_true)
    clipped = int(np.count_nonzero(excursion > 0))
    if not clipped:
        return ()
    return (
        f"{clipped} of {excursion.size} true probabilities lie outside [0, 1] and "
        f"were clipped; largest excursion {float(np.max(excursion)):.3g}",
    )


def _dataset(config, protocol, grids, p_true, sequence, meta=None, warnings=()):
    """Measure ``p_true`` on ``grids`` into the dataset of ``protocol``.

    ``grids`` holds the protocol's grid values in ``PROTOCOLS`` order, and
    the dataset's axes sample them. A shot lasts ``sequence`` (the pulses
    before readout), plus the readout window, plus the dead time. The
    master seed and readout threshold lead the protocol's own ``meta``. A
    probability clipped into [0, 1] adds a warning.
    """
    p_hat, stderr, shots = _measure_grid(p_true, config, protocol)
    return SweepDataset(
        axes=tuple(
            Axis(GRIDS[key][0], GRIDS[key][1], grid)
            for key, grid in zip(PROTOCOLS[protocol][1], grids, strict=True)
        ),
        p_e=p_hat,
        stderr=stderr,
        n_shots=config.n_shots,
        shot_duration=sequence + config.readout.window + config.dead_time,
        protocol=protocol,
        shots=shots,
        meta={
            "master_seed": config.master_seed,
            "readout_threshold": config.readout.threshold,
            **(meta or {}),
        },
        warnings=tuple(warnings) + _clip_warnings(p_true),
    )


def _line_width(params: SystemParams, config: ProtocolConfig, n_mean: float, extra: float = 0.0) -> float:
    """Spectral width: probe bandwidth, dephasing, and optional blur in quadrature."""
    gamma = dephasing_rate(n_mean, params)
    return math.sqrt(config.probe_sigma**2 + gamma**2 + extra**2)


def _spectroscopy_response(
    params: SystemParams,
    config: ProtocolConfig,
    probe: np.ndarray,
    n_mean: float,
    extra_width: float = 0.0,
) -> np.ndarray:
    """Excited-state probability vs probe frequency for one magnon occupation."""
    center = params.omega_q + stark_shift(n_mean, params.chi_qm)
    sigma = _line_width(params, config, n_mean, extra_width)
    peak = config.probe_amplitude * config.probe_sigma / sigma
    return peak * np.exp(-0.5 * ((probe - center) / sigma) ** 2)


def run_qubit_spectroscopy(
    params: SystemParams,
    pump_powers: np.ndarray,
    probe_freqs: np.ndarray,
    config: ProtocolConfig,
) -> SweepDataset:
    """Qubit line versus magnon pump power.

    Each pump power drives the magnon mode to its steady occupation
    n = c_pump * P; the qubit line shifts by chi_qm * n and broadens by the
    total dephasing rate. A warning is attached when the probe grid fails to
    cover the expected shifted lines with a two-sigma margin.
    """
    pump_powers = np.atleast_1d(np.asarray(pump_powers, dtype=float))
    probe_freqs = np.atleast_1d(np.asarray(probe_freqs, dtype=float))
    warnings = []
    n_max = config.pump.c_pump * float(np.max(pump_powers))
    lo, hi = np.min(probe_freqs), np.max(probe_freqs)
    for n_edge in (0.0, n_max):
        center = params.omega_q + stark_shift(n_edge, params.chi_qm)
        sigma = _line_width(params, config, n_edge)
        if center - 2.0 * sigma < lo or center + 2.0 * sigma > hi:
            warnings.append(
                f"probe grid does not cover the line at n = {n_edge:.6g} "
                "with a 2-sigma margin"
            )
            break
    p_true = np.empty((len(pump_powers), len(probe_freqs)))
    for i, power in enumerate(pump_powers):
        n_mean = config.pump.c_pump * power
        p_true[i] = _spectroscopy_response(params, config, probe_freqs, n_mean)
    return _dataset(
        config,
        "spectroscopy",
        (pump_powers, probe_freqs),
        p_true,
        config.probe_duration,
        {
            "c_pump": config.pump.c_pump,
            "probe_sigma": config.probe_sigma,
            "probe_amplitude": config.probe_amplitude,
        },
        warnings,
    )


def _ramsey_fringe(
    params: SystemParams, config: ProtocolConfig, n_mean: float, delays: np.ndarray
) -> tuple[np.ndarray, float]:
    """The Ramsey fringe P_e(delays) at magnon occupation n_mean, and its envelope rate."""
    detuning = config.artificial_detuning + stark_shift(n_mean, params.chi_qm)
    relax = 0.0 if math.isinf(params.t1) else 0.5 / params.t1
    envelope_rate = relax + dephasing_rate(n_mean, params)
    contrast = np.exp(-delays * envelope_rate)
    return 0.5 + 0.5 * contrast * np.cos(detuning * delays), envelope_rate


def run_ramsey(
    params: SystemParams,
    delays: np.ndarray,
    config: ProtocolConfig,
) -> SweepDataset:
    """Ramsey fringes with the config's magnon pump on during the evolution time.

    The fringe frequency is the artificial detuning plus the Stark shift
    chi_qm * n; the envelope decays at 1/(2 T1) + gamma_2^0 plus the
    magnon-induced dephasing, i.e. at 1/T2R for pump off.
    """
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    n_mean = config.pump.n_mean
    p_true, envelope_rate = _ramsey_fringe(params, config, n_mean, delays)
    return _dataset(
        config,
        "ramsey",
        (delays,),
        p_true,
        2 * config.half_pi_duration + float(np.max(delays)),
        {
            "n_mean": n_mean,
            "artificial_detuning": config.artificial_detuning,
            "envelope_rate": envelope_rate,
        },
    )


def run_ramsey_series(
    params: SystemParams,
    pump_powers: np.ndarray,
    delays: np.ndarray,
    config: ProtocolConfig,
) -> SweepDataset:
    """Ramsey fringes versus magnon pump power.

    Row i is ``run_ramsey``'s fringe with the pump at power P_i, i.e. the
    magnon mode at its steady occupation n = c_pump * P_i.
    """
    pump_powers = np.atleast_1d(np.asarray(pump_powers, dtype=float))
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    p_true = np.empty((len(pump_powers), len(delays)))
    for i, power in enumerate(pump_powers):
        n_mean = config.pump.c_pump * power
        p_true[i] = _ramsey_fringe(params, config, n_mean, delays)[0]
    return _dataset(
        config,
        "ramsey-series",
        (pump_powers, delays),
        p_true,
        2 * config.half_pi_duration + float(np.max(delays)),
        {"c_pump": config.pump.c_pump, "artificial_detuning": config.artificial_detuning},
    )


def run_relaxation(
    params: SystemParams,
    delays: np.ndarray,
    config: ProtocolConfig,
) -> SweepDataset:
    """Excited-state decay P_e(t) = exp(-t/T1) after a pi pulse."""
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    p_true = np.ones_like(delays) if math.isinf(params.t1) else np.exp(-delays / params.t1)
    return _dataset(
        config,
        "relaxation",
        (delays,),
        p_true,
        config.pi_duration + float(np.max(delays)),
    )


def _decayed_phase(params: SystemParams, n0: float, t: np.ndarray) -> np.ndarray:
    """Ramsey phase accumulated over [0, t] while n(t) = n0 exp(-kappa t)."""
    kappa = params.kappa_m
    return params.chi_qm * n0 * -np.expm1(-kappa * t) / kappa


def run_decay_phase_sense(
    params: SystemParams,
    n0: float,
    sense_times: np.ndarray,
    second_pulse_phases: np.ndarray,
    config: ProtocolConfig,
) -> SweepDataset:
    """Ramsey fringes versus second-pulse phase during magnon decay.

    The first pi/2 pulse coincides with the magnon preparation; the second
    comes at the sense time t with swept phase theta, so the fringe is
    0.5 + 0.5 C(t) cos(phi(t) - theta) with phi(t) =
    chi_qm n0 (1 - exp(-kappa_m t))/kappa_m. The contrast loses the bare
    Ramsey decay plus the integrated magnon dephasing.
    """
    if n0 < 0:
        raise ValueError("initial magnon number must be >= 0")
    sense_times = np.atleast_1d(np.asarray(sense_times, dtype=float))
    phases = np.atleast_1d(np.asarray(second_pulse_phases, dtype=float))
    warnings = []
    if n0 > 0 and len(sense_times) > 1:
        step = float(np.min(np.diff(np.sort(sense_times))))
        max_phase_step = abs(params.chi_qm) * n0 * step
        if max_phase_step > BLUR_PHASE_LIMIT:
            warnings.append(
                f"adjacent sense times advance the fringe phase by up to "
                f"{max_phase_step:.3g} rad > {BLUR_PHASE_LIMIT:.3g} rad; "
                "the signal blurs out"
            )
    phi = _decayed_phase(params, n0, sense_times)
    kappa = params.kappa_m
    deph_integral = (
        magnon_dephasing_rate(1.0, params) * n0 * -np.expm1(-kappa * sense_times) / kappa
    )
    relax = 0.0 if math.isinf(params.t1) else 0.5 / params.t1
    contrast = np.exp(-(relax + params.gamma2_0) * sense_times - deph_integral)
    p_true = 0.5 + 0.5 * contrast[:, None] * np.cos(phi[:, None] - phases[None, :])
    return _dataset(
        config,
        "decay-phase",
        (sense_times, phases),
        p_true,
        2 * config.half_pi_duration + float(np.max(sense_times)),
        {"n0": n0, "phase_asymptote": float(params.chi_qm * n0 / kappa)},
        warnings,
    )


def run_decay_spectroscopy(
    params: SystemParams,
    n0: float,
    sense_times: np.ndarray,
    probe_freqs: np.ndarray,
    config: ProtocolConfig,
) -> SweepDataset:
    """Qubit spectra probed at sense times during magnon decay.

    The probe pulse of duration t_p sees the window-averaged occupation, so
    the peak sits at omega_q + chi_qm n0 e^(-kappa t) (1 - e^(-kappa t_p))
    /(kappa t_p); the frequency excursion across the window adds blur to the
    line width.
    """
    if n0 < 0:
        raise ValueError("initial magnon number must be >= 0")
    sense_times = np.atleast_1d(np.asarray(sense_times, dtype=float))
    probe_freqs = np.atleast_1d(np.asarray(probe_freqs, dtype=float))
    kappa = params.kappa_m
    t_p = config.probe_duration
    window_factor = -math.expm1(-kappa * t_p) / (kappa * t_p)
    warnings = []
    line0 = params.omega_q + stark_shift(n0 * window_factor, params.chi_qm)
    if line0 < np.min(probe_freqs) or line0 > np.max(probe_freqs):
        warnings.append("probe grid does not cover the initial shifted line")
    p_true = np.empty((len(sense_times), len(probe_freqs)))
    for i, t in enumerate(sense_times):
        n_window = n0 * math.exp(-kappa * t) * window_factor
        excursion = abs(params.chi_qm) * n0 * math.exp(-kappa * t) * -math.expm1(-kappa * t_p)
        p_true[i] = _spectroscopy_response(
            params, config, probe_freqs, n_window, extra_width=excursion / math.sqrt(12.0)
        )
    return _dataset(
        config,
        "decay-spectroscopy",
        (sense_times, probe_freqs),
        p_true,
        float(np.max(sense_times)) + t_p,
        {"n0": n0, "window_factor": window_factor},
        warnings,
    )


def _lindblad_excited_population(
    params: SystemParams,
    omega_qm: float,
    delta: float,
    durations: np.ndarray,
) -> np.ndarray:
    """P_e(t) for an excited qubit under the parametric exchange with loss."""
    space = ModeSpace(("q", "m"), (2, 3))
    h = parametric_interaction(omega_qm, delta, space)
    q, n_q = build_mode_operators(space, "q")
    m, _ = build_mode_operators(space, "m")
    collapses = [CollapseTerm(m, params.kappa_m)]
    if not math.isinf(params.t1):
        collapses.append(CollapseTerm(q, 1.0 / params.t1))
    t_end = float(durations[-1])
    spacing = float(durations[1] - durations[0])
    inv_t1 = 0.0 if math.isinf(params.t1) else 1.0 / params.t1
    # keep dt * (fastest rate) well under the integrator budget of 0.1
    rate_scale = 0.5 * omega_qm + abs(delta) + params.kappa_m + inv_t1
    target = 0.02 / rate_scale
    substeps = max(1, math.ceil(spacing / target))
    dt = spacing / substeps
    traj = evolve_lindblad(
        fock_state(space, {"q": 1, "m": 0}),
        h,
        collapses=tuple(collapses),
        tspan=(0.0, t_end),
        dt=dt,
        observables=(n_q,),
        record_times=durations,
    )
    return np.real(traj.expect(0))


def run_parametric_decay_scan(
    params: SystemParams,
    pump: PumpSpec,
    deltas: np.ndarray,
    durations: np.ndarray,
    config: ProtocolConfig,
) -> SweepDataset:
    """Excited-qubit decay under the pump-activated qubit-magnon exchange.

    The pump supplies the exchange amplitude omega_qm; its detuning is swept
    over the deltas grid. For each detuning the qubit is prepared excited and
    evolved under the exchange Hamiltonian with magnon decay kappa_m and
    intrinsic qubit decay 1/T1 as independent collapse channels; P_e is
    recorded on the (uniform) duration grid.
    """
    omega_qm = pump.omega_qm
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    durations = np.atleast_1d(np.asarray(durations, dtype=float))
    if len(durations) < 2 or durations[0] != 0.0:
        raise ValueError("duration grid must start at 0 with >= 2 points")
    spacings = np.diff(durations)
    if np.max(np.abs(spacings - spacings[0])) > 1e-9 * spacings[0]:
        raise ValueError("duration grid must be uniform")
    p_true = np.empty((len(deltas), len(durations)))
    for i, delta in enumerate(deltas):
        p_true[i] = _lindblad_excited_population(params, omega_qm, float(delta), durations)
    return _dataset(
        config,
        "parametric-scan",
        (deltas, durations),
        p_true,
        config.pi_duration + float(durations[-1]),
        {"omega_qm": omega_qm},
    )


# protocol kind -> (its run function, its grid keys in axis order, {grid key it
# may leave out: its default grid from the device}, the argument the run
# function takes before its grids: None, "n0" or "pump", {PumpSpec field it
# reads: whether it must be > 0})
PROTOCOLS = {
    "spectroscopy": (
        run_qubit_spectroscopy, ("pump_powers", "probe_freqs"), {}, None, {"c_pump": True}
    ),
    "ramsey": (run_ramsey, ("delays",), {}, None, {"power_w": False, "c_pump": False}),
    "ramsey-series": (
        run_ramsey_series, ("pump_powers", "delays"), {}, None, {"c_pump": True}
    ),
    "relaxation": (run_relaxation, ("delays",), {"delays": relaxation_delays}, None, {}),
    "decay-phase": (
        run_decay_phase_sense, ("sense_times", "second_pulse_phases"), {}, "n0", {}
    ),
    "decay-spectroscopy": (
        run_decay_spectroscopy, ("sense_times", "probe_freqs"), {}, "n0", {}
    ),
    "parametric-scan": (
        run_parametric_decay_scan, ("deltas", "durations"), {}, "pump", {"omega_qm": True}
    ),
}
