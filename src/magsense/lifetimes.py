"""Magnon lifetime extraction and parametric-decay analytics.

Two independent routes recover the magnon decay time 1/kappa_m from
qubit-sensed datasets: the accumulated Ramsey phase during magnon decay
(phase method) and the Stark-shifted line center during decay (frequency
method). A third route analyzes the pump-activated conversion scan: each
detuning gives a qubit decay rate, and the Lorentzian rate profile yields
kappa_m from its width and the conversion amplitude from its peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError
from .fitting import (
    FitModel,
    FitResult,
    _median,
    fit_curve,
    fit_rows,
    peak_row_starts,
    usable_errors,
)
from .sweep import SweepDataset

# lack-of-fit beyond this many radians marks a branch-assignment failure
UNWRAP_RESIDUAL_FLOOR = 0.3

PHASE_METHOD = "phase"
FREQUENCY_METHOD = "frequency"


@dataclass(frozen=True)
class LifetimeEstimate:
    """A decay-time estimate with its fit provenance."""

    method: str
    lifetime: float
    uncertainty: float
    fit: FitResult
    flags: tuple = ()
    series: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method not in (PHASE_METHOD, FREQUENCY_METHOD):
            raise ValueError(f"unknown lifetime method {self.method!r}")
        if not self.lifetime > 0:
            raise ValueError("lifetime must be > 0")
        if self.uncertainty < 0:
            raise ValueError("uncertainty must be >= 0")


def parametric_qubit_decay(delta: float, omega_qm: float, kappa_m: float):
    """Qubit decay under the parametric conversion: rate and exact evaluator.

    Returns the weak-coupling Lorentzian rate
    kappa(delta) = omega_qm^2 kappa_m / (kappa_m^2 + 4 delta^2) together with
    an evaluator for the exact normalized coherence amplitude

        q(t)/q(0) = e^(-gamma t/4) (beta cosh(t beta/4)
                    + gamma sinh(t beta/4)) / beta

    with gamma = kappa_m + 2i delta and beta = sqrt(gamma^2 - (2 omega_qm)^2).
    The degenerate point beta = 0 is evaluated by its series limit
    e^(-gamma t/4) (1 + gamma t/4).

    Parameters
    ----------
    delta, omega_qm, kappa_m : float
        Pump detuning, conversion amplitude and magnon linewidth in rad/s.

    Returns
    -------
    (rate, evaluator)
        The analytic rate in rad/s and a vectorized function of time.
    """
    if kappa_m <= 0:
        raise ValueError("kappa_m must be > 0")
    if omega_qm < 0:
        raise ValueError("omega_qm must be >= 0")
    rate = omega_qm**2 * kappa_m / (kappa_m**2 + 4.0 * delta**2)
    gamma = complex(kappa_m, 2.0 * delta)
    beta = np.sqrt(complex(gamma**2 - (2.0 * omega_qm) ** 2))
    scale = max(kappa_m, abs(gamma), 2.0 * omega_qm)

    def evaluator(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        decay = np.exp(-gamma * t / 4.0)
        if abs(beta) < 1e-9 * scale:
            return decay * (1.0 + gamma * t / 4.0)
        arg = t * beta / 4.0
        return decay * (np.cosh(arg) + (gamma / beta) * np.sinh(arg))

    return rate, evaluator


def _fringe_starts(phases: np.ndarray, rows: np.ndarray) -> list[list[float]]:
    """Sinusoid starts of fringe rows from their quadrature sums.

    A row follows 0.5 + 0.5 C cos(phi - theta), so the fitted sinusoid
    a sin(theta/(2 pi) ... ) carries phi as pi/2 minus its phase parameter.
    The sums run along the rows; the seeds are scalar math per row.
    """
    means = np.mean(rows, axis=1)
    centered = rows - means[:, None]
    in_phase = np.sum(centered * np.cos(phases), axis=1)
    quadrature = np.sum(centered * np.sin(phases), axis=1)
    starts = []
    for mean, i_sum, q_sum in zip(means.tolist(), in_phase.tolist(), quadrature.tolist()):
        phi_seed = math.atan2(q_sum, i_sum)
        amp_seed = 2.0 * math.hypot(i_sum, q_sum) / len(phases)
        starts.append(
            [
                max(amp_seed, 1e-6),
                1.0 / (2.0 * math.pi),
                (math.pi / 2.0 - phi_seed) % (2.0 * math.pi),
                mean,
            ]
        )
    return starts


def _convergence_flags(fits: list[FitResult]) -> list[str]:
    """The fit-not-converged flag when any of ``fits`` stopped unconverged."""
    return [] if all(fit.converged for fit in fits) else ["fit-not-converged"]


def _require_protocol(dataset: SweepDataset, protocol: str, axes: tuple) -> None:
    if dataset.protocol != protocol:
        raise EstimationError(
            f"expected a {protocol} dataset, got {dataset.protocol!r}"
        )
    names = tuple(axis.name for axis in dataset.axes)
    if names != axes:
        raise EstimationError(f"expected axes {axes}, got {names}")


def _draw_stacks(dataset: SweepDataset, p_e, stderr) -> tuple[np.ndarray, np.ndarray]:
    """``p_e`` and ``stderr`` as float stacks of draws on the dataset's grid."""
    p_e = np.asarray(p_e, dtype=float)
    stderr = np.asarray(stderr, dtype=float)
    if p_e.shape[1:] != dataset.grid_shape or stderr.shape != p_e.shape:
        raise EstimationError(
            f"draw stacks of shape {p_e.shape} and {stderr.shape} do not match "
            f"(draws,) + grid {dataset.grid_shape}"
        )
    return p_e, stderr


def lifetime_from_phase(dataset: SweepDataset) -> LifetimeEstimate:
    """Magnon lifetime from the fringe phase accumulated during decay.

    Each sense-time row is fit with a sinusoid in the second-pulse phase;
    the fitted fringe phases are unwrapped over time and fit with a
    saturating exponential phi_inf - A e^(-t/tau). The first sample is
    assigned its principal branch. True phase steps beyond pi alias through
    the unwrap and cannot be undone, but they leave the series visibly
    non-exponential, so radian-scale lack of fit raises the
    unwrap-ambiguity flag. A row or final fit that stopped without
    converging raises the fit-not-converged flag.

    This is the one-draw case of :func:`phase_lifetimes`.
    """
    return phase_lifetimes(dataset, dataset.p_e[None], dataset.stderr[None])[0]


def phase_lifetimes(dataset: SweepDataset, p_e, stderr) -> list[LifetimeEstimate]:
    """Phase-method lifetimes of a stack of draws on ``dataset``'s grid.

    ``p_e`` and ``stderr`` have shape ``(draws,) + dataset.grid_shape``.
    The fringe rows of every draw go through one sinusoid ``fit_rows``
    call and the phase series through one saturating-exponential call; a
    row fits as it would alone, so each estimate equals
    :func:`lifetime_from_phase` on a dataset holding that draw.
    """
    _require_protocol(dataset, "decay-phase", ("sense_time", "second_pulse_phase"))
    times = dataset.axis("sense_time").values
    thetas = dataset.axis("second_pulse_phase").values
    if len(times) < 6:
        raise EstimationError("phase extraction needs >= 6 sense times")
    p_e, stderr = _draw_stacks(dataset, p_e, stderr)
    n_draws = len(p_e)
    rows = p_e.reshape(-1, len(thetas))
    row_fits = fit_rows(
        FitModel("sinusoid"),
        thetas,
        rows,
        [usable_errors(err) for err in stderr.reshape(-1, len(thetas))],
        _fringe_starts(thetas, rows),
    )
    wrapped = np.array(
        [(math.pi / 2.0 - fit.parameter("phase")) % (2.0 * math.pi) for fit in row_fits]
    ).reshape(n_draws, len(times))
    phase_err = np.array([fit.stderr("phase") for fit in row_fits]).reshape(
        n_draws, len(times)
    )
    wrapped[:, 0] = ((wrapped[:, 0] + math.pi) % (2.0 * math.pi)) - math.pi
    phi = np.unwrap(wrapped)
    fits = fit_rows(
        FitModel("saturating-exponential"),
        times,
        phi,
        [usable_errors(err) for err in phase_err],
    )
    estimates = []
    for k, fit in enumerate(fits):
        flags = []
        misfit = float(np.max(np.abs(phi[k] - fit.predict(times))))
        if misfit > max(UNWRAP_RESIDUAL_FLOOR, 5.0 * _median(phase_err[k])):
            flags.append("unwrap-ambiguity")
        flags += _convergence_flags(row_fits[k * len(times) : (k + 1) * len(times)] + [fit])
        estimates.append(
            LifetimeEstimate(
                method=PHASE_METHOD,
                lifetime=fit.parameter("tau"),
                uncertainty=fit.stderr("tau"),
                fit=fit,
                flags=tuple(flags),
                series={"times": times, "phases": phi[k], "phase_stderr": phase_err[k]},
            )
        )
    return estimates


def lifetime_from_frequency(dataset: SweepDataset) -> LifetimeEstimate:
    """Magnon lifetime from the Stark-shifted line center during decay.

    Each sense-time row is fit with a Gaussian; the centers relax
    exponentially toward the bare line, so an exponential-plus-offset fit of
    center(t) yields tau = 1/kappa_m. Constant centers (no initial magnons)
    raise the flat-data error from the fitting layer; a row or final fit
    that stopped without converging raises the fit-not-converged flag.

    This is the one-draw case of :func:`frequency_lifetimes`.
    """
    return frequency_lifetimes(dataset, dataset.p_e[None], dataset.stderr[None])[0]


def frequency_lifetimes(dataset: SweepDataset, p_e, stderr) -> list[LifetimeEstimate]:
    """Frequency-method lifetimes of a stack of draws on ``dataset``'s grid.

    ``p_e`` and ``stderr`` have shape ``(draws,) + dataset.grid_shape``.
    The spectroscopy rows of every draw go through one Gaussian
    ``fit_rows`` call and the center series through one exponential-decay
    call; a row fits as it would alone, so each estimate equals
    :func:`lifetime_from_frequency` on a dataset holding that draw. A
    draw with constant centers raises for the whole stack.
    """
    _require_protocol(
        dataset, "decay-spectroscopy", ("sense_time", "probe_frequency")
    )
    times = dataset.axis("sense_time").values
    freqs = dataset.axis("probe_frequency").values
    if len(times) < 6:
        raise EstimationError("frequency extraction needs >= 6 sense times")
    p_e, stderr = _draw_stacks(dataset, p_e, stderr)
    n_draws = len(p_e)
    rows = p_e.reshape(-1, len(freqs))
    row_fits = fit_rows(
        FitModel("gaussian"),
        freqs,
        rows,
        [usable_errors(err) for err in stderr.reshape(-1, len(freqs))],
        peak_row_starts(freqs, rows),
    )
    centers = np.array([fit.parameter("center") for fit in row_fits]).reshape(
        n_draws, len(times)
    )
    center_err = np.array([fit.stderr("center") for fit in row_fits]).reshape(
        n_draws, len(times)
    )
    # shift to a small dynamic range; the offset absorbs the translation
    shifted = centers - centers[:, -1:]
    fits = fit_rows(
        FitModel("exponential-decay"),
        times,
        shifted,
        [usable_errors(err) for err in center_err],
    )
    return [
        LifetimeEstimate(
            method=FREQUENCY_METHOD,
            lifetime=fit.parameter("tau"),
            uncertainty=fit.stderr("tau"),
            fit=fit,
            flags=tuple(
                _convergence_flags(row_fits[k * len(times) : (k + 1) * len(times)] + [fit])
            ),
            series={"times": times, "centers": centers[k], "center_stderr": center_err[k]},
        )
        for k, fit in enumerate(fits)
    ]


@dataclass(frozen=True)
class ParametricScanEstimate:
    """kappa_m and omega_qm inferred from the rate-vs-detuning profile."""

    kappa_m: float
    kappa_m_stderr: float
    omega_qm: float
    omega_qm_stderr: float
    center: float
    rate_offset: float
    fit: FitResult
    flags: tuple = ()


def extract_kappa_m_from_scan(dataset: SweepDataset) -> ParametricScanEstimate:
    """Infer kappa_m and omega_qm from a parametric decay scan.

    Per detuning, an exponential fit of P_e(duration) gives the qubit decay
    rate; the t = 0 preparation sample is excluded because the fast
    hybridization transient leaves it below the slow-pole envelope. The
    rates follow a Lorentzian of FWHM kappa_m on top of the intrinsic rate,
    with peak height omega_qm^2/kappa_m; the amplitude is solved for
    omega_qm with the fit covariance propagated through. A rate or profile
    fit that stopped without converging raises the fit-not-converged flag.
    """
    _require_protocol(dataset, "parametric-scan", ("pump_detuning", "pump_duration"))
    deltas = dataset.axis("pump_detuning").values
    durations = dataset.axis("pump_duration").values
    if len(deltas) < 7:
        raise EstimationError("rate profile needs >= 7 detuning points")
    start = 1 if len(durations) > 4 else 0
    row_fits = fit_rows(
        FitModel("exponential-decay"),
        durations[start:],
        dataset.p_e[:, start:],
        [usable_errors(err) for err in dataset.stderr[:, start:]],
    )
    taus = np.array([fit.parameter("tau") for fit in row_fits])
    rates = 1.0 / taus
    rate_stderr = np.array([fit.stderr("tau") for fit in row_fits]) / taus**2
    profile = fit_curve(
        FitModel("lorentzian"), deltas, rates, y_err=usable_errors(rate_stderr)
    )
    names = profile.parameter_names
    amp = profile.parameter("amplitude")
    fwhm = profile.parameter("fwhm")
    omega = math.sqrt(max(amp, 0.0) * fwhm)
    # delta method on omega = sqrt(amplitude * fwhm) with the fit covariance
    grad = np.zeros(len(names))
    if omega > 0:
        grad[names.index("amplitude")] = 0.5 * omega / amp
        grad[names.index("fwhm")] = 0.5 * omega / fwhm
    omega_var = float(grad @ profile.covariance @ grad)
    flags = []
    span = float(np.max(deltas) - np.min(deltas))
    if span <= fwhm:
        flags.append("scan-narrower-than-fwhm")
    if amp <= 2.0 * profile.stderr("amplitude"):
        flags.append("amplitude-consistent-with-zero")
    flags += _convergence_flags(row_fits + [profile])
    return ParametricScanEstimate(
        kappa_m=fwhm,
        kappa_m_stderr=profile.stderr("fwhm"),
        omega_qm=omega,
        omega_qm_stderr=math.sqrt(max(omega_var, 0.0)),
        center=profile.parameter("center"),
        rate_offset=profile.parameter("offset"),
        fit=profile,
        flags=tuple(flags),
    )
