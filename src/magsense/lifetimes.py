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
    usable_error_rows,
    usable_errors,
)
from .protocols import require_protocol
from .sweep import SweepDataset

# lack-of-fit beyond this many radians marks a branch-assignment failure
UNWRAP_RESIDUAL_FLOOR = 0.3

PHASE_METHOD = "phase"
FREQUENCY_METHOD = "frequency"


@dataclass(frozen=True)
class LifetimeEstimate:
    """A decay-time estimate; ``fits`` holds its row fits, then ``fit``."""

    method: str
    lifetime: float
    uncertainty: float
    fit: FitResult
    fits: tuple = ()
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


def _convergence_flags(fits: tuple) -> list[str]:
    """The fit-not-converged flag when any of ``fits`` stopped unconverged."""
    return [] if all(fit.converged for fit in fits) else ["fit-not-converged"]


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

    Each sense-time row follows 0.5 + 0.5 C cos(phi - theta) in the
    second-pulse phase theta, a fringe of known period: it is fit by linear
    least squares as c + a cos(theta) + b sin(theta), so phi = atan2(b, a),
    with its error from the (a, b) covariance by the delta method. The
    phases are unwrapped over time and fit with a saturating exponential
    phi_inf - A e^(-t/tau). The first sample is assigned its principal
    branch. True phase steps beyond pi alias through the unwrap and cannot
    be undone, but they leave the series visibly non-exponential, so
    radian-scale lack of fit raises the unwrap-ambiguity flag. A row or
    final fit that stopped without converging raises the fit-not-converged
    flag.

    This is the one-draw case of :func:`phase_lifetimes`.
    """
    return phase_lifetimes(dataset, dataset.p_e[None], dataset.stderr[None])[0]


def phase_lifetimes(dataset: SweepDataset, p_e, stderr) -> list[LifetimeEstimate]:
    """Phase-method lifetimes of a stack of draws on ``dataset``'s grid.

    ``p_e`` and ``stderr`` have shape ``(draws,) + dataset.grid_shape``.
    The fringe rows of every draw go through one linear ``fringe``
    ``fit_rows`` call, which takes no iteration, and the phase series
    through one saturating-exponential call; a row fits as it would alone,
    so each estimate equals :func:`lifetime_from_phase` on a dataset holding
    that draw.
    """
    require_protocol(dataset, "decay-phase")
    times, thetas = (axis.values for axis in dataset.axes)
    if len(times) < 6:
        raise EstimationError("phase extraction needs >= 6 sense times")
    p_e, stderr = _draw_stacks(dataset, p_e, stderr)
    row_fits = fit_rows(
        FitModel("fringe"),
        thetas,
        p_e.reshape(-1, len(thetas)),
        usable_error_rows(stderr.reshape(-1, len(thetas))),
    )
    a, b = np.array([fit.parameters[1:] for fit in row_fits]).T
    # delta method on phi = atan2(b, a) over the (in_phase, quadrature) block
    grad = np.stack((-b, a), axis=1) / (a**2 + b**2)[:, None]
    block = np.array([fit.covariance[1:, 1:] for fit in row_fits])
    variance = np.einsum("ri,rij,rj->r", grad, block, grad)
    phase_err = np.sqrt(np.maximum(variance, 0.0)).reshape(len(p_e), len(times))
    phi = np.unwrap(np.arctan2(b, a).reshape(len(p_e), len(times)))
    fits = fit_rows(
        FitModel("saturating-exponential"),
        times,
        phi,
        usable_error_rows(phase_err),
    )
    estimates = []
    for k, fit in enumerate(fits):
        flags = []
        misfit = float(np.max(np.abs(phi[k] - fit.predict(times))))
        if misfit > max(UNWRAP_RESIDUAL_FLOOR, 5.0 * _median(phase_err[k])):
            flags.append("unwrap-ambiguity")
        draw_fits = (*row_fits[k * len(times) : (k + 1) * len(times)], fit)
        flags += _convergence_flags(draw_fits)
        estimates.append(
            LifetimeEstimate(
                method=PHASE_METHOD,
                lifetime=fit.parameter("tau"),
                uncertainty=fit.stderr("tau"),
                fit=fit,
                fits=draw_fits,
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
    require_protocol(dataset, "decay-spectroscopy")
    times, freqs = (axis.values for axis in dataset.axes)
    if len(times) < 6:
        raise EstimationError("frequency extraction needs >= 6 sense times")
    p_e, stderr = _draw_stacks(dataset, p_e, stderr)
    n_draws = len(p_e)
    rows = p_e.reshape(-1, len(freqs))
    row_fits = fit_rows(
        FitModel("gaussian"),
        freqs,
        rows,
        usable_error_rows(stderr.reshape(-1, len(freqs))),
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
        usable_error_rows(center_err),
    )
    estimates = []
    for k, fit in enumerate(fits):
        draw_fits = (*row_fits[k * len(times) : (k + 1) * len(times)], fit)
        estimates.append(
            LifetimeEstimate(
                method=FREQUENCY_METHOD,
                lifetime=fit.parameter("tau"),
                uncertainty=fit.stderr("tau"),
                fit=fit,
                fits=draw_fits,
                flags=tuple(_convergence_flags(draw_fits)),
                series={"times": times, "centers": centers[k], "center_stderr": center_err[k]},
            )
        )
    return estimates


@dataclass(frozen=True)
class ParametricScanEstimate:
    """kappa_m and omega_qm of a scan; ``fits`` holds its rate fits, then ``fit``."""

    kappa_m: float
    kappa_m_stderr: float
    omega_qm: float
    omega_qm_stderr: float
    center: float
    rate_offset: float
    fit: FitResult
    fits: tuple = ()
    flags: tuple = ()


def extract_kappa_m_from_scan(dataset: SweepDataset) -> ParametricScanEstimate:
    """Infer kappa_m and omega_qm from a parametric decay scan.

    Per detuning, an exponential fit of P_e(duration) gives the qubit decay
    rate; the t = 0 preparation sample is excluded because the fast
    hybridization transient leaves it below the slow-pole envelope. The
    rates follow a Lorentzian of FWHM kappa_m on top of the intrinsic rate,
    with peak height omega_qm^2/kappa_m; the amplitude is solved for
    omega_qm with the fit covariance propagated through. An undetermined
    omega_qm is NaN, with infinite stderr and the omega-qm-undetermined flag.
    A rate or profile fit that stopped without converging raises the
    fit-not-converged flag.
    """
    require_protocol(dataset, "parametric-scan")
    deltas, durations = (axis.values for axis in dataset.axes)
    if len(deltas) < 7:
        raise EstimationError("rate profile needs >= 7 detuning points")
    start = 1 if len(durations) > 4 else 0
    row_fits = fit_rows(
        FitModel("exponential-decay"),
        durations[start:],
        dataset.p_e[:, start:],
        usable_error_rows(dataset.stderr[:, start:]),
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
    # delta method on omega = sqrt(amplitude * fwhm) with the fit covariance;
    # at omega = 0 (infinite slope) or from an undetermined profile parameter
    # omega is undetermined
    determined = omega > 0 and np.isfinite(profile.covariance).all()
    grad = np.zeros(len(names))
    if determined:
        grad[names.index("amplitude")] = 0.5 * omega / amp
        grad[names.index("fwhm")] = 0.5 * omega / fwhm
    omega_var = float(grad @ profile.covariance @ grad) if determined else math.inf
    flags = [] if determined else ["omega-qm-undetermined"]
    span = float(np.max(deltas) - np.min(deltas))
    if span <= fwhm:
        flags.append("scan-narrower-than-fwhm")
    if amp <= 2.0 * profile.stderr("amplitude"):
        flags.append("amplitude-consistent-with-zero")
    fits = (*row_fits, profile)
    flags += _convergence_flags(fits)
    return ParametricScanEstimate(
        kappa_m=fwhm,
        kappa_m_stderr=profile.stderr("fwhm"),
        omega_qm=omega if determined else math.nan,
        omega_qm_stderr=math.sqrt(max(omega_var, 0.0)),
        center=profile.parameter("center"),
        rate_offset=profile.parameter("offset"),
        fit=profile,
        fits=fits,
        flags=tuple(flags),
    )
