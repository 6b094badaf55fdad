"""Magnon-number sensitivity from power-swept qubit spectroscopy.

The sensing chain works in magnon-number coordinates: the calibrated Stark
shift maps probe frequency to an equivalent magnon number, the qubit line
becomes a Gaussian response peak(n_m) exp(-(n - n_m)^2 / (2 Sigma^2)), and
the measured standard error of each spectroscopy point becomes an empirical
noise profile. Sensitivity at n_m is the population step S for which the
signal-to-noise ratio between n_m and n_m + S reaches the configured
threshold within the time budget; with the threshold tied to unit SNR at
one second, the solved S reads directly in magnons per square root hertz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import CalibrationResult, snr
from .errors import EstimationError
# fit_curve is not called here; the benchmark's tracer (perfbench/layers.py)
# wraps it in every analysis module, so the name stays bound
from .fitting import (  # noqa: F401
    FitModel,
    FitResult,
    PolyInterpolant,
    fit_curve,
    fit_rows,
    interpolate_poly,
    peak_row_starts,
    usable_error_rows,
)
from .protocols import require_protocol
from .sweep import SweepDataset

SOLVE_RESOLUTION = 1e-3  # magnons, bisection stop
DEFAULT_THRESHOLD = 0.18


@dataclass(frozen=True)
class SensingConfig:
    """Time budget and detection threshold for one sensitivity estimate."""

    tau: float  # sequence duration per shot, s
    n_shots: int  # shots per estimate
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")

    @property
    def total_time(self) -> float:
        """Total budget T = N tau in seconds."""
        return self.n_shots * self.tau


@dataclass(frozen=True)
class ResponseModel:
    """Qubit line in magnon coordinates: peak height and width vs population."""

    peak: PolyInterpolant
    width: PolyInterpolant

    @property
    def hull(self) -> tuple[float, float]:
        return self.peak.x_min, self.peak.x_max


def qubit_response(n, n_m, model: ResponseModel) -> tuple[np.ndarray, np.ndarray]:
    """Excited-state response at probe coordinate ``n`` for population ``n_m``.

    Elementwise over arrays. Returns the probability and a flag set where
    the interpolants were evaluated outside the measured population hull.
    """
    peak, out_peak = model.peak.evaluate(n_m)
    width, out_width = model.width.evaluate(n_m)
    value = peak * np.exp(-((n - n_m) ** 2) / (2.0 * width**2))
    return value, out_peak | out_width


@dataclass(frozen=True)
class NoiseProfile:
    """Empirical standard error of P_e versus probe detuning.

    The profile is a Gaussian bump over a flat floor: amplitude and floor
    are averaged over the measured populations, the width (in magnon units)
    varies linearly with population. ``reference_shots`` records the shot
    count the errors were measured at so budgets can be rescaled.
    """

    amplitude: float
    floor: float
    width: PolyInterpolant
    reference_shots: int
    fits: tuple = ()

    def sigma(self, n, n_m, n_shots: int | None = None) -> np.ndarray:
        """Standard error at probe coordinate ``n`` for population ``n_m``, elementwise."""
        width, _ = self.width.evaluate(n_m)
        value = self.amplitude * np.exp(-((n - n_m) ** 2) / (2.0 * width**2)) + self.floor
        if n_shots is None or n_shots == self.reference_shots:
            return value
        return value * np.sqrt(self.reference_shots / n_shots)


def fit_power_spectra(dataset: SweepDataset) -> list[tuple[float, FitResult]]:
    """Gaussian line fit per pump power of a spectroscopy dataset."""
    require_protocol(dataset, "spectroscopy")
    powers, freqs = (axis.values for axis in dataset.axes)
    fits = fit_rows(
        FitModel("gaussian"),
        freqs,
        dataset.p_e,
        usable_error_rows(dataset.stderr),
        peak_row_starts(freqs, dataset.p_e),
    )
    return [(float(power), fit) for power, fit in zip(powers, fits)]


def fit_noise_profile(
    dataset: SweepDataset, calibration: CalibrationResult
) -> NoiseProfile:
    """Gaussian noise model of the per-point standard errors.

    Per power, the standard error versus probe frequency is fit with a
    Gaussian over a floor; the amplitude and floor are averaged across
    powers and the width is converted to magnon units and interpolated
    linearly in population.
    """
    require_protocol(dataset, "spectroscopy")
    if not np.all(dataset.stderr > 0):
        raise EstimationError(
            "noise profile needs shot-sampled data with nonzero standard errors"
        )
    powers, freqs = (axis.values for axis in dataset.axes)
    fits = fit_rows(
        FitModel("gaussian"),
        freqs,
        dataset.stderr,
        inits=peak_row_starts(freqs, dataset.stderr),
    )
    amplitudes = [fit.parameter("amplitude") for fit in fits]
    floors = [fit.parameter("offset") for fit in fits]
    widths = [fit.parameter("sigma") / calibration.chi_qm for fit in fits]
    n_grid = calibration.c_pump * np.asarray(powers, dtype=float)
    width_poly = interpolate_poly(n_grid, np.asarray(widths), order=1)
    n_shots = int(np.max(dataset.n_shots))
    return NoiseProfile(
        amplitude=float(np.mean(amplitudes)),
        floor=float(np.mean(floors)),
        width=width_poly,
        reference_shots=n_shots,
        fits=tuple(fits),
    )


def build_response_model(
    spectro_fits: list[tuple[float, FitResult]], calibration: CalibrationResult
) -> ResponseModel:
    """Interpolate peak height and width over the converged rows' populations."""
    kept = [(power, fit) for power, fit in spectro_fits if fit.converged]
    if len(kept) < 3:
        raise EstimationError(
            f"response model needs >= 3 converged line fits; "
            f"{len(kept)} of {len(spectro_fits)} converged"
        )
    powers = np.array([p for p, _ in kept])
    n_grid = calibration.c_pump * powers
    peaks = np.array([fit.parameter("amplitude") for _, fit in kept])
    widths = np.array([fit.parameter("sigma") / calibration.chi_qm for _, fit in kept])
    return ResponseModel(
        peak=interpolate_poly(n_grid, peaks, order=2),
        width=interpolate_poly(n_grid, widths, order=2),
    )


@dataclass(frozen=True)
class SensitivityCurve:
    """S(n_m) in magnons per root hertz with its building blocks."""

    n_grid: np.ndarray
    sensitivity: np.ndarray
    unresolvable: np.ndarray  # bool per grid point
    extrapolated: np.ndarray  # bool per grid point
    response: ResponseModel

    def __post_init__(self) -> None:
        resolved = self.sensitivity[~self.unresolvable]
        if resolved.size and not np.all(resolved > 0):
            raise ValueError("resolved sensitivities must be > 0")


def _snr_at_step(
    n_m: np.ndarray,
    step: np.ndarray,
    response: ResponseModel,
    noise: NoiseProfile,
    config: SensingConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """SNR between populations n_m and n_m + step, with the extrapolation flag."""
    p_here, out1 = qubit_response(n_m, n_m, response)
    p_there, out2 = qubit_response(n_m, n_m + step, response)
    sigma_here = noise.sigma(n_m, n_m, config.n_shots)
    sigma_there = noise.sigma(n_m, n_m + step, config.n_shots)
    return snr(p_here, p_there, sigma_here, sigma_there), out1 | out2


def sensitivity_curve(
    spectro_fits: list[tuple[float, FitResult]],
    noise_profile: NoiseProfile,
    calibration: CalibrationResult,
    config: SensingConfig,
    n_grid: np.ndarray,
) -> SensitivityCurve:
    """Solve SNR(n_m, n_m + S) = threshold for S on a population grid.

    The population step is bracketed upward from zero to the edge of the
    measured hull and bisected to a millimagnon. Points where the hull-
    limited SNR never reaches the threshold are flagged unresolvable.
    """
    response = build_response_model(spectro_fits, calibration)
    return solve_sensitivity(response, noise_profile, config, n_grid)


def solve_sensitivity(
    response: ResponseModel,
    noise_profile: NoiseProfile,
    config: SensingConfig,
    n_grid: np.ndarray,
) -> SensitivityCurve:
    """Bisection solve of the threshold condition for a given response model.

    Every grid point is bisected on [0, hull_hi - n_m] in lockstep: each
    step evaluates the SNR once over the points whose bracket is still wider
    than ``SOLVE_RESOLUTION``, and a point's solution is its final midpoint.
    """
    hull_hi = response.hull[1]
    n_grid = np.asarray(n_grid, dtype=float)
    lo = np.zeros(len(n_grid))
    hi = hull_hi - n_grid
    unresolvable = hi <= SOLVE_RESOLUTION
    extrapolated = np.zeros(len(n_grid), dtype=bool)
    solving = ~unresolvable
    snr_max, extrapolated[solving] = _snr_at_step(
        n_grid[solving], hi[solving], response, noise_profile, config
    )
    unresolvable[solving] = snr_max < config.threshold
    solving &= ~unresolvable
    while True:
        solving &= hi - lo > SOLVE_RESOLUTION
        if not solving.any():
            break
        mid = 0.5 * (lo[solving] + hi[solving])
        value, out = _snr_at_step(n_grid[solving], mid, response, noise_profile, config)
        extrapolated[solving] |= out
        below = value < config.threshold
        lo[solving] = np.where(below, mid, lo[solving])
        hi[solving] = np.where(below, hi[solving], mid)
    return SensitivityCurve(
        n_grid=n_grid,
        sensitivity=np.where(unresolvable, 0.0, 0.5 * (lo + hi)),
        unresolvable=unresolvable,
        extrapolated=extrapolated,
        response=response,
    )
