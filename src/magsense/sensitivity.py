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

import math
from dataclasses import dataclass, field

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
)
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
    n_grid: np.ndarray

    @property
    def hull(self) -> tuple[float, float]:
        return self.peak.x_min, self.peak.x_max


def qubit_response(n: float, n_m: float, model: ResponseModel) -> tuple[float, bool]:
    """Excited-state response at probe coordinate ``n`` for population ``n_m``.

    Returns the probability and a flag set when the interpolants were
    evaluated outside the measured population hull.
    """
    peak, out_peak = model.peak.evaluate(n_m)
    width, out_width = model.width.evaluate(n_m)
    value = float(peak) * math.exp(-((n - n_m) ** 2) / (2.0 * float(width) ** 2))
    return value, bool(out_peak or out_width)


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

    def sigma(self, n: float, n_m: float, n_shots: int | None = None) -> float:
        """Standard error at probe coordinate ``n`` for population ``n_m``."""
        width, _ = self.width.evaluate(n_m)
        value = self.amplitude * math.exp(
            -((n - n_m) ** 2) / (2.0 * float(width) ** 2)
        ) + self.floor
        if n_shots is None or n_shots == self.reference_shots:
            return value
        return value * math.sqrt(self.reference_shots / n_shots)


def _gaussian_row_init(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    top, floor = float(np.max(y)), float(np.min(y))
    step = float(np.median(np.diff(np.sort(x))))
    n_half = int(np.sum(y - floor > 0.5 * (top - floor)))
    return np.array(
        [max(top - floor, 1e-12), float(x[np.argmax(y)]), max(n_half, 1) * step / 2.355, floor]
    )


def fit_power_spectra(dataset: SweepDataset) -> list[tuple[float, FitResult]]:
    """Gaussian line fit per pump power of a spectroscopy dataset."""
    _require_spectroscopy(dataset)
    powers = dataset.axis("pump_power").values
    freqs = dataset.axis("probe_frequency").values
    fits = fit_rows(
        FitModel("gaussian"),
        freqs,
        dataset.p_e,
        [err if np.all(err > 0) else None for err in dataset.stderr],
        [_gaussian_row_init(freqs, row) for row in dataset.p_e],
    )
    return [(float(power), fit) for power, fit in zip(powers, fits)]


def _require_spectroscopy(dataset: SweepDataset) -> None:
    names = tuple(axis.name for axis in dataset.axes)
    if dataset.protocol != "spectroscopy" or names != (
        "pump_power",
        "probe_frequency",
    ):
        raise EstimationError("expected a pump-power spectroscopy dataset")


def fit_noise_profile(
    dataset: SweepDataset, calibration: CalibrationResult
) -> NoiseProfile:
    """Gaussian noise model of the per-point standard errors.

    Per power, the standard error versus probe frequency is fit with a
    Gaussian over a floor; the amplitude and floor are averaged across
    powers and the width is converted to magnon units and interpolated
    linearly in population.
    """
    _require_spectroscopy(dataset)
    if not np.all(dataset.stderr > 0):
        raise EstimationError(
            "noise profile needs shot-sampled data with nonzero standard errors"
        )
    powers = dataset.axis("pump_power").values
    freqs = dataset.axis("probe_frequency").values
    fits = fit_rows(
        FitModel("gaussian"),
        freqs,
        dataset.stderr,
        inits=[_gaussian_row_init(freqs, row) for row in dataset.stderr],
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
    """Interpolate peak height and width over the calibrated populations."""
    if len(spectro_fits) < 3:
        raise EstimationError("response model needs fits at >= 3 pump powers")
    powers = np.array([p for p, _ in spectro_fits])
    n_grid = calibration.c_pump * powers
    peaks = np.array([fit.parameter("amplitude") for _, fit in spectro_fits])
    widths = np.array(
        [fit.parameter("sigma") / calibration.chi_qm for _, fit in spectro_fits]
    )
    return ResponseModel(
        peak=interpolate_poly(n_grid, peaks, order=2),
        width=interpolate_poly(n_grid, widths, order=2),
        n_grid=n_grid,
    )


@dataclass(frozen=True)
class SensitivityCurve:
    """S(n_m) in magnons per root hertz with its building blocks."""

    n_grid: np.ndarray
    sensitivity: np.ndarray
    unresolvable: np.ndarray  # bool per grid point
    extrapolated: np.ndarray  # bool per grid point
    response: ResponseModel
    noise: NoiseProfile
    config: SensingConfig

    def __post_init__(self) -> None:
        resolved = self.sensitivity[~self.unresolvable]
        if resolved.size and not np.all(resolved > 0):
            raise ValueError("resolved sensitivities must be > 0")


def _snr_at_step(
    n_m: float,
    step: float,
    response: ResponseModel,
    noise: NoiseProfile,
    config: SensingConfig,
) -> tuple[float, bool]:
    p_here, out1 = qubit_response(n_m, n_m, response)
    p_there, out2 = qubit_response(n_m, n_m + step, response)
    sigma_here = noise.sigma(n_m, n_m, config.n_shots)
    sigma_there = noise.sigma(n_m, n_m + step, config.n_shots)
    return snr(p_here, p_there, sigma_here, sigma_there), out1 or out2


def sensitivity_curve(
    spectro_fits: list[tuple[float, FitResult]],
    noise_profile: NoiseProfile,
    calibration: CalibrationResult,
    config: SensingConfig,
    n_grid: np.ndarray | None = None,
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
    n_grid: np.ndarray | None = None,
) -> SensitivityCurve:
    """Bisection solve of the threshold condition for a given response model."""
    hull_lo, hull_hi = response.hull
    if n_grid is None:
        n_grid = np.linspace(hull_lo, hull_hi, 81)
    n_grid = np.asarray(n_grid, dtype=float)
    values = np.zeros(len(n_grid))
    unresolvable = np.zeros(len(n_grid), dtype=bool)
    extrapolated = np.zeros(len(n_grid), dtype=bool)
    for k, n_m in enumerate(n_grid):
        s_max = hull_hi - n_m
        if s_max <= SOLVE_RESOLUTION:
            unresolvable[k] = True
            continue
        snr_max, out = _snr_at_step(n_m, s_max, response, noise_profile, config)
        extrapolated[k] |= out
        if snr_max < config.threshold:
            unresolvable[k] = True
            continue
        lo, hi = 0.0, s_max
        while hi - lo > SOLVE_RESOLUTION:
            mid = 0.5 * (lo + hi)
            value, out = _snr_at_step(n_m, mid, response, noise_profile, config)
            extrapolated[k] |= out
            if value < config.threshold:
                lo = mid
            else:
                hi = mid
        values[k] = 0.5 * (lo + hi)
    return SensitivityCurve(
        n_grid=n_grid,
        sensitivity=values,
        unresolvable=unresolvable,
        extrapolated=extrapolated,
        response=response,
        noise=noise_profile,
        config=config,
    )
