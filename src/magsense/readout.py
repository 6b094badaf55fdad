"""Dispersive-readout voltage model and shot sampling.

Single-shot readout is modeled by state-conditioned voltage distributions:
the ground state draws from a Gaussian N(mu_g, sigma_g); the excited state
draws from the mixture w N(mu_e, sigma_e) + (1 - w) N(mu_g, sigma_g), where
w = exp(-t_ro/T1) accounts for relaxation during the readout window. Shots
are thresholded to bits; excited-state probabilities are estimated as
thresholded fractions with a Laplace-smoothed binomial standard error so
error bars stay positive at the extremes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fitting import FitModel, FitResult, fit_curve

DEFAULT_SIGMA = 0.35
DEFAULT_WINDOW = 2e-6


def _upper_tail(z: float) -> float:
    """P(Z > z) for a standard normal variable."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class ReadoutModel:
    """State-conditioned readout voltage distributions."""

    mu_g: float
    sigma_g: float
    mu_e: float
    sigma_e: float
    decay_weight: float  # probability the excited state survives the window
    window: float  # readout duration, s
    threshold: float

    def __post_init__(self) -> None:
        if self.sigma_g <= 0 or self.sigma_e <= 0:
            raise ValueError("readout widths must be > 0")
        if not 0.0 <= self.decay_weight <= 1.0:
            raise ValueError("decay weight must lie in [0, 1]")
        if self.window <= 0:
            raise ValueError("readout window must be > 0")

    @classmethod
    def for_qubit(
        cls,
        t1: float,
        mu_g: float = 0.0,
        mu_e: float = 1.0,
        sigma: float = DEFAULT_SIGMA,
        window: float = DEFAULT_WINDOW,
        threshold: float | None = None,
    ) -> "ReadoutModel":
        """Model with relaxation weight w = exp(-window/T1)."""
        w = 1.0 if math.isinf(t1) else math.exp(-window / t1)
        thr = 0.5 * (mu_g + mu_e) if threshold is None else threshold
        return cls(
            mu_g=mu_g,
            sigma_g=sigma,
            mu_e=mu_e,
            sigma_e=sigma,
            decay_weight=w,
            window=window,
            threshold=thr,
        )

    def excited_click_probability(self) -> float:
        """P(V > threshold) for a qubit prepared excited."""
        tail_e = _upper_tail((self.threshold - self.mu_e) / self.sigma_e)
        tail_g = _upper_tail((self.threshold - self.mu_g) / self.sigma_g)
        return self.decay_weight * tail_e + (1.0 - self.decay_weight) * tail_g

    def ground_click_probability(self) -> float:
        """P(V > threshold) for a qubit prepared in the ground state."""
        return _upper_tail((self.threshold - self.mu_g) / self.sigma_g)

    def click_probability(self, p_e: float) -> float:
        """P(V > threshold) for excited-state probability ``p_e``."""
        return (
            p_e * self.excited_click_probability()
            + (1.0 - p_e) * self.ground_click_probability()
        )

    def contrast(self) -> float:
        return self.excited_click_probability() - self.ground_click_probability()

    def idealized(self) -> "ReadoutModel":
        """Variant without decay during readout (w = 1)."""
        return replace(self, decay_weight=1.0)


def laplace_stderr(clicks, n_shots):
    """Laplace-smoothed binomial standard error of ``clicks / n_shots``.

    Elementwise over arrays of click counts; the smoothing keeps the error
    positive when no shot or every shot clicks.
    """
    p_smooth = (clicks + 1.0) / (n_shots + 2.0)
    return np.sqrt(p_smooth * (1.0 - p_smooth) / n_shots)


@dataclass(frozen=True)
class ShotRecord:
    """Analog shots drawn at one sweep point."""

    coordinates: dict
    values: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("a shot record needs at least one shot")

    @property
    def n_shots(self) -> int:
        return len(self.values)

    def excited_fraction(self) -> float:
        return float(np.mean(self.values > self.threshold))

    def excited_stderr(self) -> float:
        """Laplace-smoothed binomial standard error of the fraction."""
        k = int(np.sum(self.values > self.threshold))
        return float(laplace_stderr(k, self.n_shots))

    def subset(self, indices: np.ndarray) -> "ShotRecord":
        return ShotRecord(
            coordinates=self.coordinates,
            values=self.values[np.asarray(indices, dtype=int)],
            threshold=self.threshold,
        )


def sample_readout(
    p_e: float,
    model: ReadoutModel,
    n_shots: int,
    seed,
    coordinates: dict | None = None,
) -> ShotRecord:
    """Draw analog readout voltages for a given excited-state probability.

    Deterministic for a fixed seed; the seed may be anything accepted by
    numpy's default_rng (int or sequence of ints).
    """
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"excited-state probability {p_e} outside [0, 1]")
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    rng = np.random.default_rng(seed)
    excited = rng.random(n_shots) < p_e
    survived = rng.random(n_shots) < model.decay_weight
    use_excited_dist = excited & survived
    values = np.where(
        use_excited_dist,
        model.mu_e + model.sigma_e * rng.standard_normal(n_shots),
        model.mu_g + model.sigma_g * rng.standard_normal(n_shots),
    )
    return ShotRecord(
        coordinates=dict(coordinates or {}),
        values=values,
        threshold=model.threshold,
    )


def fit_readout_histogram(values: np.ndarray, n_bins: int = 60) -> FitResult:
    """Double-Gaussian fit to an excited-state-preparation histogram."""
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return fit_curve(FitModel("double-gaussian", baseline=False), centers, counts.astype(float))


def ideal_model_from_fit(model: ReadoutModel, fit: FitResult) -> ReadoutModel:
    """Readout model using only the pure excited component of a histogram fit.

    The fitted component closer to the nominal excited voltage replaces
    (mu_e, sigma_e) and the decay weight is set to one.
    """
    mu_1 = fit.parameter("center_1")
    mu_2 = fit.parameter("center_2")
    if abs(mu_1 - model.mu_e) <= abs(mu_2 - model.mu_e):
        mu, sigma = mu_1, fit.parameter("sigma_1")
    else:
        mu, sigma = mu_2, fit.parameter("sigma_2")
    return replace(model, mu_e=mu, sigma_e=sigma, decay_weight=1.0)
