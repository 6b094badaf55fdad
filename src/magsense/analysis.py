"""Stark-shift, dephasing, calibration, and SNR relations.

The magnon occupation couples to the qubit in two measurable ways: its mean
shifts the qubit line by chi_qm per magnon, and its shot noise dephases the
qubit at a rate set by chi_qm and the magnon linewidth. Measuring both slopes
against pump power overdetermines the pair (c_pump, chi_qm), which is the
calibration exploited here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, EstimationError
from .fitting import FitModel, fit_curve
from .params import SystemParams

SMALL_CHI = "small-chi"
LARGE_CHI = "large-chi"


def magnon_dephasing_rate(n_m: float, params: SystemParams) -> float:
    """Added qubit dephasing from magnon occupation fluctuations.

    2 n_m kappa_m chi_qm^2 / (kappa_m^2 + chi_qm^2); saturates toward
    2 n_m kappa_m as |chi_qm| grows.
    """
    if n_m < 0:
        raise ValueError("magnon occupation must be >= 0")
    chi2 = params.chi_qm**2
    denom = params.kappa_m**2 + chi2
    if denom == 0.0:
        return 0.0
    return 2.0 * n_m * params.kappa_m * chi2 / denom


def dephasing_rate(n_m: float, params: SystemParams) -> float:
    """Total qubit dephasing rate gamma_2^0 plus the magnon contribution."""
    return params.gamma2_0 + magnon_dephasing_rate(n_m, params)


def stark_shift(n_m: float, chi_qm: float) -> float:
    """Qubit frequency shift chi_qm * n_m (rad/s, signed)."""
    if n_m < 0:
        raise ValueError("magnon occupation must be >= 0")
    return chi_qm * n_m


@dataclass(frozen=True)
class CalibrationResult:
    """Magnon-number calibration from Stark and dephasing slopes."""

    chi_qm: float  # rad/s, magnitude of the shift per magnon
    c_pump: float  # magnons per W
    gamma2_0: float  # rad/s, input zero-power dephasing rate
    rho: float  # dephasing slope / Stark slope
    root: str  # SMALL_CHI or LARGE_CHI

    def __post_init__(self) -> None:
        if self.chi_qm <= 0 or self.c_pump <= 0:
            raise CalibrationError("calibration must yield chi_qm > 0 and c_pump > 0")
        if self.root not in (SMALL_CHI, LARGE_CHI):
            raise CalibrationError(f"unknown root tag {self.root!r}")


def calibrate_magnon_number(
    stark_slope: float,
    dephasing_slope: float,
    kappa_m: float,
    gamma2_0: float,
    root: str = SMALL_CHI,
) -> CalibrationResult:
    """Solve for (chi_qm, c_pump) from power-slope measurements.

    The Stark slope is s1 = |chi_qm| c_pump and the dephasing slope is
    s2 = c_pump * 2 kappa_m chi_qm^2/(kappa_m^2 + chi_qm^2), so their ratio
    rho = s2/s1 = 2 kappa_m chi/(kappa_m^2 + chi^2) fixes chi independently
    of c_pump. The quadratic has roots chi_pm = kappa_m (1 -+ sqrt(1 -
    rho^2))/rho with chi_+ chi_- = kappa_m^2; the small root is the
    dispersive-regime solution and is the default.

    Parameters
    ----------
    stark_slope : float
        |d(line shift)/dP|, rad/s per W, > 0.
    dephasing_slope : float
        d(dephasing rate)/dP, rad/s per W, > 0.
    kappa_m : float
        Magnon energy decay rate, rad/s.
    gamma2_0 : float
        Zero-power dephasing rate, recorded in the result.
    root : str
        SMALL_CHI (default) or LARGE_CHI.
    """
    if stark_slope <= 0 or dephasing_slope <= 0:
        raise CalibrationError("both slopes must be > 0")
    if kappa_m <= 0:
        raise CalibrationError("kappa_m must be > 0")
    if root not in (SMALL_CHI, LARGE_CHI):
        raise CalibrationError(f"unknown root selector {root!r}")
    rho = dephasing_slope / stark_slope
    if rho > 1.0:
        raise CalibrationError(
            f"slope ratio rho = {rho:.4g} > 1: no real chi solves the dephasing model"
        )
    discriminant = math.sqrt(max(1.0 - rho**2, 0.0))
    if root == SMALL_CHI:
        chi = kappa_m * (1.0 - discriminant) / rho
    else:
        chi = kappa_m * (1.0 + discriminant) / rho
    return CalibrationResult(
        chi_qm=chi,
        c_pump=stark_slope / chi,
        gamma2_0=gamma2_0,
        rho=rho,
        root=root,
    )


def snr(p_e, p_e_prime, sigma, sigma_prime) -> np.ndarray:
    """|P_e - P_e'| / sqrt(sigma^2 + sigma'^2), elementwise over arrays."""
    if np.any(sigma <= 0) or np.any(sigma_prime <= 0):
        raise EstimationError("standard errors must be > 0")
    return np.abs(p_e - p_e_prime) / np.sqrt(np.square(sigma) + np.square(sigma_prime))


def linear_slope(x: np.ndarray, y: np.ndarray, y_err: np.ndarray | None = None):
    """Slope and its standard error from a first-order polynomial fit."""
    result = fit_curve(
        FitModel("polynomial", order=1),
        np.asarray(x, dtype=float),
        np.asarray(y, dtype=float),
        y_err=y_err,
    )
    return result.parameter("c1"), result.stderr("c1")
