"""Tests for Stark, dephasing, calibration, and SNR relations."""

import math
from dataclasses import replace

import numpy as np
import pytest

from magsense.analysis import (
    LARGE_CHI,
    SMALL_CHI,
    CalibrationResult,
    calibrate_magnon_number,
    dephasing_rate,
    linear_slope,
    magnon_dephasing_rate,
    snr,
    stark_shift,
)
from magsense.errors import CalibrationError, EstimationError
from magsense.params import TWO_PI, SystemParams


def test_dephasing_rate_at_zero_occupation():
    p = SystemParams.reference()
    assert dephasing_rate(0.0, p) == p.gamma2_0


def test_dephasing_rate_hundred_magnons():
    p = SystemParams.reference()
    added = dephasing_rate(100.0, p) - p.gamma2_0
    # 2 * 100 * kappa * chi^2/(kappa^2 + chi^2) with chi/2pi = 67 kHz,
    # kappa/2pi = 4.81 MHz
    assert added / TWO_PI == pytest.approx(187e3, rel=0.01)


def test_dephasing_monotone_saturation_in_chi():
    p = SystemParams.reference()
    rates = []
    for chi_scale in (1.0, 10.0, 100.0, 1e4):
        q = replace(p, chi_qm=p.chi_qm * chi_scale, t2r=p.t2r)
        rates.append(magnon_dephasing_rate(5.0, q))
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 2.0 * 5.0 * p.kappa_m
    # deficit is (kappa/chi)^2 = 5.2e-5 at the largest scale
    assert rates[-1] == pytest.approx(2.0 * 5.0 * p.kappa_m, rel=1e-4)


def test_stark_shift_values():
    assert stark_shift(0.0, -TWO_PI * 67e3) == 0.0
    shift = stark_shift(100.0, -TWO_PI * 67e3)
    assert shift / TWO_PI == pytest.approx(-6.70e6, rel=1e-12)
    a, b = 17.0, 54.0
    chi = -TWO_PI * 67e3
    assert stark_shift(a + b, chi) == pytest.approx(
        stark_shift(a, chi) + stark_shift(b, chi), rel=1e-15
    )
    with pytest.raises(ValueError):
        stark_shift(-1.0, chi)


def make_slopes(chi, kappa, c_pump):
    s1 = chi * c_pump
    s2 = c_pump * 2.0 * kappa * chi**2 / (kappa**2 + chi**2)
    return s1, s2


def test_calibration_round_trip_noiseless():
    chi = TWO_PI * 67e3
    kappa = TWO_PI * 4.81e6
    c_pump = 3.7e8
    s1, s2 = make_slopes(chi, kappa, c_pump)
    result = calibrate_magnon_number(s1, s2, kappa, gamma2_0=1e4)
    assert result.rho == pytest.approx(0.02785, abs=2e-5)
    assert result.chi_qm == pytest.approx(chi, rel=1e-9)
    assert result.c_pump == pytest.approx(c_pump, rel=1e-9)
    assert result.root == SMALL_CHI


def test_calibration_small_rho_expansion():
    kappa = TWO_PI * 4.81e6
    for rho in (0.01, 0.005, 0.001):
        result = calibrate_magnon_number(1.0, rho, kappa, gamma2_0=0.0)
        assert result.chi_qm == pytest.approx(kappa * rho / 2.0, rel=0.01)


def test_calibration_root_identity():
    chi = TWO_PI * 200e3
    kappa = TWO_PI * 4.81e6
    s1, s2 = make_slopes(chi, kappa, 1e8)
    small = calibrate_magnon_number(s1, s2, kappa, 0.0, root=SMALL_CHI)
    large = calibrate_magnon_number(s1, s2, kappa, 0.0, root=LARGE_CHI)
    assert small.chi_qm * large.chi_qm == pytest.approx(kappa**2, rel=1e-12)
    assert large.chi_qm > small.chi_qm


def test_calibration_error_cases():
    kappa = TWO_PI * 4.81e6
    with pytest.raises(CalibrationError):
        calibrate_magnon_number(1.0, 1.5, kappa, 0.0)
    with pytest.raises(CalibrationError):
        calibrate_magnon_number(0.0, 1.0, kappa, 0.0)
    with pytest.raises(CalibrationError):
        calibrate_magnon_number(1.0, 0.5, kappa, 0.0, root="median-chi")
    degenerate = calibrate_magnon_number(1.0, 1.0, kappa, 0.0)
    assert degenerate.chi_qm == pytest.approx(kappa, rel=1e-12)


def test_calibration_result_validation():
    with pytest.raises(CalibrationError):
        CalibrationResult(
            chi_qm=-1.0,
            c_pump=1.0,
            gamma2_0=0.0,
            rho=0.1,
            root=SMALL_CHI,
        )


def test_snr_values():
    assert snr(0.4, 0.4, 0.05, 0.05) == 0.0
    assert snr(0.5, 0.4, 0.05, 0.05) == pytest.approx(1.414, abs=1e-3)
    with pytest.raises(EstimationError):
        snr(0.5, 0.4, 0.0, 0.05)


def test_snr_shot_scaling():
    sigma = 0.2
    base = snr(0.5, 0.4, sigma / math.sqrt(100), sigma / math.sqrt(100))
    quad = snr(0.5, 0.4, sigma / math.sqrt(400), sigma / math.sqrt(400))
    assert quad == pytest.approx(2.0 * base, rel=1e-12)


def test_linear_slope_recovery():
    rng = np.random.default_rng(13)
    x = np.linspace(0.0, 1.0, 30)
    y = 0.3 + 2.5 * x + 0.01 * rng.standard_normal(30)
    slope, err = linear_slope(x, y)
    assert slope == pytest.approx(2.5, abs=5 * err)
    assert err > 0.0
