"""Tests for the damped least-squares fitting engine."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from magsense import fitting
from magsense.errors import DegenerateDataError, FitRankError
from magsense.fitting import (
    FitModel,
    fit_curve,
    interpolate_poly,
)

ZERO_NOISE_CASES = [
    (FitModel("gaussian"), np.linspace(0.0, 6.0, 41), [1.0, 3.0, 0.5, 0.05]),
    (FitModel("lorentzian"), np.linspace(-5.0, 5.0, 61), [2.0, 0.3, 1.2, 0.1]),
    (FitModel("exponential-decay"), np.linspace(0.0, 5.0, 30), [1.0, 1.3, 0.2]),
    (FitModel("saturating-exponential"), np.linspace(0.0, 5.0, 30), [2.0, 1.5, 0.8]),
    (FitModel("sinusoid"), np.linspace(0.0, 2.0, 80), [0.4, 2.3, 1.0, 0.5]),
    (FitModel("fringe"), np.linspace(0.0, 2.0 * math.pi, 13), [0.5, 0.3, -0.2]),
    (
        FitModel("double-gaussian"),
        np.linspace(-2.0, 4.0, 101),
        [1.0, 0.1, 0.35, 0.6, 1.9, 0.4, 0.02],
    ),
    (
        FitModel("damped-sinusoid"),
        np.linspace(0.0, 3.0, 120),
        [0.8, 1.1, 3.0, 0.7, 0.2],
    ),
]


@pytest.mark.parametrize(
    "model,x,truth", ZERO_NOISE_CASES, ids=[c[0].family for c in ZERO_NOISE_CASES]
)
def test_zero_noise_fixed_point(model, x, truth):
    truth = np.array(truth)
    y = model.evaluate(x, truth)
    result = fit_curve(model, x, y)
    assert result.converged
    assert result.parameters == pytest.approx(truth, rel=1e-6, abs=1e-9)


def test_gaussian_recovery_tight():
    model = FitModel("gaussian")
    x = np.linspace(0.0, 6.0, 41)
    truth = np.array([1.0, 3.0, 0.5, 0.0])
    result = fit_curve(model, x, model.evaluate(x, truth))
    assert result.converged
    assert result.parameters[:3] == pytest.approx(truth[:3], rel=1e-8)


def test_lorentzian_half_maximum_identity():
    model = FitModel("lorentzian")
    x = np.linspace(-4.0, 4.0, 81)
    truth = np.array([1.4, -0.2, 1.7, 0.3])
    result = fit_curve(model, x, model.evaluate(x, truth))
    a = result.parameter("amplitude")
    mu = result.parameter("center")
    fwhm = result.parameter("fwhm")
    c = result.parameter("offset")
    for edge in (mu - 0.5 * fwhm, mu + 0.5 * fwhm):
        value = result.predict(np.array([edge]))[0]
        assert value - c == pytest.approx(0.5 * a, rel=1e-12)


def test_exponential_tau_monte_carlo():
    rng = np.random.default_rng(20260825)
    model = FitModel("exponential-decay")
    tau = 33.1e-9
    truth = np.array([1.0, tau, 0.0])
    x = np.linspace(0.0, 5.0 * tau, 30)
    clean = model.evaluate(x, truth)
    taus = []
    variances = []
    for _ in range(200):
        y = clean + 0.05 * rng.standard_normal(len(x))
        result = fit_curve(model, x, y)
        assert result.converged
        taus.append(result.parameter("tau"))
        variances.append(result.stderr("tau") ** 2)
    taus = np.array(taus)
    assert np.mean(taus) == pytest.approx(tau, rel=0.02)
    ratio = np.var(taus, ddof=1) / np.mean(variances)
    assert 0.7**2 < ratio < 1.3**2


def test_monotone_rss_over_accepted_iterations():
    rng = np.random.default_rng(11)
    model = FitModel("gaussian")
    x = np.linspace(0.0, 6.0, 61)
    y = model.evaluate(x, np.array([1.0, 3.0, 0.5, 0.0])) + 0.05 * rng.standard_normal(61)
    result = fit_curve(model, x, y)
    trace = result.rss_trace
    assert len(trace) >= 2
    assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))


def test_covariance_symmetric_positive_semidefinite():
    rng = np.random.default_rng(3)
    model = FitModel("lorentzian")
    x = np.linspace(-5.0, 5.0, 81)
    y = model.evaluate(x, np.array([2.0, 0.0, 1.0, 0.1])) + 0.02 * rng.standard_normal(81)
    result = fit_curve(model, x, y)
    assert result.converged
    cov = result.covariance
    assert np.allclose(cov, cov.T)
    eigs = np.linalg.eigvalsh(cov)
    assert np.min(eigs) >= -1e-12 * max(np.max(eigs), 1.0)


def test_sinusoid_phase_canonicalization():
    model = FitModel("sinusoid")
    x = np.linspace(0.0, 2.0, 90)
    # negative amplitude and out-of-range phase must fold into a >= 0,
    # phase in [0, 2pi)
    y = -0.7 * np.sin(2.0 * math.pi * 1.8 * x + 0.4) + 0.1
    result = fit_curve(model, x, y)
    assert result.converged
    assert result.parameter("amplitude") >= 0.0
    assert 0.0 <= result.parameter("phase") < 2.0 * math.pi
    assert result.parameter("phase") == pytest.approx(0.4 + math.pi, rel=1e-6)
    assert result.predict(x) == pytest.approx(y, abs=1e-8)


def test_unwrap_phase_series_continuity():
    t = np.linspace(0.0, 1.0, 40)
    ramp = 9.0 * (1.0 - np.exp(-3.0 * t))
    wrapped = np.mod(ramp, 2.0 * math.pi)
    unwrapped = np.unwrap(wrapped)
    assert np.max(np.abs(np.diff(unwrapped))) < math.pi
    assert unwrapped == pytest.approx(ramp, abs=1e-9)


def test_constant_data_is_degenerate():
    x = np.linspace(0.0, 1.0, 20)
    y = np.full(20, 0.3)
    for family in ("gaussian", "lorentzian", "sinusoid", "exponential-decay", "fringe"):
        with pytest.raises(DegenerateDataError):
            fit_curve(FitModel(family), x, y)


def test_data_preconditions():
    model = FitModel("gaussian")
    with pytest.raises(DegenerateDataError, match="gaussian fit needs at least 5 points"):
        fit_curve(model, np.arange(4.0), np.arange(4.0))
    x = np.linspace(0.0, 1.0, 10)
    y = x.copy()
    y[3] = np.nan
    with pytest.raises(DegenerateDataError, match="fit data must be finite"):
        fit_curve(model, x, y)


def test_supplied_init_validation():
    model = FitModel("gaussian")
    x = np.linspace(0.0, 6.0, 41)
    y = model.evaluate(x, np.array([1.0, 3.0, 0.5, 0.0]))
    good = fit_curve(model, x, y, init=np.array([0.9, 2.8, 0.6, 0.01]))
    assert good.converged
    assert good.parameter("sigma") == pytest.approx(0.5, rel=1e-8)
    with pytest.raises(ValueError):
        fit_curve(model, x, y, init=np.array([1.0, 3.0]))
    with pytest.raises(ValueError):
        fit_curve(model, x, y, init=np.array([1.0, 3.0, -0.5, 0.0]))


def test_peak_row_start_seeds_an_edge_line_at_its_maximum():
    # an upward line whose center sits on the last grid point
    x = np.linspace(-4.0, 0.0, 41)
    y = 0.7 * np.exp(-0.5 * (x / 0.6) ** 2) + 0.05
    start = fitting.peak_row_starts(x, y[None])[0]
    assert start[1] == x[np.argmax(y)] == x[-1]
    assert start[0] == pytest.approx(np.max(y) - np.min(y))
    assert start[3] == np.min(y)
    fit = fit_curve(FitModel("gaussian"), x, y, init=start)
    assert fit.parameter("center") == pytest.approx(0.0, abs=1e-6)
    assert fit.parameter("sigma") == pytest.approx(0.6, rel=1e-6)


def _peak_row_start(x, y):
    """Per-row scalar oracle of ``peak_row_starts``."""
    top = float(np.max(y))
    floor = float(np.min(y))
    step = float(np.median(np.diff(np.sort(x))))
    n_half = int(np.sum(y - floor > 0.5 * (top - floor)))
    sigma = max(n_half, 1) * step / 2.355
    return np.array([max(top - floor, 1e-9), float(x[np.argmax(y)]), sigma, floor])


def test_peak_row_starts_equal_the_per_row_oracle_bit_for_bit():
    rng = np.random.default_rng(17)
    x = np.sort(rng.uniform(-3.0, 3.0, 27))
    random_rows = rng.uniform(0.0, 1.0, (40, 27))
    constant_rows = np.full((3, 27), 0.25)
    tied = rng.uniform(0.0, 0.5, (4, 27))
    tied[:, [2, 11, 26]] = 0.9  # the first maximum wins
    rows = np.concatenate((random_rows, constant_rows, tied, np.zeros((1, 27))))
    starts = fitting.peak_row_starts(x, rows)
    oracle = np.array([_peak_row_start(x, row) for row in rows])
    assert starts.shape == (len(rows), 4)
    assert starts.tobytes() == oracle.tobytes()
    assert np.all(starts[43:47, 1] == x[2])


def _exponential_decay_start(x, y):
    """Oracle: the exponential-decay initializer as written on its own."""
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    n_tail = max(3, len(xs) // 10)
    c0 = float(np.mean(ys[-n_tail:]))
    w = ys - c0
    sign = 1.0 if abs(np.max(w)) >= abs(np.min(w)) else -1.0
    span = float(xs[-1] - xs[0]) or 1.0
    est = fitting._log_linear_rate(xs - xs[0], sign * w)
    if est is None:
        a0, tau0 = float(ys[0] - c0), span / 2.0
    else:
        a0, tau0 = sign * est[0], est[1]
        a0 *= math.exp(xs[0] / tau0) if xs[0] / tau0 < 50 else 1.0
    if a0 == 0.0:
        a0 = float(np.ptp(ys)) or 1.0
    return np.array([a0, max(tau0, 1e-3 * span), c0])


def _saturating_start(x, y):
    """Oracle: the saturating-exponential initializer as written on its own."""
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    n_tail = max(3, len(xs) // 10)
    y_inf0 = float(np.mean(ys[-n_tail:]))
    w = y_inf0 - ys
    sign = 1.0 if abs(np.max(w)) >= abs(np.min(w)) else -1.0
    span = float(xs[-1] - xs[0]) or 1.0
    est = fitting._log_linear_rate(xs - xs[0], sign * w)
    if est is None:
        a0, tau0 = float(y_inf0 - ys[0]), span / 2.0
    else:
        a0, tau0 = sign * est[0], est[1]
        a0 *= math.exp(xs[0] / tau0) if xs[0] / tau0 < 50 else 1.0
    if a0 == 0.0:
        a0 = float(np.ptp(ys)) or 1.0
    return np.array([y_inf0, a0, max(tau0, 1e-3 * span)])


def test_exponential_starts_equal_their_own_initializers_bit_for_bit():
    rng = np.random.default_rng(23)
    x = rng.permutation(np.linspace(0.5, 6.0, 30))  # unsorted, not from 0
    decay = FitModel("exponential-decay")
    rising = FitModel("saturating-exponential")
    rows = []
    for _ in range(60):
        noise = 10.0 ** rng.uniform(-4.0, 0.0) * rng.standard_normal(len(x))
        truth = [rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0), rng.uniform(0.2, 4.0), 0.3]
        rows.append(decay.evaluate(x, np.array(truth)) + noise)
        rows.append(rising.evaluate(x, np.array([0.3, truth[0], truth[1]])) + noise)
    # growth (no log-linear decay), a single step, and data at its tail level
    rows += [np.exp(x / 3.0), np.where(x < 1.0, 2.0, 0.0), np.full(len(x), 0.3)]
    for y in rows:
        assert fitting._init_exponential(x, y).tobytes() == _exponential_decay_start(x, y).tobytes()
        assert fitting._init_saturating(x, y).tobytes() == _saturating_start(x, y).tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 121, 350, 351])
def test_median_is_numpy_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    rows = (
        rng.standard_normal(n),
        0.4 + 1e-3 * rng.standard_normal(n),
        rng.integers(-2, 3, n) / 4.0,  # ties and signed zeros
        np.diff(np.sort(rng.uniform(0.0, 1e8, n + 1))),
    )
    for row in rows:
        assert np.float64(fitting._median(row)).tobytes() == np.median(row).tobytes()


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan], ids=["zero", "negative", "nan"])
def test_usable_errors_needs_every_error_above_zero(bad):
    errors = [0.1, 0.2, 0.3]
    usable = fitting.usable_errors(errors)
    assert usable.dtype == float and np.array_equal(usable, errors)
    errors[1] = bad
    assert fitting.usable_errors(errors) is None


def test_fit_model_validation():
    with pytest.raises(ValueError):
        FitModel("spline")
    with pytest.raises(ValueError):
        FitModel("polynomial")
    with pytest.raises(ValueError):
        FitModel("gaussian", order=2)


def test_polynomial_family_exact():
    model = FitModel("polynomial", order=2)
    x = np.linspace(-1.0, 2.0, 9)
    truth = np.array([0.5, -1.0, 2.0])
    result = fit_curve(model, x, model.evaluate(x, truth))
    assert result.converged
    assert result.parameters == pytest.approx(truth, rel=1e-12, abs=1e-12)
    assert result.parameter_names == ("c0", "c1", "c2")


def test_a_weighted_line_takes_its_errors_as_absolute():
    # (A^T W A)^-1 with no chi-square rescaling: the slope's error scales
    # with the given errors, whatever the scatter about the line
    model = FitModel("polynomial", order=1)
    x = np.linspace(0.0, 4.0, 21)
    y = 1.0 + 2.0 * x + 0.05 * np.random.default_rng(2).standard_normal(len(x))
    spread = math.sqrt(np.sum((x - np.mean(x)) ** 2))
    for s in (0.1, 1.0, 10.0):
        fit = fit_curve(model, x, y, y_err=np.full(len(x), s))
        assert fit.stderr("c1") == pytest.approx(s / spread, rel=1e-12)
    # unweighted, the residual variance stands in for the errors
    fit = fit_curve(model, x, y)
    assert fit.stderr("c1") == pytest.approx(math.sqrt(fit.rss / 19) / spread, rel=1e-12)


def test_polynomials_evaluate_as_numpy_polyval_bit_for_bit():
    from numpy.polynomial import polynomial as oracle

    rng = np.random.default_rng(20)
    for _ in range(400):
        c = rng.standard_normal(rng.integers(1, 7)) * 10.0 ** rng.integers(-6, 7)
        x = rng.standard_normal(rng.integers(1, 40)) * 10.0 ** rng.integers(-3, 4)
        model = FitModel("polynomial", order=len(c) - 1)
        interpolant = fitting.PolyInterpolant(c, -1.0, 1.0)
        for at in (x, x[0]):
            expected = oracle.polyval(np.asarray(at), c)
            assert model.evaluate(at, c).tobytes() == expected.tobytes()
            assert interpolant.evaluate(at)[0].tobytes() == expected.tobytes()
    # a batch of coefficient vectors, as the residuals evaluate one
    batch = rng.standard_normal((5, 4))
    model = FitModel("polynomial", order=3)
    rows = model.evaluate(x, batch.T[..., None])
    assert rows.shape == (len(batch), len(x))
    for row, c in zip(rows, batch):
        assert row.tobytes() == oracle.polyval(x, c).tobytes()


def test_weighted_fit_covariance_uses_absolute_errors():
    rng = np.random.default_rng(5)
    model = FitModel("exponential-decay")
    truth = np.array([1.0, 2.0, 0.0])
    x = np.linspace(0.0, 8.0, 40)
    clean = model.evaluate(x, truth)
    sigma = 0.03
    taus = []
    variances = []
    for _ in range(200):
        y = clean + sigma * rng.standard_normal(len(x))
        result = fit_curve(model, x, y, y_err=np.full(len(x), sigma))
        taus.append(result.parameter("tau"))
        variances.append(result.stderr("tau") ** 2)
    ratio = np.var(np.array(taus), ddof=1) / np.mean(variances)
    assert 0.5 < ratio < 2.0


def test_interpolate_poly_exact_parabola():
    x = np.array([0.0, 1.0, 2.0])
    y = 0.5 + 2.0 * x - 3.0 * x**2
    interp = interpolate_poly(x, y, order=2)
    assert interp.coefficients == pytest.approx([0.5, 2.0, -3.0], rel=1e-12, abs=1e-12)
    value, outside = interp.evaluate(np.array([0.5, 1.5]))
    assert not np.any(outside)
    assert value == pytest.approx(0.5 + 2.0 * np.array([0.5, 1.5]) - 3.0 * np.array([0.5, 1.5]) ** 2)


def test_interpolate_poly_constant_data():
    x = np.linspace(0.0, 4.0, 7)
    y = np.full(7, 1.25)
    interp = interpolate_poly(x, y, order=2)
    assert interp.coefficients[0] == pytest.approx(1.25, rel=1e-12)
    assert abs(interp.coefficients[1]) < 1e-12
    assert abs(interp.coefficients[2]) < 1e-12


def test_interpolate_poly_flags_extrapolation():
    x = np.linspace(0.0, 2.0, 5)
    interp = interpolate_poly(x, x**2, order=2)
    _, outside = interp.evaluate(np.array([-0.5, 1.0, 2.5]))
    assert outside.tolist() == [True, False, True]


def test_interpolate_poly_rank_deficiency():
    x = np.array([1.0, 1.0, 1.0])
    y = np.array([0.0, 1.0, 2.0])
    with pytest.raises(FitRankError):
        interpolate_poly(x, y, order=2)
    with pytest.raises(FitRankError):
        fit_curve(FitModel("polynomial", order=2), np.ones(4), np.arange(4.0))


def test_result_accessors():
    model = FitModel("gaussian")
    x = np.linspace(0.0, 6.0, 41)
    result = fit_curve(model, x, model.evaluate(x, np.array([1.0, 3.0, 0.5, 0.0])))
    assert result.parameter("center") == pytest.approx(3.0, rel=1e-8)
    assert result.stderr("center") >= 0.0
    assert len(result.predict(x)) == len(x)


# -- closed-form Jacobian against central differences -----------------------

ZERO_NOISE_BY_FAMILY = {
    case[0].family: case
    for case in ZERO_NOISE_CASES
    + [(FitModel("polynomial", order=3), np.linspace(-1.0, 2.0, 25), [0.5, -1.0, 2.0, 0.3])]
}


def _central_difference_jacobian(model, theta, x, y, sw):
    """Central differences of the rows' residuals, shape (rows, n, k).

    The engine's Jacobian before it took the closed form: 2k probes per
    row, through one broadcast model evaluation.
    """
    n_par = theta.shape[1]
    h = 1e-6 * np.maximum(1.0, np.abs(theta))
    shifts = h[:, :, None] * np.eye(n_par)
    probes = np.concatenate((theta[:, None, :] + shifts, theta[:, None, :] - shifts), axis=1)
    r = fitting._residuals(model, probes, x, y[:, None, :], sw[:, None, :])
    jac = (r[:, :n_par] - r[:, n_par:]) / (2.0 * h[:, :, None])
    return np.swapaxes(jac, 1, 2)


@pytest.mark.parametrize("family", list(fitting._FAMILIES))
def test_jacobian_matches_central_differences(family):
    # every fitted family needs a closed form, and a case here to check it
    model, x, truth = ZERO_NOISE_BY_FAMILY[family]
    rng = np.random.default_rng(sum(map(ord, family)))
    n_rows = 6
    p = np.asarray(truth) * (1.0 + 0.2 * rng.standard_normal((n_rows, len(truth))))
    positive = list(model._positive_indices())
    p[:, positive] = np.abs(p[:, positive])
    y = model.evaluate(x, np.asarray(truth)) + 0.05 * rng.standard_normal((n_rows, len(x)))
    sw = np.ones((n_rows, len(x)))
    sw[::2] = rng.uniform(0.5, 30.0, (len(sw[::2]), len(x)))  # weighted rows
    theta = fitting._to_internal(model, p)
    jac = fitting._jacobian(model, theta, x, sw)
    assert jac.shape == (n_rows, len(x), len(truth)) and jac.flags.c_contiguous
    oracle = _central_difference_jacobian(model, theta, x, y, sw)
    scale = np.max(np.abs(oracle), axis=1, keepdims=True)
    assert np.all(np.abs(jac - oracle) <= 1e-6 * scale)
    for i in range(n_rows):
        alone = fitting._jacobian(model, theta[i : i + 1], x, sw[i : i + 1])[0]
        assert alone.tobytes() == jac[i].tobytes()


def test_a_clamped_log_parameter_has_a_zero_jacobian_column():
    # past 700 the internal frequency no longer moves the model at all
    model, x, truth = ZERO_NOISE_BY_FAMILY["sinusoid"]
    theta = fitting._to_internal(model, np.array([truth, truth]))
    theta[1, 1] = 720.0
    y = np.tile(model.evaluate(x, np.asarray(truth)), (2, 1))
    sw = np.full(y.shape, 2.0)
    jac = fitting._jacobian(model, theta, x, sw)
    oracle = _central_difference_jacobian(model, theta, x, y, sw)
    assert np.all(jac[1, :, 1] == 0.0) and np.all(oracle[1, :, 1] == 0.0)
    assert np.all(np.isfinite(jac))
    # at a frequency near 1e304 the phase probes vanish in rounding, so
    # only the row beside it is compared whole
    scale = np.max(np.abs(oracle[0]), axis=0)
    assert np.all(np.abs(jac[0] - oracle[0]) <= 1e-6 * scale)


# -- lockstep engine against the scalar Levenberg-Marquardt loop ------------


def _reference_fit(model, x, y, y_err=None, init=None, exp=np.exp):
    """The scalar one-row Levenberg-Marquardt loop the lockstep engine replaced.

    Kept verbatim as an oracle, except in two places. ``exp`` maps log
    parameters back to natural ones: the engine uses np.exp, while the scalar
    loop used math.exp, which differs in the last bit for some arguments.
    And the Jacobian is the engine's closed form, which
    ``test_jacobian_matches_central_differences`` checks against the central
    differences this loop took; a difference quotient would move every
    iteration's step by about 1e-7 relative.
    """
    positive = model._positive_indices()

    def natural(theta):
        p = np.array(theta, dtype=float)
        for k in positive:
            p[k] = exp(min(p[k], 700.0))
        return p

    def residuals(theta):
        return (y - model.evaluate(x, natural(theta))) * np.sqrt(weights)

    def jacobian(theta):
        return fitting._jacobian(model, theta[None], x, np.sqrt(weights)[None])[0]

    weights = np.ones_like(y) if y_err is None else 1.0 / y_err**2
    p0 = fitting._auto_init(model, x, y) if init is None else np.asarray(init, dtype=float)
    theta = fitting._to_internal(model, p0)
    r = residuals(theta)
    rss = float(r @ r)
    lam = fitting.LAMBDA_INIT
    trace = [rss]
    converged = False
    message = ""
    n_iter = 0
    for n_iter in range(1, fitting.MAX_ITERATIONS + 1):
        jac = jacobian(theta)
        hess = jac.T @ jac
        grad = jac.T @ r
        if not np.all(np.isfinite(hess)) or not np.all(np.isfinite(grad)):
            message = "non-finite model derivatives"
            break
        accepted = False
        while lam <= fitting.LAMBDA_MAX:
            damping = np.diag(np.maximum(np.diag(hess), 1e-12 * np.max(np.abs(hess)) + 1e-300))
            try:
                step = -np.linalg.solve(hess + lam * damping, grad)
            except np.linalg.LinAlgError:
                lam *= fitting.LAMBDA_UP
                continue
            trial = theta + step
            r_trial = residuals(trial)
            rss_trial = float(r_trial @ r_trial)
            if np.isfinite(rss_trial) and rss_trial < rss:
                accepted = True
                break
            lam *= fitting.LAMBDA_UP
        if not accepted:
            converged = True
            if rss > 0.0 and float(np.max(np.abs(grad))) > 0.0:
                message = "stalled: no damped step reduces the residual"
            break
        rel = float(np.max(np.abs(step) / np.maximum(np.abs(trial), 1e-12)))
        theta = trial
        r = r_trial
        rss = rss_trial
        trace.append(rss)
        lam = max(lam / fitting.LAMBDA_DOWN, 1e-14)
        if rel < fitting.RELATIVE_STEP_TOL:
            converged = True
            break
    else:
        message = f"no convergence within {fitting.MAX_ITERATIONS} iterations"

    params = natural(theta)
    jac = jacobian(theta)
    dof = max(len(x) - len(params), 1)
    scale = 1.0 if y_err is not None else rss / dof
    try:
        cov_theta = scale * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov_theta = scale * np.linalg.pinv(jac.T @ jac)
    deriv = np.ones(len(params))
    for k in positive:
        deriv[k] = params[k]
    cov = cov_theta * np.outer(deriv, deriv)
    cov = 0.5 * (cov + cov.T)
    if model.family in ("sinusoid", "damped-sinusoid"):
        params, cov = fitting._canonicalize_sinusoid(model, params, cov)
    return fitting.FitResult(
        model=model,
        parameter_names=model.parameter_names(),
        parameters=params,
        covariance=cov,
        rss=rss,
        n_iter=n_iter,
        converged=converged,
        message=message,
        rss_trace=trace,
    )


def _noisy_rows(model, x, truth, weighted, seed, n_rows=4):
    rng = np.random.default_rng(seed)
    clean = model.evaluate(x, np.asarray(truth, dtype=float))
    sigma = 0.03 * float(np.max(np.abs(clean)))
    rows = [clean + sigma * rng.standard_normal(len(x)) for _ in range(n_rows)]
    errs = [np.full(len(x), sigma) if weighted else None for _ in range(n_rows)]
    return rows, errs


def _assert_matches_reference(result, reference):
    np.testing.assert_allclose(result.parameters, reference.parameters, rtol=1e-6)
    np.testing.assert_allclose(
        np.sqrt(np.diag(result.covariance)),
        np.sqrt(np.diag(reference.covariance)),
        rtol=1e-6,
    )
    assert result.converged == reference.converged


# a linear family's rows take no iteration: the normal equations check them
ITERATED_CASES = [case for case in ZERO_NOISE_CASES if not case[0]._linear()]


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize(
    "model,x,truth", ITERATED_CASES, ids=[c[0].family for c in ITERATED_CASES]
)
def test_lockstep_rows_match_the_scalar_loop(model, x, truth, weighted):
    rows, errs = _noisy_rows(model, x, truth, weighted, seed=len(x) + weighted)
    results = fitting.fit_rows(model, x, rows, errs)
    assert len(results) == len(rows)
    for result, y, y_err in zip(results, rows, errs):
        reference = _reference_fit(model, x, y, y_err)
        _assert_matches_reference(result, reference)
        assert (result.n_iter, result.message) == (reference.n_iter, reference.message)
        assert result.rss_trace == pytest.approx(reference.rss_trace, rel=1e-6)
        # with math.exp, as the scalar loop computed it, a last-bit change can
        # flip a converged fit's stop message between the step test and a
        # stall, but cannot move its fitted values by 1e-6
        _assert_matches_reference(result, _reference_fit(model, x, y, y_err, exp=math.exp))


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_fringe_rows_solve_the_normal_equations(weighted):
    model, x, truth = ZERO_NOISE_BY_FAMILY["fringe"]
    rows, errs = _noisy_rows(model, x, truth, weighted, seed=3)
    design = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    for fit, y, y_err in zip(fitting.fit_rows(model, x, rows, errs), rows, errs):
        w = np.ones_like(x) if y_err is None else 1.0 / y_err**2
        normal = design.T @ (w[:, None] * design)
        coeffs = np.linalg.solve(normal, design.T @ (w * y))
        rss = float(np.sum(w * (y - design @ coeffs) ** 2))
        # absolute errors when weighted, the residual variance otherwise
        cov = (1.0 if weighted else rss / (len(x) - 3)) * np.linalg.inv(normal)
        np.testing.assert_allclose(fit.parameters, coeffs, rtol=1e-10)
        np.testing.assert_allclose(fit.covariance, cov, rtol=1e-9, atol=1e-12 * np.max(cov))
        assert fit.rss == pytest.approx(rss, rel=1e-10)
        assert (fit.n_iter, fit.converged, fit.message, fit.rss_trace) == (0, True, "", [fit.rss])


def test_rows_do_not_depend_on_their_batch():
    model = FitModel("gaussian")
    x = np.linspace(0.0, 6.0, 41)
    rows, errs = _noisy_rows(model, x, [1.0, 3.0, 0.5, 0.05], True, seed=8, n_rows=6)
    errs[2] = None
    batch = fitting.fit_rows(model, x, rows, errs)

    def assert_same_fit(fit, expected):
        np.testing.assert_allclose(fit.parameters, expected.parameters, rtol=1e-12)
        np.testing.assert_allclose(fit.covariance, expected.covariance, rtol=1e-12)
        assert (fit.n_iter, fit.converged, fit.message) == (
            expected.n_iter,
            expected.converged,
            expected.message,
        )

    for y, y_err, expected in zip(rows, errs, batch):
        assert_same_fit(fit_curve(model, x, y, y_err=y_err), expected)
    for fit, expected in zip(fitting.fit_rows(model, x, rows[3:], errs[3:]), batch[3:]):
        assert_same_fit(fit, expected)


def test_mixed_batch_converged_exact_and_capped(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 6)
    model = FitModel("sinusoid")
    x = np.linspace(0.0, 2.0, 80)
    truth = np.array([0.4, 2.3, 1.0, 0.5])
    rng = np.random.default_rng(4)
    converging = model.evaluate(x, truth) + 0.01 * rng.standard_normal(len(x))
    exact = model.evaluate(x, truth)
    far = np.array([0.4, 0.6, 0.0, 0.5])
    rows = [converging, exact, exact]
    inits = [truth, truth, far]
    results = fitting.fit_rows(model, x, rows, None, inits)
    references = [_reference_fit(model, x, y, init=p0) for y, p0 in zip(rows, inits)]
    for result, reference in zip(results, references):
        _assert_matches_reference(result, reference)
        assert (result.n_iter, result.message) == (reference.n_iter, reference.message)
    assert results[0].converged and results[0].n_iter < 6
    assert results[1].converged and results[1].n_iter == 1 and results[1].rss == 0.0
    assert not results[2].converged and results[2].n_iter == 6
    assert results[2].message == "no convergence within 6 iterations"


def test_fits_leave_numpy_ma_unimported():
    # importing numpy.ma adds about 10 ms and 0.8 MB to every command that
    # fits; np.unique and np.median import it on first use
    code = """
import sys
import numpy as np
from magsense.fitting import FitModel, fit_rows
x = np.linspace(0.0, 6.0, 41)
model = FitModel("gaussian")
y = model.evaluate(x, np.array([1.0, 3.0, 0.5, 0.0])) + 0.01 * np.sin(7.0 * x)
fits = fit_rows(model, x, [y, y], [None, np.full(41, 0.01)], [None, [1.0, 1e4, 0.1, 0.0]])
assert not fits[1].converged
print("numpy.ma" in sys.modules)
"""
    src = str(Path(fitting.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_singular_damped_system_fails_only_its_row():
    system = np.array([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
    grad = np.array([[1.0, -2.0], [1.0, 1.0], [4.0, 2.0]])
    solved, steps = fitting._solve_rows(system, grad)
    assert solved.tolist() == [True, False, True]
    assert steps[0].tolist() == [-1.0, 2.0]
    assert steps[2].tolist() == [-2.0, -1.0]


def test_fit_rows_checks_every_row_before_iterating():
    model = FitModel("gaussian")
    x = np.linspace(0.0, 6.0, 41)
    good = model.evaluate(x, np.array([1.0, 3.0, 0.5, 0.0]))
    with pytest.raises(DegenerateDataError):
        fitting.fit_rows(model, x, [good, np.full(41, 0.3)])
    with pytest.raises(ValueError, match="y_err"):
        fitting.fit_rows(model, x, [good, good], [None, np.zeros(41)])
    with pytest.raises(ValueError, match="one entry per data row"):
        fitting.fit_rows(model, x, [good, good], [None])
    with pytest.raises(ValueError, match="expects 4 parameters"):
        fitting.fit_rows(model, x, [good, good], None, [None, np.ones(2)])
    with pytest.raises(ValueError, match="x and y must be matching one-dimensional"):
        fitting.fit_rows(model, x, [good, good[:-1], good])
    poly = fitting.fit_rows(FitModel("polynomial", order=1), x, [x, 2.0 * x])
    assert [fit.parameter("c1") for fit in poly] == pytest.approx([1.0, 2.0])
    assert fitting.fit_rows(model, x, []) == []


def test_y_err_rows_of_the_wrong_shape_raise_naming_y_err():
    model = FitModel("gaussian")
    x = np.linspace(0.0, 6.0, 41)
    good = model.evaluate(x, np.array([1.0, 3.0, 0.5, 0.0]))
    message = "x and y_err must be matching one-dimensional"
    with pytest.raises(ValueError, match=message):
        fitting.fit_rows(model, x, [good, good], [None, np.ones(40)])
    with pytest.raises(ValueError, match=message):
        fitting.fit_rows(model, x, [good, good], [np.ones(41), np.ones((2, 41))])
    with pytest.raises(ValueError, match=message):
        fit_curve(model, x, good, y_err=np.ones(40))


def test_the_first_check_that_any_row_fails_raises():
    # one row per check, the last check's row first: the check order, not
    # the row order, decides which error a stack raises
    model = FitModel("gaussian")
    x = np.linspace(0.0, 6.0, 41)
    good = model.evaluate(x, np.array([1.0, 3.0, 0.5, 0.0]))
    nan_row = good.copy()
    nan_row[5] = np.nan
    failing = [  # (row, y_err, init, error, message)
        (good, None, np.ones(2), ValueError, "expects 4 parameters"),
        (good, np.zeros(41), None, ValueError, "y_err must be > 0"),
        (np.full(41, 0.3), None, None, DegenerateDataError, "constant data"),
        (nan_row, None, None, DegenerateDataError, "fit data must be finite"),
        (good[:-1], None, None, ValueError, "x and y must be matching"),
    ]
    for k, (*_, error, message) in enumerate(failing):
        rows, errs, inits = zip(*(case[:3] for case in failing[: k + 1]))
        with pytest.raises(error, match=message):
            fitting.fit_rows(model, x, [good, *rows], [None, *errs], [None, *inits])
    # too few points for every row comes before constant rows and errors
    with pytest.raises(DegenerateDataError, match="needs at least 5 points"):
        fitting.fit_rows(model, x[:4], [np.full(4, 0.3)], [np.zeros(4)])
    # every start is taken before any log parameter is checked
    model = FitModel("double-gaussian")
    x = np.linspace(-2.0, 4.0, 101)
    good = model.evaluate(x, np.array([1.0, 0.1, 0.35, 0.6, 1.9, 0.4, 0.02]))
    rows = [good, 0.5 * good, 2.0 * good]
    both_bad = np.array([1.0, 0.1, -0.35, 0.6, 1.9, 0.0, 0.02])
    for inits in ([None, both_bad, np.ones(3)], [None, np.ones(3), both_bad]):
        with pytest.raises(ValueError, match="expects 7 parameters"):
            fitting.fit_rows(model, x, rows, None, inits)


def test_the_first_invalid_start_raises_its_first_error():
    model = FitModel("double-gaussian")
    x = np.linspace(-2.0, 4.0, 101)
    good = model.evaluate(x, np.array([1.0, 0.1, 0.35, 0.6, 1.9, 0.4, 0.02]))
    rows = [good, 0.5 * good, 2.0 * good]
    both_bad = np.array([1.0, 0.1, -0.35, 0.6, 1.9, 0.0, 0.02])
    with pytest.raises(ValueError, match="parameter sigma_1 must be > 0"):
        fitting.fit_rows(model, x, rows, None, [None, both_bad, None])
    with pytest.raises(ValueError, match="expects 7 parameters"):
        fitting.fit_rows(model, x, rows, None, [None, np.ones(3), None])
    both_bad[2] = 0.35
    with pytest.raises(ValueError, match="parameter sigma_2 must be > 0"):
        fitting.fit_rows(model, x, rows, None, [None, None, both_bad])
    theta = fitting._internal_starts(model, x, np.array(rows), [None] * 3)
    for row, start in zip(rows, theta):
        alone = fitting._internal_starts(model, x, row[None], [None])
        assert alone[0].tobytes() == start.tobytes()


def test_a_non_finite_row_raises_without_a_warning():
    model = FitModel("gaussian")
    x = np.linspace(0.0, 6.0, 41)
    good = model.evaluate(x, np.array([1.0, 3.0, 0.5, 0.0]))
    rows = [good, np.full(41, np.inf), np.full(41, np.nan), np.where(x > 3.0, -np.inf, good)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDataError, match="fit data must be finite"):
            fitting.fit_rows(model, x, rows)


def test_singular_normal_matrix_takes_the_pseudo_inverse_for_its_row_only():
    # a start far off the grid leaves the peak's columns of J exactly zero
    model = FitModel("gaussian")
    x = np.linspace(0.0, 6.0, 41)
    y = model.evaluate(x, np.array([1.0, 3.0, 0.5, 0.0])) + 0.01 * np.sin(7.0 * x)
    far = np.array([1.0, 1e4, 0.1, 0.0])
    batch = fitting.fit_rows(model, x, [y, y], None, [None, far])
    for fit, init in zip(batch, [None, far]):
        alone = fit_curve(model, x, y, init=init)
        np.testing.assert_allclose(fit.parameters, alone.parameters, rtol=1e-12)
        np.testing.assert_allclose(fit.covariance, alone.covariance, rtol=1e-12)
        assert (fit.converged, fit.message) == (alone.converged, alone.message)
    assert np.all(np.diag(batch[0].covariance) > 0) and batch[0].converged
    assert np.diag(batch[1].covariance)[:3].tolist() == [np.inf, np.inf, np.inf]
    assert np.isfinite(batch[1].covariance[3, 3]) and batch[1].stderr("offset") > 0
    assert not batch[1].converged
    assert batch[1].message.endswith("undetermined parameters: amplitude, center, sigma")


def test_collinear_columns_leave_their_parameters_undetermined():
    # a line that only one grid point samples: its amplitude, center and
    # width columns are parallel, so the data fix one combination of them,
    # while the offset, orthogonal to that null space, stays determined
    jac = np.zeros((8, 4))
    jac[3, :3] = [1.0, 0.25, 0.0625]
    jac[:, 3] = 1.0
    normal = jac.T @ jac
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(normal)
    inverse = fitting._inverse(normal)
    assert np.diag(inverse)[:3].tolist() == [np.inf, np.inf, np.inf]
    assert inverse[3, 3] == pytest.approx(1.0 / 7.0, rel=1e-12)


def test_an_infinite_error_gives_its_point_no_weight():
    model = FitModel("polynomial", order=1)
    x = np.arange(6.0)
    y = 2.0 * x + 1.0
    y[2] = 50.0
    err = np.full(6, 0.1)
    err[2] = np.inf
    fit = fit_curve(model, x, y, y_err=err)
    assert fit.parameters == pytest.approx([1.0, 2.0], abs=1e-9)
    line = FitModel("exponential-decay")
    t = np.linspace(0.0, 5.0, 30)
    clean = line.evaluate(t, np.array([1.0, 1.3, 0.2]))
    spoiled = clean.copy()
    spoiled[7] += 3.0
    err = np.full(30, 0.01)
    err[7] = np.inf
    fit = fit_curve(line, t, spoiled, y_err=err)
    assert fit.converged and fit.parameters == pytest.approx([1.0, 1.3, 0.2], rel=1e-6)
    err[7] = np.nan
    with pytest.raises(ValueError, match="y_err must be > 0"):
        fit_curve(line, t, spoiled, y_err=err)
