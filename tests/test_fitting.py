"""Tests for the damped least-squares fitting engine."""

import math

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
    for family in ("gaussian", "lorentzian", "sinusoid", "exponential-decay"):
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


def test_result_accessors():
    model = FitModel("gaussian")
    x = np.linspace(0.0, 6.0, 41)
    result = fit_curve(model, x, model.evaluate(x, np.array([1.0, 3.0, 0.5, 0.0])))
    assert result.parameter("center") == pytest.approx(3.0, rel=1e-8)
    assert result.stderr("center") >= 0.0
    assert len(result.predict(x)) == len(x)


# -- lockstep engine against the scalar Levenberg-Marquardt loop ------------


def _reference_fit(model, x, y, y_err=None, init=None, exp=np.exp):
    """The scalar one-row Levenberg-Marquardt loop the lockstep engine replaced.

    Kept verbatim as an oracle, except that ``exp`` maps log parameters back
    to natural ones: the engine uses np.exp, while the scalar loop used
    math.exp, which differs in the last bit for some arguments.
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
        jac = np.empty((len(x), len(theta)))
        for k in range(len(theta)):
            h = 1e-6 * max(1.0, abs(theta[k]))
            up = theta.copy()
            dn = theta.copy()
            up[k] += h
            dn[k] -= h
            jac[:, k] = (residuals(up) - residuals(dn)) / (2.0 * h)
        return jac

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


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize(
    "model,x,truth", ZERO_NOISE_CASES, ids=[c[0].family for c in ZERO_NOISE_CASES]
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
    # the first invalid row raises, whichever check it fails
    flat = np.full(41, 0.3)
    with pytest.raises(ValueError, match="y_err"):
        fitting.fit_rows(model, x, [good, flat], [np.zeros(41), None])
    with pytest.raises(ValueError, match="expects 4 parameters"):
        fitting.fit_rows(model, x, [good, flat], None, [np.ones(2), None])
    with pytest.raises(DegenerateDataError):
        fitting.fit_rows(model, x, [good, flat, good[:-1]])
    with pytest.raises(ValueError, match="matching one-dimensional"):
        fitting.fit_rows(model, x, [good, good[:-1], flat])
    poly = fitting.fit_rows(FitModel("polynomial", order=1), x, [x, 2.0 * x])
    assert [fit.parameter("c1") for fit in poly] == pytest.approx([1.0, 2.0])
    assert fitting.fit_rows(model, x, []) == []


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
    assert np.all(np.diag(batch[0].covariance) > 0)
    assert np.diag(batch[1].covariance)[:3].tolist() == [0.0, 0.0, 0.0]
    assert batch[1].stderr("offset") > 0
