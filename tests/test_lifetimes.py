"""Lifetime extraction tests: analytic decay law and both sensing routes."""

import dataclasses
import math

import numpy as np
import pytest

from magsense import fitting
from magsense.errors import DegenerateDataError, EstimationError
from magsense.lifetimes import (
    LifetimeEstimate,
    _fringe_starts,
    extract_kappa_m_from_scan,
    frequency_lifetimes,
    lifetime_from_frequency,
    lifetime_from_phase,
    parametric_qubit_decay,
    phase_lifetimes,
)
from magsense.params import PumpSpec, SystemParams
from magsense.protocols import (
    ProtocolConfig,
    run_decay_phase_sense,
    run_decay_spectroscopy,
    run_parametric_decay_scan,
)
from magsense.readout import ReadoutModel
from magsense.sweep import Axis, SweepDataset


def make_config(**overrides) -> ProtocolConfig:
    params = SystemParams.reference()
    defaults = dict(readout=ReadoutModel.for_qubit(params.t1), mode="expectation")
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


def test_parametric_decay_rate_values():
    kappa_m = 2 * math.pi * 4.81e6
    omega = 2 * math.pi * 0.66e6
    rate0, _ = parametric_qubit_decay(0.0, omega, kappa_m)
    assert rate0 == pytest.approx(omega**2 / kappa_m, rel=1e-12)
    assert 1.0 / rate0 == pytest.approx(1.76e-6, rel=0.01)
    # Lorentzian half-width: the rate halves at delta = +/- kappa_m/2
    for sign in (1.0, -1.0):
        rate_half, _ = parametric_qubit_decay(sign * kappa_m / 2, omega, kappa_m)
        assert rate_half == pytest.approx(rate0 / 2, rel=1e-12)
    with pytest.raises(ValueError):
        parametric_qubit_decay(0.0, omega, 0.0)
    with pytest.raises(ValueError):
        parametric_qubit_decay(0.0, -omega, kappa_m)


def test_parametric_exact_envelope_matches_rate():
    kappa_m = 2 * math.pi * 4.81e6
    omega = 2 * math.pi * 0.66e6
    rate, q_of_t = parametric_qubit_decay(0.0, omega, kappa_m)
    t = np.linspace(0.0, 3.0 / rate, 301)
    envelope = np.abs(q_of_t(t))
    assert envelope[0] == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(envelope - np.exp(-rate * t / 2))) < 0.03


def test_parametric_degenerate_point_is_continuous():
    kappa_m = 2 * math.pi * 4.81e6
    omega_c = kappa_m / 2  # beta = 0 exactly
    _, exact = parametric_qubit_decay(0.0, omega_c, kappa_m)
    _, nearby = parametric_qubit_decay(0.0, omega_c * (1 + 1e-6), kappa_m)
    t = np.linspace(0.0, 4.0 / kappa_m, 101)
    assert np.max(np.abs(exact(t) - nearby(t))) < 1e-4
    # series limit at t = 0
    assert exact(np.array([0.0]))[0] == pytest.approx(1.0, rel=1e-12)


def test_lifetime_estimate_validation():
    rate, _ = parametric_qubit_decay(0.0, 1e5, 1e7)
    good = None
    with pytest.raises(ValueError):
        LifetimeEstimate("phase", -1.0, 0.0, good)
    with pytest.raises(ValueError):
        LifetimeEstimate("parity", 1.0, 0.0, good)


def test_phase_lifetime_zero_noise_is_exact():
    params = SystemParams.reference()
    config = make_config()
    times = np.arange(0.0, 241e-9, 6e-9)
    phases = np.linspace(0.0, 2 * math.pi, 25)
    data = run_decay_phase_sense(params, 650.0, times, phases, config)
    estimate = lifetime_from_phase(data)
    assert estimate.method == "phase"
    assert estimate.lifetime == pytest.approx(1.0 / params.kappa_m, rel=1e-6)
    assert estimate.flags == ()
    # recovered asymptote matches the programmed accumulated phase
    assert estimate.fit.parameter("plateau") == pytest.approx(
        params.chi_qm * 650.0 / params.kappa_m, rel=1e-6
    )


def test_phase_lifetime_with_shot_noise():
    params = SystemParams.reference()
    config = make_config(mode="shots", n_shots=400, master_seed=2)
    times = np.arange(0.0, 241e-9, 6e-9)
    phases = np.linspace(0.0, 2 * math.pi, 25)
    data = run_decay_phase_sense(params, 650.0, times, phases, config)
    estimate = lifetime_from_phase(data)
    assert abs(estimate.lifetime - 33.1e-9) < 2e-9
    assert estimate.uncertainty > 0


def test_phase_lifetime_scales_with_kappa():
    params = SystemParams.reference()
    doubled = dataclasses.replace(params, kappa_m=2 * params.kappa_m)
    config = make_config()
    times = np.arange(0.0, 121e-9, 3e-9)
    phases = np.linspace(0.0, 2 * math.pi, 25)
    data = run_decay_phase_sense(doubled, 650.0, times, phases, config)
    estimate = lifetime_from_phase(data)
    assert estimate.lifetime == pytest.approx(0.5 / params.kappa_m, rel=1e-6)


def test_phase_lifetime_flags_ambiguous_steps():
    params = SystemParams.reference()
    config = make_config()
    # 40 ns steps advance the phase by > pi between early samples
    times = np.arange(0.0, 400e-9, 40e-9)
    phases = np.linspace(0.0, 2 * math.pi, 25)
    data = run_decay_phase_sense(params, 650.0, times, phases, config)
    estimate = lifetime_from_phase(data)
    assert "unwrap-ambiguity" in estimate.flags


def test_phase_lifetime_preconditions():
    params = SystemParams.reference()
    config = make_config()
    phases = np.linspace(0.0, 2 * math.pi, 25)
    data = run_decay_phase_sense(
        params, 10.0, np.linspace(0.0, 100e-9, 4), phases, config
    )
    with pytest.raises(EstimationError, match=">= 6"):
        lifetime_from_phase(data)
    wrong = run_decay_spectroscopy(
        params,
        10.0,
        np.linspace(0.0, 100e-9, 7),
        params.omega_q + np.linspace(-1e7, 1e7, 11),
        config,
    )
    with pytest.raises(EstimationError, match="decay-phase"):
        lifetime_from_phase(wrong)


def frequency_dataset(params, config, n0=650.0):
    times = np.arange(0.0, 241e-9, 8e-9)
    freqs = params.omega_q + 2 * math.pi * np.linspace(-48e6, 4e6, 105)
    return run_decay_spectroscopy(params, n0, times, freqs, config)


def test_frequency_lifetime_zero_noise_is_exact():
    params = SystemParams.reference()
    config = make_config(probe_duration=8e-9)
    estimate = lifetime_from_frequency(frequency_dataset(params, config))
    assert estimate.method == "frequency"
    assert estimate.lifetime == pytest.approx(1.0 / params.kappa_m, rel=1e-6)


def test_frequency_lifetime_rejects_flat_centers():
    params = SystemParams.reference()
    config = make_config(probe_duration=8e-9)
    data = frequency_dataset(params, config, n0=0.0)
    with pytest.raises(DegenerateDataError):
        lifetime_from_frequency(data)


def test_phase_and_frequency_methods_agree_on_noisy_data():
    params = SystemParams.reference()
    phase_config = make_config(mode="shots", n_shots=400, master_seed=6)
    times = np.arange(0.0, 241e-9, 6e-9)
    phases = np.linspace(0.0, 2 * math.pi, 25)
    phase_est = lifetime_from_phase(
        run_decay_phase_sense(params, 650.0, times, phases, phase_config)
    )
    freq_config = make_config(
        mode="shots", n_shots=400, master_seed=6, probe_duration=8e-9
    )
    freq_est = lifetime_from_frequency(frequency_dataset(params, freq_config))
    combined = math.hypot(phase_est.uncertainty, freq_est.uncertainty)
    assert abs(phase_est.lifetime - freq_est.lifetime) <= 2 * combined
    assert abs(freq_est.lifetime - 33.1e-9) < 4e-9


def synthetic_scan(params, omega, deltas, durations, noise, seed):
    """Rate-profile dataset built from the analytic Lorentzian law."""
    rng = np.random.default_rng(seed)
    p = np.empty((len(deltas), len(durations)))
    for i, delta in enumerate(deltas):
        rate, _ = parametric_qubit_decay(float(delta), omega, params.kappa_m)
        p[i] = np.exp(-(rate + 1.0 / params.t1) * durations)
    p_noisy = np.clip(p + rng.normal(0.0, noise, p.shape), 0.0, 1.0)
    return SweepDataset(
        axes=(
            Axis("pump_detuning", "rad/s", deltas),
            Axis("pump_duration", "s", durations),
        ),
        p_e=p_noisy,
        stderr=np.full(p.shape, noise),
        n_shots=400,
        shot_duration=1e-5,
        protocol="parametric-scan",
    )


def test_scan_extraction_round_trip_lindblad():
    params = SystemParams.reference()
    config = make_config()
    omega = 2 * math.pi * 0.66e6
    # span well past the FWHM: the exact pole profile is a few percent
    # narrower than the weak-coupling Lorentzian, worse on narrow scans
    deltas = np.linspace(-1.5, 1.5, 9) * params.kappa_m
    durations = np.linspace(0.0, 4.0e-6, 9)
    data = run_parametric_decay_scan(
        params, PumpSpec(omega_qm=omega), deltas, durations, config
    )
    result = extract_kappa_m_from_scan(data)
    assert result.kappa_m == pytest.approx(params.kappa_m, rel=0.05)
    assert result.omega_qm == pytest.approx(omega, rel=0.05)
    assert abs(result.center) < 0.05 * params.kappa_m
    assert result.flags == ()


def test_scan_extraction_synthetic_flags():
    params = SystemParams.reference()
    omega = 2 * math.pi * 0.86e6
    durations = np.linspace(0.0, 3e-6, 8)
    wide = np.linspace(-1.5, 1.5, 13) * params.kappa_m
    result = extract_kappa_m_from_scan(
        synthetic_scan(params, omega, wide, durations, 2e-4, seed=1)
    )
    assert result.kappa_m == pytest.approx(params.kappa_m, rel=0.05)
    assert result.rate_offset == pytest.approx(1.0 / params.t1, rel=0.1)
    # narrow span: same profile sampled well inside one FWHM
    narrow = np.linspace(-0.35, 0.35, 9) * params.kappa_m
    flagged = extract_kappa_m_from_scan(
        synthetic_scan(params, omega, narrow, durations, 2e-4, seed=2)
    )
    assert "scan-narrower-than-fwhm" in flagged.flags
    # no conversion: amplitude consistent with zero
    quiet = extract_kappa_m_from_scan(
        synthetic_scan(params, 0.0, wide, durations, 2e-4, seed=3)
    )
    assert "amplitude-consistent-with-zero" in quiet.flags
    with pytest.raises(EstimationError, match=">= 7"):
        extract_kappa_m_from_scan(
            synthetic_scan(params, omega, wide[:5], durations, 2e-4, seed=4)
        )


def test_unconverged_fits_raise_the_flag(monkeypatch):
    params = SystemParams.reference()
    times = np.arange(0.0, 241e-9, 6e-9)
    phases = np.linspace(0.0, 2 * math.pi, 25)
    phase_data = run_decay_phase_sense(
        params, 650.0, times, phases, make_config(mode="shots", n_shots=400, master_seed=2)
    )
    freq_data = frequency_dataset(
        params, make_config(mode="shots", n_shots=400, master_seed=2, probe_duration=8e-9)
    )
    scan = synthetic_scan(
        params,
        2 * math.pi * 0.86e6,
        np.linspace(-1.5, 1.5, 13) * params.kappa_m,
        np.linspace(0.0, 3e-6, 8),
        2e-4,
        seed=1,
    )
    cases = [
        (lifetime_from_phase, phase_data),
        (lifetime_from_frequency, freq_data),
        (extract_kappa_m_from_scan, scan),
    ]
    for estimator, data in cases:
        assert "fit-not-converged" not in estimator(data).flags
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    for estimator, data in cases:
        assert "fit-not-converged" in estimator(data).flags


# -- batched estimators against the one-dataset estimators ---------------------

BATCHED = {
    "phase": (phase_lifetimes, lifetime_from_phase),
    "frequency": (frequency_lifetimes, lifetime_from_frequency),
}


@pytest.fixture(scope="module")
def draw_stacks():
    """Per method: a dataset and the p_e/stderr stacks of four seeded runs on its grid."""
    params = SystemParams.reference()
    times = np.arange(0.0, 241e-9, 6e-9)
    phases = np.linspace(0.0, 2 * math.pi, 25)
    runs = {
        "phase": [
            run_decay_phase_sense(
                params, 650.0, times, phases, make_config(mode="shots", n_shots=100, master_seed=s)
            )
            for s in range(4)
        ],
        "frequency": [
            frequency_dataset(
                params, make_config(mode="shots", n_shots=100, master_seed=s, probe_duration=8e-9)
            )
            for s in range(4)
        ],
    }
    return {
        method: (data[0], np.array([d.p_e for d in data]), np.array([d.stderr for d in data]))
        for method, data in runs.items()
    }


def _per_draw(estimator, dataset, p_e, stderr):
    """The oracle: the one-dataset estimator on each draw in turn."""
    return [
        estimator(dataclasses.replace(dataset, p_e=p, stderr=err))
        for p, err in zip(p_e, stderr)
    ]


def _assert_same_estimates(batch, loop):
    assert len(batch) == len(loop)
    for got, expected in zip(batch, loop):
        assert (got.method, got.flags) == (expected.method, expected.flags)
        np.testing.assert_allclose(
            [got.lifetime, got.uncertainty], [expected.lifetime, expected.uncertainty], rtol=1e-12
        )
        np.testing.assert_allclose(got.fit.parameters, expected.fit.parameters, rtol=1e-12)
        np.testing.assert_allclose(got.fit.covariance, expected.fit.covariance, rtol=1e-12)
        assert got.series.keys() == expected.series.keys()
        for key, values in expected.series.items():
            np.testing.assert_allclose(got.series[key], values, rtol=1e-12)


@pytest.mark.parametrize("method", sorted(BATCHED))
def test_batched_estimates_match_per_draw_fits(draw_stacks, method):
    batched, single = BATCHED[method]
    dataset, p_e, stderr = draw_stacks[method]
    stderr = stderr.copy()
    stderr[1, 3, 5] = 0.0  # this row of draw 1 fits unweighted
    batch = batched(dataset, p_e, stderr)
    _assert_same_estimates(batch, _per_draw(single, dataset, p_e, stderr))
    assert batch[0].lifetime != batch[1].lifetime


@pytest.mark.parametrize("method", sorted(BATCHED))
def test_batched_estimates_flag_the_unconverged_draws(draw_stacks, method, monkeypatch):
    batched, single = BATCHED[method]
    dataset, p_e, stderr = draw_stacks[method]
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 30)
    batch = batched(dataset, p_e, stderr)
    _assert_same_estimates(batch, _per_draw(single, dataset, p_e, stderr))
    flagged = ["fit-not-converged" in estimate.flags for estimate in batch]
    assert any(flagged) and not all(flagged)


def test_batched_flat_centre_draw_raises_as_the_loop_does(draw_stacks):
    dataset, p_e, stderr = draw_stacks["frequency"]
    params = SystemParams.reference()
    flat = frequency_dataset(params, make_config(probe_duration=8e-9), n0=0.0)
    p_e = np.concatenate([p_e[:2], flat.p_e[None]])
    stderr = np.concatenate([stderr[:2], flat.stderr[None]])
    with pytest.raises(DegenerateDataError) as loop_error:
        _per_draw(lifetime_from_frequency, dataset, p_e, stderr)
    with pytest.raises(DegenerateDataError) as batch_error:
        frequency_lifetimes(dataset, p_e, stderr)
    assert str(batch_error.value) == str(loop_error.value)


def test_batched_estimators_check_the_stack_shape(draw_stacks):
    dataset, p_e, stderr = draw_stacks["phase"]
    with pytest.raises(EstimationError, match="do not match"):
        phase_lifetimes(dataset, p_e[:, :, :-1], stderr[:, :, :-1])


def _fringe_start(phases, row):
    """Per-row scalar oracle of ``_fringe_starts``."""
    in_phase = float(np.sum((row - np.mean(row)) * np.cos(phases)))
    quadrature = float(np.sum((row - np.mean(row)) * np.sin(phases)))
    phi_seed = math.atan2(quadrature, in_phase)
    amp_seed = 2.0 * math.hypot(in_phase, quadrature) / len(phases)
    return [
        max(amp_seed, 1e-6),
        1.0 / (2.0 * math.pi),
        (math.pi / 2.0 - phi_seed) % (2.0 * math.pi),
        float(np.mean(row)),
    ]


@pytest.mark.parametrize("n_phases", [7, 13, 25, 130])
def test_fringe_starts_equal_the_per_row_oracle_bit_for_bit(n_phases):
    rng = np.random.default_rng(n_phases)
    phases = np.linspace(0.0, 2 * math.pi, n_phases)
    random_rows = rng.uniform(0.0, 1.0, (50, n_phases))
    constant_rows = np.full((3, n_phases), 0.5)
    tied = rng.uniform(0.0, 0.5, (4, n_phases))
    tied[:, [0, n_phases // 2, -1]] = 0.9
    fringes = 0.5 + 0.5 * np.cos(phases - rng.uniform(0, 2 * math.pi, (20, 1)))
    rows = np.concatenate((random_rows, constant_rows, tied, fringes))
    starts = np.array(_fringe_starts(phases, rows))
    oracle = np.array([_fringe_start(phases, row) for row in rows])
    assert starts.tobytes() == oracle.tobytes()
