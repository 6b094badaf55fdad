"""Protocol-level tests: shot durations, semiclassical responses, Lindblad scans."""

import math

import numpy as np
import pytest

from magsense.analysis import magnon_dephasing_rate
from magsense.fitting import FitModel, fit_curve
from magsense.lindblad import CollapseTerm, evolve_lindblad
from magsense.params import PumpSpec, SystemParams
from magsense.protocols import (
    ProtocolConfig,
    _measure_grid,
    run_decay_phase_sense,
    run_decay_spectroscopy,
    run_parametric_decay_scan,
    run_qubit_spectroscopy,
    run_ramsey,
    run_relaxation,
)
from magsense.readout import ReadoutModel, sample_readout
from magsense.spaces import DensityMatrix, ModeSpace, build_mode_operators
from magsense.sweep import point_seed


def reference_config(**overrides) -> ProtocolConfig:
    params = SystemParams.reference()
    defaults = dict(readout=ReadoutModel.for_qubit(params.t1), mode="expectation")
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


def test_protocol_config_validation():
    model = ReadoutModel.for_qubit(2.78e-6)
    with pytest.raises(ValueError):
        ProtocolConfig(readout=model, n_shots=0)
    with pytest.raises(ValueError):
        ProtocolConfig(readout=model, mode="trajectories")
    with pytest.raises(ValueError):
        ProtocolConfig(readout=model, probe_amplitude=1.2)
    with pytest.raises(ValueError):
        ProtocolConfig(readout=model, probe_duration=0.0)
    for name in ("pi_duration", "half_pi_duration", "dead_time", "dt"):
        with pytest.raises(ValueError, match=name):
            ProtocolConfig(readout=model, **{name: -1e-9})
        assert getattr(ProtocolConfig(readout=model, **{name: 0.0}), name) == 0.0
    config = ProtocolConfig(readout=model, probe_duration=1e-7)
    assert config.probe_sigma == pytest.approx(1e7)


def test_spectroscopy_peak_positions_and_width():
    params = SystemParams.reference()
    config = reference_config(pump=PumpSpec(power_w=1.0, c_pump=100.0))
    freqs = params.omega_q + 2 * math.pi * np.linspace(-9e6, 2.2e6, 449)
    data = run_qubit_spectroscopy(params, np.array([0.0, 1.0]), freqs, config)
    assert data.warnings == ()
    # pump off: line centered at omega_q
    peak_off = freqs[np.argmax(data.p_e[0])]
    assert abs(peak_off - params.omega_q) <= 2 * math.pi * 13e3
    # n = 100 at chi/2pi = -67 kHz: peak 6.70 MHz below omega_q
    peak_on = freqs[np.argmax(data.p_e[1])]
    assert abs(peak_on - (params.omega_q - 2 * math.pi * 6.70e6)) <= 2 * math.pi * 13e3
    # the shifted line is broader, hence lower, than the pump-off line
    assert np.max(data.p_e[1]) < np.max(data.p_e[0])
    # pump-off width: probe bandwidth and gamma_2^0 in quadrature
    fit = fit_curve(FitModel("gaussian"), freqs, data.p_e[0])
    expected = math.hypot(config.probe_sigma, params.gamma2_0)
    assert fit.parameter("sigma") == pytest.approx(expected, rel=1e-6)


def test_spectroscopy_narrow_grid_warns():
    params = SystemParams.reference()
    config = reference_config(pump=PumpSpec(power_w=1.0, c_pump=100.0))
    freqs = params.omega_q + 2 * math.pi * np.linspace(-1e6, 1e6, 41)
    data = run_qubit_spectroscopy(params, np.array([1.0]), freqs, config)
    assert any("2-sigma" in w for w in data.warnings)


def test_quadrupling_shots_halves_stderr():
    params = SystemParams.reference()
    freqs = params.omega_q + 2 * math.pi * np.linspace(-1.5e6, 1.5e6, 5)
    readout = ReadoutModel.for_qubit(params.t1)
    small = run_qubit_spectroscopy(
        params,
        np.array([0.0]),
        freqs,
        ProtocolConfig(readout=readout, n_shots=500, master_seed=7),
    )
    large = run_qubit_spectroscopy(
        params,
        np.array([0.0]),
        freqs,
        ProtocolConfig(readout=readout, n_shots=2000, master_seed=7),
    )
    ratio = np.mean(small.stderr) / np.mean(large.stderr)
    assert ratio == pytest.approx(2.0, rel=0.1)


def _measure_grid_oracle(p_true, config, tag, order_seed):
    """Per-point sample_readout calls with ShotRecord's own estimators,
    visited in grid order (``order_seed=None``) or in a seeded shuffle."""
    flat = np.clip(p_true.reshape(-1), 0.0, 1.0)
    records = [None] * len(flat)
    if order_seed is None:
        order = np.arange(len(flat))
    else:
        order = np.random.default_rng(order_seed).permutation(len(flat))
    for idx in order:
        records[idx] = sample_readout(
            float(flat[idx]),
            config.readout,
            config.n_shots,
            seed=point_seed(config.master_seed, tag, int(idx)),
        )
    p_hat = np.array([r.excited_fraction() for r in records]).reshape(p_true.shape)
    stderr = np.array([r.excited_stderr() for r in records]).reshape(p_true.shape)
    shots = np.stack([r.values for r in records]).reshape(p_true.shape + (config.n_shots,))
    return p_hat, stderr, shots


@pytest.mark.parametrize("keep_shots", [True, False])
@pytest.mark.parametrize("order_seed", [None, 4])
def test_measure_grid_matches_per_point_sampling(keep_shots, order_seed):
    params = SystemParams.reference()
    grid = np.linspace(-0.1, 1.1, 7 * 9).reshape(7, 9)  # clipped at both ends
    grid[3, 4] = 0.5
    config = ProtocolConfig(
        readout=ReadoutModel.for_qubit(params.t1),
        n_shots=101,
        master_seed=5,
        keep_shots=keep_shots,
    )
    p_hat, stderr, shots = _measure_grid(grid, config, "oracle")
    ref_p, ref_err, ref_shots = _measure_grid_oracle(grid, config, "oracle", order_seed)
    assert np.array_equal(p_hat, ref_p)
    assert np.array_equal(stderr, ref_err)
    if keep_shots:
        assert shots.shape == (7, 9, 101)
        assert np.array_equal(shots, ref_shots)
    else:
        assert shots is None


def test_ramsey_pump_off_envelope_is_t2r():
    params = SystemParams.reference()
    config = reference_config(artificial_detuning=2 * math.pi * 1.5e6)
    delays = np.linspace(0.0, 8e-6, 161)
    data = run_ramsey(params, PumpSpec(), delays, config)
    assert data.meta["envelope_rate"] == pytest.approx(1.0 / params.t2r, rel=1e-12)
    fit = fit_curve(FitModel("damped-sinusoid"), delays, data.p_e)
    assert fit.parameter("tau") == pytest.approx(params.t2r, rel=1e-6)
    assert fit.parameter("frequency") == pytest.approx(1.5e6, rel=1e-6)


def test_ramsey_pump_on_adds_dephasing_and_stark_shift():
    params = SystemParams.reference()
    config = reference_config(artificial_detuning=2 * math.pi * 8e6)
    pump = PumpSpec(power_w=1.0, c_pump=100.0)
    delays = np.linspace(0.0, 3e-6, 301)
    off = run_ramsey(params, PumpSpec(), delays, config)
    on = run_ramsey(params, pump, delays, config)
    added = on.meta["envelope_rate"] - off.meta["envelope_rate"]
    assert added == pytest.approx(magnon_dephasing_rate(100.0, params), rel=1e-12)
    assert added == pytest.approx(2 * math.pi * 187e3, rel=0.01)
    # fringe frequency = artificial detuning + chi * n = 8 MHz - 6.70 MHz
    fit = fit_curve(FitModel("damped-sinusoid"), delays, on.p_e)
    assert fit.parameter("frequency") == pytest.approx(1.30e6, rel=1e-3)


def test_relaxation_readout_limited_start_and_1_over_e_ratio():
    params = SystemParams.reference()
    readout = ReadoutModel.for_qubit(params.t1)
    config = ProtocolConfig(readout=readout, n_shots=40_000, master_seed=11)
    data = run_relaxation(params, config, delays=np.array([0.0, params.t1]))
    # t = 0 estimate is limited by decay during the readout window
    expected0 = readout.click_probability(1.0)
    assert abs(data.p_e[0] - expected0) < 4 * data.stderr[0]
    # readout is affine in P_e, so the corrected ratio recovers 1/e
    floor = readout.ground_click_probability()
    ratio = (data.p_e[1] - floor) / (data.p_e[0] - floor)
    assert ratio == pytest.approx(math.exp(-1.0), abs=0.02)


def test_relaxation_t1_fit_within_quoted_uncertainty():
    params = SystemParams.reference()
    readout = ReadoutModel.for_qubit(params.t1)
    config = ProtocolConfig(readout=readout, n_shots=10_000, master_seed=5)
    data = run_relaxation(params, config)
    delays = data.axis("delay").values
    assert len(delays) == 20 and delays[-1] == pytest.approx(4 * params.t1)
    fit = fit_curve(
        FitModel("exponential-decay"), delays, data.p_e, y_err=data.stderr
    )
    assert abs(fit.parameter("tau") - 2.78e-6) < 0.07e-6


def test_decay_phase_asymptote_and_fringe_motion():
    params = SystemParams.reference()
    config = reference_config()
    times = np.array([0.0, 30e-9, 60e-9, 1e-6])
    phases = np.linspace(0.0, 2 * math.pi, 97)
    data = run_decay_phase_sense(params, 650.0, times, phases, config)
    phi_inf = data.meta["phase_asymptote"]
    assert abs(phi_inf) == pytest.approx(9.05, rel=1e-3)
    # t = 0: no phase yet, fringe maximum at theta = 0
    assert np.argmax(data.p_e[0]) == 0
    # late time: maximum at theta = phi_inf mod 2 pi
    theta_star = phases[np.argmax(data.p_e[-1])]
    expected = phi_inf % (2 * math.pi)
    assert abs(theta_star - expected) <= phases[1] - phases[0]
    # the sparse sense grid legitimately trips the blur warning here
    assert any("blurs" in w for w in data.warnings)


def test_decay_phase_zero_magnons_and_blur_warning():
    params = SystemParams.reference()
    config = reference_config()
    phases = np.linspace(0.0, 2 * math.pi, 33)
    quiet = run_decay_phase_sense(
        params, 0.0, np.array([0.0, 50e-9, 200e-9]), phases, config
    )
    # fringe phase constant in t: every row peaks at the same phase
    assert np.ptp(np.argmax(quiet.p_e, axis=1)) == 0
    assert quiet.warnings == ()
    blurred = run_decay_phase_sense(
        params, 650.0, np.array([0.0, 50e-9, 100e-9]), phases, config
    )
    assert any("blurs" in w for w in blurred.warnings)
    fine = run_decay_phase_sense(
        params, 650.0, np.arange(0.0, 240e-9, 6e-9), phases, config
    )
    assert fine.warnings == ()


def test_decay_spectroscopy_initial_shift_and_return():
    params = SystemParams.reference()
    # short probe so the window-averaged occupation stays near n0
    config = reference_config(probe_duration=0.5e-9)
    times = np.array([0.0, 200e-9])
    freqs = params.omega_q + 2 * math.pi * np.linspace(-50e6, 5e6, 1101)
    data = run_decay_spectroscopy(params, 650.0, times, freqs, config)
    # scalar check: 650 magnons at 67 kHz each shift the line by 43.6 MHz
    assert abs(params.chi_qm) * 650 / (2 * math.pi) == pytest.approx(43.6e6, rel=2e-3)
    shift0 = freqs[np.argmax(data.p_e[0])] - params.omega_q
    expected0 = params.chi_qm * 650 * data.meta["window_factor"]
    assert abs(shift0 - expected0) <= 2 * math.pi * 30e3
    assert abs(shift0) / (2 * math.pi) == pytest.approx(43.6e6, rel=0.02)
    # kappa t = 6 at 200 ns: peak back at omega_q
    shift_late = freqs[np.argmax(data.p_e[1])] - params.omega_q
    assert abs(shift_late) <= 2 * math.pi * 200e3


def test_parametric_zero_amplitude_decays_at_intrinsic_rate():
    params = SystemParams.reference()
    config = reference_config()
    durations = np.linspace(0.0, 2 * params.t1, 5)
    data = run_parametric_decay_scan(
        params, PumpSpec(omega_qm=0.0), np.array([0.0]), durations, config
    )
    expected = np.exp(-durations / params.t1)
    assert np.max(np.abs(data.p_e[0] - expected)) < 1e-6


def test_parametric_resonant_total_rate():
    params = SystemParams.reference()
    config = reference_config()
    omega = 2 * math.pi * 0.66e6
    durations = np.linspace(0.0, 3.5e-6, 8)
    data = run_parametric_decay_scan(
        params, PumpSpec(omega_qm=omega), np.array([0.0]), durations, config
    )
    fit = fit_curve(FitModel("exponential-decay"), durations, data.p_e[0])
    induced = omega**2 / params.kappa_m
    assert 1.0 / induced == pytest.approx(1.76e-6, rel=0.01)
    total = induced + 1.0 / params.t1
    assert 1.0 / fit.parameter("tau") == pytest.approx(total, rel=0.05)


def test_parametric_far_detuned_reverts_to_intrinsic():
    params = SystemParams.reference()
    config = reference_config()
    omega = 2 * math.pi * 0.66e6
    delta = 5.0 * params.kappa_m
    durations = np.linspace(0.0, 2.5e-6, 6)
    data = run_parametric_decay_scan(
        params, PumpSpec(omega_qm=omega), np.array([delta]), durations, config
    )
    fit = fit_curve(FitModel("exponential-decay"), durations, data.p_e[0])
    assert fit.parameter("tau") == pytest.approx(params.t1, rel=0.03)
    assert fit.parameter("tau") < params.t1


def test_parametric_duration_grid_validation():
    params = SystemParams.reference()
    config = reference_config()
    pump = PumpSpec(omega_qm=1e5)
    with pytest.raises(ValueError, match="uniform"):
        run_parametric_decay_scan(
            params, pump, np.array([0.0]), np.array([0.0, 1e-7, 3e-7]), config
        )
    with pytest.raises(ValueError, match="start at 0"):
        run_parametric_decay_scan(
            params, pump, np.array([0.0]), np.array([1e-7, 2e-7]), config
        )
    with pytest.raises(ValueError, match=">= 2"):
        run_parametric_decay_scan(
            params, pump, np.array([0.0]), np.array([0.0]), config
        )


def test_semiclassical_phase_matches_quantum_dispersive_evolution():
    """Stark-phase trajectory: dispersive Lindblad vs n0 e^(-kappa t) formula."""
    params = SystemParams.reference()
    space = ModeSpace(("q", "m"), (2, 9))
    q, n_q = build_mode_operators(space, "q")
    m, n_m = build_mode_operators(space, "m")
    h = (n_q @ n_m) * params.chi_qm
    n0 = 3
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.basis_index({"q": 0, "m": n0})] = 1 / math.sqrt(2)
    vec[space.basis_index({"q": 1, "m": n0})] = 1 / math.sqrt(2)
    rho0 = DensityMatrix(space, np.outer(vec, vec.conj()))
    times = np.linspace(0.0, 100e-9, 41)
    traj = evolve_lindblad(
        rho0,
        h,
        collapses=(CollapseTerm(m, params.kappa_m),),
        tspan=(0.0, times[-1]),
        dt=(times[1] - times[0]) / 8,
        observables=(q,),
        record_times=times,
    )
    measured = np.unwrap(np.angle(traj.expect(0)))
    measured -= measured[0]
    kappa = params.kappa_m
    semiclassical = params.chi_qm * n0 * -np.expm1(-kappa * times) / kappa
    err = min(
        np.max(np.abs(measured - sign * semiclassical)) for sign in (1.0, -1.0)
    )
    assert err <= 0.02 * np.max(np.abs(semiclassical))


@pytest.mark.parametrize("mode", ["shots", "expectation"])
def test_every_protocol_records_mode_seed_and_threshold(mode):
    params = SystemParams.reference()
    config = reference_config(mode=mode, n_shots=16, master_seed=29)
    delays = np.linspace(0.0, 0.4e-6, 3)
    freqs = params.omega_q + 2 * math.pi * np.linspace(-2e6, 2e6, 5)
    phases = np.linspace(0.0, 2 * math.pi, 4)
    pump = PumpSpec(power_w=1.0, c_pump=10.0, omega_qm=2 * math.pi * 0.66e6)
    datasets = [
        run_qubit_spectroscopy(params, np.array([0.0, 1.0]), freqs, config),
        run_ramsey(params, pump, delays, config),
        run_relaxation(params, config, delays),
        run_decay_phase_sense(params, 10.0, delays, phases, config),
        run_decay_spectroscopy(params, 10.0, delays, freqs, config),
        run_parametric_decay_scan(params, pump, np.array([0.0]), delays, config),
    ]
    assert len({data.protocol for data in datasets}) == 6
    for data in datasets:
        assert data.meta["mode"] == mode, data.protocol
        assert data.meta["master_seed"] == 29, data.protocol
        assert data.meta["readout_threshold"] == config.readout.threshold, data.protocol


def test_shot_duration_bookkeeping():
    params = SystemParams.reference()
    pi, half, dead = 40e-9, 16e-9, 5e-6
    config = reference_config(
        dead_time=dead, pi_duration=pi, half_pi_duration=half, probe_duration=0.3e-6
    )
    window = config.readout.window
    delays = np.array([0.0, 120e-9, 240e-9])
    freqs = params.omega_q + 2 * math.pi * np.linspace(-2e6, 2e6, 5)
    phases = np.linspace(0.0, 2 * math.pi, 9)
    durations = np.linspace(0.0, 0.4e-6, 3)
    pump = PumpSpec(power_w=1.0, c_pump=10.0, omega_qm=2 * math.pi * 0.66e6)
    # each dataset against the sequence before readout, summed in the same order
    cases = [
        (
            run_qubit_spectroscopy(params, np.array([0.0, 1.0]), freqs, config),
            config.probe_duration + window + dead,
        ),
        (run_ramsey(params, pump, delays, config), 2 * half + 240e-9 + window + dead),
        (run_relaxation(params, config, delays), pi + 240e-9 + window + dead),
        (
            run_decay_phase_sense(params, 10.0, delays, phases, config),
            2 * half + 240e-9 + window + dead,
        ),
        (
            run_decay_spectroscopy(params, 10.0, delays, freqs, config),
            240e-9 + config.probe_duration + window + dead,
        ),
        (
            run_parametric_decay_scan(params, pump, np.array([0.0]), durations, config),
            pi + 0.4e-6 + window + dead,
        ),
    ]
    assert len({data.protocol for data, _ in cases}) == 6
    for data, expected in cases:
        assert data.shot_duration == expected, data.protocol
        assert data.total_time() == float(np.sum(data.n_shots)) * expected
