"""Protocol-level tests: shot durations, semiclassical responses, Lindblad scans."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import check_binomial_counts, check_pulls, kind_blocks, traced_peak

from magsense import protocols
from magsense.analysis import magnon_dephasing_rate
from magsense.config import parse_config
from magsense.errors import EstimationError
from magsense.fitting import FitModel, fit_curve
from magsense.lindblad import CollapseTerm, evolve_lindblad
from magsense.params import PumpSpec, SystemParams
from magsense.protocols import (
    GRIDS,
    PROTOCOLS,
    ProtocolConfig,
    _dataset,
    _measure_grid,
    run_decay_phase_sense,
    run_decay_spectroscopy,
    run_parametric_decay_scan,
    run_qubit_spectroscopy,
    run_ramsey,
    run_ramsey_series,
    relaxation_delays,
    run_relaxation,
    require_protocol,
)
from magsense.readout import ReadoutModel, click_estimates, sample_readout
from magsense.spaces import DensityMatrix, ModeSpace, build_mode_operators
from magsense.runner import execute_protocol
from magsense.sweep import point_seed, read_dataset, stream_seed, write_dataset


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
    for name in ("pi_duration", "half_pi_duration", "dead_time"):
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


# master seeds per law check of a grid without kept shots, fixed in advance
LAW_DRAWS = 200


@pytest.mark.parametrize("keep_shots", [True, False])
@pytest.mark.parametrize("order_seed", [None, 4])
def test_measure_grid_matches_per_point_sampling(keep_shots, order_seed):
    # kept shots are the per-point draws bit for bit, in any visiting order;
    # without kept shots the estimates match theirs in law
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
    if keep_shots:
        ref_p, ref_err, ref_shots = _measure_grid_oracle(grid, config, "oracle", order_seed)
        assert np.array_equal(p_hat, ref_p)
        assert np.array_equal(stderr, ref_err)
        assert shots.shape == (7, 9, 101)
        assert np.array_equal(shots, ref_shots)
        return
    assert shots is None
    n = config.n_shots

    def counts(estimates):
        return np.rint(estimates * n).astype(int).reshape(-1)

    assert np.array_equal((p_hat, stderr), click_estimates(counts(p_hat).reshape(7, 9), n))
    draws = np.array(
        [
            counts(_measure_grid(grid, dataclasses.replace(config, master_seed=5 + k), "oracle")[0])
            for k in range(LAW_DRAWS)
        ]
    )
    oracle = np.array(
        [
            counts(
                _measure_grid_oracle(
                    grid,
                    dataclasses.replace(config, master_seed=5 + LAW_DRAWS + k),
                    "oracle",
                    order_seed,
                )[0]
            )
            for k in range(LAW_DRAWS)
        ]
    )
    q = config.readout.click_probability(np.clip(grid, 0.0, 1.0).reshape(-1))
    check_binomial_counts(draws, oracle, n, q)


def test_a_grid_without_kept_shots_draws_no_shots(monkeypatch):
    # the calibration-sweep spectroscopy grid: 3546 points of 400 shots
    params = SystemParams.reference()
    config = ProtocolConfig(readout=ReadoutModel.for_qubit(params.t1), n_shots=400)
    grid = np.linspace(0.0, 1.0, 3546)

    def no_per_point_streams(*args):
        raise AssertionError("a grid without kept shots drew per-point streams")

    generators = []

    def counted_rng(seed):
        generators.append(seed)
        return default_rng(seed)

    default_rng = np.random.default_rng
    # a process's first draw imports modules; only the second is measured
    _measure_grid(grid, config, "spectroscopy")
    monkeypatch.setattr(protocols, "sample_grid", no_per_point_streams)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    peak = traced_peak(lambda: _measure_grid(grid, config, "spectroscopy"))
    assert generators == [stream_seed(config.master_seed, "spectroscopy")]
    # any (points, shots) array takes at least a byte a shot
    assert peak < grid.size * config.n_shots, peak


def test_ramsey_pump_off_envelope_is_t2r():
    params = SystemParams.reference()
    config = reference_config(artificial_detuning=2 * math.pi * 1.5e6)
    delays = np.linspace(0.0, 8e-6, 161)
    data = run_ramsey(params, delays, config)
    assert data.meta["envelope_rate"] == pytest.approx(1.0 / params.t2r, rel=1e-12)
    fit = fit_curve(FitModel("damped-sinusoid"), delays, data.p_e)
    assert fit.parameter("tau") == pytest.approx(params.t2r, rel=1e-6)
    assert fit.parameter("frequency") == pytest.approx(1.5e6, rel=1e-6)


def test_ramsey_pump_on_adds_dephasing_and_stark_shift():
    params = SystemParams.reference()
    config = reference_config(artificial_detuning=2 * math.pi * 8e6)
    pump = PumpSpec(power_w=1.0, c_pump=100.0)
    delays = np.linspace(0.0, 3e-6, 301)
    off = run_ramsey(params, delays, config)
    on = run_ramsey(params, delays, dataclasses.replace(config, pump=pump))
    added = on.meta["envelope_rate"] - off.meta["envelope_rate"]
    assert added == pytest.approx(magnon_dephasing_rate(100.0, params), rel=1e-12)
    assert added == pytest.approx(2 * math.pi * 187e3, rel=0.01)
    # fringe frequency = artificial detuning + chi * n = 8 MHz - 6.70 MHz
    fit = fit_curve(FitModel("damped-sinusoid"), delays, on.p_e)
    assert fit.parameter("frequency") == pytest.approx(1.30e6, rel=1e-3)


def test_ramsey_series_rows_are_ramsey_fringes():
    params = SystemParams.reference()
    powers = np.array([0.0, 2e-9, 7e-9])
    pump = PumpSpec(c_pump=2.3e9)
    config = reference_config(pump=pump, artificial_detuning=2 * math.pi * 4e6)
    delays = np.linspace(0.0, 2e-6, 40)
    series = run_ramsey_series(params, powers, delays, config)
    assert series.p_e.shape == (3, 40)
    for power, row in zip(powers, series.p_e):
        at_power = dataclasses.replace(config, pump=dataclasses.replace(pump, power_w=power))
        ramsey = run_ramsey(params, delays, at_power)
        assert np.array_equal(row, ramsey.p_e), power
    assert series.meta["c_pump"] == pump.c_pump
    assert series.meta["artificial_detuning"] == config.artificial_detuning


def test_relaxation_readout_limited_start_and_1_over_e_ratio():
    params = SystemParams.reference()
    readout = ReadoutModel.for_qubit(params.t1)
    config = ProtocolConfig(readout=readout, n_shots=40_000, master_seed=11)
    data = run_relaxation(params, np.array([0.0, params.t1]), config)
    # t = 0 estimate is limited by decay during the readout window
    expected0 = readout.click_probability(1.0)
    assert abs(data.p_e[0] - expected0) < 4 * data.stderr[0]
    # readout is affine in P_e, so the corrected ratio recovers 1/e
    floor = readout.ground_click_probability()
    ratio = (data.p_e[1] - floor) / (data.p_e[0] - floor)
    assert ratio == pytest.approx(math.exp(-1.0), abs=0.02)


# master seeds of the relaxation pull check, fixed before any was run: the
# check's former single seed 5, times 1000, plus k
RELAXATION_SEEDS = range(5000, 5100)


def test_relaxation_t1_fit_within_quoted_uncertainty():
    # one seed lands within its quoted error only most of the time; over K
    # seeds the pulls z = (tau - t1) / sigma_tau must look standard normal
    params = SystemParams.reference()
    readout = ReadoutModel.for_qubit(params.t1)
    pulls = []
    for seed in RELAXATION_SEEDS:
        config = ProtocolConfig(readout=readout, n_shots=10_000, master_seed=seed)
        data = run_relaxation(params, relaxation_delays(params), config)
        delays = data.axis("delay").values
        assert len(delays) == 20 and delays[-1] == pytest.approx(4 * params.t1)
        fit = fit_curve(
            FitModel("exponential-decay"), delays, data.p_e, y_err=data.stderr
        )
        assert fit.converged, (seed, fit.message)
        pulls.append((fit.parameter("tau") - params.t1) / fit.stderr("tau"))
    check_pulls(pulls)


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


def one_dataset_of_each_kind(config: ProtocolConfig) -> list:
    """A small dataset of every protocol kind, in ``PROTOCOLS`` order."""
    params = SystemParams.reference()
    delays = np.linspace(0.0, 0.4e-6, 3)
    freqs = params.omega_q + 2 * math.pi * np.linspace(-2e6, 2e6, 5)
    phases = np.linspace(0.0, 2 * math.pi, 4)
    pump = PumpSpec(power_w=1.0, c_pump=10.0, omega_qm=2 * math.pi * 0.66e6)
    datasets = [
        run_qubit_spectroscopy(params, np.array([0.0, 1.0]), freqs, config),
        run_ramsey(params, delays, dataclasses.replace(config, pump=pump)),
        run_ramsey_series(params, np.array([0.0, 1.0]), delays, config),
        run_relaxation(params, delays, config),
        run_decay_phase_sense(params, 10.0, delays, phases, config),
        run_decay_spectroscopy(params, 10.0, delays, freqs, config),
        run_parametric_decay_scan(params, pump, np.array([0.0]), delays, config),
    ]
    assert [data.protocol for data in datasets] == list(PROTOCOLS)
    return datasets


@pytest.mark.parametrize("mode", ["shots", "expectation"])
def test_every_protocol_records_seed_and_threshold(mode):
    config = reference_config(mode=mode, n_shots=16, master_seed=29)
    for data in one_dataset_of_each_kind(config):
        # the manifest records the mode; a CSV header holds numbers only
        assert "mode" not in data.meta, data.protocol
        assert data.meta["master_seed"] == 29, data.protocol
        assert data.meta["readout_threshold"] == config.readout.threshold, data.protocol


@pytest.mark.parametrize("mode", ["shots", "expectation"])
def test_every_protocol_meta_survives_its_csv(mode, tmp_path):
    # a meta value the CSV cannot record used to be dropped on the way out
    config = reference_config(mode=mode, n_shots=16, master_seed=29)
    for data in one_dataset_of_each_kind(config):
        path = tmp_path / f"{data.protocol}.csv"
        write_dataset(data, path)
        assert read_dataset(path).meta == data.meta, data.protocol


@pytest.mark.parametrize("mode", ["shots", "expectation"])
def test_clipped_probabilities_are_named_in_a_warning(mode):
    config = reference_config(mode=mode, n_shots=16)
    grids = ([0.0, 1e-7, 2e-7, 3e-7],)
    inside = _dataset(config, "relaxation", grids, np.array([0.0, 0.3, 0.7, 1.0]), 3e-7)
    assert inside.warnings == ()
    outside = _dataset(
        config,
        "relaxation",
        grids,
        np.array([-0.02, 0.3, 1.05, 1.0]),
        3e-7,
        warnings=("protocol warning",),
    )
    assert outside.warnings == (
        "protocol warning",
        "2 of 4 true probabilities lie outside [0, 1] and were clipped; "
        "largest excursion 0.05",
    )
    assert np.all((outside.p_e >= 0.0) & (outside.p_e <= 1.0))


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
        (
            run_ramsey(params, delays, dataclasses.replace(config, pump=pump)),
            2 * half + 240e-9 + window + dead,
        ),
        (
            run_ramsey_series(params, np.array([0.0, 1.0]), delays, config),
            2 * half + 240e-9 + window + dead,
        ),
        (run_relaxation(params, delays, config), pi + 240e-9 + window + dead),
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
    assert len({data.protocol for data, _ in cases}) == len(PROTOCOLS)
    for data, expected in cases:
        assert data.shot_duration == expected, data.protocol
        assert data.total_time() == float(np.sum(data.n_shots)) * expected


# protocol kind -> its run function called directly on a node's n0 or pump and grids
DIRECT_RUNS = {
    "spectroscopy": lambda params, node, config: run_qubit_spectroscopy(
        params, node.grids["pump_powers"], node.grids["probe_freqs"], config
    ),
    "ramsey": lambda params, node, config: run_ramsey(params, node.grids["delays"], config),
    "ramsey-series": lambda params, node, config: run_ramsey_series(
        params, node.grids["pump_powers"], node.grids["delays"], config
    ),
    "relaxation": lambda params, node, config: run_relaxation(
        params, node.grids["delays"], config
    ),
    "decay-phase": lambda params, node, config: run_decay_phase_sense(
        params, node.n0, node.grids["sense_times"], node.grids["second_pulse_phases"], config
    ),
    "decay-spectroscopy": lambda params, node, config: run_decay_spectroscopy(
        params, node.n0, node.grids["sense_times"], node.grids["probe_freqs"], config
    ),
    "parametric-scan": lambda params, node, config: run_parametric_decay_scan(
        params, node.pump, node.grids["deltas"], node.grids["durations"], config
    ),
}


def test_every_protocol_kind_has_the_axes_its_table_entry_declares(tmp_path):
    config = parse_config(
        {
            "name": "kinds",
            "acquisition": {"n_shots": 8, "keep_shots": True},
            "protocols": kind_blocks(),
        }
    )
    assert [node.kind for node in config.protocols] == list(PROTOCOLS) == list(DIRECT_RUNS)
    for node in config.protocols:
        dataset = execute_protocol(node, config)
        # the table-driven call writes what the run function called directly writes
        direct = DIRECT_RUNS[node.kind](config.system, node, config.protocol_config(node.pump))
        files = {}
        for side, data in (("table", dataset), ("direct", direct)):
            folder = tmp_path / node.name / side
            folder.mkdir(parents=True)
            write_dataset(data, folder / "data.csv")
            files[side] = {path.name: path.read_bytes() for path in folder.iterdir()}
        assert sorted(files["table"]) == ["data.csv", "data_shots.npz"]
        assert files["table"] == files["direct"], node.kind
        names = tuple(axis.name for axis in dataset.axes)
        assert names == tuple(GRIDS[key][0] for key in PROTOCOLS[node.kind][1])
        require_protocol(dataset, node.kind)
        for other in PROTOCOLS:
            if other != node.kind:
                with pytest.raises(EstimationError, match=f"expected a {other} dataset"):
                    require_protocol(dataset, other)
        if len(dataset.axes) > 1:
            swapped = dataclasses.replace(
                dataset,
                axes=dataset.axes[::-1],
                p_e=dataset.p_e.T,
                stderr=dataset.stderr.T,
                n_shots=dataset.n_shots.T,
                shots=None,
            )
            with pytest.raises(EstimationError, match="expected axes"):
                require_protocol(swapped, node.kind)
