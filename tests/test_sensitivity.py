"""Tests for the magnon-number sensitivity chain.

Synthetic response and noise models with known closed forms pin the solver;
the full pipeline (shot-sampled spectroscopy, line fits, empirical noise
profile, calibrated magnon coordinates) checks the end-to-end figures.
"""

import numpy as np
import pytest

from magsense.analysis import calibrate_magnon_number, magnon_dephasing_rate
from magsense.errors import EstimationError
from magsense.fitting import PolyInterpolant
from magsense.params import PumpSpec, SystemParams
from magsense.protocols import ProtocolConfig, run_qubit_spectroscopy
from magsense.readout import ReadoutModel
from magsense.sensitivity import (
    NoiseProfile,
    ResponseModel,
    SensingConfig,
    SensitivityCurve,
    build_response_model,
    fit_noise_profile,
    fit_power_spectra,
    qubit_response,
    sensitivity_curve,
    solve_sensitivity,
)

C_PUMP = 2.3e9  # magnons per W, chosen so 1 uW pumps ~2300 magnons


def constant(value: float, lo: float = 0.0, hi: float = 2400.0) -> PolyInterpolant:
    return PolyInterpolant(np.array([value]), lo, hi)


def linear(c0: float, c1: float, lo: float, hi: float) -> PolyInterpolant:
    return PolyInterpolant(np.array([c0, c1]), lo, hi)


def reference_calibration(params: SystemParams):
    return calibrate_magnon_number(
        stark_slope=abs(params.chi_qm) * C_PUMP,
        dephasing_slope=magnon_dephasing_rate(1.0, params) * C_PUMP,
        kappa_m=params.kappa_m,
        gamma2_0=params.gamma2_0,
    )


def spectroscopy_dataset(params: SystemParams, readout: ReadoutModel, mode: str, seed: int = 11):
    config = ProtocolConfig(
        readout=readout,
        n_shots=400,
        master_seed=seed,
        mode=mode,
        pump=PumpSpec(c_pump=C_PUMP),
    )
    powers = np.linspace(0.0, 1.0e-6, 7)
    freqs = params.omega_q + 2 * np.pi * np.linspace(-165e6, 10e6, 351)
    return run_qubit_spectroscopy(params, powers, freqs, config)


class TestSensingConfig:
    def test_total_time_is_shots_times_tau(self):
        config = SensingConfig(tau=32e-6, n_shots=1000)
        assert config.total_time == pytest.approx(0.032)
        assert config.threshold == pytest.approx(0.18)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0, "n_shots": 10},
            {"tau": 1e-6, "n_shots": 0},
            {"tau": 1e-6, "n_shots": 10, "threshold": 0.0},
        ],
    )
    def test_rejects_nonpositive_settings(self, kwargs):
        with pytest.raises(ValueError):
            SensingConfig(**kwargs)


class TestQubitResponse:
    def setup_method(self):
        self.model = ResponseModel(
            peak=constant(0.4),
            width=constant(15.0),
            n_grid=np.array([0.0, 2400.0]),
        )

    def test_on_peak_returns_peak_height(self):
        value, outside = qubit_response(300.0, 300.0, self.model)
        assert value == pytest.approx(0.4)
        assert not outside

    def test_one_sigma_detuning_scales_by_exp_half(self):
        value, _ = qubit_response(315.0, 300.0, self.model)
        assert value == pytest.approx(0.4 * np.exp(-0.5), rel=1e-12)

    def test_symmetric_about_the_line_center(self):
        left, _ = qubit_response(300.0 - 40.0, 300.0, self.model)
        right, _ = qubit_response(300.0 + 40.0, 300.0, self.model)
        assert left == right

    def test_flags_populations_outside_measured_hull(self):
        _, outside = qubit_response(2500.0, 2500.0, self.model)
        assert outside
        _, inside = qubit_response(2500.0, 2300.0, self.model)
        assert not inside


class TestNoiseProfile:
    def setup_method(self):
        self.profile = NoiseProfile(
            amplitude=0.01,
            floor=0.013,
            width=constant(20.0),
            reference_shots=400,
        )

    def test_bump_center_and_far_floor(self):
        assert self.profile.sigma(500.0, 500.0) == pytest.approx(0.023)
        assert self.profile.sigma(500.0, 2000.0) == pytest.approx(0.013, rel=1e-6)

    def test_shot_budget_rescales_by_root_n(self):
        base = self.profile.sigma(500.0, 500.0)
        scaled = self.profile.sigma(500.0, 500.0, n_shots=1600)
        assert scaled == pytest.approx(base / 2.0)
        same = self.profile.sigma(500.0, 500.0, n_shots=400)
        assert same == base


class TestSolverOnSyntheticModels:
    """Closed-form response and noise models isolate the bisection solve."""

    def linear_model(self) -> ResponseModel:
        # Peak falls linearly, width huge: the SNR is linear in the step,
        # so the solved step is proportional to the noise level.
        return ResponseModel(
            peak=linear(0.45, -1e-4, 0.0, 4000.0),
            width=constant(1e6, 0.0, 4000.0),
            n_grid=np.array([0.0, 4000.0]),
        )

    def noise(self, level: float) -> NoiseProfile:
        return NoiseProfile(
            amplitude=level,
            floor=level,
            width=constant(1e6, 0.0, 4000.0),
            reference_shots=1000,
        )

    def test_halving_noise_halves_sensitivity(self):
        config = SensingConfig(tau=32e-6, n_shots=1000)
        grid = np.array([500.0, 1000.0, 1500.0])
        full = solve_sensitivity(self.linear_model(), self.noise(0.004), config, grid)
        half = solve_sensitivity(self.linear_model(), self.noise(0.002), config, grid)
        assert not full.unresolvable.any()
        ratio = half.sensitivity / full.sensitivity
        assert np.all(np.abs(ratio - 0.5) < 0.05 * 0.5)

    def test_linear_regime_matches_closed_form(self):
        config = SensingConfig(tau=32e-6, n_shots=1000)
        grid = np.array([1000.0])
        curve = solve_sensitivity(self.linear_model(), self.noise(0.004), config, grid)
        # S = threshold * sqrt(2) * sigma / |slope|
        expected = 0.18 * np.sqrt(2.0) * 0.008 / 1e-4
        assert curve.sensitivity[0] == pytest.approx(expected, rel=2e-3)

    def test_doubling_shot_budget_never_degrades_sensitivity(self):
        grid = np.array([500.0, 1000.0, 1500.0])
        base = solve_sensitivity(
            self.linear_model(), self.noise(0.004), SensingConfig(tau=32e-6, n_shots=1000), grid
        )
        doubled = solve_sensitivity(
            self.linear_model(), self.noise(0.004), SensingConfig(tau=32e-6, n_shots=2000), grid
        )
        assert np.all(doubled.sensitivity <= base.sensitivity)
        ratio = doubled.sensitivity / base.sensitivity
        assert np.all(np.abs(ratio - 1.0 / np.sqrt(2.0)) < 0.02)

    def test_unreachable_threshold_flags_unresolvable(self):
        config = SensingConfig(tau=32e-6, n_shots=1000, threshold=1e4)
        grid = np.array([0.0, 1000.0])
        curve = solve_sensitivity(self.linear_model(), self.noise(0.004), config, grid)
        assert curve.unresolvable.all()
        assert np.all(curve.sensitivity == 0.0)

    def test_population_at_hull_edge_is_unresolvable(self):
        config = SensingConfig(tau=32e-6, n_shots=1000)
        curve = solve_sensitivity(
            self.linear_model(), self.noise(0.004), config, np.array([4000.0])
        )
        assert curve.unresolvable[0]

    def test_curve_rejects_nonpositive_resolved_values(self):
        model = self.linear_model()
        with pytest.raises(ValueError):
            SensitivityCurve(
                n_grid=np.array([0.0]),
                sensitivity=np.array([-1.0]),
                unresolvable=np.array([False]),
                extrapolated=np.array([False]),
                response=model,
                noise=self.noise(0.004),
                config=SensingConfig(tau=32e-6, n_shots=1000),
            )


class TestSpectralFits:
    def test_centers_and_widths_track_the_stark_shifted_line(self):
        params = SystemParams.reference()
        readout = ReadoutModel.for_qubit(params.t1)
        dataset = spectroscopy_dataset(params, readout, mode="expectation")
        fits = fit_power_spectra(dataset)
        assert len(fits) == 7
        probe_sigma = ProtocolConfig(readout=readout).probe_sigma
        for power, fit in fits:
            n_mean = C_PUMP * power
            shift = fit.parameter("center") - params.omega_q
            assert shift == pytest.approx(params.chi_qm * n_mean, abs=0.02 * probe_sigma)
            expected_width = np.hypot(
                probe_sigma, params.gamma2_0 + magnon_dephasing_rate(n_mean, params)
            )
            assert fit.parameter("sigma") == pytest.approx(expected_width, rel=0.02)

    def test_rejects_datasets_from_other_protocols(self):
        params = SystemParams.reference()
        readout = ReadoutModel.for_qubit(params.t1)
        dataset = spectroscopy_dataset(params, readout, mode="expectation")
        relabeled = dataset.__class__(
            axes=dataset.axes,
            p_e=dataset.p_e,
            stderr=dataset.stderr,
            n_shots=dataset.n_shots,
            shot_duration=dataset.shot_duration,
            protocol="ramsey",
            shots=dataset.shots,
            meta=dataset.meta,
            warnings=dataset.warnings,
            manifest_hash=dataset.manifest_hash,
        )
        with pytest.raises(EstimationError):
            fit_power_spectra(relabeled)

    def test_response_model_needs_three_powers(self):
        params = SystemParams.reference()
        readout = ReadoutModel.for_qubit(params.t1)
        dataset = spectroscopy_dataset(params, readout, mode="expectation")
        fits = fit_power_spectra(dataset)
        with pytest.raises(EstimationError):
            build_response_model(fits[:2], reference_calibration(params))

    def test_noise_profile_requires_sampled_errors(self):
        params = SystemParams.reference()
        readout = ReadoutModel.for_qubit(params.t1)
        dataset = spectroscopy_dataset(params, readout, mode="expectation")
        with pytest.raises(EstimationError):
            fit_noise_profile(dataset, reference_calibration(params))


class TestPipeline:
    def test_sensitivity_stays_in_single_digit_magnon_band(self):
        params = SystemParams.reference()
        readout = ReadoutModel.for_qubit(params.t1)
        dataset = spectroscopy_dataset(params, readout, mode="shots")
        calib = reference_calibration(params)
        fits = fit_power_spectra(dataset)
        profile = fit_noise_profile(dataset, calib)
        # probe-limited line: width in magnon units ~ probe_sigma / chi
        probe_sigma = ProtocolConfig(readout=readout).probe_sigma
        assert float(profile.width.evaluate(0.0)[0]) == pytest.approx(
            probe_sigma / calib.chi_qm, rel=0.2
        )
        config = SensingConfig(tau=32e-6, n_shots=1000)
        grid = np.linspace(0.0, 2000.0, 21)
        curve = sensitivity_curve(fits, profile, calib, config, grid)
        assert not curve.unresolvable.any()
        assert not curve.extrapolated.any()
        assert np.all(curve.sensitivity >= 1.0)
        assert np.all(curve.sensitivity <= 20.0)
        # line broadening and falling contrast degrade S monotonically
        assert np.all(np.diff(curve.sensitivity) > 0)
        assert curve.sensitivity[0] < 3.0
        assert curve.sensitivity[-1] > 8.0

    def test_ideal_qubit_bounds_the_measured_curve(self):
        base = SystemParams.reference()
        readout = ReadoutModel.for_qubit(base.t1)
        config = SensingConfig(tau=32e-6, n_shots=1000)
        grid = np.linspace(0.0, 2000.0, 11)

        def solve(params, model, seed):
            dataset = spectroscopy_dataset(params, model, mode="shots", seed=seed)
            calib = reference_calibration(params)
            fits = fit_power_spectra(dataset)
            profile = fit_noise_profile(dataset, calib)
            return sensitivity_curve(fits, profile, calib, config, grid)

        measured = solve(base, readout, seed=11)
        ideal = solve(base.with_ideal_qubit(), readout.idealized(), seed=11)
        assert not measured.unresolvable.any()
        assert not ideal.unresolvable.any()
        assert np.all(ideal.sensitivity <= measured.sensitivity)
