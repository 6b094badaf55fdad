"""Tests for the magnon-number sensitivity chain.

Synthetic response and noise models with known closed forms pin the solver;
the full pipeline (shot-sampled spectroscopy, line fits, empirical noise
profile, calibrated magnon coordinates) checks the end-to-end figures.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

from magsense.analysis import calibrate_magnon_number, magnon_dephasing_rate
from magsense.cli import bundled_configs
from magsense.config import load_config
from magsense.errors import EstimationError
from magsense.fitting import PolyInterpolant
from magsense.params import PumpSpec, SystemParams
from magsense.protocols import ProtocolConfig, run_qubit_spectroscopy
from magsense.readout import ReadoutModel
from magsense.runner import _calibrate, execute_protocol
from magsense.sensitivity import (
    SOLVE_RESOLUTION,
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
            )


def _reference_solve(response, noise, config, n_grid):
    """Per-point scalar bisection: the solve as it ran before it went lockstep."""

    def response_at(n, n_m):
        peak, out_peak = response.peak.evaluate(n_m)
        width, out_width = response.width.evaluate(n_m)
        value = float(peak) * math.exp(-((n - n_m) ** 2) / (2.0 * float(width) ** 2))
        return value, bool(out_peak or out_width)

    def sigma_at(n, n_m):
        width, _ = noise.width.evaluate(n_m)
        value = noise.amplitude * math.exp(-((n - n_m) ** 2) / (2.0 * float(width) ** 2))
        value += noise.floor
        if config.n_shots == noise.reference_shots:
            return value
        return value * math.sqrt(noise.reference_shots / config.n_shots)

    def snr_at(n_m, step):
        p_here, out1 = response_at(n_m, n_m)
        p_there, out2 = response_at(n_m, n_m + step)
        sigma, sigma_prime = sigma_at(n_m, n_m), sigma_at(n_m, n_m + step)
        assert sigma > 0 and sigma_prime > 0
        return abs(p_here - p_there) / math.sqrt(sigma**2 + sigma_prime**2), out1 or out2

    hull_hi = response.hull[1]
    values = np.zeros(len(n_grid))
    unresolvable = np.zeros(len(n_grid), dtype=bool)
    extrapolated = np.zeros(len(n_grid), dtype=bool)
    for k, n_m in enumerate(np.asarray(n_grid, dtype=float)):
        s_max = hull_hi - n_m
        if s_max <= SOLVE_RESOLUTION:
            unresolvable[k] = True
            continue
        snr_max, out = snr_at(n_m, s_max)
        extrapolated[k] |= out
        if snr_max < config.threshold:
            unresolvable[k] = True
            continue
        lo, hi = 0.0, s_max
        while hi - lo > SOLVE_RESOLUTION:
            mid = 0.5 * (lo + hi)
            value, out = snr_at(n_m, mid)
            extrapolated[k] |= out
            if value < config.threshold:
                lo = mid
            else:
                hi = mid
        values[k] = 0.5 * (lo + hi)
    return values, unresolvable, extrapolated


@dataclass(frozen=True)
class GappedInterpolant(PolyInterpolant):
    """A polynomial measured on two population ranges; the gap between them is flagged."""

    gap: tuple = (0.0, 0.0)

    def evaluate(self, x):
        value, outside = super().evaluate(x)
        x = np.asarray(x, dtype=float)
        return value, outside | ((x > self.gap[0]) & (x < self.gap[1]))


def _linear_case(n_shots=1000, threshold=0.18):
    response = TestSolverOnSyntheticModels().linear_model()
    noise = TestSolverOnSyntheticModels().noise(0.004)
    return response, noise, SensingConfig(32e-6, n_shots, threshold), np.linspace(0, 4000, 41)


def _gaussian_model(lo=0.0, hi=2400.0, gap=None):
    width = linear(12.0, 0.004, lo, hi)
    if gap is not None:
        width = GappedInterpolant(width.coefficients, lo, hi, gap)
    return ResponseModel(
        peak=PolyInterpolant(np.array([0.42, -6e-5, -1e-8]), lo, hi),
        width=width,
    )


def _gaussian_noise(reference_shots=400):
    return NoiseProfile(
        amplitude=0.01, floor=0.013, width=linear(18.0, 0.003, 0.0, 2400.0),
        reference_shots=reference_shots,
    )


def _bundled_case():
    config = load_config(bundled_configs()["sensitivity-scan"])
    datasets = {node.name: execute_protocol(node, config) for node in config.protocols}
    (node,) = config.analyses
    calibration, spectro_fits, _, _ = _calibrate(config.system, datasets, node.inputs)
    noise = fit_noise_profile(datasets[node.inputs["spectroscopy"]], calibration)
    grid = np.linspace(node.options["n_min"], node.options["n_max"], int(node.options["count"]))
    return build_response_model(spectro_fits, calibration), noise, config.sensing, grid


ORACLE_CASES = {
    "linear": _linear_case,
    "gaussian": lambda: (
        _gaussian_model(), _gaussian_noise(), SensingConfig(32e-6, 400),
        np.linspace(0.0, 2400.0, 49),
    ),
    # the population hull starts at 600 magnons, so the lower points extrapolate
    "below-hull": lambda: (
        _gaussian_model(lo=600.0), _gaussian_noise(), SensingConfig(32e-6, 400),
        np.linspace(0.0, 2400.0, 33),
    ),
    # flagged probes that neither the n_m nor the s_max probe makes
    "gap-in-hull": lambda: (
        _gaussian_model(gap=(900.0, 950.0)), _gaussian_noise(), SensingConfig(32e-6, 400),
        np.linspace(0.0, 2400.0, 33),
    ),
    "hull-edge-unreachable": lambda: (
        *_linear_case(threshold=1e4)[:3], np.array([0.0, 1000.0, 4000.0 - 5e-4, 4000.0]),
    ),
    "mixed": lambda: (
        _gaussian_model(lo=300.0), _gaussian_noise(), SensingConfig(32e-6, 400, threshold=1.2),
        np.array([0.0, 250.0, 300.0, 1234.5, 2200.0, 2399.0, 2400.0, 2400.0005, 2600.0]),
    ),
    "rescaled-shots": lambda: (
        _gaussian_model(), _gaussian_noise(reference_shots=400), SensingConfig(32e-6, 1000),
        np.linspace(0.0, 2400.0, 49),
    ),
    "bundled-sensitivity-scan": _bundled_case,
}


class TestLockstepSolveMatchesPerPointBisection:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_bit_identical_to_reference_solve(self, case):
        response, noise, config, grid = ORACLE_CASES[case]()
        curve = solve_sensitivity(response, noise, config, grid)
        values, unresolvable, extrapolated = _reference_solve(response, noise, config, grid)
        assert np.array_equal(curve.sensitivity, values)
        assert np.array_equal(curve.unresolvable, unresolvable)
        assert np.array_equal(curve.extrapolated, extrapolated)

    def test_cases_cover_every_outcome(self):
        outcomes = set()
        for make in ORACLE_CASES.values():
            if make is _bundled_case:
                continue
            curve = solve_sensitivity(*make())
            outcomes |= {
                ("resolved", bool((~curve.unresolvable).any())),
                ("unresolvable", bool(curve.unresolvable.any())),
                ("extrapolated", bool(curve.extrapolated.any())),
            }
        assert outcomes >= {("resolved", True), ("unresolvable", True), ("extrapolated", True)}

    def test_nonpositive_standard_error_raises(self):
        response, _, config, grid = _linear_case()
        silent = NoiseProfile(
            amplitude=0.0, floor=0.0, width=constant(1e6, 0.0, 4000.0), reference_shots=1000
        )
        with pytest.raises(EstimationError, match="standard errors must be > 0"):
            solve_sensitivity(response, silent, config, grid)


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

    def test_response_model_leaves_out_unconverged_rows(self):
        params = SystemParams.reference()
        readout = ReadoutModel.for_qubit(params.t1)
        dataset = spectroscopy_dataset(params, readout, mode="expectation")
        fits = fit_power_spectra(dataset)
        calibration = reference_calibration(params)
        power, fit = fits[-1]
        absurd = fit.parameters.copy()
        absurd[2] *= 1e3  # the width
        undetermined = dataclasses.replace(
            fit, parameters=absurd, converged=False, message="undetermined parameters: sigma"
        )
        model = build_response_model(fits[:-1] + [(power, undetermined)], calibration)
        clean = build_response_model(fits[:-1], calibration)
        assert model.hull == clean.hull
        for got, want in ((model.peak, clean.peak), (model.width, clean.width)):
            assert got.coefficients.tobytes() == want.coefficients.tobytes()
        with pytest.raises(EstimationError, match="2 of 3 converged"):
            build_response_model(fits[:2] + [(power, undetermined)], calibration)

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
