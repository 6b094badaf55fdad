"""Acceptance suite: reference-device round trips and property gates.

Each test covers one numbered acceptance criterion and prints a single
"criterion N: PASS/FAIL (...)" line with the measured figures, so a plain
pytest run doubles as a scorecard. Tolerances are stated inline; dataset
seeds are fixed so every reported number is reproducible bit for bit.
"""

import math
import time

import numpy as np

from magsense.analysis import calibrate_magnon_number, magnon_dephasing_rate
from magsense.fitting import FitModel, fit_curve
from magsense.hamiltonians import parametric_interaction
from magsense.lifetimes import (
    extract_kappa_m_from_scan,
    lifetime_from_frequency,
    lifetime_from_phase,
    parametric_qubit_decay,
)
from magsense.lindblad import CollapseTerm, evolve_lindblad
from magsense.params import PumpSpec, SystemParams
from magsense.protocols import (
    ProtocolConfig,
    run_decay_phase_sense,
    run_decay_spectroscopy,
    run_parametric_decay_scan,
    run_qubit_spectroscopy,
)
from magsense.readout import ReadoutModel, sample_readout
from magsense.sensitivity import SensingConfig, fit_noise_profile, fit_power_spectra, sensitivity_curve
from magsense.spaces import (
    ModeSpace,
    build_mode_operators,
    compose_operator,
    fock_state,
    ket_state,
)
from magsense.subsample import subsample_time_budget
from magsense.sweep import point_seed

TWO_PI = 2.0 * math.pi
C_PUMP = 2.3e9  # magnons per W


def _verdict(criterion: int, passed: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_parametric_model_oracle():
    # analytic two-pole amplitude vs Lindblad integration, 5x5 grid, <= 1e-3
    params = SystemParams.reference()
    kappa = params.kappa_m
    space = ModeSpace(("q", "m"), (2, 2))
    _, n_q = build_mode_operators(space, "q")
    m, _ = build_mode_operators(space, "m")
    t_end = 2e-6
    times = np.linspace(0.0, t_end, 101)
    started = time.monotonic()
    worst = 0.0
    for omega in kappa * np.linspace(0.2, 1.0, 5):
        for delta in kappa * np.linspace(-1.0, 1.0, 5):
            _, evaluator = parametric_qubit_decay(delta, omega, kappa)
            analytic = np.abs(evaluator(times)) ** 2
            rate_scale = 0.5 * omega + abs(delta) + kappa
            n_steps = 100 * math.ceil(t_end / (100 * (0.02 / rate_scale)))
            traj = evolve_lindblad(
                fock_state(space, {"q": 1, "m": 0}),
                parametric_interaction(omega, delta, space),
                collapses=(CollapseTerm(m, kappa),),
                tspan=(0.0, t_end),
                dt=t_end / n_steps,
                observables=(n_q,),
                record_times=times,
            )
            deviation = float(np.max(np.abs(np.real(traj.expect(0)) - analytic)))
            worst = max(worst, deviation)
    elapsed = time.monotonic() - started
    _verdict(
        1,
        worst <= 1e-3 and elapsed <= 120.0,
        f"max |P_e - |q|^2| = {worst:.2e} over 25 cells, {elapsed:.0f} s",
    )


def test_criterion_2_resonant_purcell_rate():
    # induced lifetime 1.76 us and FWHM kappa_m to 5%; Omega^2 scaling to 10%
    params = SystemParams.reference()
    config = ProtocolConfig(
        readout=ReadoutModel.for_qubit(params.t1), mode="expectation"
    )
    durations = np.linspace(0.0, 4e-6, 17)
    deltas = np.linspace(-1.5, 1.5, 15) * params.kappa_m
    scan = run_parametric_decay_scan(
        params, PumpSpec(omega_qm=TWO_PI * 0.66e6), deltas, durations, config
    )
    estimate = extract_kappa_m_from_scan(scan)
    fwhm_err = estimate.kappa_m / params.kappa_m - 1.0
    tau_induced = 1.0 / estimate.fit.parameter("amplitude")
    tau_err = tau_induced / 1.76e-6 - 1.0

    scaling_errs = []
    for mhz in (0.66, 0.86, 1.11):
        omega = TWO_PI * mhz * 1e6
        row = run_parametric_decay_scan(
            params, PumpSpec(omega_qm=omega), np.array([0.0]), durations, config
        )
        fit = fit_curve(FitModel("exponential-decay"), durations[1:], row.p_e[0, 1:])
        induced = 1.0 / fit.parameter("tau") - 1.0 / params.t1
        scaling_errs.append(induced / (omega**2 / params.kappa_m) - 1.0)
    worst_scaling = max(abs(e) for e in scaling_errs)
    _verdict(
        2,
        abs(tau_err) <= 0.05
        and abs(fwhm_err) <= 0.05
        and worst_scaling <= 0.10
        and not estimate.flags,
        f"tau_induced = {tau_induced * 1e6:.3f} us ({tau_err:+.1%}), "
        f"FWHM/kappa_m - 1 = {fwhm_err:+.1%}, "
        f"worst Omega^2 scaling error {worst_scaling:+.1%}",
    )


def test_criterion_3_dephasing_formula_oracle():
    # driven-magnon Lindblad dephasing vs 2 n kappa chi^2/(kappa^2 + chi^2)
    params = SystemParams.reference()
    kappa = params.kappa_m
    chi = -0.05 * kappa
    started = time.monotonic()
    ratios = []
    for n_mean, dim in ((0.5, 9), (1.0, 12), (3.0, 17)):
        space = ModeSpace(("q", "m"), (2, dim))
        q, n_q = build_mode_operators(space, "q")
        m, n_m = build_mode_operators(space, "m")
        # drive at the midpoint of the two qubit-conditioned magnon lines
        eps = math.sqrt(n_mean * ((0.5 * kappa) ** 2 + (0.5 * chi) ** 2))
        h = compose_operator(
            [
                (-0.5 * chi, [n_m]),
                (chi, [n_q, n_m]),
                (eps, [m.dag()]),
                (eps, [m]),
            ],
            hermitian=True,
        )
        # qubit superposition times the ground-branch steady coherent state
        alpha = -1j * eps / (0.5 * kappa - 0.5j * chi)
        weights = np.exp(-0.5 * abs(alpha) ** 2) * np.array(
            [alpha**n / math.sqrt(math.factorial(n)) for n in range(dim)]
        )
        amplitudes = {}
        for n in range(dim):
            amplitudes[space.basis_index({"q": 0, "m": n})] = weights[n]
            amplitudes[space.basis_index({"q": 1, "m": n})] = weights[n]
        rho0 = ket_state(space, amplitudes)
        gamma_formula = 2.0 * n_mean * kappa * chi**2 / (kappa**2 + chi**2)
        t_end = 5.0 / kappa + 2.5 / gamma_formula
        dt_target = 0.03 / (2.0 * eps * math.sqrt(dim) + abs(chi) * dim + kappa)
        n_steps = 400 * math.ceil(t_end / (400 * dt_target))
        times = np.linspace(0.0, t_end, 401)
        traj = evolve_lindblad(
            rho0,
            h,
            collapses=(CollapseTerm(m, kappa),),
            tspan=(0.0, t_end),
            dt=t_end / n_steps,
            observables=(q,),
            record_times=times,
        )
        coherence = np.abs(traj.expect(0))
        mask = traj.times >= 5.0 / kappa
        fit = fit_curve(FitModel("exponential-decay"), traj.times[mask], coherence[mask])
        ratios.append((1.0 / fit.parameter("tau")) / gamma_formula)
    elapsed = time.monotonic() - started
    worst = max(abs(r - 1.0) for r in ratios)
    _verdict(
        3,
        worst <= 0.10 and elapsed <= 600.0,
        "Gamma_sim/Gamma_formula = "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + f" at n = 0.5, 1, 3; {elapsed:.0f} s",
    )


def test_criterion_4_calibration_round_trip():
    # noiseless slopes to 1e-9; 3% slope noise keeps chi within 5% over 200 trials
    params = SystemParams.reference()
    chi = abs(params.chi_qm)
    stark = chi * C_PUMP
    dephasing = magnon_dephasing_rate(1.0, params) * C_PUMP
    clean = calibrate_magnon_number(stark, dephasing, params.kappa_m, params.gamma2_0)
    clean_err = max(
        abs(clean.chi_qm / chi - 1.0), abs(clean.c_pump / C_PUMP - 1.0)
    )

    rng = np.random.default_rng(42)
    recovered = np.array(
        [
            calibrate_magnon_number(
                stark * (1.0 + 0.03 * rng.standard_normal()),
                dephasing * (1.0 + 0.03 * rng.standard_normal()),
                params.kappa_m,
                params.gamma2_0,
            ).chi_qm
            for _ in range(200)
        ]
    )
    mean_err = abs(np.mean(recovered) / chi - 1.0)
    median_err = float(np.median(np.abs(recovered / chi - 1.0)))
    _verdict(
        4,
        clean_err <= 1e-9 and mean_err <= 0.05 and median_err <= 0.05,
        f"noiseless err {clean_err:.1e}; noisy mean err {mean_err:.2%}, "
        f"median |err| {median_err:.2%}",
    )


def test_criterion_5_lifetime_sensing_round_trip():
    # both decay trackers hit 33.1 +- 3 ns, agree to 1 sigma; 1-s subsets
    # spread by of order a few ns
    params = SystemParams.reference()
    readout = ReadoutModel.for_qubit(t1=params.t1)
    phase_config = ProtocolConfig(
        readout=readout,
        n_shots=800,
        master_seed=9,
        keep_shots=True,
        dead_time=10e-6,
    )
    freq_config = ProtocolConfig(
        readout=readout,
        n_shots=800,
        master_seed=109,
        probe_duration=8e-9,
        dead_time=10e-6,
    )
    phase_data = run_decay_phase_sense(
        params,
        650.0,
        np.linspace(0.0, 240e-9, 41),
        np.linspace(0.0, TWO_PI, 25),
        phase_config,
    )
    freq_data = run_decay_spectroscopy(
        params,
        650.0,
        np.linspace(0.0, 240e-9, 21),
        params.omega_q + TWO_PI * np.linspace(-48e6, 4e6, 81),
        freq_config,
    )
    phase_est = lifetime_from_phase(phase_data)
    freq_est = lifetime_from_frequency(freq_data)
    phase_err = abs(phase_est.lifetime - 33.1e-9)
    freq_err = abs(freq_est.lifetime - 33.1e-9)
    combined = math.hypot(phase_est.uncertainty, freq_est.uncertainty)
    gap = abs(phase_est.lifetime - freq_est.lifetime)

    subsets = np.array(
        [
            lifetime_from_phase(subsample_time_budget(phase_data, 1.0, seed=k)).lifetime
            for k in range(30)
        ]
    )
    spread = float(np.std(subsets, ddof=1))
    _verdict(
        5,
        phase_err <= 3e-9
        and freq_err <= 3e-9
        and gap <= combined
        and not phase_est.flags
        and not freq_est.flags
        and np.all(np.isfinite(subsets))
        and 0.3e-9 <= spread <= 30e-9,
        f"tau_phase = {phase_est.lifetime * 1e9:.2f} +- "
        f"{phase_est.uncertainty * 1e9:.2f} ns, tau_freq = "
        f"{freq_est.lifetime * 1e9:.2f} +- {freq_est.uncertainty * 1e9:.2f} ns, "
        f"gap {gap / combined:.2f} sigma, 1-s subsample spread {spread * 1e9:.2f} ns",
    )


def test_criterion_6_sensitivity_pipeline():
    # S(n_m) in [1, 20] magnons/sqrt(Hz) over [0, 2000]; ideal <= measured
    base = SystemParams.reference()
    readout = ReadoutModel.for_qubit(base.t1)
    sensing = SensingConfig(tau=32e-6, n_shots=1000, threshold=0.18)
    grid = np.linspace(0.0, 2000.0, 81)

    def solve(params, model):
        config = ProtocolConfig(
            readout=model,
            n_shots=400,
            master_seed=11,
            mode="shots",
            pump=PumpSpec(c_pump=C_PUMP),
        )
        dataset = run_qubit_spectroscopy(
            params,
            np.linspace(0.0, 1.0e-6, 7),
            params.omega_q + TWO_PI * np.linspace(-165e6, 10e6, 351),
            config,
        )
        calibration = calibrate_magnon_number(
            stark_slope=abs(params.chi_qm) * C_PUMP,
            dephasing_slope=magnon_dephasing_rate(1.0, params) * C_PUMP,
            kappa_m=params.kappa_m,
            gamma2_0=params.gamma2_0,
        )
        fits = fit_power_spectra(dataset)
        profile = fit_noise_profile(dataset, calibration)
        return sensitivity_curve(fits, profile, calibration, sensing, grid)

    measured = solve(base, readout)
    ideal = solve(base.with_ideal_qubit(), readout.idealized())
    in_band = bool(
        np.all(measured.sensitivity >= 1.0) and np.all(measured.sensitivity <= 20.0)
    )
    resolved = not measured.unresolvable.any() and not ideal.unresolvable.any()
    ordered = bool(np.all(ideal.sensitivity <= measured.sensitivity))
    _verdict(
        6,
        in_band and resolved and ordered,
        f"S in [{measured.sensitivity.min():.2f}, {measured.sensitivity.max():.2f}] "
        f"magnons/sqrt(Hz) over [0, 2000]; ideal curve uniformly lower "
        f"(ratio {np.max(ideal.sensitivity / measured.sensitivity):.2f})",
    )


def test_criterion_7_engine_property_suite():
    started = time.monotonic()
    # trace, Hermiticity, positivity on a driven dissipative two-mode system
    space = ModeSpace(("q", "m"), (2, 4))
    q, n_q = build_mode_operators(space, "q")
    m, _ = build_mode_operators(space, "m")
    omega = TWO_PI * 1e6
    h = compose_operator(
        [
            (0.5 * omega, [q.dag(), m]),
            (0.5 * omega, [q, m.dag()]),
            (TWO_PI * 0.2e6, [m.dag(), m]),
        ],
        hermitian=True,
    )
    traj = evolve_lindblad(
        ket_state(space, {space.basis_index({"q": 1}): 1.0, 0: 1.0}),
        h,
        collapses=(CollapseTerm(m, TWO_PI * 0.5e6), CollapseTerm(q, 0.1e6)),
        tspan=(0.0, 4e-6),
        dt=2e-9,
        observables=(n_q,),
        record_states=True,
    )
    trace_drift = traj.max_trace_drift
    hermiticity = max(
        float(np.abs(state.matrix - state.matrix.conj().T).max())
        for state in traj.states[::50]
    )
    positivity = min(
        float(np.linalg.eigvalsh(state.matrix).min()) for state in traj.states[::50]
    )

    # RK4 order via Richardson step halving on a smooth driven decay
    qspace = ModeSpace(("q",), (2,))
    a, n = build_mode_operators(qspace, "q")
    h_rabi = compose_operator(
        [(0.5 * TWO_PI, [a]), (0.5 * TWO_PI, [a.dag()])], hermitian=True
    )

    def final_population(dt: float) -> float:
        run = evolve_lindblad(
            fock_state(qspace, {"q": 1}),
            h_rabi,
            collapses=(CollapseTerm(a, 0.3),),
            tspan=(0.0, 2.0),
            dt=dt,
            observables=(n,),
        )
        return float(run.expect(0)[-1].real)

    values = [final_population(dt) for dt in (0.01, 0.005, 0.0025)]
    richardson = abs(values[1] - values[0]) / abs(values[2] - values[1])

    # identical seeds reproduce datasets bit for bit, and each point's shots
    # depend on its flat index alone, not on the order points are visited
    params = SystemParams.reference()
    readout = ReadoutModel.for_qubit(params.t1)

    def decay_phase(mode: str):
        config = ProtocolConfig(
            readout=readout,
            n_shots=200,
            master_seed=3,
            mode=mode,
            keep_shots=True,
        )
        return run_decay_phase_sense(
            params,
            30.0,
            np.linspace(0.0, 60e-9, 3),
            np.linspace(0.0, TWO_PI, 5),
            config,
        )

    runs = [decay_phase("shots") for _ in range(3)]
    reruns_identical = all(
        np.array_equal(runs[0].p_e, other.p_e)
        and np.array_equal(runs[0].stderr, other.stderr)
        and np.array_equal(runs[0].shots, other.shots)
        for other in runs[1:]
    )
    p_true = decay_phase("expectation").p_e.reshape(-1)
    recorded = runs[0].shots.reshape(len(p_true), -1)
    order_independent = all(
        np.array_equal(
            sample_readout(
                float(p_true[i]), readout, 200, seed=point_seed(3, "decay-phase", int(i))
            ).values,
            recorded[i],
        )
        for i in np.random.default_rng(7).permutation(len(p_true))
    )
    deterministic = reruns_identical and order_independent
    elapsed = time.monotonic() - started
    _verdict(
        7,
        trace_drift <= 1e-9
        and hermiticity <= 1e-10
        and positivity >= -1e-7
        and 12.0 < richardson < 20.0
        and deterministic
        and elapsed <= 300.0,
        f"trace drift {trace_drift:.1e}, hermiticity {hermiticity:.1e}, "
        f"min eigenvalue {positivity:.1e}, RK4 Richardson ratio {richardson:.1f}, "
        f"reruns bit-identical, order-independent: {deterministic}; {elapsed:.0f} s",
    )


def test_criterion_8_estimator_suite():
    cases = {
        "gaussian": (np.linspace(0.0, 6.0, 41), [1.0, 3.0, 0.5, 0.05], "center"),
        "lorentzian": (np.linspace(-5.0, 5.0, 61), [2.0, 0.3, 1.2, 0.1], "fwhm"),
        "exponential-decay": (np.linspace(0.0, 5.0, 30), [1.0, 1.3, 0.2], "tau"),
        "saturating-exponential": (np.linspace(0.0, 5.0, 30), [2.0, 1.5, 0.8], "tau"),
        "sinusoid": (np.linspace(0.0, 2.0, 80), [0.4, 2.3, 1.0, 0.5], "frequency"),
        "double-gaussian": (
            np.linspace(-2.0, 4.0, 101),
            [1.0, 0.1, 0.35, 0.6, 1.9, 0.4, 0.02],
            "center_1",
        ),
    }
    worst_fixed_point = 0.0
    factors = {}
    rng = np.random.default_rng(2024)
    for family, (x, truth, primary) in cases.items():
        model = FitModel(family)
        truth = np.array(truth, dtype=float)
        y = model.evaluate(x, truth)
        exact = fit_curve(model, x, y)
        worst_fixed_point = max(
            worst_fixed_point,
            float(np.max(np.abs(exact.parameters / truth - 1.0))),
        )
        sigma = 0.01 * float(np.max(np.abs(y)))
        estimates = []
        stderrs = []
        for _ in range(200):
            noisy = y + sigma * rng.standard_normal(len(x))
            fit = fit_curve(
                model, x, noisy, y_err=np.full(len(x), sigma), init=truth
            )
            estimates.append(fit.parameter(primary))
            stderrs.append(fit.stderr(primary))
        factors[family] = float(np.std(estimates, ddof=1) / np.mean(stderrs))
    in_window = all(0.5 <= f <= 2.0 for f in factors.values())
    _verdict(
        8,
        worst_fixed_point <= 1e-6 and in_window,
        f"zero-noise fixed point {worst_fixed_point:.1e}; covariance factors "
        + ", ".join(f"{k} {v:.2f}" for k, v in factors.items()),
    )
