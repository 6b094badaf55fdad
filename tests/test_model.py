"""Tests for system parameters and Hamiltonian builders."""

import math
from dataclasses import replace

import numpy as np
import pytest

from magsense.errors import UnknownModeError, ValidityError
from magsense.hamiltonians import (
    derived_chi_qm,
    full_hamiltonian,
    parametric_interaction,
)
from magsense.lindblad import evolve_lindblad
from magsense.params import TWO_PI, PumpSpec, SystemParams, gamma2_from_coherence
from magsense.spaces import ModeSpace, build_mode_operators, fock_state


def test_gamma2_from_coherence_values():
    rate = gamma2_from_coherence(2.78e-6, 4.0e-6)
    expected = 1.0 / 4.0e-6 - 0.5 / 2.78e-6
    assert rate == pytest.approx(expected, rel=1e-12)
    assert gamma2_from_coherence(math.inf, math.inf) == 0.0
    # relaxation-limited: T2 = 2 T1 leaves no pure dephasing
    assert gamma2_from_coherence(1e-6, 2e-6) == pytest.approx(0.0, abs=1e-3)


def test_gamma2_rejects_t2_beyond_relaxation_limit():
    with pytest.raises(ValueError):
        gamma2_from_coherence(1e-6, 3e-6)


def test_reference_parameter_values():
    p = SystemParams.reference()
    assert p.omega_q / TWO_PI == pytest.approx(3.87e9)
    assert p.omega_c / TWO_PI == pytest.approx(4.56e9)
    assert p.omega_m / TWO_PI == pytest.approx(4.74e9)
    assert p.kappa_m / TWO_PI == pytest.approx(4.81e6)
    assert p.chi_qm / TWO_PI == pytest.approx(-67e3)
    assert p.t1 == pytest.approx(2.78e-6)
    assert p.t2r == pytest.approx(4.0e-6)
    assert p.gamma2_0 == pytest.approx(gamma2_from_coherence(p.t1, p.t2r))
    # coupling set is closed under the cascade relation
    assert derived_chi_qm(p.g_mc, p.delta_mc, p.chi_qc) == pytest.approx(
        p.chi_qm, rel=1e-12
    )
    p.dispersive_guard()


def test_params_validation():
    p = SystemParams.reference()
    with pytest.raises(ValueError):
        replace(p, alpha=abs(p.alpha))
    with pytest.raises(ValueError):
        replace(p, t2r=3.0 * p.t1)
    with pytest.raises(ValueError):
        replace(p, kappa_m=-1.0)
    with pytest.raises(ValueError):
        replace(p, t1=0.0)


def test_dispersive_guard_violation():
    p = SystemParams.reference()
    bad = replace(p, g_qc=0.5 * abs(p.delta_qc))
    with pytest.raises(ValidityError):
        bad.dispersive_guard()
    # an uncoupled mode is exempt even at zero detuning
    decoupled = replace(p, g_mc=0.0, chi_qm=0.0, omega_m=p.omega_c)
    decoupled.dispersive_guard()


def test_ideal_qubit_variant():
    p = SystemParams.reference()
    ideal = p.with_ideal_qubit()
    assert math.isinf(ideal.t1)
    assert math.isinf(ideal.t2r)
    assert ideal.gamma2_0 == 0.0
    assert ideal.omega_q == p.omega_q
    assert ideal.chi_qm == p.chi_qm


def test_pump_spec_occupation():
    pump = PumpSpec(power_w=2e-6, c_pump=1e8)
    assert pump.n_mean == pytest.approx(200.0)
    with pytest.raises(ValueError):
        PumpSpec(power_w=-1e-6)
    with pytest.raises(ValueError):
        PumpSpec(omega_qm=-1.0)


def _bare_params(**overrides):
    base = dict(
        omega_c=6.0,
        omega_m=5.8,
        omega_q=5.0,
        alpha=0.0,
        g_qc=0.0,
        g_mc=0.0,
        chi_qc=0.0,
        chi_qm=0.0,
        kappa_m=0.0,
        t1=1.0,
        t2r=1.0,
        gamma2_0=0.0,
    )
    base.update(overrides)
    return SystemParams(**base)


def test_full_hamiltonian_uncoupled_is_diagonal():
    p = _bare_params(omega_c=1.0, omega_m=math.sqrt(2.0), omega_q=math.e)
    space = ModeSpace(("q", "c", "m"), (3, 4, 4))
    h = full_hamiltonian(p, space).matrix
    off = h - np.diag(np.diag(h))
    assert np.max(np.abs(off)) == 0.0
    diag = np.real(np.diag(h))
    for idx in range(space.dim):
        occ = space.occupations(idx)
        expected = occ["q"] * p.omega_q + occ["c"] * p.omega_c + occ["m"] * p.omega_m
        assert diag[idx] == pytest.approx(expected, rel=1e-14, abs=1e-14)


def test_full_hamiltonian_jaynes_cummings_doublet():
    g = 0.12
    p = _bare_params(g_qc=g)
    space = ModeSpace(("q", "c", "m"), (2, 2, 2))
    h = full_hamiltonian(p, space).matrix
    w = np.linalg.eigvalsh(h)
    mid = 0.5 * (p.omega_q + p.omega_c)
    half_split = math.sqrt(g**2 + 0.25 * p.delta_qc**2)
    for target in (mid - half_split, mid + half_split):
        assert np.min(np.abs(w - target)) < 1e-12
    # doublet width
    lower = w[np.argmin(np.abs(w - (mid - half_split)))]
    upper = w[np.argmin(np.abs(w - (mid + half_split)))]
    assert upper - lower == pytest.approx(2.0 * half_split, rel=1e-12)


def test_full_hamiltonian_dressed_qubit_shift():
    # harmonic limit isolates the cavity-induced pull on the 0-1 transition
    p = replace(SystemParams.reference(), alpha=0.0)
    space = ModeSpace(("q", "c", "m"), (4, 6, 6))
    h = full_hamiltonian(p, space).matrix
    w, v = np.linalg.eigh(h)

    def dressed_energy(occ):
        idx = space.basis_index(occ)
        k = int(np.argmax(np.abs(v[idx, :]) ** 2))
        assert np.abs(v[idx, k]) ** 2 > 0.9
        return w[k]

    e0 = dressed_energy({"q": 0, "c": 0, "m": 0})
    e1 = dressed_energy({"q": 1, "c": 0, "m": 0})
    shift = (e1 - e0) - p.omega_q
    assert shift == pytest.approx(p.g_qc**2 / p.delta_qc, rel=0.05)


def test_full_hamiltonian_mode_and_parameter_checks():
    p = _bare_params()
    with pytest.raises(UnknownModeError):
        full_hamiltonian(p, ModeSpace(("q", "c"), (3, 4)))
    with pytest.raises(ValueError):
        full_hamiltonian(
            replace(SystemParams.reference(), g_qc=math.inf),
            ModeSpace(("q", "c", "m"), (3, 3, 3)),
        )
    # two-level qubit only valid in the harmonic limit
    with pytest.raises(ValueError):
        full_hamiltonian(
            SystemParams.reference(), ModeSpace(("q", "c", "m"), (2, 3, 3))
        )
    full_hamiltonian(p, ModeSpace(("q", "c", "m"), (2, 3, 3)))


def test_parametric_swap_time():
    omega_qm = TWO_PI * 0.66e6
    space = ModeSpace(("q", "m"), (2, 2))
    h = parametric_interaction(omega_qm, 0.0, space)
    _, n_q = build_mode_operators(space, "q")
    rho0 = fock_state(space, {"q": 1, "m": 0})
    t_swap = math.pi / omega_qm
    t_end = 1.2 * t_swap
    n_steps = 2400
    dt = t_end / n_steps
    traj = evolve_lindblad(rho0, h, tspan=(0.0, t_end), dt=dt, observables=(n_q,))
    pop = np.real(traj.expect(0))
    k = int(np.argmin(pop))
    assert 0 < k < len(pop) - 1
    # parabolic vertex around the grid minimum of cos^2(omega t / 2)
    y0, y1, y2 = pop[k - 1], pop[k], pop[k + 1]
    t_min = traj.times[k] + 0.5 * dt * (y0 - y2) / (y0 - 2 * y1 + y2)
    assert t_min == pytest.approx(t_swap, rel=1e-3)
    assert pop[k] < 1e-5


def test_parametric_zero_amplitude_decouples():
    space = ModeSpace(("q", "m"), (2, 3))
    h = parametric_interaction(0.0, TWO_PI * 1e6, space).matrix
    off = h - np.diag(np.diag(h))
    assert np.max(np.abs(off)) == 0.0


def test_parametric_conserves_total_excitation():
    space = ModeSpace(("q", "m"), (2, 4))
    h = parametric_interaction(TWO_PI * 0.86e6, TWO_PI * 2e6, space)
    _, n_q = build_mode_operators(space, "q")
    _, n_m = build_mode_operators(space, "m")
    total = n_q + n_m
    comm = h @ total - total @ h
    # BLAS complex matmul rounds at ~1 ulp of the operator scale
    scale = float(np.max(np.abs(h.matrix)))
    assert np.max(np.abs(comm.matrix)) <= 1e-12 * scale


def test_overdamped_regime_at_reference_coupling():
    kappa_m = SystemParams.reference().kappa_m
    omega_qm = TWO_PI * 0.66e6
    assert 2.0 * omega_qm < kappa_m
    beta = math.sqrt(kappa_m**2 - 4.0 * omega_qm**2)
    assert beta / TWO_PI == pytest.approx(4.626e6, abs=1e3)


def test_cross_kerr_model_consistency():
    # magnon sited near the cavity keeps the cascade picture accurate; both
    # coupling ratios at 0.05
    for omega_m, g_mc in ((6.1, 0.005), (5.9, 0.005)):
        p = _bare_params(omega_m=omega_m, alpha=-0.3, g_qc=0.05, g_mc=g_mc)
        space = ModeSpace(("q", "c", "m"), (4, 6, 6))
        h = full_hamiltonian(p, space).matrix
        w, v = np.linalg.eigh(h)

        def energy(occ):
            idx = space.basis_index(occ)
            return w[int(np.argmax(np.abs(v[idx, :]) ** 2))]

        e00 = energy({"q": 0, "c": 0, "m": 0})
        e10 = energy({"q": 1, "c": 0, "m": 0})
        e01 = energy({"q": 0, "c": 0, "m": 1})
        e11 = energy({"q": 1, "c": 0, "m": 1})
        chi_qm_num = e11 - e10 - e01 + e00
        chi_qc_num = (
            energy({"q": 1, "c": 1, "m": 0}) - e10 - energy({"q": 0, "c": 1, "m": 0}) + e00
        )
        predicted = derived_chi_qm(p.g_mc, p.delta_mc, chi_qc_num)
        assert chi_qm_num == pytest.approx(predicted, rel=0.20)


def test_derived_chi_qm_examples():
    assert derived_chi_qm(0.0, 1.0, 2.0) == 0.0
    assert derived_chi_qm(1.0 / math.sqrt(2.0), 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValidityError):
        derived_chi_qm(1.0, 0.0, 1.0)
    p = SystemParams.reference()
    assert abs(p.g_mc / p.delta_mc) == pytest.approx(0.2588, abs=1e-4)
