"""Master-equation integrator checks against closed-form dynamics."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magsense.errors import IntegrationError, TruncationError
from magsense.lindblad import MAX_TOTAL_DIM, CollapseTerm, evolve_lindblad
from magsense.spaces import (
    DensityMatrix,
    ModeSpace,
    Operator,
    build_mode_operators,
    compose_operator,
    fock_state,
    ket_state,
)

T1 = 2.78e-6  # s, reference relaxation time


def _reference_rk4(rho0, h, collapses, dt, n_steps):
    """Static-H RK4 step loop, the oracle for the step propagator: rho at each step."""
    ops = []
    for c in collapses:
        L = c.operator.matrix
        ops.append((L, L.conj().T, L.conj().T @ L, c.rate))

    def rhs(rho):
        out = -1j * (h @ rho - rho @ h)
        for L, Ld, LdL, rate in ops:
            out += rate * (L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL))
        return out

    rho = rho0.matrix.copy()
    states = [rho]
    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(rho)
    return states


@pytest.mark.parametrize(
    "record_steps",
    [None, [0, 3, 4, 17, 60, 61, 150, 240], [5, 90]],
    ids=["every-step", "non-uniform", "last-record-before-t1"],
)
def test_propagator_matches_reference_rk4_loop(record_steps):
    space = ModeSpace(("q", "m"), (2, 3))
    q, n_q = build_mode_operators(space, "q")
    m, _ = build_mode_operators(space, "m")
    omega = 2 * math.pi * 1e6
    h = compose_operator(
        [
            (0.5 * omega, [q.dag(), m]),
            (0.5 * omega, [q, m.dag()]),
            (2 * math.pi * 0.3e6, [m.dag(), m]),
        ],
        hermitian=True,
    )
    cols = [CollapseTerm(m, 2 * math.pi * 0.5e6), CollapseTerm(q, 1.0 / T1)]
    rho0 = ket_state(space, {space.basis_index({"q": 1}): 1.0, 0: 1.0})
    dt, n_steps = 4e-9, 240
    record_times = None if record_steps is None else dt * np.array(record_steps)
    traj = evolve_lindblad(
        rho0, h, cols, (0.0, n_steps * dt), dt, observables=[n_q, q],
        record_times=record_times, record_states=True,
    )
    reference = _reference_rk4(rho0, h.matrix, cols, dt, n_steps)
    steps = range(n_steps + 1) if record_steps is None else record_steps
    assert len(traj.states) == len(steps)
    for pos, step in enumerate(steps):
        assert np.abs(traj.states[pos].matrix - reference[step]).max() <= 1e-12
        for k, op in enumerate((n_q, q)):
            assert abs(traj.expect(k)[pos] - np.trace(op.matrix @ reference[step])) <= 1e-12
    assert np.abs(traj.final_state.matrix - reference[n_steps]).max() <= 1e-12


def test_t1_decay_matches_exponential():
    space = ModeSpace(("q",), (2,))
    a, n = build_mode_operators(space, "q")
    rho0 = fock_state(space, {"q": 1})
    rate = 1.0 / T1
    dt = 0.02 * T1
    traj = evolve_lindblad(
        rho0, None, [CollapseTerm(a, rate)], (0.0, 4.0 * T1), dt, observables=[n]
    )
    expected = np.exp(-traj.times / T1)
    assert np.max(np.abs(traj.expect(0).real - expected)) < 1e-6
    assert np.max(np.abs(traj.expect(0).imag)) < 1e-12


def test_trace_preserved_no_collapse():
    space = ModeSpace(("q",), (2,))
    a, _ = build_mode_operators(space, "q")
    omega = 2 * math.pi * 1e6
    h = compose_operator([(0.5 * omega, [a]), (0.5 * omega, [a.dag()])], hermitian=True)
    rho0 = ket_state(space, {0: 1.0, 1: 1.0})
    traj = evolve_lindblad(
        rho0, h, [], (0.0, 20e-6), 1e-9, observables=[], record_states=True
    )
    for state in traj.states[:: len(traj.states) // 10]:
        assert abs(state.trace() - 1.0) < 1e-9
    assert traj.max_trace_drift < 1e-9


def test_beamsplitter_full_swap():
    omega = 2 * math.pi * 0.5e6
    space = ModeSpace(("q", "m"), (2, 2))
    q, n_q = build_mode_operators(space, "q")
    m, _ = build_mode_operators(space, "m")
    h = compose_operator(
        [(0.5 * omega, [q.dag(), m]), (0.5 * omega, [q, m.dag()])], hermitian=True
    )
    rho0 = fock_state(space, {"q": 1, "m": 0})
    t_swap = math.pi / omega
    dt = t_swap / 400
    traj = evolve_lindblad(rho0, h, [], (0.0, t_swap), dt, observables=[n_q])
    assert abs(traj.expect(0)[-1].real) < 1e-6


def test_rk4_order_on_step_halving():
    # smooth driven-dissipative qubit; Richardson ratio must approach 2^4
    space = ModeSpace(("q",), (2,))
    a, n = build_mode_operators(space, "q")
    omega = 2 * math.pi * 1.0
    h = compose_operator([(0.5 * omega, [a]), (0.5 * omega, [a.dag()])], hermitian=True)
    col = [CollapseTerm(a, 0.3)]
    rho0 = fock_state(space, {"q": 1})
    t_end = 2.0

    def final_ne(dt: float) -> float:
        traj = evolve_lindblad(rho0, h, col, (0.0, t_end), dt, observables=[n])
        return traj.expect(0)[-1].real

    dts = [0.01, 0.005, 0.0025]
    vals = [final_ne(dt) for dt in dts]
    change_coarse = abs(vals[1] - vals[0])
    change_fine = abs(vals[2] - vals[1])
    assert change_coarse > 1e-13  # stay above the roundoff floor
    ratio = change_coarse / change_fine
    assert 12.0 < ratio < 20.0


def test_hermiticity_and_positivity_preserved():
    space = ModeSpace(("q", "m"), (2, 4))
    q, n_q = build_mode_operators(space, "q")
    m, _ = build_mode_operators(space, "m")
    omega = 2 * math.pi * 1e6
    h = compose_operator(
        [
            (0.5 * omega, [q.dag(), m]),
            (0.5 * omega, [q, m.dag()]),
            (2 * math.pi * 0.2e6, [m.dag(), m]),
        ],
        hermitian=True,
    )
    cols = [CollapseTerm(m, 2 * math.pi * 0.5e6), CollapseTerm(q, 0.1e6)]
    rho0 = ket_state(space, {space.basis_index({"q": 1}): 1.0, 0: 1.0})
    traj = evolve_lindblad(
        rho0, h, cols, (0.0, 4e-6), 2e-9, observables=[n_q], record_states=True
    )
    for state in traj.states[::50]:
        herm = np.abs(state.matrix - state.matrix.conj().T).max()
        assert herm < 1e-10
        evals = np.linalg.eigvalsh(0.5 * (state.matrix + state.matrix.conj().T))
        assert evals.min() > -1e-7


def test_dephasing_collapse_convention():
    # sqrt(gamma_phi/2) sigma_z must give off-diagonal decay exp(-gamma_phi t)
    space = ModeSpace(("q",), (2,))
    gamma_phi = 1.0e6
    sz = Operator(space, np.diag([-1.0, 1.0]).astype(complex))
    rho0 = ket_state(space, {0: 1.0, 1: 1.0})
    x = Operator(space, np.array([[0, 1], [1, 0]], dtype=complex))
    traj = evolve_lindblad(
        rho0, None, [CollapseTerm(sz, gamma_phi / 2)], (0.0, 2e-6), 1e-9, observables=[x]
    )
    expected = np.exp(-gamma_phi * traj.times)
    assert np.max(np.abs(traj.expect(0).real - expected)) < 1e-8


def test_step_size_guard():
    space = ModeSpace(("q",), (2,))
    a, _ = build_mode_operators(space, "q")
    omega = 2 * math.pi * 100e6
    h = compose_operator([(0.5 * omega, [a]), (0.5 * omega, [a.dag()])], hermitian=True)
    rho0 = fock_state(space, {"q": 0})
    with pytest.raises(IntegrationError, match="dt.*too coarse"):
        evolve_lindblad(rho0, h, [], (0.0, 1e-6), 1e-8)


def test_non_hermitian_hamiltonian_rejected():
    space = ModeSpace(("q",), (2,))
    a, _ = build_mode_operators(space, "q")
    rho0 = fock_state(space, {"q": 0})
    with pytest.raises(Exception, match="Hermitian"):
        evolve_lindblad(rho0, a, [], (0.0, 1e-6), 1e-9)


def test_record_times_subset():
    space = ModeSpace(("q",), (2,))
    a, n = build_mode_operators(space, "q")
    rho0 = fock_state(space, {"q": 1})
    dt = 1e-8
    wanted = np.array([0.0, 5e-7, 1e-6])
    traj = evolve_lindblad(
        rho0, None, [CollapseTerm(a, 1.0 / T1)], (0.0, 1e-6), dt,
        observables=[n], record_times=wanted,
    )
    assert np.allclose(traj.times, wanted)
    assert traj.expectations.shape == (1, 3)
    assert traj.n_steps == 100
    assert traj.stiffness_margin == pytest.approx(dt / T1)
    with pytest.raises(ValueError, match="step grid"):
        evolve_lindblad(
            rho0, None, [CollapseTerm(a, 1.0 / T1)], (0.0, 1e-6), dt,
            observables=[n], record_times=np.array([0.33e-7]),
        )


@pytest.mark.parametrize(
    "steps, offsets",
    [
        ([0, 3, 3, 50, 50, 100], [0, 0, 5, 0, 5, 0]),
        ([0, 0, 0, 7], [0, 2, 4, 0]),  # a run of three at the start
        ([10, 99, 100, 100], [0, 0, -5, 0]),  # a pair at the end
        ([1, 2, 3], [0, 0, 0]),  # no repeats
    ],
)
def test_repeated_record_steps_collapse_as_np_unique(steps, offsets):
    space = ModeSpace(("q",), (2,))
    a, n = build_mode_operators(space, "q")
    dt = 1e-8
    # each offset (in fs) stays inside the step-grid tolerance, so
    # strictly increasing times can round to one step
    wanted = dt * np.array(steps) + 1e-15 * np.array(offsets)
    traj = evolve_lindblad(
        fock_state(space, {"q": 1}), None, [CollapseTerm(a, 1.0 / T1)], (0.0, 1e-6), dt,
        observables=[n], record_times=wanted,
    )
    unique = np.unique(np.round(wanted / dt).astype(int))
    assert np.array_equal(traj.times, np.array([0.0 + dt * k for k in unique.tolist()]))
    assert traj.expectations.shape == (1, len(unique))


def test_record_times_do_not_import_numpy_ma():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from magsense.lindblad import CollapseTerm, evolve_lindblad\n"
        "from magsense.spaces import ModeSpace, build_mode_operators, fock_state\n"
        "space = ModeSpace(('q',), (2,))\n"
        "a, n = build_mode_operators(space, 'q')\n"
        "times = np.array([0.0, 3e-8, 3e-8 + 5e-15, 1e-6])\n"
        "evolve_lindblad(fock_state(space, {'q': 1}), None, [CollapseTerm(a, 1e5)],\n"
        "                (0.0, 1e-6), 1e-8, observables=[n], record_times=times)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_truncation_guard_fires_during_evolution():
    # resonant static drive eps*(a + a^dag) walks population up the 3-level ladder
    space = ModeSpace(("m",), (3,))
    a, _ = build_mode_operators(space, "m")
    eps = 2 * math.pi * 1e6
    h = compose_operator([(eps, [a]), (eps, [a.dag()])], hermitian=True)
    rho0 = fock_state(space, {"m": 0})
    with pytest.raises(TruncationError):
        evolve_lindblad(
            rho0, h, [], (0.0, 2e-6), 1e-9, truncation_checks=[("m", 1e-6)]
        )


def test_dimension_cap_rejects_before_building_the_generator():
    space = ModeSpace(("m",), (MAX_TOTAL_DIM + 1,))
    rho0 = fock_state(space, {"m": 0})
    with pytest.raises(ValueError, match="total dimension"):
        evolve_lindblad(rho0, None, [], (0.0, 1e-6), 1e-9)
