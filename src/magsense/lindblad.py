"""RK4-exact step propagator on the vectorised Lindbladian, static Hamiltonians.

drho/dt = -i[H, rho] + sum_k gamma_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)

With H static the equation is linear and time-invariant, vec(drho/dt) =
L vec(rho) in Liouville space (Breuer & Petruccione, The Theory of Open
Quantum Systems, sec. 3.2). One classical RK4 step of size dt is then exactly
the matrix T = I + A + A^2/2 + A^3/6 + A^4/24 with A = dt*L, so the trajectory
is T^k vec(rho0): the fixed-step RK4 error, its stiffness guard and its
fourth-order convergence are unchanged, and the step loop becomes one matrix
power per distinct gap between record times.

The engine is frame-agnostic: callers pass Hamiltonians already written in
whatever rotating frame keeps the fast carriers out of the step budget. Pure
dephasing at rate gamma_phi enters as a collapse sqrt(gamma_phi/2)*sigma_z so
off-diagonals decay as exp(-gamma_phi t).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import IntegrationError
from .spaces import DensityMatrix, Operator, check_truncation

# The generator on a d-dim space is a d^2 x d^2 complex128 matrix of 16*d^4
# bytes, and building T and its powers keeps five to six of them alive. At
# d = 48 one is 85 MB and a run peaks at 0.49 GB RSS; d = 64 would need
# about 1.5 GB.
MAX_TOTAL_DIM = 48
STIFFNESS_BUDGET = 0.1
TRACE_TOL_PER_UNIT = 1e-9


@dataclass
class CollapseTerm:
    """Collapse operator with its angular rate (1/s)."""

    operator: Operator
    rate: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("collapse rate must be >= 0")


@dataclass
class Trajectory:
    """Time series of recorded expectation values (and optionally states).

    ``n_steps`` counts the RK4 steps from t0 to t1 and ``stiffness_margin``
    is dt times the fastest-rate bound, which the integrator keeps <= 0.1.
    """

    times: np.ndarray
    expectations: np.ndarray  # shape (n_observables, n_times), complex
    states: list[DensityMatrix] = field(default_factory=list)
    final_state: DensityMatrix | None = None
    max_trace_drift: float = 0.0
    n_steps: int = 0
    stiffness_margin: float = 0.0

    def expect(self, index: int) -> np.ndarray:
        return self.expectations[index]


def _liouvillian(h: np.ndarray, collapses: Sequence[CollapseTerm]) -> np.ndarray:
    """Generator of row-major vec(rho), using vec(X rho Y) = kron(X, Y.T) vec(rho).

    With K = -iH - sum_k gamma_k L_k^dag L_k / 2 the right-hand side is
    K rho + rho K^dag + sum_k gamma_k L_k rho L_k^dag.
    """
    dim = h.shape[0]
    k_eff = -1j * h
    for c in collapses:
        L = c.operator.matrix
        k_eff = k_eff - 0.5 * c.rate * (L.conj().T @ L)
    eye = np.eye(dim)
    # each kron(X, Y) is the outer product X[i, k] Y[j, l] laid out as [(i, j), (k, l)]
    gen = np.multiply.outer(k_eff, eye) + np.multiply.outer(eye, k_eff.conj())
    for c in collapses:
        L = c.operator.matrix
        gen += c.rate * np.multiply.outer(L, L.conj())
    return gen.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)


def _stiffness_bound(h: np.ndarray, collapses: Sequence[CollapseTerm]) -> float:
    """Upper bound on the fastest rate in the rotated frame.

    Max row sum bounds the spectral radius of H; gamma*||L^dag L|| for each
    collapse is folded in as well.
    """
    bound = float(np.abs(h).sum(axis=1).max())
    for c in collapses:
        LdL = c.operator.matrix.conj().T @ c.operator.matrix
        bound = max(bound, c.rate * float(np.abs(LdL).sum(axis=1).max()))
    return bound


def evolve_lindblad(
    rho0: DensityMatrix,
    hamiltonian: Operator | None,
    collapses: Sequence[CollapseTerm] = (),
    tspan: tuple[float, float] = (0.0, 0.0),
    dt: float = 0.0,
    observables: Sequence[Operator] = (),
    record_times: np.ndarray | None = None,
    record_states: bool = False,
    truncation_checks: Sequence[tuple[str, float]] = (),
) -> Trajectory:
    """Propagate the master equation by fixed-step RK4 with a static Hamiltonian.

    Parameters
    ----------
    rho0 : DensityMatrix
        Initial state.
    hamiltonian : Operator or None
        Static Hamiltonian (rad/s); None means H = 0.
    collapses : sequence of CollapseTerm
    tspan : (t0, t1)
        Integration window in seconds.
    dt : float
        Fixed step; must satisfy dt * (fastest rate) <= 0.1.
    observables : sequence of Operator
        Expectations recorded at every record time (complex values).
    record_times : array, optional
        Subset of the step grid to record; defaults to every step. Times must
        lie on the step grid.
    truncation_checks : sequence of (mode, tol)
        Bosonic tail guards applied to every recorded state.

    Returns
    -------
    Trajectory
        ``final_state`` is the state at t1, also when the last record is earlier.
    """
    t0, t1 = tspan
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if t1 < t0:
        raise ValueError("tspan must be increasing")
    dim = rho0.space.dim
    if dim > MAX_TOTAL_DIM:
        raise ValueError(f"total dimension {dim} beyond supported ~{MAX_TOTAL_DIM}")

    if hamiltonian is None:
        h = np.zeros((dim, dim), dtype=complex)
    else:
        hamiltonian.require_hermitian("Hamiltonian")
        if hamiltonian.space != rho0.space:
            raise ValueError("Hamiltonian space does not match the state")
        h = hamiltonian.matrix
    for c in collapses:
        if c.operator.space != rho0.space:
            raise ValueError("collapse operator space does not match the state")
    obs_mats = []
    for op in observables:
        if op.space != rho0.space:
            raise ValueError("observable space does not match the state")
        obs_mats.append(op.matrix)

    bound = _stiffness_bound(h, collapses)
    if dt * bound > STIFFNESS_BUDGET:
        raise IntegrationError(
            f"dt={dt:.3e} too coarse: dt*max_rate = {dt * bound:.3f} > {STIFFNESS_BUDGET}"
        )

    n_steps = int(round((t1 - t0) / dt)) if t1 > t0 else 0
    if t1 > t0 and abs(t0 + n_steps * dt - t1) > 1e-9 * max(abs(t1), dt):
        raise ValueError("tspan length must be an integer multiple of dt")

    if record_times is None:
        record_idx = np.arange(n_steps + 1)
    else:
        record_times = np.asarray(record_times, dtype=float)
        if record_times.size == 0:
            raise ValueError("record_times must not be empty")
        if np.any(np.diff(record_times) <= 0):
            raise ValueError("record_times must be strictly increasing")
        record_idx = np.round((record_times - t0) / dt).astype(int)
        aligned = np.abs(t0 + record_idx * dt - record_times) <= 1e-6 * dt + 1e-15
        if not np.all(aligned) or record_idx.min() < 0 or record_idx.max() > n_steps:
            raise ValueError("record_times must lie on the integration step grid")
        # rounding can repeat a step index; np.unique would import numpy.ma
        record_idx = record_idx[np.concatenate(([True], np.diff(record_idx) > 0))]

    a = dt * _liouvillian(h, collapses)
    a2 = a @ a
    eye = np.eye(dim * dim)
    step = eye + a + a2 @ (0.5 * eye + a / 6.0 + a2 / 24.0)
    del a, a2, eye  # free the Taylor terms before matrix_power allocates its own
    powers: dict[int, np.ndarray] = {}

    def advance(vec: np.ndarray, gap: int) -> np.ndarray:
        if gap == 0:
            return vec
        if gap not in powers:
            powers[gap] = np.linalg.matrix_power(step, gap)
        return powers[gap] @ vec

    drift_rate = max(max([c.rate for c in collapses], default=0.0), bound)
    # Tr(M rho) = vec(M^T) . vec(rho); row 0 (M = I) gives the trace
    rows = np.array([np.eye(dim).reshape(-1)] + [m.T.reshape(-1) for m in obs_mats])
    rec_times = np.empty(len(record_idx))
    rec_values = np.empty((len(obs_mats), len(record_idx)), dtype=complex)
    states: list[DensityMatrix] = []
    max_drift = 0.0
    vec = rho0.matrix.astype(complex).reshape(-1)
    at = 0
    for pos, idx in enumerate(record_idx.tolist()):
        vec = advance(vec, idx - at)
        at = idx
        t = t0 + dt * at
        values = rows @ vec
        trace = complex(values[0])
        drift = abs(trace.real - 1.0) + abs(trace.imag)
        max_drift = max(max_drift, drift)
        tol = TRACE_TOL_PER_UNIT * (1.0 + (t - t0) * drift_rate)
        if drift > tol:
            raise IntegrationError(
                f"trace drift {drift:.3e} at t={t:.3e} beyond tolerance {tol:.3e} "
                f"(max drift so far {max_drift:.3e})"
            )
        rec_times[pos] = t
        rec_values[:, pos] = values[1:]
        if record_states or truncation_checks:
            state = DensityMatrix(rho0.space, vec.reshape(dim, dim).copy())
            for mode, tol_tail in truncation_checks:
                check_truncation(state, mode, tol_tail)
            if record_states:
                states.append(state)
    vec = advance(vec, n_steps - at)

    return Trajectory(
        times=rec_times,
        expectations=rec_values,
        states=states,
        final_state=DensityMatrix(rho0.space, vec.reshape(dim, dim).copy()),
        max_trace_drift=max_drift,
        n_steps=n_steps,
        stiffness_margin=dt * bound,
    )
