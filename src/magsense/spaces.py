"""Truncated composite Hilbert spaces and the operator algebra on them.

Modes live on a tensor product of truncated ladders. The Kronecker order is
the listed mode order with the leftmost mode as the slowest index, so basis
state ``|n_0, n_1, ...>`` sits at flat index ``n_0*d_1*d_2*... + n_1*d_2*... + ...``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, SpaceMismatchError, TruncationError, UnknownModeError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
EIGVAL_FLOOR = -1e-9


@dataclass(frozen=True)
class ModeSpace:
    """Ordered collection of modes with per-mode truncation dimensions."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("mode labels must be unique")
        if any(d < 1 for d in self.dims):
            raise ValueError("mode dimensions must be >= 1")

    @functools.cached_property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def mode_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownModeError(f"mode {label!r} not in space {self.labels}") from None

    def mode_dim(self, label: str) -> int:
        return self.dims[self.mode_index(label)]

    def basis_index(self, occupations: dict[str, int]) -> int:
        """Flat index of the basis state with the given occupations (others 0)."""
        idx = 0
        for label, d in zip(self.labels, self.dims):
            n = occupations.get(label, 0)
            if not 0 <= n < d:
                raise ValueError(f"occupation {n} out of range for mode {label!r} (dim {d})")
            idx = idx * d + n
        return idx

    def occupations(self, index: int) -> dict[str, int]:
        """Per-mode occupations of the flat basis index (inverse of basis_index)."""
        occ: dict[str, int] = {}
        for label, d in zip(reversed(self.labels), reversed(self.dims)):
            occ[label] = index % d
            index //= d
        return {label: occ[label] for label in self.labels}


def _check_same_space(a: "Operator | DensityMatrix", b: "Operator | DensityMatrix") -> None:
    if a.space != b.space:
        raise SpaceMismatchError(f"space mismatch: {a.space.labels} vs {b.space.labels}")


@dataclass(eq=False)
class Operator:
    """Complex matrix tagged with the composite space it acts on."""

    space: ModeSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match space dim {self.space.dim}"
            )

    def dag(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        scale = max(np.abs(self.matrix).max(), 1.0)
        return float(np.abs(self.matrix - self.matrix.conj().T).max()) <= tol * scale

    def require_hermitian(self, role: str = "Hamiltonian") -> "Operator":
        if not self.is_hermitian():
            raise HermiticityError(f"{role} operator is not Hermitian")
        return self

    def __add__(self, other: "Operator") -> "Operator":
        _check_same_space(self, other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        _check_same_space(self, other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.matrix)

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same_space(self, other)
        return Operator(self.space, self.matrix @ other.matrix)


@dataclass(eq=False)
class DensityMatrix:
    """Hermitian unit-trace state matrix on a composite space."""

    space: ModeSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.space.dim, self.space.dim):
            raise ValueError("density matrix shape does not match space dimension")

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def validate(self, trace_tol: float = TRACE_TOL, eig_floor: float = EIGVAL_FLOOR) -> None:
        """Check unit trace, Hermiticity and weak positivity."""
        tr = self.trace()
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace {tr} deviates from 1 beyond {trace_tol}")
        herm = float(np.abs(self.matrix - self.matrix.conj().T).max())
        if herm > HERMITICITY_TOL:
            raise ValueError(f"Hermiticity residual {herm} beyond {HERMITICITY_TOL}")
        w = np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))
        if w.min() < eig_floor:
            raise ValueError(f"eigenvalue {w.min()} below floor {eig_floor}")

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.space, self.matrix.copy())


def _ladder(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def _embed(space: ModeSpace, mode: str, local: np.ndarray) -> np.ndarray:
    k = space.mode_index(mode)
    mat = np.array([[1.0 + 0.0j]])
    for i, d in enumerate(space.dims):
        block = local if i == k else np.eye(d, dtype=complex)
        mat = np.kron(mat, block)
    return mat


def build_mode_operators(space: ModeSpace, mode: str) -> tuple[Operator, Operator]:
    """Annihilation and number operators for one mode, embedded in the space.

    Returns
    -------
    (a, n) : tuple of Operator
        Truncated ladder operator and ``a.dag() @ a``.
    """
    d = space.mode_dim(mode)
    a = Operator(space, _embed(space, mode, _ladder(d)))
    return a, a.dag() @ a


def identity(space: ModeSpace) -> Operator:
    return Operator(space, np.eye(space.dim, dtype=complex))


def compose_operator(
    terms: list[tuple[complex, list[Operator]]],
    hermitian: bool = False,
) -> Operator:
    """Linear combination of operator products: sum_k c_k * (O_k1 @ O_k2 @ ...).

    With ``hermitian=True`` the result is checked against its adjoint and a
    labeled error is raised on failure.
    """
    if not terms:
        raise ValueError("compose_operator needs at least one term")
    space = terms[0][1][0].space
    total = np.zeros((space.dim, space.dim), dtype=complex)
    for coeff, factors in terms:
        if not factors:
            raise ValueError("each term needs at least one operator factor")
        prod = None
        for op in factors:
            if op.space != space:
                raise SpaceMismatchError("operators in compose_operator span different spaces")
            prod = op.matrix if prod is None else prod @ op.matrix
        total += complex(coeff) * prod
    out = Operator(space, total)
    if hermitian:
        out.require_hermitian("composed")
    return out


def fock_state(space: ModeSpace, occupations: dict[str, int]) -> DensityMatrix:
    """Pure product Fock state |n_q, n_c, ...><...| as a density matrix."""
    idx = space.basis_index(occupations)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[idx, idx] = 1.0
    return DensityMatrix(space, mat)


def ket_state(space: ModeSpace, amplitudes: dict[int, complex]) -> DensityMatrix:
    """Density matrix of a normalized superposition over flat basis indices."""
    psi = np.zeros(space.dim, dtype=complex)
    for idx, amp in amplitudes.items():
        psi[idx] = amp
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("zero state vector")
    psi /= norm
    return DensityMatrix(space, np.outer(psi, psi.conj()))


def coherent_state(space: ModeSpace, mode: str, alpha: complex) -> DensityMatrix:
    """Truncated (renormalized) coherent state on one mode, vacuum elsewhere."""
    d = space.mode_dim(mode)
    amps = np.zeros(d, dtype=complex)
    log_fact = 0.0
    for n in range(d):
        if n > 0:
            log_fact += math.log(n)
        amps[n] = alpha**n * math.exp(-0.5 * abs(alpha) ** 2 - 0.5 * log_fact)
    amps /= np.linalg.norm(amps)
    psi = np.array([1.0 + 0.0j])
    for label, dd in zip(space.labels, space.dims):
        if label == mode:
            local = amps
        else:
            local = np.zeros(dd, dtype=complex)
            local[0] = 1.0
        psi = np.kron(psi, local)
    return DensityMatrix(space, np.outer(psi, psi.conj()))


def expectation(rho: DensityMatrix, op: Operator) -> complex:
    """trace(rho @ op); complex in general."""
    _check_same_space(rho, op)
    return complex(np.trace(rho.matrix @ op.matrix))


def expectation_real(rho: DensityMatrix, op: Operator, imag_tol: float = 1e-9) -> float:
    """Real expectation value of a Hermitian observable.

    Raises if the operator is not Hermitian or the imaginary residual exceeds
    ``imag_tol``.
    """
    op.require_hermitian("observable")
    val = expectation(rho, op)
    if abs(val.imag) > imag_tol:
        raise ValueError(f"imaginary residual {val.imag} for Hermitian observable")
    return val.real


def fock_truncation(n_mean: float) -> int:
    """Default bosonic truncation for a targeted mean occupation.

    ceil(n + 5*sqrt(n) + 5) keeps the coherent/thermal tail below the 1e-6
    validation threshold for the occupations used here.
    """
    if n_mean < 0:
        raise ValueError("mean occupation must be >= 0")
    return math.ceil(n_mean + 5.0 * math.sqrt(n_mean) + 5.0)


def tail_population(rho: DensityMatrix, mode: str) -> float:
    """Population of the top Fock level of one mode."""
    space = rho.space
    top = space.mode_dim(mode) - 1
    diag = np.real(np.diag(rho.matrix))
    total = 0.0
    for idx in range(space.dim):
        if space.occupations(idx)[mode] == top:
            total += diag[idx]
    return float(total)


def check_truncation(rho: DensityMatrix, mode: str, tol: float = 1e-6) -> None:
    """Raise TruncationError if the top level of ``mode`` holds > tol population."""
    tail = tail_population(rho, mode)
    if tail > tol:
        raise TruncationError(
            f"top-level population {tail:.3e} of mode {mode!r} exceeds {tol:.1e}; "
            "increase the truncation"
        )
