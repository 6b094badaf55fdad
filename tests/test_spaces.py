"""Operator algebra on truncated composite spaces."""

from __future__ import annotations

import math

import numpy as np
import pytest

from magsense.errors import (
    HermiticityError,
    SpaceMismatchError,
    UnknownModeError,
)
from magsense.spaces import (
    ModeSpace,
    build_mode_operators,
    compose_operator,
    fock_state,
    ket_state,
)


def test_two_level_ladder():
    space = ModeSpace(("q",), (2,))
    a, n = build_mode_operators(space, "q")
    assert np.array_equal(a.matrix, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(n.matrix, np.diag([0.0, 1.0]).astype(complex))


def test_three_level_ladder_matrix_elements():
    space = ModeSpace(("m",), (3,))
    a, n = build_mode_operators(space, "m")
    assert a.matrix[1, 2] == pytest.approx(math.sqrt(2))
    assert a.matrix[0, 1] == pytest.approx(1.0)
    assert np.allclose(np.diag(n.matrix), [0, 1, 2])


def test_embedded_number_operator_spectrum():
    # independent construction: kron by hand, then eigendecomposition
    space = ModeSpace(("q", "m"), (2, 3))
    _, n_m = build_mode_operators(space, "m")
    local = np.diag([0.0, 1.0, 2.0])
    expected = np.kron(np.eye(2), local)
    assert np.allclose(n_m.matrix, expected)
    evals = np.sort(np.linalg.eigvalsh(n_m.matrix))
    assert np.allclose(evals, [0, 0, 1, 1, 2, 2])


def test_basis_index_order_leftmost_slowest():
    space = ModeSpace(("q", "m"), (2, 3))
    assert space.basis_index({"q": 0, "m": 2}) == 2
    assert space.basis_index({"q": 1, "m": 0}) == 3
    assert space.occupations(4) == {"q": 1, "m": 1}


def test_unknown_mode_label():
    space = ModeSpace(("q",), (2,))
    with pytest.raises(UnknownModeError):
        build_mode_operators(space, "c")


def test_compose_pauli_x():
    space = ModeSpace(("q",), (2,))
    a, _ = build_mode_operators(space, "q")
    x = compose_operator([(1.0, [a]), (1.0, [a.dag()])], hermitian=True)
    assert np.array_equal(x.matrix, np.array([[0, 1], [1, 0]], dtype=complex))


def test_compose_zero():
    space = ModeSpace(("q",), (2,))
    a, _ = build_mode_operators(space, "q")
    z = compose_operator([(0.0, [a])])
    assert np.all(z.matrix == 0)


def test_compose_cross_kerr_diagonal():
    chi = -0.41
    space = ModeSpace(("q", "m"), (2, 3))
    _, n_q = build_mode_operators(space, "q")
    _, n_m = build_mode_operators(space, "m")
    op = compose_operator([(chi, [n_q, n_m])], hermitian=True)
    expected = np.kron(np.diag([0.0, 1.0]), np.diag([0.0, 1.0, 2.0])) * chi
    assert np.allclose(op.matrix, expected)
    assert np.allclose(np.diag(op.matrix), [0, 0, 0, 0, chi, 2 * chi])


def test_compose_space_mismatch():
    a1, _ = build_mode_operators(ModeSpace(("q",), (2,)), "q")
    a2, _ = build_mode_operators(ModeSpace(("m",), (3,)), "m")
    with pytest.raises(SpaceMismatchError):
        compose_operator([(1.0, [a1]), (1.0, [a2])])


def test_compose_hermitian_flag():
    space = ModeSpace(("q",), (2,))
    a, _ = build_mode_operators(space, "q")
    with pytest.raises(HermiticityError):
        compose_operator([(1.0, [a])], hermitian=True)


def test_ket_state_superposition():
    space = ModeSpace(("q",), (2,))
    rho = ket_state(space, {0: 1.0, 1: 1.0})
    assert rho.matrix[0, 1] == pytest.approx(0.5)
    # unit trace, Hermiticity and weak positivity
    assert abs(rho.trace() - 1.0) <= 1e-9
    assert np.abs(rho.matrix - rho.matrix.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(0.5 * (rho.matrix + rho.matrix.conj().T)).min() >= -1e-9

