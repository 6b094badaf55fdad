"""Hamiltonian builders for the coupled qubit-cavity-magnon system.

Two builders cover the models in use: the lab-frame coupled Hamiltonian and
the parametrically activated qubit-magnon conversion in the pump rotating
frame. Mode labels are fixed as "q" (qubit), "c" (cavity), "m" (magnon).
"""

from __future__ import annotations

import math

from .errors import ValidityError
from .params import SystemParams
from .spaces import ModeSpace, Operator, build_mode_operators, compose_operator


def full_hamiltonian(params: SystemParams, space: ModeSpace) -> Operator:
    """Coupled three-mode Hamiltonian with beam-splitter couplings.

    H = omega_c c^dag c + omega_m m^dag m + omega_q q^dag q
        + (alpha/2)(q^dag + q)^2
        + g_mc (m^dag c + m c^dag) + g_qc (q^dag c + q c^dag)

    A nonzero alpha needs >= 3 qubit levels to be meaningful; a two-level
    qubit is accepted when alpha = 0 (harmonic limit).
    """
    for label in ("q", "c", "m"):
        space.mode_index(label)
    if len(space.labels) != 3:
        raise ValueError("full Hamiltonian needs exactly the three modes q, c, m")
    if params.alpha != 0 and space.mode_dim("q") < 3:
        raise ValueError("qubit mode needs >= 3 levels for the anharmonic term")
    for name in ("omega_c", "omega_m", "omega_q", "alpha", "g_qc", "g_mc"):
        if not math.isfinite(getattr(params, name)):
            raise ValueError(f"non-finite parameter {name}")

    q, n_q = build_mode_operators(space, "q")
    c, n_c = build_mode_operators(space, "c")
    m, n_m = build_mode_operators(space, "m")
    x_q = q + q.dag()
    terms = [
        (params.omega_c, [n_c]),
        (params.omega_m, [n_m]),
        (params.omega_q, [n_q]),
        (0.5 * params.alpha, [x_q, x_q]),
        (params.g_mc, [m.dag(), c]),
        (params.g_mc, [m, c.dag()]),
        (params.g_qc, [q.dag(), c]),
        (params.g_qc, [q, c.dag()]),
    ]
    return compose_operator(terms, hermitian=True)


def parametric_interaction(omega_qm: float, delta: float, space: ModeSpace) -> Operator:
    """Pump-activated conversion in the frame rotating with the pump.

    H = (omega_qm/2)(q^dag m + q m^dag) + delta m^dag m

    The detuning from the conversion resonance is assigned to the magnon mode;
    only |delta| enters measurable decay rates.
    """
    q, _ = build_mode_operators(space, "q")
    m, n_m = build_mode_operators(space, "m")
    terms = [
        (0.5 * omega_qm, [q.dag(), m]),
        (0.5 * omega_qm, [q, m.dag()]),
        (delta, [n_m]),
    ]
    return compose_operator(terms, hermitian=True)


def derived_chi_qm(g_mc: float, delta_mc: float, chi_qc: float) -> float:
    """Qubit-magnon shift implied by the cavity-mediated cascade.

    chi_qm = (g_mc/delta_mc)^2 * chi_qc
    """
    if delta_mc == 0:
        raise ValidityError("magnon-cavity detuning must be nonzero")
    return (g_mc / delta_mc) ** 2 * chi_qc
