"""Device parameters for the qubit-cavity-magnon system.

All frequencies, couplings, shifts and rates are stored as angular quantities
(rad/s); coherence times in seconds. Config files and reports use Hz-style
units (value/2pi) and convert at the boundary.

``SystemParams.reference()`` carries the measured device values. The
dispersive shifts are signed: the qubit line moves to lower frequencies as the
magnon occupation grows, so chi_qm < 0 for the reference device while data
sheets quote the 67 kHz magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ValidityError

TWO_PI = 2.0 * math.pi

DISPERSIVE_RATIO_LIMIT = 0.3


def gamma2_from_coherence(t1: float, t2r: float) -> float:
    """Pure dephasing rate implied by T1 and the Ramsey time.

    1/T2R = 1/(2 T1) + gamma_2^0; the returned rate excludes the relaxation
    contribution. Infinite times are allowed and contribute zero.
    """
    inv_t2, inv_2t1 = 1.0 / t2r, 0.5 / t1
    rate = inv_t2 - inv_2t1
    if rate < -1e-9 * max(inv_t2, inv_2t1, 1.0):
        raise ValueError("T2R exceeds 2*T1; no non-negative dephasing rate exists")
    return max(rate, 0.0)


@dataclass(frozen=True)
class SystemParams:
    """Mode frequencies, couplings, dispersive shifts and coherence numbers."""

    omega_c: float  # cavity frequency, rad/s
    omega_m: float  # magnon (Kittel) mode frequency, rad/s
    omega_q: float  # qubit 0-1 frequency, rad/s
    alpha: float  # transmon anharmonicity, rad/s, <= 0
    g_qc: float  # qubit-cavity coupling, rad/s
    g_mc: float  # magnon-cavity coupling, rad/s
    chi_qc: float  # qubit-cavity dispersive shift per photon, rad/s (signed)
    chi_qm: float  # qubit-magnon dispersive shift per magnon, rad/s (signed)
    kappa_m: float  # magnon energy decay rate, rad/s
    t1: float  # qubit relaxation time, s
    t2r: float  # Ramsey decay time, s
    gamma2_0: float  # bare qubit pure-dephasing rate, rad/s

    def __post_init__(self) -> None:
        for name in ("omega_c", "omega_m", "omega_q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha > 0:
            raise ValueError("transmon anharmonicity must be <= 0")
        for name in ("kappa_m", "gamma2_0"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("t1", "t2r"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        # equality holds for a pure-relaxation-limited qubit; small slack for
        # rounded measured values
        if not math.isinf(self.t2r) and self.t2r > 2.0 * self.t1 * (1.0 + 1e-9):
            raise ValueError("T2R must not exceed 2*T1")

    @property
    def delta_qc(self) -> float:
        return self.omega_q - self.omega_c

    @property
    def delta_mc(self) -> float:
        return self.omega_m - self.omega_c

    def dispersive_guard(self) -> None:
        """Validity check for the dispersive builders: |g/Delta| < 0.3."""
        for g, delta, name in (
            (self.g_qc, self.delta_qc, "qubit-cavity"),
            (self.g_mc, self.delta_mc, "magnon-cavity"),
        ):
            if g == 0.0:
                continue
            if delta == 0.0 or abs(g / delta) >= DISPERSIVE_RATIO_LIMIT:
                raise ValidityError(
                    f"{name} ratio |g/Delta| = {abs(g / delta) if delta else math.inf:.3f} "
                    f"outside dispersive regime (< {DISPERSIVE_RATIO_LIMIT})"
                )

    def with_ideal_qubit(self) -> "SystemParams":
        """Ideal-qubit variant: no intrinsic relaxation or dephasing."""
        return replace(self, t1=math.inf, t2r=math.inf, gamma2_0=0.0)

    @classmethod
    def reference(cls) -> "SystemParams":
        """Measured device values.

        The anharmonicity and the couplings g_qc, g_mc were not quoted for the
        device; alpha and g_qc take typical transmon-in-cavity values and g_mc
        follows from |chi_qm/chi_qc| = (g_mc/delta_mc)^2 so the coupling set is
        self-consistent.
        """
        omega_c = TWO_PI * 4.56e9
        omega_m = TWO_PI * 4.74e9
        chi_qc = -TWO_PI * 1.0e6
        chi_qm = -TWO_PI * 67e3
        delta_mc = omega_m - omega_c
        g_mc = math.sqrt(chi_qm / chi_qc) * delta_mc
        t1 = 2.78e-6
        t2r = 4.0e-6
        return cls(
            omega_c=omega_c,
            omega_m=omega_m,
            omega_q=TWO_PI * 3.87e9,
            alpha=-TWO_PI * 200e6,
            g_qc=TWO_PI * 80e6,
            g_mc=g_mc,
            chi_qc=chi_qc,
            chi_qm=chi_qm,
            kappa_m=TWO_PI * 4.81e6,
            t1=t1,
            t2r=t2r,
            gamma2_0=gamma2_from_coherence(t1, t2r),
        )


@dataclass(frozen=True)
class PumpSpec:
    """Magnon pump and parametric-pump settings for one protocol run."""

    power_w: float = 0.0  # applied magnon pump power, W
    c_pump: float = 0.0  # pump-to-magnon conversion, magnons/W
    omega_qm: float = 0.0  # parametric conversion rate, rad/s

    def __post_init__(self) -> None:
        if self.power_w < 0:
            raise ValueError("pump power must be >= 0")
        if self.omega_qm < 0:
            raise ValueError("parametric amplitude must be >= 0")
        if self.c_pump < 0:
            raise ValueError("pump conversion must be >= 0")

    @property
    def n_mean(self) -> float:
        """Steady-state magnon occupation c_pump * P."""
        return self.c_pump * self.power_w
