"""Fixed reference work whose wall time tracks the machine's current speed.

run.py starts this in a fresh interpreter before and after every timed
command. Like a magsense command it pays interpreter start-up and the numpy
import, then runs a Python loop, small numpy operations, zlib and a loop of
6x6 complex matrix products shaped like one step of the Lindblad integrator.
It uses nothing from magsense, so no change to the program can move it.
"""

import zlib

import numpy as np


def main() -> None:
    total = 0
    for i in range(200_000):
        total += i * i
    rng = np.random.default_rng(0)
    for _ in range(200):
        rng.standard_normal(4000).sum()
    zlib.compress(rng.standard_normal(100_000).tobytes())
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = h + h.conj().T
    c = 0.1 * rng.standard_normal((6, 6))
    rho = np.eye(6, dtype=complex) / 6
    for _ in range(1500):
        drho = -1j * (h @ rho - rho @ h) + c @ rho @ c.T - 0.5 * (c.T @ c @ rho + rho @ c.T @ c)
        rho = rho + 1e-3 * drho


if __name__ == "__main__":
    main()
