"""Numerical laboratory for magnon counting with a dispersively coupled qubit.

The package simulates a transmon qubit that reads out the magnon occupation
of a coupled magnetostatic mode: spectroscopy, Ramsey, relaxation, and
magnon-decay tracking protocols produce shot-sampled datasets; estimators
turn them into calibrations, lifetimes, and magnon-number sensitivities; a
config-driven runner makes every run reproducible from a manifest.
"""

__version__ = "0.1.0"
