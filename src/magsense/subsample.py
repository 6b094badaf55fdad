"""Time-budget subsampling of shot-resolved sweep datasets.

A dataset recorded with N shots per point can stand in for any shorter
acquisition: drawing m < N shots per point without replacement reproduces
the statistics of an experiment that spent m * shot_duration per point.
Repeating the draw with different seeds turns one long run into an ensemble
of budget-limited runs, which is how per-root-hertz spreads of fitted
quantities are estimated here.

Every estimate reads only a point's click count, and the clicks among m
shots drawn without replacement from N, C of which click, follow the
hypergeometric law Hypergeometric(C, N - C, m) exactly. So each call counts
the recorded clicks once and draws every point's kept clicks from that law
with one generator per seed, in flat point order. The result carries no
shots: a click-count draw picks no shot identities.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import BudgetError, EstimationError
from .readout import laplace_stderr
from .sweep import SweepDataset, stream_seed

SUBSAMPLE_TAG = "subsample"


def shots_per_point(dataset: SweepDataset, budget: float) -> int:
    """Shots per grid point affordable within ``budget`` seconds."""
    if not 0 < budget < math.inf:
        raise BudgetError("time budget must be finite and > 0")
    n_points = int(np.prod(dataset.grid_shape))
    exact = budget / (n_points * dataset.shot_duration)
    # guard against x.9999... from the division when the budget is an
    # exact multiple of the per-shot cost
    return math.floor(exact * (1.0 + 1e-12) + 1e-9)


def subsample_draws(
    dataset: SweepDataset, budget: float, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Excited fractions and errors of one time-budget draw per seed, stacked.

    The budget is split evenly over the sweep grid. The recorded clicks are
    counted once; each seed's kept clicks are then those of a uniform
    without-replacement draw of every point's recorded shots, drawn directly
    from their hypergeometric law by a generator seeded from
    ``(seed, SUBSAMPLE_TAG)``, and the excited fraction and its smoothed
    binomial error are recomputed from them.

    Parameters
    ----------
    dataset : SweepDataset
        Must retain raw shots and record the readout threshold in
        ``meta["readout_threshold"]``.
    budget : float
        Total wall time to emulate, seconds.
    seeds : sequence of int
        Master seed of each draw.

    Returns
    -------
    (p_e, stderr)
        Float arrays of shape ``(len(seeds),) + dataset.grid_shape``. When
        the budget covers all recorded shots, every draw is the recorded
        ``p_e`` and ``stderr``.

    Raises
    ------
    EstimationError
        If the dataset has no raw shots or no recorded threshold.
    BudgetError
        If the budget is not finite and > 0 or affords no shot per point.
    """
    if dataset.shots is None:
        raise EstimationError("time-budget subsampling needs retained raw shots")
    threshold = dataset.meta.get("readout_threshold")
    if threshold is None:
        raise EstimationError(
            "dataset meta lacks 'readout_threshold'; cannot re-threshold shots"
        )
    n_keep = shots_per_point(dataset, budget)
    flat_shots = dataset.shots.reshape(-1, dataset.shots.shape[-1])
    if n_keep < 1:
        raise BudgetError(f"budget {budget:g} s affords no shots on a {len(flat_shots)}-point grid")
    shape = (len(seeds),) + dataset.grid_shape
    n_recorded = flat_shots.shape[1]
    if n_keep >= n_recorded:
        return (
            np.broadcast_to(dataset.p_e, shape).astype(float),
            np.broadcast_to(dataset.stderr, shape).astype(float),
        )
    recorded = np.count_nonzero(flat_shots > float(threshold), axis=1)
    clicks = np.empty((len(seeds), len(flat_shots)), dtype=np.int64)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(stream_seed(seed, SUBSAMPLE_TAG))
        clicks[k] = rng.hypergeometric(recorded, n_recorded - recorded, n_keep)
    return (clicks / n_keep).reshape(shape), laplace_stderr(clicks, n_keep).reshape(shape)


def subsample_time_budget(
    dataset: SweepDataset, budget: float, seed: int = 0
) -> SweepDataset:
    """Restrict a dataset to the shots affordable in ``budget`` seconds.

    This is the one-seed case of :func:`subsample_draws`, as a dataset.

    Returns
    -------
    SweepDataset
        Same grid with reduced per-point shot counts and ``shots=None``.
        Returned unchanged when the budget covers all recorded shots.

    Raises
    ------
    EstimationError, BudgetError
        As :func:`subsample_draws`.
    """
    p_e, stderr = subsample_draws(dataset, budget, [seed])
    n_keep = shots_per_point(dataset, budget)
    if n_keep >= dataset.shots.shape[-1]:
        return dataset
    shape = dataset.grid_shape
    return replace(
        dataset,
        p_e=p_e[0],
        stderr=stderr[0],
        n_shots=np.full(shape, n_keep, dtype=int),
        shots=None,
    )
