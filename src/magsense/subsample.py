"""Time-budget subsampling of shot-resolved sweep datasets.

A dataset recorded with N shots per point can stand in for any shorter
acquisition: drawing m < N shots per point without replacement reproduces
the statistics of an experiment that spent m * shot_duration per point.
Repeating the draw with different seeds turns one long run into an ensemble
of budget-limited runs, which is how per-root-hertz spreads of fitted
quantities are estimated here.

Each call draws from one generator with block-wise keys: a point keeps the
shots with its m smallest uniform keys, a uniform m-subset without
replacement and independent across points, so the statistics are those of
per-point draws. Keys follow flat point order in one stream, so the size
of the key blocks cannot change the result.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import BudgetError, EstimationError
from .readout import laplace_stderr
from .sweep import SweepDataset, stream_seed

SUBSAMPLE_TAG = "subsample"
BLOCK_POINTS = 32  # points per key block: bounds a draw's temporaries


def shots_per_point(dataset: SweepDataset, budget: float) -> int:
    """Shots per grid point affordable within ``budget`` seconds."""
    if not 0 < budget < math.inf:
        raise BudgetError("time budget must be finite and > 0")
    n_points = int(np.prod(dataset.grid_shape))
    exact = budget / (n_points * dataset.shot_duration)
    # guard against x.9999... from the division when the budget is an
    # exact multiple of the per-shot cost
    return math.floor(exact * (1.0 + 1e-12) + 1e-9)


def subsample_time_budget(
    dataset: SweepDataset, budget: float, seed: int = 0
) -> SweepDataset:
    """Restrict a dataset to the shots affordable in ``budget`` seconds.

    The budget is split evenly over the sweep grid; each point keeps a
    uniform without-replacement draw of its recorded shots and the excited
    fraction and its smoothed binomial error are recomputed from the draw.
    Draws take block-wise keys from one generator per call, seeded from
    ``(seed, SUBSAMPLE_TAG)``.

    Parameters
    ----------
    dataset : SweepDataset
        Must retain raw shots and record the readout threshold in
        ``meta["readout_threshold"]``.
    budget : float
        Total wall time to emulate, seconds.
    seed : int
        Master seed for the subsample draws.

    Returns
    -------
    SweepDataset
        Same grid with reduced per-point shot counts. Returned unchanged
        when the budget covers all recorded shots.

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
    if n_keep >= flat_shots.shape[1]:
        return dataset
    rng = np.random.default_rng(stream_seed(seed, SUBSAMPLE_TAG))
    kept = np.zeros((len(flat_shots), n_keep))
    # one key buffer per call: one per block measured ~1 MB more peak RSS
    keys = np.empty((BLOCK_POINTS, flat_shots.shape[1]))
    for start in range(0, len(flat_shots), BLOCK_POINTS):
        block = flat_shots[start : start + BLOCK_POINTS]
        pick = np.argpartition(rng.random(out=keys[: len(block)]), n_keep - 1, axis=1)
        kept[start : start + len(block)] = np.take_along_axis(block, pick[:, :n_keep], axis=1)
    clicks = np.count_nonzero(kept > float(threshold), axis=1)
    shape = dataset.grid_shape
    return replace(
        dataset,
        p_e=(clicks / n_keep).reshape(shape),
        stderr=laplace_stderr(clicks, n_keep).reshape(shape),
        n_shots=np.full(shape, n_keep, dtype=int),
        shots=kept.reshape(shape + (n_keep,)),
    )
