"""Tests for time-budget subsampling of shot-resolved datasets."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from magsense import subsample
from magsense.errors import BudgetError, EstimationError
from magsense.fitting import FitModel, fit_curve
from magsense.params import SystemParams
from magsense.protocols import ProtocolConfig, run_relaxation
from magsense.readout import ReadoutModel
from magsense.subsample import shots_per_point, subsample_time_budget


@pytest.fixture(scope="module")
def relaxation_dataset():
    params = SystemParams.reference()
    config = ProtocolConfig(
        readout=ReadoutModel.for_qubit(params.t1),
        n_shots=400,
        master_seed=5,
        mode="shots",
        keep_shots=True,
    )
    return params, run_relaxation(params, config)


def test_budget_divides_evenly_over_the_grid(relaxation_dataset):
    _, dataset = relaxation_dataset
    n_points = int(np.prod(dataset.grid_shape))
    assert shots_per_point(dataset, dataset.total_time()) == 400
    assert shots_per_point(dataset, dataset.total_time() / 2.0) == 200
    assert shots_per_point(dataset, n_points * dataset.shot_duration * 1.7) == 1


def test_half_budget_keeps_half_the_shots(relaxation_dataset):
    _, dataset = relaxation_dataset
    half = subsample_time_budget(dataset, dataset.total_time() / 2.0, seed=3)
    assert np.all(half.n_shots == 200)
    assert half.shots.shape == dataset.grid_shape + (200,)
    assert half.protocol == dataset.protocol
    assert half.shot_duration == dataset.shot_duration
    assert half.total_time() == pytest.approx(dataset.total_time() / 2.0)


def test_full_budget_returns_the_dataset_unchanged(relaxation_dataset):
    _, dataset = relaxation_dataset
    same = subsample_time_budget(dataset, dataset.total_time() * 2.0, seed=3)
    assert same is dataset


def test_underfunded_budget_raises(relaxation_dataset):
    _, dataset = relaxation_dataset
    with pytest.raises(BudgetError):
        subsample_time_budget(dataset, dataset.shot_duration * 0.5, seed=0)
    with pytest.raises(BudgetError):
        subsample_time_budget(dataset, -1.0, seed=0)


def test_requires_raw_shots_and_threshold(relaxation_dataset):
    _, dataset = relaxation_dataset
    budget = dataset.total_time() / 2.0
    without_shots = dataclasses.replace(dataset, shots=None)
    with pytest.raises(EstimationError):
        subsample_time_budget(without_shots, budget, seed=0)
    meta = dict(dataset.meta)
    meta.pop("readout_threshold")
    without_threshold = dataclasses.replace(dataset, meta=meta)
    with pytest.raises(EstimationError):
        subsample_time_budget(without_threshold, budget, seed=0)


def test_draws_are_seeded_and_without_replacement(relaxation_dataset):
    _, dataset = relaxation_dataset
    budget = dataset.total_time() / 2.0
    first = subsample_time_budget(dataset, budget, seed=7)
    again = subsample_time_budget(dataset, budget, seed=7)
    other = subsample_time_budget(dataset, budget, seed=8)
    assert np.array_equal(first.p_e, again.p_e)
    assert np.array_equal(first.shots, again.shots)
    assert not np.array_equal(first.p_e, other.p_e)
    # at every point the kept shots are a sub-multiset of the recorded ones
    for recorded, kept in zip(dataset.shots, first.shots):
        assert not Counter(kept.tolist()) - Counter(recorded.tolist())


def test_every_recorded_shot_is_kept_equally_often(relaxation_dataset):
    _, dataset = relaxation_dataset
    budget = dataset.total_time() / 4.0
    n_draws = 200
    kept_count = np.zeros(dataset.shots.shape[-1])
    for seed in range(n_draws):
        kept = subsample_time_budget(dataset, budget, seed=seed).shots
        for recorded, subset in zip(dataset.shots, kept):
            kept_count += np.isin(recorded, subset)
    # each of the 400 shot positions is kept in a quarter of the
    # n_draws * 20 point draws; chi-square with ~400 degrees of freedom
    trials = n_draws * dataset.shots.shape[0]
    expected = trials / 4.0
    chi2 = float(np.sum((kept_count - expected) ** 2) / (trials * 0.25 * 0.75))
    assert chi2 < 400 + 6 * math.sqrt(2 * 400)


def test_estimates_are_recomputed_from_the_draw(relaxation_dataset):
    _, dataset = relaxation_dataset
    half = subsample_time_budget(dataset, dataset.total_time() / 2.0, seed=2)
    threshold = dataset.meta["readout_threshold"]
    p_e, stderr = [], []
    for kept in half.shots:
        k = int(np.sum(kept > threshold))
        n = len(kept)
        p_smooth = (k + 1.0) / (n + 2.0)
        p_e.append(k / n)
        stderr.append(math.sqrt(p_smooth * (1.0 - p_smooth) / n))
    assert np.array_equal(half.p_e, p_e)
    assert np.array_equal(half.stderr, stderr)
    # binomial errors grow by about sqrt(2) at half the shots
    ratio = np.median(half.stderr / dataset.stderr)
    assert abs(ratio - np.sqrt(2.0)) < 0.25


def test_block_size_cannot_change_the_draw(relaxation_dataset, monkeypatch):
    _, dataset = relaxation_dataset
    budget = dataset.total_time() / 3.0
    default = subsample_time_budget(dataset, budget, seed=4)
    n_points = int(np.prod(dataset.grid_shape))
    for block in (1, 7, n_points + 1):
        monkeypatch.setattr(subsample, "BLOCK_POINTS", block)
        other = subsample_time_budget(dataset, budget, seed=4)
        assert np.array_equal(other.shots, default.shots)
        assert np.array_equal(other.p_e, default.p_e)
        assert np.array_equal(other.stderr, default.stderr)


def test_subsampled_relaxation_still_fits_the_lifetime(relaxation_dataset):
    params, dataset = relaxation_dataset
    delays = dataset.axis("delay").values
    full = fit_curve(FitModel("exponential-decay"), delays, dataset.p_e, y_err=dataset.stderr)
    quarter = subsample_time_budget(dataset, dataset.total_time() / 4.0, seed=9)
    fit = fit_curve(FitModel("exponential-decay"), delays, quarter.p_e, y_err=quarter.stderr)
    assert abs(fit.parameter("tau") - params.t1) < 3.0 * fit.stderr("tau")
    assert fit.stderr("tau") > full.stderr("tau")
