"""Tests for time-budget subsampling of shot-resolved datasets."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import MIN_P_VALUE, chi2_upper_tail, goodness_of_fit, homogeneity

from magsense.errors import BudgetError, EstimationError
from magsense.fitting import FitModel, fit_curve
from magsense.params import SystemParams
from magsense.protocols import ProtocolConfig, relaxation_delays, run_relaxation
from magsense.readout import (
    SHOT_DTYPE,
    ReadoutModel,
    click_estimates,
    sample_grid,
    sample_readout,
)
from magsense.subsample import (
    SUBSAMPLE_TAG,
    shots_per_point,
    subsample_draws,
    subsample_time_budget,
)
from magsense.sweep import (
    Axis,
    SweepDataset,
    point_seed,
    read_dataset,
    stream_seed,
    write_dataset,
)

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
    return params, run_relaxation(params, relaxation_delays(params), config)


def _dataset_of(shots: np.ndarray) -> SweepDataset:
    """A one-axis dataset holding ``shots`` (points, N), read at threshold 0.5."""
    n_points, n_recorded = shots.shape
    p_e = np.count_nonzero(shots > 0.5, axis=1) / n_recorded
    return SweepDataset(
        axes=(Axis("delay", "s", np.arange(n_points) * 1e-9),),
        p_e=p_e,
        stderr=np.full(n_points, 0.01),
        n_shots=n_recorded,
        shot_duration=1e-6,
        protocol="relaxation",
        shots=shots,
        meta={"readout_threshold": 0.5},
    )


def _uniform_dataset(n_points: int, n_recorded: int, n_clicks: int) -> SweepDataset:
    """Every point records ``n_clicks`` clicking shots among ``n_recorded``."""
    row = np.where(np.arange(n_recorded) < n_clicks, 1.0, 0.0)
    return _dataset_of(np.tile(row, (n_points, 1)))


def _budget(dataset: SweepDataset, n_keep: int) -> float:
    return n_keep * dataset.p_e.size * dataset.shot_duration


def _clicks(subset: SweepDataset) -> np.ndarray:
    """Kept clicks per point, read back from the whole-number ``p_e * n``."""
    return np.rint(subset.p_e * subset.n_shots).astype(int)


def _laplace_stderr(k: int, n: int) -> float:
    """The smoothed binomial error of k clicks in n shots, written out."""
    p_smooth = (k + 1.0) / (n + 2.0)
    return math.sqrt(p_smooth * (1.0 - p_smooth) / n)


def _hypergeometric_pmf(n_recorded: int, n_clicks: int, n_keep: int) -> np.ndarray:
    """P(k kept clicks), k = 0..n_keep, for an n_keep-subset of n_recorded shots."""
    total = math.comb(n_recorded, n_keep)
    return np.array(
        [
            math.comb(n_clicks, k) * math.comb(n_recorded - n_clicks, n_keep - k) / total
            for k in range(n_keep + 1)
        ]
    )


def _reference_draw(dataset: SweepDataset, budget: float, seed: int) -> np.ndarray:
    """Kept clicks per point from explicit shot draws: the oracle.

    Each point keeps the shots with its n_keep smallest uniform keys, a
    uniform without-replacement subset, and counts the clicks among them.
    """
    n_keep = shots_per_point(dataset, budget)
    flat = dataset.shots.reshape(-1, dataset.shots.shape[-1])
    rng = np.random.default_rng(stream_seed(seed, SUBSAMPLE_TAG))
    keys = rng.random(flat.shape)
    pick = np.argpartition(keys, n_keep - 1, axis=1)[:, :n_keep]
    kept = np.take_along_axis(flat, pick, axis=1)
    return np.count_nonzero(kept > dataset.meta["readout_threshold"], axis=1)


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
    # a click-count draw picks no shot identities
    assert half.shots is None
    assert half.p_e.shape == half.stderr.shape == dataset.grid_shape
    assert half.protocol == dataset.protocol
    assert half.shot_duration == dataset.shot_duration
    assert half.total_time() == pytest.approx(dataset.total_time() / 2.0)


def test_full_budget_returns_the_dataset_unchanged(relaxation_dataset):
    _, dataset = relaxation_dataset
    same = subsample_time_budget(dataset, dataset.total_time() * 2.0, seed=3)
    assert same is dataset


@pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0, 2.0])
def test_stacked_draws_equal_the_per_seed_datasets(relaxation_dataset, fraction):
    # the budget of fraction 1 and above covers every recorded shot
    _, dataset = relaxation_dataset
    budget = dataset.total_time() * fraction
    seeds = [0, 3, 11, 2**40]
    p_e, stderr = subsample_draws(dataset, budget, seeds)
    assert p_e.shape == stderr.shape == (len(seeds),) + dataset.grid_shape
    for k, seed in enumerate(seeds):
        subset = subsample_time_budget(dataset, budget, seed=seed)
        assert p_e[k].tobytes() == subset.p_e.tobytes()
        assert stderr[k].tobytes() == subset.stderr.tobytes()
    assert (len({row.tobytes() for row in p_e}) == len(seeds)) == (fraction < 1.0)


def test_a_dataset_read_back_draws_what_its_shots_draw(relaxation_dataset, tmp_path):
    # the recorded clicks a table's sidecar gives are those of the shots
    _, dataset = relaxation_dataset
    path = tmp_path / "relaxation.csv"
    write_dataset(dataset, path)
    loaded = read_dataset(path)
    assert loaded.shots is None
    budget = dataset.total_time() / 4.0
    seeds = [0, 5, 2**40]
    for got, want in zip(
        subsample_draws(loaded, budget, seeds), subsample_draws(dataset, budget, seeds)
    ):
        assert got.tobytes() == want.tobytes()
    subset = subsample_time_budget(loaded, budget, seed=5)
    assert subset.clicks is None and np.all(subset.n_shots == 100)
    assert subsample_time_budget(loaded, dataset.total_time(), seed=5) is loaded


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
    assert np.array_equal(first.stderr, again.stderr)
    assert not np.array_equal(first.p_e, other.p_e)
    assert not np.array_equal(first.stderr, other.stderr)
    # a without-replacement subset keeps at most the recorded clicks and
    # at most the recorded non-clicks, at every point; rows with a few
    # clicks or a few non-clicks put both bounds within reach
    rows = [np.where(np.arange(400) < c, 1.0, 0.0) for c in (0, 1, 2, 3, 397, 398, 399, 400)]
    for data in (dataset, _dataset_of(np.stack(rows))):
        n_recorded = data.shots.shape[-1]
        recorded = np.count_nonzero(data.shots > data.meta["readout_threshold"], axis=-1)
        for seed in range(50):
            clicks = _clicks(subsample_time_budget(data, _budget(data, 200), seed=seed))
            assert np.all(clicks >= 0) and np.all(clicks <= recorded)
            assert np.all(200 - clicks <= n_recorded - recorded)


def test_click_counts_follow_the_hypergeometric_law():
    # 200 points x 100 seeds = 20000 draws of 100 from 400 shots, 150 clicking
    n_recorded, n_clicks, n_keep = 400, 150, 100
    dataset = _uniform_dataset(200, n_recorded, n_clicks)
    budget = _budget(dataset, n_keep)
    draws = np.concatenate(
        [_clicks(subsample_time_budget(dataset, budget, seed=seed)) for seed in range(100)]
    )
    pmf = _hypergeometric_pmf(n_recorded, n_clicks, n_keep)
    chi2, dof = goodness_of_fit(np.bincount(draws, minlength=n_keep + 1), pmf)
    assert dof > 20
    assert chi2_upper_tail(chi2, dof) > MIN_P_VALUE, (chi2, dof)
    # the same test rejects a with-replacement (binomial) draw of that size
    binomial = np.random.default_rng(0).binomial(n_keep, n_clicks / n_recorded, len(draws))
    chi2, dof = goodness_of_fit(np.bincount(binomial, minlength=n_keep + 1), pmf)
    assert chi2_upper_tail(chi2, dof) < MIN_P_VALUE, (chi2, dof)


def test_click_counts_match_the_explicit_shot_draw(relaxation_dataset):
    _, dataset = relaxation_dataset
    budget = dataset.total_time() / 4.0
    n_seeds = 1000
    drawn = np.array(
        [_clicks(subsample_time_budget(dataset, budget, seed=s)) for s in range(n_seeds)]
    )
    oracle = np.array(
        [_reference_draw(dataset, budget, seed=n_seeds + s) for s in range(n_seeds)]
    )
    total_chi2, total_dof = 0.0, 0
    for point in range(drawn.shape[1]):
        chi2, dof = homogeneity(drawn[:, point], oracle[:, point])
        assert chi2_upper_tail(chi2, dof) > MIN_P_VALUE, (point, chi2, dof)
        total_chi2, total_dof = total_chi2 + chi2, total_dof + dof
    # the points' draws are independent, so their statistics add up
    assert chi2_upper_tail(total_chi2, total_dof) > MIN_P_VALUE, (total_chi2, total_dof)


def test_estimates_are_recomputed_from_the_draw(relaxation_dataset):
    _, dataset = relaxation_dataset
    half = subsample_time_budget(dataset, dataset.total_time() / 2.0, seed=2)
    n = 200
    # p_e * n is a whole click count, up to the rounding of the division
    clicks = _clicks(half)
    assert np.max(np.abs(half.p_e * n - clicks)) < 1e-9
    assert np.array_equal(half.p_e, [k / n for k in clicks.tolist()])
    assert np.array_equal(half.stderr, [_laplace_stderr(k, n) for k in clicks.tolist()])
    # binomial errors grow by about sqrt(2) at half the shots
    ratio = np.median(half.stderr / dataset.stderr)
    assert abs(ratio - np.sqrt(2.0)) < 0.25


def test_all_and_no_click_points_stay_exact():
    # a shot at the threshold itself does not click
    shots = np.stack([np.full(400, 1.0), np.full(400, 0.0), np.full(400, 0.5)])
    dataset = _dataset_of(shots)
    for seed in range(5):
        subset = subsample_time_budget(dataset, _budget(dataset, 100), seed=seed)
        assert subset.p_e.tolist() == [1.0, 0.0, 0.0]
        assert np.array_equal(subset.stderr, [_laplace_stderr(k, 100) for k in (100, 0, 0)])


def test_adjacent_points_draw_independently():
    n_points, n_seeds = 40, 500
    dataset = _uniform_dataset(n_points, 400, 150)
    budget = _budget(dataset, 100)
    clicks = np.array(
        [_clicks(subsample_time_budget(dataset, budget, seed=s)) for s in range(n_seeds)],
        dtype=float,
    )
    centered = clicks - clicks.mean(axis=0)
    scale = np.sqrt(np.sum(centered**2, axis=0))
    r = np.sum(centered[:, :-1] * centered[:, 1:], axis=0) / (scale[:-1] * scale[1:])
    # under independence each r is about N(0, 1/n_seeds), and so is every
    # pair's r averaged over the n_points - 1 pairs, with 1/(n_seeds (n_points - 1))
    assert np.max(np.abs(r)) * math.sqrt(n_seeds) < 4.5
    assert abs(np.mean(r)) * math.sqrt(n_seeds * (n_points - 1)) < 4.5


def test_subsampled_relaxation_still_fits_the_lifetime(relaxation_dataset):
    params, dataset = relaxation_dataset
    delays = dataset.axis("delay").values
    full = fit_curve(FitModel("exponential-decay"), delays, dataset.p_e, y_err=dataset.stderr)
    quarter = subsample_time_budget(dataset, dataset.total_time() / 4.0, seed=9)
    fit = fit_curve(FitModel("exponential-decay"), delays, quarter.p_e, y_err=quarter.stderr)
    assert abs(fit.parameter("tau") - params.t1) < 3.0 * fit.stderr("tau")
    assert fit.stderr("tau") > full.stderr("tau")


def test_every_path_counts_clicks_by_one_rule(tmp_path):
    # ground shots stored as float32(0.3), which a float64 comparison puts
    # above a threshold of 0.3; sampling, a held record, a sidecar read back
    # and subsampling held shots all compare at the shots' precision, where
    # they equal it and do not click
    threshold = 0.3
    assert float(SHOT_DTYPE(threshold)) > threshold
    model = ReadoutModel(
        mu_g=threshold,
        sigma_g=1e-12,
        mu_e=1.0,
        sigma_e=1e-12,
        decay_weight=1.0,
        window=2e-6,
        threshold=threshold,
    )
    p = np.array([0.0, 0.5, 1.0])
    n_shots = 40
    clicks, shots = sample_grid(p, model, n_shots, stream_seed(9, "rule"))
    ground = shots == SHOT_DTYPE(threshold)
    assert np.all(ground | (shots == 1.0)) and ground[0].all() and not ground[2].any()
    assert np.array_equal(clicks, n_shots - np.count_nonzero(ground, axis=1))
    records = [
        sample_readout(float(q), model, n_shots, point_seed(9, "rule", j)) for j, q in enumerate(p)
    ]
    assert [record.excited_fraction() for record in records] == list(clicks / n_shots)

    p_e, stderr = click_estimates(clicks, n_shots)
    held = SweepDataset(
        axes=(Axis("x", "s", np.arange(len(p), dtype=float)),),
        p_e=p_e,
        stderr=stderr,
        n_shots=n_shots,
        shot_duration=1e-6,
        protocol="rule",
        shots=shots,
        meta={"readout_threshold": threshold},
    )
    path = tmp_path / "rule.csv"
    write_dataset(held, path)
    loaded = read_dataset(path)  # a recount that disagreed would raise SchemaError
    assert np.array_equal(loaded.clicks, clicks)
    budget = len(p) * (n_shots // 2) * held.shot_duration
    drawn = subsample_draws(held, budget, range(5))
    assert np.array_equal(drawn[0][:, 0], np.zeros(5))
    for held_draw, read_draw in zip(drawn, subsample_draws(loaded, budget, range(5))):
        assert np.array_equal(held_draw, read_draw)
