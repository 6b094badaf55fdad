"""Tests for the readout voltage model and shot sampling."""

import math

import numpy as np
import pytest

from magsense.readout import (
    SAMPLE_BLOCK,
    ReadoutModel,
    ShotRecord,
    _seed_words,
    sample_grid,
    sample_readout,
)
from magsense.sweep import point_seed, stream_seed

T1_REF = 2.78e-6


def default_model():
    return ReadoutModel.for_qubit(t1=T1_REF)


def test_decay_weight_from_window():
    model = default_model()
    assert model.decay_weight == pytest.approx(math.exp(-2e-6 / T1_REF), rel=1e-12)
    assert model.threshold == pytest.approx(0.5)
    ideal = ReadoutModel.for_qubit(t1=math.inf)
    assert ideal.decay_weight == 1.0


def test_ground_preparation_sample_mean():
    model = default_model()
    n = 20000
    record = sample_readout(0.0, model, n, seed=1)
    assert abs(np.mean(record.values) - model.mu_g) < 3.0 * model.sigma_g / math.sqrt(n)


def test_excited_preparation_sample_mean_without_decay():
    model = ReadoutModel.for_qubit(t1=math.inf)
    n = 20000
    record = sample_readout(1.0, model, n, seed=2)
    assert abs(np.mean(record.values) - model.mu_e) < 3.0 * model.sigma_e / math.sqrt(n)


def test_click_probabilities_against_tail_integrals():
    model = default_model()
    # z = (0.5 - 0) / 0.35 = 1.4286; upper tail 0.07657 (normal table)
    assert model.ground_click_probability() == pytest.approx(0.07657, abs=2e-4)
    w = model.decay_weight
    expected_excited = w * (1.0 - 0.07657) + (1.0 - w) * 0.07657
    assert model.excited_click_probability() == pytest.approx(expected_excited, abs=3e-4)
    mid = model.click_probability(0.5)
    assert mid == pytest.approx(
        0.5 * (model.excited_click_probability() + model.ground_click_probability()),
        rel=1e-12,
    )


def test_confusion_matrix_prediction_at_half():
    model = default_model()
    n = 100000
    record = sample_readout(0.5, model, n, seed=3)
    assert record.excited_fraction() == pytest.approx(model.click_probability(0.5), abs=0.005)


def test_shot_noise_scaling_two_decades():
    model = default_model()
    errs = []
    for n in (100, 10000):
        record = sample_readout(0.3, model, n, seed=4)
        errs.append(record.excited_stderr())
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.1)


def test_sampling_determinism():
    model = default_model()
    a = sample_readout(0.4, model, 500, seed=(7, 1, 2))
    b = sample_readout(0.4, model, 500, seed=(7, 1, 2))
    c = sample_readout(0.4, model, 500, seed=(7, 1, 3))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_invalid_inputs():
    model = default_model()
    with pytest.raises(ValueError):
        sample_readout(1.2, model, 100, seed=0)
    with pytest.raises(ValueError):
        sample_readout(0.5, model, 0, seed=0)
    with pytest.raises(ValueError):
        ReadoutModel.for_qubit(t1=T1_REF, sigma=0.0)
    with pytest.raises(ValueError):
        ShotRecord(values=np.array([]), threshold=0.5)
    stream = stream_seed(0, "grid")
    for bad in (1.2, -0.1, np.nan):
        with pytest.raises(ValueError, match="outside"):
            sample_grid(np.array([0.5, bad]), model, 100, stream, False)
    with pytest.raises(ValueError):
        sample_grid(np.array([0.5]), model, 0, stream, False)
    with pytest.raises(ValueError):
        sample_grid(np.array([0.5]), model, 10, stream_seed(-1, "grid"), False)


def test_idealized_model_contrast():
    model = default_model()
    ideal = model.idealized()
    assert ideal.decay_weight == 1.0
    assert ideal.contrast() > model.contrast()


def test_stderr_positive_at_extremes():
    model = default_model()
    record = sample_readout(0.0, model, 200, seed=9)
    assert record.excited_stderr() > 0.0


# one to three entropy words from the master seed, and more than the pool's
# four words in all from 2**64 + 3 (three master words, the tag, the index)
@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
@pytest.mark.parametrize("tag", ["decay-phase", "spectroscopy", "oracle"])
def test_seed_words_are_numpy_seed_sequence_states(master, tag):
    count = 301
    expected = np.array(
        [
            np.random.SeedSequence(point_seed(master, tag, j)).generate_state(4, np.uint64)
            for j in range(count)
        ]
    )
    words = _seed_words(stream_seed(master, tag), count)
    assert words.dtype == np.uint64
    assert np.array_equal(words, expected)


@pytest.mark.parametrize("keep_shots", [True, False])
@pytest.mark.parametrize("n_shots", [1, 57])
@pytest.mark.parametrize(
    "size", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 3]
)
def test_sample_grid_matches_per_point_sampling(size, n_shots, keep_shots):
    model = default_model()
    p = np.random.default_rng(size).random(size)
    p[1::4] = 0.0
    p[2::4] = 1.0
    master = 2**32 + 11
    clicks, shots = sample_grid(p, model, n_shots, stream_seed(master, "grid"), keep_shots)
    expected = np.stack(
        [
            sample_readout(float(p[j]), model, n_shots, point_seed(master, "grid", j)).values
            for j in range(size)
        ]
    )
    assert np.array_equal(clicks, np.count_nonzero(expected > model.threshold, axis=1))
    if keep_shots:
        assert shots.shape == (size, n_shots)
        assert np.array_equal(shots, expected)
    else:
        assert shots is None
