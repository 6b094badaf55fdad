"""Tests for the readout voltage model and shot sampling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import binomial_band, check_binomial_counts, traced_peak

from magsense import readout
from magsense.readout import (
    SAMPLE_BLOCK,
    SAMPLE_BLOCK_BYTES,
    SHOT_DTYPE,
    ReadoutModel,
    ShotRecord,
    _seed_words,
    sample_clicks,
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
    for sample in (sample_grid, sample_clicks):
        for bad in (1.2, -0.1, np.nan):
            with pytest.raises(ValueError, match="outside"):
                sample(np.array([0.5, bad]), model, 100, stream)
        with pytest.raises(ValueError, match="n_shots"):
            sample(np.array([0.5]), model, 0, stream)
        with pytest.raises(ValueError):
            sample(np.array([0.5]), model, 10, stream_seed(-1, "grid"))


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


# master seeds per law check of a grid without kept shots, fixed in advance
LAW_DRAWS = 200


# shots a point at which sample_grid's byte cap makes blocks of 3 rows
WIDE_SHOTS = SAMPLE_BLOCK_BYTES // (8 * 3)


@pytest.mark.parametrize(
    ("n_shots", "keep_shots"), [(1, True), (1, False), (57, True), (57, False), (WIDE_SHOTS, True)]
)
@pytest.mark.parametrize(
    "size", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 3]
)
def test_sample_grid_matches_per_point_sampling(size, n_shots, keep_shots):
    # kept shots are sample_readout's, bit for bit, also in blocks the byte
    # cap shortens; a grid without kept shots draws click counts that match
    # its clicks in law
    model = default_model()
    p = np.random.default_rng(size).random(size)
    p[1::4] = 0.0
    p[2::4] = 1.0
    master = 2**32 + 11

    def per_point(master):
        return np.stack(
            [
                sample_readout(float(p[j]), model, n_shots, point_seed(master, "grid", j)).values
                for j in range(size)
            ]
        )

    if keep_shots:
        clicks, shots = sample_grid(p, model, n_shots, stream_seed(master, "grid"))
        expected = per_point(master)
        assert np.array_equal(clicks, np.count_nonzero(expected > model.threshold, axis=1))
        assert shots.shape == (size, n_shots)
        assert shots.dtype == expected.dtype == SHOT_DTYPE
        assert np.array_equal(shots, expected)
        return
    stream = stream_seed(master, "grid")
    clicks = sample_clicks(p, model, n_shots, stream)
    # one binomial call on the grid's stream, at the model's click probability
    binomial = np.random.default_rng(stream).binomial(n_shots, model.click_probability(p))
    assert np.array_equal(clicks, binomial)
    draws = np.array(
        [
            sample_clicks(p, model, n_shots, stream_seed(master + k, "grid"))
            for k in range(LAW_DRAWS)
        ]
    )
    oracle = np.array(
        [
            np.count_nonzero(per_point(master + LAW_DRAWS + k) > model.threshold, axis=1)
            for k in range(LAW_DRAWS)
        ]
    )
    check_binomial_counts(draws, oracle, n_shots, [model.click_probability(q) for q in p])


def test_sample_grid_buffers_are_bounded_by_bytes():
    # 16 points of 100 000 shots are drawn a row at a time, so the draw
    # buffers and their temporaries take less than the 6.4 MB of stored
    # shots; blocks of SAMPLE_BLOCK rows would peak at about 72 MB
    held = []
    p = np.linspace(0.0, 1.0, 16)
    peak = traced_peak(lambda: held.append(sample_grid(p, default_model(), 100_000, (5, 1))))
    _, shots = held[0]
    assert shots.shape == (16, 100_000)
    assert peak < 2 * shots.nbytes


@pytest.mark.parametrize("n_shots", [6, 57, 60])
def test_sample_grid_draws_a_wide_point_in_column_slices(n_shots, monkeypatch):
    # a point wider than the byte cap is drawn in slices of 5 columns, its
    # uniforms all before its normals, so it still draws sample_readout's
    # shots bit for bit, also in a last slice narrower than the rest
    monkeypatch.setattr(readout, "SAMPLE_BLOCK_BYTES", 8 * 5)
    model = default_model()
    p = np.array([0.0, 0.3, 1.0, 0.7])
    master = 2**32 + 7
    clicks, shots = sample_grid(p, model, n_shots, stream_seed(master, "wide"))
    expected = np.stack(
        [
            sample_readout(float(p[j]), model, n_shots, point_seed(master, "wide", j)).values
            for j in range(len(p))
        ]
    )
    assert shots.dtype == SHOT_DTYPE
    assert np.array_equal(shots, expected)
    assert np.array_equal(clicks, np.count_nonzero(expected > model.threshold, axis=1))


def test_sample_grid_bounds_a_wide_point_by_its_stored_shots():
    # one point of 1 000 000 shots holds its float32 shots, one excited flag
    # a shot and slice-sized buffers, not full-row float64 draws
    held = []
    n_shots = 1_000_000
    peak = traced_peak(
        lambda: held.append(sample_grid(np.array([0.4]), default_model(), n_shots, (5, 2)))
    )
    _, shots = held[0]
    assert shots.shape == (1, n_shots)
    assert peak < shots.nbytes + n_shots + 16 * SAMPLE_BLOCK_BYTES


# kept-shot grids: a grid spanning p_e = 0..1 under the finite-T1 model
# (w < 1), drawn at master seeds KEPT_LAW_SEED + k, k < LAW_DRAWS, fixed in
# advance; the oracle's seeds follow them
KEPT_LAW_SEED = 3000
KEPT_LAW_P = np.linspace(0.0, 1.0, 9)
KEPT_LAW_SHOTS = 5


def _kept_law_grids(model):
    return [
        sample_grid(KEPT_LAW_P, model, KEPT_LAW_SHOTS, stream_seed(KEPT_LAW_SEED + k, "law"))
        for k in range(LAW_DRAWS)
    ]


def test_kept_shot_clicks_follow_their_binomial_law():
    model = default_model()
    assert model.decay_weight < 1.0
    draws = np.array([clicks for clicks, _ in _kept_law_grids(model)])
    oracle = np.array(
        [
            sample_clicks(
                KEPT_LAW_P, model, KEPT_LAW_SHOTS, stream_seed(KEPT_LAW_SEED + LAW_DRAWS + k, "law")
            )
            for k in range(LAW_DRAWS)
        ]
    )
    check_binomial_counts(draws, oracle, KEPT_LAW_SHOTS, model.click_probability(KEPT_LAW_P))


def test_kept_shots_take_the_excited_voltage_with_probability_p_e_w():
    # readout widths so narrow that each voltage names the branch it came
    # from; per point, the excited share of all its shots over the draws
    width = 1e-3
    model = replace(default_model(), sigma_g=width, sigma_e=width)
    shots = np.stack([shots for _, shots in _kept_law_grids(model)], axis=1)
    excited = np.abs(shots - model.mu_e) < 10 * width
    ground = np.abs(shots - model.mu_g) < 10 * width
    assert np.all(excited ^ ground)
    trials = LAW_DRAWS * KEPT_LAW_SHOTS
    for p, count in zip(KEPT_LAW_P, np.count_nonzero(excited.reshape(len(KEPT_LAW_P), -1), axis=1)):
        low, high = binomial_band(trials, p * model.decay_weight)
        assert low <= count <= high, (p, count, (low, high))


# the first 3 float64 voltages of 3 points at one stream seed, as the
# stream draws them, and the SHOT_DTYPE shots they are stored as
PINNED_VOLTAGES = [
    ["0.22725550605119968", "0.2556885774294369", "-0.2620074715124492"],
    ["0.1572475611038704", "-0.0007439391864037159", "1.72512451798108"],
    ["0.9034998257559964", "0.08450839656134301", "1.666221498298341"],
]
PINNED_SHOTS = [
    ["0.22725551", "0.25568858", "-0.26200747"],
    ["0.15724756", "-0.0007439392", "1.7251245"],
    ["0.90349984", "0.0845084", "1.6662215"],
]


def test_kept_shot_stream_is_pinned():
    # a change of the kept-shot stream changes every kept-shot artifact and
    # must edit these; the stored shots are the voltages rounded once
    _, shots = sample_grid(
        np.array([0.0, 0.5, 1.0]), default_model(), 8, stream_seed(2024, "pinned")
    )
    assert shots.dtype == SHOT_DTYPE
    assert [[str(v) for v in row] for row in shots[:3, :3]] == PINNED_SHOTS
    rounded = np.array(PINNED_VOLTAGES, dtype=float).astype(SHOT_DTYPE)
    assert np.array_equal(rounded, np.array(PINNED_SHOTS, dtype=SHOT_DTYPE))
