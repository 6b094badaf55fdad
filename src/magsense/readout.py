"""Dispersive-readout voltage model and shot sampling.

Single-shot readout is modeled by state-conditioned voltage distributions:
the ground state draws from a Gaussian N(mu_g, sigma_g); the excited state
draws from the mixture w N(mu_e, sigma_e) + (1 - w) N(mu_g, sigma_g), where
w = exp(-t_ro/T1) accounts for relaxation during the readout window. Shots
are thresholded to bits; excited-state probabilities are estimated as
thresholded fractions with a Laplace-smoothed binomial standard error so
error bars stay positive at the extremes.

Each shot is one Bernoulli trial that clicks with probability
q = ``click_probability(p_e)``, so a point of n shots has Binomial(n, q)
clicks. ``sample_clicks`` draws the counts of a grid whose shots are not
kept from that law alone, in one call on one stream. ``sample_readout``
draws one point's voltages from a numpy ``default_rng(seed)`` stream, a
shot being one uniform u and one normal z: the excited distribution's
voltage from z if u < p_e w, else the ground one's. ``sample_grid`` draws
the voltages of a grid whose shots are kept, point j from the stream
``sample_readout`` would draw for seed ``stream + (j,)``, bit for bit: it
derives every point's PCG64 state with numpy's seeding arithmetic over
arrays, then reseeds one reused generator per point.

A kept shot is stored as ``SHOT_DTYPE``: each voltage is computed in float64
and rounded once to float32, whose 6e-8 relative resolution is far finer
than the readout noise or any digitizer. Clicks are counted from the stored
values by one rule, ``clicked``; a float64 voltage within half a float32 ulp
above the threshold can round onto it and lose its click, about 1.2e-8 of
the shots at the default readout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_SIGMA = 0.35
DEFAULT_WINDOW = 2e-6
# the dtype of every kept shot, sampled, held or written to a sidecar
SHOT_DTYPE = np.float32
# points thresholded together by sample_grid; its two draw buffers hold
# n_shots values per point, so a small block stays in cache
SAMPLE_BLOCK = 16
# bytes of one sample_grid draw buffer, which caps a block's rows below
# SAMPLE_BLOCK for wide points and a point wider than it to column slices;
# 16 rows of 800 float64 shots take 100 KiB
SAMPLE_BLOCK_BYTES = 128 * 1024

# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size and hash
# constants, and PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _upper_tail(z: float) -> float:
    """P(Z > z) for a standard normal variable."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class ReadoutModel:
    """State-conditioned readout voltage distributions."""

    mu_g: float
    sigma_g: float
    mu_e: float
    sigma_e: float
    decay_weight: float  # probability the excited state survives the window
    window: float  # readout duration, s
    threshold: float

    def __post_init__(self) -> None:
        if self.sigma_g <= 0 or self.sigma_e <= 0:
            raise ValueError("readout widths must be > 0")
        if not 0.0 <= self.decay_weight <= 1.0:
            raise ValueError("decay weight must lie in [0, 1]")
        if self.window <= 0:
            raise ValueError("readout window must be > 0")

    @classmethod
    def for_qubit(
        cls,
        t1: float,
        mu_g: float = 0.0,
        mu_e: float = 1.0,
        sigma: float = DEFAULT_SIGMA,
        window: float = DEFAULT_WINDOW,
        threshold: float | None = None,
    ) -> "ReadoutModel":
        """Model with relaxation weight w = exp(-window/T1)."""
        w = 1.0 if math.isinf(t1) else math.exp(-window / t1)
        thr = 0.5 * (mu_g + mu_e) if threshold is None else threshold
        return cls(
            mu_g=mu_g,
            sigma_g=sigma,
            mu_e=mu_e,
            sigma_e=sigma,
            decay_weight=w,
            window=window,
            threshold=thr,
        )

    def excited_click_probability(self) -> float:
        """P(V > threshold) for a qubit prepared excited."""
        tail_e = _upper_tail((self.threshold - self.mu_e) / self.sigma_e)
        tail_g = _upper_tail((self.threshold - self.mu_g) / self.sigma_g)
        return self.decay_weight * tail_e + (1.0 - self.decay_weight) * tail_g

    def ground_click_probability(self) -> float:
        """P(V > threshold) for a qubit prepared in the ground state."""
        return _upper_tail((self.threshold - self.mu_g) / self.sigma_g)

    def click_probability(self, p_e):
        """P(V > threshold) for excited-state probability ``p_e``, elementwise."""
        return (
            p_e * self.excited_click_probability()
            + (1.0 - p_e) * self.ground_click_probability()
        )

    def contrast(self) -> float:
        return self.excited_click_probability() - self.ground_click_probability()

    def idealized(self) -> "ReadoutModel":
        """Variant without decay during readout (w = 1)."""
        return replace(self, decay_weight=1.0)


def clicked(values: np.ndarray, threshold: float) -> np.ndarray:
    """Which shots click: ``values > float(threshold)``.

    numpy compares an array with a Python float at the array's precision,
    so ``SHOT_DTYPE`` shots click above the threshold rounded to that dtype,
    and float64 shots of older sidecars above the threshold itself.
    """
    return values > float(threshold)


def click_estimates(clicks, n_shots):
    """Excited fraction ``clicks / n_shots`` and its standard error.

    Elementwise over arrays of click counts. The error is the
    Laplace-smoothed binomial one, which stays positive when no shot or
    every shot clicks.
    """
    p_smooth = (clicks + 1.0) / (n_shots + 2.0)
    return clicks / n_shots, np.sqrt(p_smooth * (1.0 - p_smooth) / n_shots)


@dataclass(frozen=True)
class ShotRecord:
    """Analog shots drawn at one sweep point."""

    values: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("a shot record needs at least one shot")

    @property
    def n_shots(self) -> int:
        return len(self.values)

    def excited_fraction(self) -> float:
        return float(np.mean(clicked(self.values, self.threshold)))

    def excited_stderr(self) -> float:
        """Laplace-smoothed binomial standard error of the fraction."""
        k = int(np.sum(clicked(self.values, self.threshold)))
        return float(click_estimates(k, self.n_shots)[1])


def sample_readout(p_e: float, model: ReadoutModel, n_shots: int, seed) -> ShotRecord:
    """Draw analog readout voltages for a given excited-state probability.

    Deterministic for a fixed seed; the seed may be anything accepted by
    numpy's default_rng (int or sequence of ints). Draws one ``random`` and
    then one ``standard_normal`` of ``n_shots``, in that order, and stores
    each float64 voltage as ``SHOT_DTYPE``.
    """
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"excited-state probability {p_e} outside [0, 1]")
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n_shots)
    z = rng.standard_normal(n_shots)
    values = np.where(
        u < p_e * model.decay_weight,
        model.mu_e + model.sigma_e * z,
        model.mu_g + model.sigma_g * z,
    )
    return ShotRecord(values=values.astype(SHOT_DTYPE), threshold=model.threshold)


def _uint32_words(n: int) -> list:
    """The uint32 words numpy's SeedSequence takes from int ``n``, low first."""
    if n < 0:
        raise ValueError("seed material must be >= 0")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hasher(init: int, mult: int):
    """numpy's SeedSequence hash over uint32 arrays.

    Its multiplier advances once per call whatever the data, so one call
    hashes the same word position of every point at once.
    """
    const = init

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hash_words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def _seed_words(stream: tuple, count: int) -> np.ndarray:
    """``SeedSequence(stream + (j,)).generate_state(4, np.uint64)`` for j < count.

    Row j is (seed high, seed low, sequence high, sequence low), the words
    PCG64 seeds itself from. The pool mixing runs on one uint32 array per
    entropy word, the point index being the last word (a single word, since
    ``MAX_SHOT_BUFFER_BYTES`` keeps grids far below 2**32 points).
    """
    entropy = [
        np.full(count, word, dtype=np.uint32)
        for part in stream
        for word in _uint32_words(int(part))
    ]
    entropy.append(np.arange(count, dtype=np.uint32))
    hash_words = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(count, dtype=np.uint32)
    pool = [hash_words(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_words(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hash_words(word))
    hash_words = _hasher(_INIT_B, _MULT_B)
    state = [hash_words(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    return np.stack([state[2 * k] | state[2 * k + 1] << np.uint64(32) for k in range(4)], axis=1)


def _grid_probabilities(p_e, n_shots: int) -> np.ndarray:
    """``p_e`` as a float array, checked to lie in [0, 1] with n_shots >= 1."""
    p_e = np.asarray(p_e, dtype=float)
    outside = ~((p_e >= 0.0) & (p_e <= 1.0))
    if outside.any():
        raise ValueError(f"excited-state probability {p_e[outside][0]} outside [0, 1]")
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    return p_e


def sample_clicks(p_e: np.ndarray, model: ReadoutModel, n_shots: int, stream: tuple) -> np.ndarray:
    """Click counts of every point of a flat grid, drawn without shots.

    One ``binomial`` call on ``default_rng(stream)`` draws point j's count
    from Binomial(n_shots, ``model.click_probability(p_e[j])``), the law of
    the clicks among n_shots ``sample_readout`` shots.
    """
    p_e = _grid_probabilities(p_e, n_shots)
    return np.random.default_rng(stream).binomial(n_shots, model.click_probability(p_e))


def sample_grid(
    p_e: np.ndarray,
    model: ReadoutModel,
    n_shots: int,
    stream: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """Click counts and (points, shots) ``SHOT_DTYPE`` voltages of a flat grid.

    Point j draws what ``sample_readout(p_e[j], model, n_shots, stream + (j,))``
    draws, bit for bit: one ``random`` and one ``standard_normal`` draw of
    ``n_shots`` from the same generator state, computed in float64 and
    stored rounded. Points are stored and their clicks counted in blocks of
    ``SAMPLE_BLOCK`` rows, fewer where a block of ``n_shots`` float64 values
    a row would exceed ``SAMPLE_BLOCK_BYTES``. A point wider than that is
    drawn alone in column slices of ``SAMPLE_BLOCK_BYTES``: all its uniforms
    first, kept as excited flags, then its normals, so its stream is the
    same.
    """
    p_e = _grid_probabilities(p_e, n_shots)
    count = len(p_e)
    block = min(SAMPLE_BLOCK, count, SAMPLE_BLOCK_BYTES // (8 * n_shots))
    width = n_shots if block else SAMPLE_BLOCK_BYTES // 8
    seeds = _seed_words(stream, count).tolist()
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    # a fresh generator's state; random and standard_normal draw whole
    # 64-bit words, so its buffered-uint32 fields stay 0 as default_rng's do
    state = bit_generator.state

    def reseed(seed_hi, seed_lo, seq_hi, seq_lo):
        # PCG64's seeding: an odd increment, then two LCG steps that add the
        # seed in between
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        seeded = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        state["state"] = {"state": seeded, "inc": inc}
        bit_generator.state = state

    uniform, normal = np.empty((2, max(block, 1), width))
    clicks = np.empty(count, dtype=np.intp)
    shots = np.empty((count, n_shots), dtype=SHOT_DTYPE)
    if not block:
        excited = np.empty(n_shots, dtype=bool)
        slices = [slice(a, min(a + width, n_shots)) for a in range(0, n_shots, width)]
        for j, seed in enumerate(seeds):
            reseed(*seed)
            for cols in slices:
                u = uniform[0, : cols.stop - cols.start]
                rng.random(out=u)
                np.less(u, p_e[j] * model.decay_weight, out=excited[cols])
            clicks[j] = 0
            for cols in slices:
                z = normal[0, : cols.stop - cols.start]
                rng.standard_normal(out=z)
                shots[j, cols] = np.where(
                    excited[cols], model.mu_e + model.sigma_e * z, model.mu_g + model.sigma_g * z
                )
                clicks[j] += np.count_nonzero(clicked(shots[j, cols], model.threshold))
        return clicks, shots
    for start in range(0, count, block):
        stop = min(start + block, count)
        for row, seed in enumerate(seeds[start:stop]):
            reseed(*seed)
            rng.random(out=uniform[row])
            rng.standard_normal(out=normal[row])
        z = normal[: stop - start]
        shots[start:stop] = np.where(
            uniform[: stop - start] < p_e[start:stop, None] * model.decay_weight,
            model.mu_e + model.sigma_e * z,
            model.mu_g + model.sigma_g * z,
        )
        clicks[start:stop] = np.count_nonzero(clicked(shots[start:stop], model.threshold), axis=1)
    return clicks, shots
