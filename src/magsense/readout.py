"""Dispersive-readout voltage model and shot sampling.

Single-shot readout is modeled by state-conditioned voltage distributions:
the ground state draws from a Gaussian N(mu_g, sigma_g); the excited state
draws from the mixture w N(mu_e, sigma_e) + (1 - w) N(mu_g, sigma_g), where
w = exp(-t_ro/T1) accounts for relaxation during the readout window. Shots
are thresholded to bits; excited-state probabilities are estimated as
thresholded fractions with a Laplace-smoothed binomial standard error so
error bars stay positive at the extremes.

``sample_readout`` draws one point from a numpy ``default_rng(seed)``
stream. ``sample_grid`` draws a whole grid in one pass, point j from the
stream ``sample_readout`` would draw for seed ``stream + (j,)``, bit for
bit: it derives every point's PCG64 state with numpy's seeding arithmetic
over arrays, then reseeds one reused generator per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_SIGMA = 0.35
DEFAULT_WINDOW = 2e-6
# points thresholded together by sample_grid; its two draw buffers hold
# 2 * n_shots values per point, so a small block stays in cache
SAMPLE_BLOCK = 16

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

    def click_probability(self, p_e: float) -> float:
        """P(V > threshold) for excited-state probability ``p_e``."""
        return (
            p_e * self.excited_click_probability()
            + (1.0 - p_e) * self.ground_click_probability()
        )

    def contrast(self) -> float:
        return self.excited_click_probability() - self.ground_click_probability()

    def idealized(self) -> "ReadoutModel":
        """Variant without decay during readout (w = 1)."""
        return replace(self, decay_weight=1.0)


def laplace_stderr(clicks, n_shots):
    """Laplace-smoothed binomial standard error of ``clicks / n_shots``.

    Elementwise over arrays of click counts; the smoothing keeps the error
    positive when no shot or every shot clicks.
    """
    p_smooth = (clicks + 1.0) / (n_shots + 2.0)
    return np.sqrt(p_smooth * (1.0 - p_smooth) / n_shots)


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
        return float(np.mean(self.values > self.threshold))

    def excited_stderr(self) -> float:
        """Laplace-smoothed binomial standard error of the fraction."""
        k = int(np.sum(self.values > self.threshold))
        return float(laplace_stderr(k, self.n_shots))


def sample_readout(p_e: float, model: ReadoutModel, n_shots: int, seed) -> ShotRecord:
    """Draw analog readout voltages for a given excited-state probability.

    Deterministic for a fixed seed; the seed may be anything accepted by
    numpy's default_rng (int or sequence of ints).
    """
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"excited-state probability {p_e} outside [0, 1]")
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    rng = np.random.default_rng(seed)
    excited = rng.random(n_shots) < p_e
    survived = rng.random(n_shots) < model.decay_weight
    use_excited_dist = excited & survived
    values = np.where(
        use_excited_dist,
        model.mu_e + model.sigma_e * rng.standard_normal(n_shots),
        model.mu_g + model.sigma_g * rng.standard_normal(n_shots),
    )
    return ShotRecord(values=values, threshold=model.threshold)


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


def sample_grid(
    p_e: np.ndarray,
    model: ReadoutModel,
    n_shots: int,
    stream: tuple,
    keep_shots: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Click counts of every point of a flat grid, and its shots if kept.

    Point j draws what ``sample_readout(p_e[j], model, n_shots, stream + (j,))``
    draws, bit for bit: that call's two uniform and two normal draws of
    ``n_shots`` are one ``random`` and one ``standard_normal`` draw of
    ``2 * n_shots`` from the same generator state. Points are thresholded
    in blocks of ``SAMPLE_BLOCK``; the (points, shots) voltage array exists
    only with ``keep_shots``.
    """
    p_e = np.asarray(p_e, dtype=float)
    outside = ~((p_e >= 0.0) & (p_e <= 1.0))
    if outside.any():
        raise ValueError(f"excited-state probability {p_e[outside][0]} outside [0, 1]")
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    count = len(p_e)
    seeds = _seed_words(stream, count).tolist()
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    # a fresh generator's state; random and standard_normal draw whole
    # 64-bit words, so its buffered-uint32 fields stay 0 as default_rng's do
    state = bit_generator.state
    uniform = np.empty((SAMPLE_BLOCK, 2 * n_shots))
    normal = np.empty((SAMPLE_BLOCK, 2 * n_shots))
    clicks = np.empty(count, dtype=np.intp)
    shots = np.empty((count, n_shots)) if keep_shots else None
    for start in range(0, count, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, count)
        for row, (seed_hi, seed_lo, seq_hi, seq_lo) in enumerate(seeds[start:stop]):
            # PCG64's seeding: an odd increment, then two LCG steps that
            # add the seed in between
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            seeded = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
            state["state"] = {"state": seeded, "inc": inc}
            bit_generator.state = state
            rng.random(out=uniform[row])
            rng.standard_normal(out=normal[row])
        u, z = uniform[: stop - start], normal[: stop - start]
        excited = u[:, :n_shots] < p_e[start:stop, None]
        survived = u[:, n_shots:] < model.decay_weight
        values = np.where(
            excited & survived,
            model.mu_e + model.sigma_e * z[:, :n_shots],
            model.mu_g + model.sigma_g * z[:, n_shots:],
        )
        clicks[start:stop] = np.count_nonzero(values > model.threshold, axis=1)
        if keep_shots:
            shots[start:stop] = values
    return clicks, shots
