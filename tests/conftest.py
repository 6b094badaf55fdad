"""Helpers shared by the test modules."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np

from magsense.config import REMOVED_FIELDS, resolved_hash
from magsense.protocols import PROTOCOLS

# a value that earlier versions recorded, or could have, for each field that
# changed no output at any value: a removed field, or an n0 or pump field of
# a protocol whose kind does not read it
_ANY_RECORDED = {
    "chi_mc": 0.0,
    "t2e": 5e-6,
    "workers": 0,
    "drive_frequency": 2 * math.pi * 4.74e9,
    "delta": 2 * math.pi * 1e6,
    "n0": 5.0,
    "power_w": 1e-6,
    "c_pump": 2.3e9,
    "omega_qm": 2 * math.pi * 0.66e6,
}


def rewrite_manifest(artifact, edit) -> tuple[str, str]:
    """Edit an artifact's recorded config and sign the artifact again.

    ``edit`` receives the manifest's ``config`` mapping and changes it in
    place. The manifest hash is recomputed and replaces the old one in every
    CSV table, so the artifact's hash checks pass and only the edit is under
    test. Returns the old and the new hash.
    """
    path = Path(artifact) / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    old_hash = manifest["hash"]
    edit(manifest["config"])
    manifest["hash"] = resolved_hash(manifest["config"])
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for table in Path(artifact).glob("*.csv"):
        text = table.read_text(encoding="utf-8")
        table.write_text(text.replace(old_hash, manifest["hash"]), encoding="utf-8")
    return old_hash, manifest["hash"]


def removed_field_edits():
    """(label, edit) that records one field an earlier version could record.

    That is a removed field at a reproduced value, or an n0 or pump field
    that a protocol's kind does not read, at any value. Each ``edit`` suits
    ``rewrite_manifest``. A removed pump field goes into every protocol's
    pump, and an unread field into every protocol whose kind does not read
    it; a protocol that records no pump is given one.
    """
    edits = []
    for block, table in sorted(REMOVED_FIELDS.items()):
        for key, value in sorted(table.items()):
            value = _ANY_RECORDED[key] if value is None else value

            def edit(config, block=block, key=key, value=value):
                if block == "pump":
                    for protocol in config["protocols"]:
                        protocol.setdefault("pump", {})[key] = value
                else:
                    config[block][key] = value

            edits.append((f"{block}.{key}", edit))
    for key in ("n0", "power_w", "c_pump", "omega_qm"):

        def edit(config, key=key):
            for protocol in config["protocols"]:
                _, _, _, lead, pump_reads = PROTOCOLS[protocol["kind"]]
                if key == "n0" and lead != "n0":
                    protocol["n0"] = _ANY_RECORDED[key]
                elif key != "n0" and key not in pump_reads:
                    protocol.setdefault("pump", {})[key] = _ANY_RECORDED[key]

        label = key if key == "n0" else f"pump.{key}"
        edits.append((f"protocols[*].{label} where the kind does not read it", edit))
    return edits


# a small config grid for each protocol grid key
SMALL_GRIDS = {
    "pump_powers": {"start": "0 uW", "stop": "1 uW", "count": 2},
    "probe_freqs": {"start": "-2 MHz", "stop": "2 MHz", "count": 3, "around": "omega_q"},
    "delays": {"start": "0 us", "stop": "1 us", "count": 3},
    "sense_times": {"start": "0 ns", "stop": "200 ns", "count": 3},
    "second_pulse_phases": {"start": "0 rad", "stop": "3 rad", "count": 4},
    "deltas": {"start": "-1 MHz", "stop": "1 MHz", "count": 2},
    "durations": {"start": "0 us", "stop": "0.2 us", "count": 3},
}
SMALL_PUMP = {"c_pump": "100 1/uW", "omega_qm": "0.66 MHz"}


def kind_blocks() -> list:
    """One small YAML protocol block of each kind, in ``PROTOCOLS`` order.

    A block sets its kind's grids, ``n0`` if it takes one, and the pump
    fields it needs > 0, and nothing else.
    """
    blocks = []
    for kind, (_, keys, _, lead, pump_reads) in PROTOCOLS.items():
        block = {"kind": kind, **{key: SMALL_GRIDS[key] for key in keys}}
        block["pump"] = {key: SMALL_PUMP[key] for key, positive in pump_reads.items() if positive}
        if lead == "n0":
            block["n0"] = 10.0
        blocks.append(block)
    return blocks


def traced_peak(call) -> int:
    """The peak bytes that tracemalloc sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def binomial_pmf(trials: int, p: float) -> np.ndarray:
    """P(k successes), k = 0..trials, of a Binomial(trials, p) count."""
    return np.array([math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k) for k in range(trials + 1)])


def binomial_band(trials: int, p: float, level: float = 0.999) -> tuple[int, int]:
    """The central ``level`` band of a Binomial(trials, p) count.

    Each tail outside [low, high] holds at most (1 - level) / 2, from the
    exact pmf.
    """
    tail = 0.5 * (1.0 - level)
    pmf = binomial_pmf(trials, p)
    low, below = 0, pmf[0]
    while below <= tail:
        low += 1
        below += pmf[low]
    high, above = trials, pmf[trials]
    while above <= tail:
        high -= 1
        above += pmf[high]
    return low, high


def check_pulls(pulls) -> None:
    """Assert that pulls z = (estimate - truth) / quoted error look standard normal.

    Over K pulls, |mean z| <= 3 / sqrt(K), and the count with |z| < 2 lies
    in the binomial 99.9 % band around P(|Z| < 2) = 0.954.
    """
    pulls = list(pulls)
    count = len(pulls)
    mean = sum(pulls) / count
    assert abs(mean) <= 3.0 / math.sqrt(count), f"mean pull {mean:.3f} over {count}"
    inside = sum(abs(z) < 2.0 for z in pulls)
    low, high = binomial_band(count, 0.954)
    assert low <= inside <= high, f"{inside} of {count} pulls inside |z| < 2, band [{low}, {high}]"


# a seeded statistic is rejected below this upper-tail probability
MIN_P_VALUE = 1e-4


def chi2_upper_tail(chi2: float, dof: int) -> float:
    """P(X > chi2) for X ~ chi-square(dof), Wilson-Hilferty approximation."""
    if dof < 1:
        return 1.0
    scale = 2.0 / (9.0 * dof)
    z = ((chi2 / dof) ** (1.0 / 3.0) - (1.0 - scale)) / math.sqrt(scale)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _pooled_bins(weights: np.ndarray, minimum: float) -> list:
    """Consecutive index ranges whose summed weight is at least ``minimum``.

    An underweight remainder joins the last range.
    """
    bins, start, total = [], 0, 0.0
    for k, weight in enumerate(weights):
        total += weight
        if total >= minimum:
            bins.append((start, k + 1))
            start, total = k + 1, 0.0
    if start < len(weights):
        if bins:
            bins[-1] = (bins[-1][0], len(weights))
        else:
            bins.append((start, len(weights)))
    return bins


def goodness_of_fit(counts: np.ndarray, pmf: np.ndarray) -> tuple[float, int]:
    """Chi-square of observed counts against a pmf, bins pooled to >= 5 expected."""
    expected = pmf * counts.sum()
    bins = _pooled_bins(expected, 5.0)
    observed = np.array([counts[a:b].sum() for a, b in bins])
    wanted = np.array([expected[a:b].sum() for a, b in bins])
    return float(np.sum((observed - wanted) ** 2 / wanted)), len(bins) - 1


def homogeneity(first: np.ndarray, second: np.ndarray) -> tuple[float, int]:
    """Two-sample chi-square of equal-size integer samples, bins pooled to >= 10."""
    top = int(max(first.max(), second.max())) + 1
    a = np.bincount(first, minlength=top)
    b = np.bincount(second, minlength=top)
    bins = _pooled_bins(a + b, 10.0)
    a = np.array([a[lo:hi].sum() for lo, hi in bins])
    b = np.array([b[lo:hi].sum() for lo, hi in bins])
    expected = 0.5 * (a + b)
    chi2 = float(np.sum((a - expected) ** 2 / expected + (b - expected) ** 2 / expected))
    return chi2, len(bins) - 1


def check_binomial_counts(draws: np.ndarray, oracle: np.ndarray, trials: int, probabilities) -> None:
    """Assert that click counts follow Binomial(trials, p) at each point.

    ``draws`` and ``oracle`` are (draws, points) counts. Each point's
    histogram of draws is tested against the exact pmf, and against the
    oracle's counts by a two-sample test. The points are independent, so
    each test sums its chi-square and degrees of freedom over the points and
    is rejected once, below ``MIN_P_VALUE``.
    """
    assert draws.shape == oracle.shape
    assert np.issubdtype(draws.dtype, np.integer)
    assert np.all((draws >= 0) & (draws <= trials))
    fit, two_sample = [0.0, 0], [0.0, 0]
    for point, p in enumerate(probabilities):
        counts = np.bincount(draws[:, point], minlength=trials + 1)
        for total, (chi2, dof) in (
            (fit, goodness_of_fit(counts, binomial_pmf(trials, p))),
            (two_sample, homogeneity(draws[:, point], oracle[:, point])),
        ):
            total[0] += chi2
            total[1] += dof
    assert chi2_upper_tail(*fit) > MIN_P_VALUE, ("binomial pmf", fit)
    assert chi2_upper_tail(*two_sample) > MIN_P_VALUE, ("per-shot oracle", two_sample)
