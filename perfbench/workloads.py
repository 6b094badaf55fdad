"""Workload definitions, generated inputs and output checks for the benchmark.

Every workload is one user session against a bundled config: ``magsense run``
into a fresh artifact directory, then ``magsense report`` on that artifact.
The workloads differ in which config they run, which report flags they pass,
and so in which layer of ``src/magsense`` dominates.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

# Headline estimates must lie within this many of their own standard errors
# of the device truth, so the check holds at any seed of an unbiased
# estimator. The worst seen at the bundled seeds is 1.8 sigma.
TOLERANCE_SIGMA = 5.0
SMOKE_SHOTS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # bundled config name under src/magsense/configs
    report_args: tuple
    # the workload's own command, whose layers the traced run records: "run",
    # or "report" on an artifact made before measuring starts
    command: str
    why: str
    # grid overrides for the smoke size, keyed by protocol index
    smoke_grids: dict


_DECAY_SMOKE = {
    0: {"sense_times": {"start": "0 ns", "stop": "240 ns", "count": 13}},
    1: {
        "sense_times": {"start": "0 ns", "stop": "240 ns", "count": 9},
        "probe_freqs": {"around": "omega_q", "start": "-48 MHz", "stop": "4 MHz", "count": 27},
    },
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lindblad-scan",
            "parametric-scan",
            (),
            "run",
            "13x17 parametric scan: ~99% RK4 Lindblad steps; the only workload that runs lindblad",
            {
                0: {
                    "deltas": {"start": "-7.215 MHz", "stop": "7.215 MHz", "count": 7},
                    "durations": {"start": "0 us", "stop": "0.3 us", "count": 4},
                },
            },
        ),
        Workload(
            "decay-artifact",
            "decay-tracking",
            (),
            "run",
            "2726 points x 800 kept shots: sidecar write and per-point sampling; bypasses lindblad",
            _DECAY_SMOKE,
        ),
        Workload(
            "subsample-report",
            "decay-tracking",
            ("--subsample-budget", "1.0", "--subsample-count", "10"),
            "report",
            "decay-tracking artifact re-reported under a 1 s budget: sidecar read, per-point draws and LM fits",
            _DECAY_SMOKE,
        ),
        Workload(
            "calibration-sweep",
            "sensitivity-scan",
            (),
            "run",
            "3546 points x 400 shots, no sidecar: readout sampling dominates; the only workload that runs sensitivity",
            {
                0: {"probe_freqs": {"around": "omega_q", "start": "-165 MHz", "stop": "10 MHz", "count": 71}},
                1: {"delays": {"start": "0 us", "stop": "3 us", "count": 41}},
            },
        ),
    )
}


def write_config(src: Path, workload: Workload, seed: int | None, size: str, dest: Path) -> int:
    """Write the workload's config to ``dest`` with its seed replaced.

    Returns the seed the program receives: ``seed`` when given, else the
    bundled one. The smoke size shrinks grids and shot counts so that every
    analysis still runs.
    """
    bundled = src / "magsense" / "configs" / f"{workload.config}.yaml"
    document = yaml.safe_load(bundled.read_text(encoding="utf-8"))
    if seed is not None:
        document["seed"] = seed
    document.pop("output", None)
    if size == "smoke":
        document["acquisition"]["n_shots"] = SMOKE_SHOTS
        for index, grids in workload.smoke_grids.items():
            document["protocols"][index].update(grids)
    dest.write_text(yaml.safe_dump(document, sort_keys=False), encoding="utf-8")
    return int(document["seed"])


def artifact_digest(artifact: Path) -> str:
    """sha256 over every file of an artifact, ignoring the manifest's timestamp."""
    digest = hashlib.sha256()
    for path in sorted(p for p in artifact.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("created", None)
            data = json.dumps(manifest, sort_keys=True).encode("utf-8")
        digest.update(f"{path.relative_to(artifact)}\0".encode("utf-8"))
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()


def artifact_bytes(artifact: Path) -> int:
    return sum(p.stat().st_size for p in artifact.rglob("*") if p.is_file())


def _read_report(path: Path) -> dict:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or ":" not in line:
            continue
        key, _, value = line.partition(":")
        values[key.strip()] = value.strip()
    return values


def _slope_ratio_sigma(report: dict) -> float:
    """Standard error of chi_qm propagated from the two calibration slopes.

    For chi_qm << kappa_m the calibration gives chi_qm ~ rho * kappa_m with
    rho the dephasing-to-Stark slope ratio, so chi_qm's relative error is rho's.
    """
    stark = float(report["stark_slope_stderr"]) / float(report["stark_slope_rad_per_s_per_w"])
    dephasing = float(report["dephasing_slope_stderr"]) / float(report["dephasing_slope_rad_per_s_per_w"])
    return math.hypot(stark, dephasing) * float(report["chi_qm_rad_per_s"])


# (report file, estimate key, its standard error from the report, truth from
# the resolved system parameters)
HEADLINES = (
    ("lifetime-phase.txt", "lifetime_s", lambda r: float(r["uncertainty_s"]), lambda s: 1.0 / s["kappa_m"]),
    ("lifetime-frequency.txt", "lifetime_s", lambda r: float(r["uncertainty_s"]), lambda s: 1.0 / s["kappa_m"]),
    ("parametric.txt", "kappa_m_rad_per_s", lambda r: float(r["kappa_m_stderr"]), lambda s: s["kappa_m"]),
    ("sensitivity.txt", "chi_qm_rad_per_s", _slope_ratio_sigma, lambda s: abs(s["chi_qm"])),
)


def check_headlines(artifact: Path) -> list[str]:
    """Problems with the artifact's headline estimates; empty when all hold.

    Each estimate must lie within TOLERANCE_SIGMA of its standard errors of
    the device truth recorded in the artifact's own manifest.
    """
    system = json.loads((artifact / "manifest.json").read_text(encoding="utf-8"))["config"]["system"]
    problems = []
    checked = 0
    for name, key, sigma_of, truth_of in HEADLINES:
        path = artifact / name
        if not path.exists():
            continue
        checked += 1
        report = _read_report(path)
        value = float(report[key])
        truth = truth_of(system)
        limit = TOLERANCE_SIGMA * sigma_of(report)
        if not (math.isfinite(value) and abs(value - truth) <= limit):
            problems.append(f"{name} {key}={value!r} is more than {limit:.3g} from truth {truth!r}")
    if not checked:
        problems.append("artifact has no headline report")
    return problems
