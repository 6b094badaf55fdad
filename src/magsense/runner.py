"""Executes experiment configs into reproducible on-disk artifacts.

A run artifact is a directory holding ``manifest.json`` (the fully resolved
config, its hash, the seed, and timestamps), one CSV dataset per protocol
block, and one report per attached analysis. The whole run is assembled in a
sibling ``.partial`` directory and renamed into place only once complete, so
an interrupted run never leaves a directory containing a manifest.

Reports are key-value text with the input manifest hash on the first line;
curve-like results (sensitivity, subsample ensembles) additionally emit
comma-separated tables with unit-tagged columns.
"""

from __future__ import annotations

import datetime
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import calibrate_magnon_number, linear_slope
from .config import ExperimentConfig, ProtocolNode, from_resolved, resolved_hash
from .errors import ConfigError, SchemaError
from .fitting import FitModel, fit_curve, fit_rows, usable_errors
from .lifetimes import (
    extract_kappa_m_from_scan,
    frequency_lifetimes,
    lifetime_from_frequency,
    lifetime_from_phase,
    phase_lifetimes,
)
from .params import SystemParams
from .protocols import (
    run_decay_phase_sense,
    run_decay_spectroscopy,
    run_parametric_decay_scan,
    run_qubit_spectroscopy,
    run_ramsey,
    run_relaxation,
)
from .sensitivity import (
    SensingConfig,
    fit_noise_profile,
    fit_power_spectra,
    sensitivity_curve,
)
from .subsample import subsample_time_budget
from .sweep import Axis, SweepDataset, read_dataset, write_dataset

MANIFEST_NAME = "manifest.json"

# protocol grid -> the dataset axis that samples it
_GRID_AXES = {
    "pump_powers": "pump_power",
    "probe_freqs": "probe_frequency",
    "delays": "delay",
    "sense_times": "sense_time",
    "second_pulse_phases": "second_pulse_phase",
    "deltas": "pump_detuning",
    "durations": "pump_duration",
}


@dataclass(frozen=True)
class RunArtifact:
    """A completed run directory: manifest plus dataset and report files."""

    path: Path
    manifest: dict
    datasets: dict
    reports: dict


def _series_seed(master_seed: int, index: int) -> int:
    """Independent per-series master seed, stable across runs."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1)[0])


def execute_protocol(node: ProtocolNode, config: ExperimentConfig) -> SweepDataset:
    """Run one protocol block and return its dataset."""
    params = config.system.with_ideal_qubit() if config.ideal_qubit else config.system
    protocol_config = config.protocol_config(node.pump)
    grids = node.grids
    if node.kind == "spectroscopy":
        return run_qubit_spectroscopy(
            params, grids["pump_powers"], grids["probe_freqs"], protocol_config
        )
    if node.kind == "ramsey":
        return run_ramsey(params, node.pump, grids["delays"], protocol_config)
    if node.kind == "ramsey-series":
        return _run_ramsey_series(params, node, config)
    if node.kind == "relaxation":
        return run_relaxation(params, protocol_config, grids.get("delays"))
    if node.kind == "decay-phase":
        return run_decay_phase_sense(
            params,
            node.n0,
            grids["sense_times"],
            grids["second_pulse_phases"],
            protocol_config,
        )
    if node.kind == "decay-spectroscopy":
        return run_decay_spectroscopy(
            params, node.n0, grids["sense_times"], grids["probe_freqs"], protocol_config
        )
    if node.kind == "parametric-scan":
        return run_parametric_decay_scan(
            params, node.pump, grids["deltas"], grids["durations"], protocol_config
        )
    raise ConfigError(f"unknown protocol kind {node.kind!r}")


def _run_ramsey_series(params, node: ProtocolNode, config: ExperimentConfig) -> SweepDataset:
    """Ramsey fringes repeated over a pump-power grid, stacked on one grid.

    Each power gets an independent master seed derived from the run seed, so
    rows are statistically independent while the whole series stays
    reproducible.
    """
    powers = node.grids["pump_powers"]
    delays = node.grids["delays"]
    rows = []
    for k, power in enumerate(powers):
        pump = replace(node.pump, power_w=float(power))
        row = run_ramsey(
            params,
            pump,
            delays,
            config.protocol_config(pump, master_seed=_series_seed(config.seed, k)),
        )
        rows.append(row)
    first = rows[0]
    shots = None
    if first.shots is not None:
        shots = np.stack([row.shots for row in rows])
    warnings = tuple(dict.fromkeys(w for row in rows for w in row.warnings))
    return SweepDataset(
        axes=(Axis("pump_power", "W", powers), first.axes[0]),
        p_e=np.stack([row.p_e for row in rows]),
        stderr=np.stack([row.stderr for row in rows]),
        n_shots=np.stack([row.n_shots for row in rows]),
        shot_duration=first.shot_duration,
        protocol="ramsey-series",
        shots=shots,
        meta={
            "mode": first.meta["mode"],
            "master_seed": config.seed,
            "readout_threshold": first.meta["readout_threshold"],
            "c_pump": node.pump.c_pump,
            "artificial_detuning": first.meta["artificial_detuning"],
        },
        warnings=warnings,
    )


def _fit_status(fits) -> dict:
    """Report keys saying whether every fit behind a report converged."""
    failures = dict.fromkeys(fit.message for fit in fits if not fit.converged)
    return {
        "fit_converged": not failures,
        "fit_message": "; ".join(failures) if failures else "none",
    }


def _coherence_report(datasets: dict, inputs: dict) -> dict:
    ramsey = datasets[inputs["ramsey"]]
    relaxation = datasets[inputs["relaxation"]]
    t1_fit = fit_curve(
        FitModel("exponential-decay"),
        relaxation.axis("delay").values,
        relaxation.p_e,
        y_err=usable_errors(relaxation.stderr),
    )
    ramsey_fit = fit_curve(
        FitModel("damped-sinusoid"),
        ramsey.axis("delay").values,
        ramsey.p_e,
        y_err=usable_errors(ramsey.stderr),
    )
    return {
        "t1_s": t1_fit.parameter("tau"),
        "t1_stderr_s": t1_fit.stderr("tau"),
        "t2_s": ramsey_fit.parameter("tau"),
        "t2_stderr_s": ramsey_fit.stderr("tau"),
        "fringe_frequency_hz": abs(ramsey_fit.parameter("frequency")),
        "fringe_contrast": abs(ramsey_fit.parameter("amplitude")),
        **_fit_status((t1_fit, ramsey_fit)),
    }


def _fit_series_rates(series: SweepDataset) -> tuple[np.ndarray, np.ndarray, list]:
    delays = series.axis("delay").values
    fits = fit_rows(
        FitModel("damped-sinusoid"),
        delays,
        series.p_e,
        [usable_errors(err) for err in series.stderr],
    )
    taus = np.array([fit.parameter("tau") for fit in fits])
    return 1.0 / taus, np.array([fit.stderr("tau") for fit in fits]) / taus**2, fits


def _calibrate(system: SystemParams, datasets: dict, inputs: dict):
    spectroscopy = datasets[inputs["spectroscopy"]]
    series = datasets[inputs["ramsey_series"]]
    spectro_fits = fit_power_spectra(spectroscopy)
    centers = np.array([fit.parameter("center") for _, fit in spectro_fits])
    center_err = np.array([fit.stderr("center") for _, fit in spectro_fits])
    powers = np.array([power for power, _ in spectro_fits])
    stark_slope, stark_err = linear_slope(powers, centers, usable_errors(center_err))
    rates, rate_err, series_fits = _fit_series_rates(series)
    series_powers = series.axis("pump_power").values
    dephasing_slope, dephasing_err = linear_slope(
        series_powers, rates, usable_errors(rate_err)
    )
    calibration = calibrate_magnon_number(
        stark_slope=abs(stark_slope),
        dephasing_slope=abs(dephasing_slope),
        kappa_m=system.kappa_m,
        gamma2_0=system.gamma2_0,
    )
    keys = {
        "chi_qm_rad_per_s": calibration.chi_qm,
        "c_pump_per_w": calibration.c_pump,
        "slope_ratio_rho": calibration.rho,
        "root": calibration.root,
        "stark_slope_rad_per_s_per_w": abs(stark_slope),
        "stark_slope_stderr": abs(stark_err),
        "dephasing_slope_rad_per_s_per_w": abs(dephasing_slope),
        "dephasing_slope_stderr": abs(dephasing_err),
    }
    fits = [fit for _, fit in spectro_fits] + series_fits
    return calibration, spectro_fits, fits, keys


def _calibration_report(system: SystemParams, datasets: dict, inputs: dict) -> dict:
    _, _, fits, keys = _calibrate(system, datasets, inputs)
    return {**keys, **_fit_status(fits)}


def _sensitivity_report(
    system: SystemParams,
    sensing: SensingConfig,
    datasets: dict,
    node,
    out_dir: Path,
    manifest_hash: str,
) -> dict:
    calibration, spectro_fits, fits, keys = _calibrate(system, datasets, node.inputs)
    spectroscopy = datasets[node.inputs["spectroscopy"]]
    profile = fit_noise_profile(spectroscopy, calibration)
    options = node.options
    grid = np.linspace(options["n_min"], options["n_max"], int(options["count"]))
    curve = sensitivity_curve(spectro_fits, profile, calibration, sensing, grid)
    resolved = curve.sensitivity[~curve.unresolvable]
    keys = dict(keys)
    keys.update(
        {
            "snr_threshold": sensing.threshold,
            "tau_s": sensing.tau,
            "n_shots": sensing.n_shots,
            "total_time_s": sensing.total_time,
            "hull_min_magnons": curve.response.hull[0],
            "hull_max_magnons": curve.response.hull[1],
            "noise_amplitude": profile.amplitude,
            "noise_floor": profile.floor,
            "unresolvable_points": int(np.sum(curve.unresolvable)),
            "sensitivity_min": float(np.min(resolved)) if resolved.size else float("nan"),
            "sensitivity_max": float(np.max(resolved)) if resolved.size else float("nan"),
            **_fit_status(fits + list(profile.fits)),
        }
    )
    table = out_dir / "sensitivity.csv"
    _write_table(
        table,
        manifest_hash,
        [
            ("n_m", "magnons", curve.n_grid),
            ("sensitivity", "magnons/sqrt(Hz)", curve.sensitivity),
            ("unresolvable", "flag", curve.unresolvable.astype(int)),
            ("extrapolated", "flag", curve.extrapolated.astype(int)),
        ],
    )
    return keys


def _lifetime_report(datasets: dict, inputs: dict, method: str) -> dict:
    dataset = datasets[inputs["dataset"]]
    estimator = lifetime_from_phase if method == "phase" else lifetime_from_frequency
    estimate = estimator(dataset)
    keys = {
        "method": estimate.method,
        "lifetime_s": estimate.lifetime,
        "uncertainty_s": estimate.uncertainty,
        "flags": ";".join(estimate.flags) if estimate.flags else "none",
    }
    for name in estimate.fit.parameter_names:
        keys[f"fit_{name}"] = estimate.fit.parameter(name)
    return keys


def _parametric_report(datasets: dict, inputs: dict) -> dict:
    estimate = extract_kappa_m_from_scan(datasets[inputs["dataset"]])
    return {
        "kappa_m_rad_per_s": estimate.kappa_m,
        "kappa_m_stderr": estimate.kappa_m_stderr,
        "magnon_lifetime_s": 1.0 / estimate.kappa_m,
        "omega_qm_rad_per_s": estimate.omega_qm,
        "omega_qm_stderr": estimate.omega_qm_stderr,
        "resonant_induced_lifetime_s": estimate.kappa_m / estimate.omega_qm**2,
        "center_rad_per_s": estimate.center,
        "rate_offset_rad_per_s": estimate.rate_offset,
        "flags": ";".join(estimate.flags) if estimate.flags else "none",
    }


def _subsample_table(
    dataset: SweepDataset,
    method: str,
    budget: float,
    count: int,
    path: Path,
    manifest_hash: str,
) -> dict:
    """Per-subset lifetime fits under a repeated time-budget draw.

    The draws are fit together, one batch per fit stage.
    """
    estimator = phase_lifetimes if method == "phase" else frequency_lifetimes
    p_e = np.empty((count,) + dataset.grid_shape)
    stderr = np.empty_like(p_e)
    for k in range(count):
        subset = subsample_time_budget(dataset, budget, seed=k)
        p_e[k], stderr[k] = subset.p_e, subset.stderr
        # keep one draw's kept shots alive at a time
        del subset
    estimates = estimator(dataset, p_e, stderr)
    lifetimes = np.array([estimate.lifetime for estimate in estimates])
    uncertainties = np.array([estimate.uncertainty for estimate in estimates])
    _write_table(
        path,
        manifest_hash,
        [
            ("subset", "index", np.arange(count)),
            ("lifetime", "s", lifetimes),
            ("uncertainty", "s", uncertainties),
        ],
    )
    return {
        "subsample_budget_s": budget,
        "subsample_count": count,
        "subsample_lifetime_mean_s": float(np.mean(lifetimes)),
        "subsample_lifetime_std_s": float(np.std(lifetimes, ddof=1)),
    }


def run_analyses(
    analyses: tuple,
    datasets: dict,
    out_dir: Path,
    manifest_hash: str,
    system: SystemParams | None = None,
    sensing: SensingConfig | None = None,
    only: str | None = None,
    subsample: tuple | None = None,
) -> dict:
    """Run analysis nodes, writing one report file per analysis.

    Calibration and sensitivity read the device's ``system`` parameters, and
    sensitivity its ``sensing`` budget; the other analyses read only their
    datasets.
    """
    reports = {}
    for node in analyses:
        if only is not None and node.kind != only:
            continue
        if node.kind == "coherence":
            keys = _coherence_report(datasets, node.inputs)
        elif node.kind == "calibration":
            keys = _calibration_report(system, datasets, node.inputs)
        elif node.kind == "sensitivity":
            keys = _sensitivity_report(system, sensing, datasets, node, out_dir, manifest_hash)
        elif node.kind == "lifetime-phase":
            keys = _lifetime_report(datasets, node.inputs, "phase")
        elif node.kind == "lifetime-frequency":
            keys = _lifetime_report(datasets, node.inputs, "frequency")
        elif node.kind == "parametric":
            keys = _parametric_report(datasets, node.inputs)
        else:
            raise ConfigError(f"unknown analysis kind {node.kind!r}")
        if subsample is not None and node.kind in ("lifetime-phase", "lifetime-frequency"):
            budget, count = subsample
            method = "phase" if node.kind == "lifetime-phase" else "frequency"
            table_path = out_dir / f"{node.kind}-subsample.csv"
            keys.update(
                _subsample_table(
                    datasets[node.inputs["dataset"]],
                    method,
                    budget,
                    count,
                    table_path,
                    manifest_hash,
                )
            )
        path = out_dir / f"{node.kind}.txt"
        _write_report(path, manifest_hash, keys)
        reports[node.kind] = path
    return reports


def _write_report(path: Path, manifest_hash: str, keys: dict) -> None:
    lines = [f"# manifest_sha256: {manifest_hash}"]
    for key, value in keys.items():
        if isinstance(value, float):
            lines.append(f"{key}: {value!r}")
        else:
            lines.append(f"{key}: {value}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_table(path: Path, manifest_hash: str, columns: list) -> None:
    header = ",".join(f"{name} ({unit})" for name, unit, _ in columns)
    lines = [f"# manifest_sha256: {manifest_hash}", header]
    length = len(columns[0][2])
    for k in range(length):
        lines.append(
            ",".join(
                str(int(values[k]))
                if np.issubdtype(np.asarray(values).dtype, np.integer)
                else repr(float(values[k]))
                for _, _, values in columns
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _atomic_write(path: Path, text: str) -> None:
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(text, encoding="utf-8")
    temp.replace(path)


def read_report(path) -> dict:
    """Parse a key-value report file back into a dict of strings."""
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        values[key.strip()] = value.strip()
    return values


def run_experiment(
    config: ExperimentConfig, output: Path, force: bool = False
) -> RunArtifact:
    """Execute all protocol blocks and analyses into ``output``.

    The artifact is staged in ``<output>.partial`` and renamed into place
    after the manifest is written, so a crash mid-run cannot leave a
    directory that looks complete.
    """
    config.system.dispersive_guard()
    output = Path(output)
    if output.exists() and not force:
        raise ConfigError(f"output directory {output} already exists (use force)")
    staging = output.with_name(output.name + ".partial")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    manifest_hash = config.manifest_hash
    datasets = {}
    dataset_paths = {}
    for node in config.protocols:
        dataset = execute_protocol(node, config).with_manifest(manifest_hash)
        path = staging / f"{node.name}.csv"
        write_dataset(dataset, path)
        datasets[node.name] = dataset
        dataset_paths[node.name] = path
    reports = run_analyses(
        config.analyses,
        datasets,
        staging,
        manifest_hash,
        system=config.system,
        sensing=config.sensing,
    )
    manifest = {
        "version": __version__,
        "name": config.name,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "hash": manifest_hash,
        "config": config.resolved,
    }
    (staging / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if output.exists():
        shutil.rmtree(output)
    staging.rename(output)
    return RunArtifact(
        path=output,
        manifest=manifest,
        datasets={k: output / p.name for k, p in dataset_paths.items()},
        reports={k: output / p.name for k, p in reports.items()},
    )


def load_artifact(path) -> tuple[dict, ExperimentConfig, dict]:
    """Load a run artifact's manifest, config, and datasets from disk.

    Each dataset must carry the manifest's hash, and each axis the grid the
    manifest records for it.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise SchemaError(f"{path} is not a run artifact (no {MANIFEST_NAME})")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{manifest_path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SchemaError(f"{manifest_path}: expected a JSON object")
    if not isinstance(manifest.get("hash"), str):
        raise SchemaError(f"{manifest_path}: 'hash' must be a string")
    if not isinstance(manifest.get("config"), dict):
        raise SchemaError(f"{manifest_path}: 'config' must be a mapping")
    if resolved_hash(manifest["config"]) != manifest["hash"]:
        raise SchemaError(f"{manifest_path}: hash does not match the resolved config")
    config = from_resolved(manifest["config"], source=f"{manifest_path}: config")
    datasets = {}
    for k, node in enumerate(config.protocols):
        dataset_path = path / f"{node.name}.csv"
        if not dataset_path.exists():
            raise SchemaError(f"artifact is missing dataset {dataset_path.name}")
        dataset = read_dataset(dataset_path)
        if dataset.manifest_hash != manifest["hash"]:
            raise SchemaError(
                f"{dataset_path.name}: embedded manifest hash does not match"
            )
        axes = {axis.name: axis.values for axis in dataset.axes}
        # a grid left out of the manifest (the relaxation default) is not checked
        for key, grid in node.grids.items():
            axis = _GRID_AXES[key]
            if axis not in axes or not np.array_equal(axes[axis], grid):
                raise SchemaError(
                    f"{manifest_path}: config.protocols[{k}].grids.{key} does not "
                    f"match axis {axis!r} of {dataset_path.name}"
                )
        datasets[node.name] = dataset
    return manifest, config, datasets
