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
from .config import (
    ANALYSES,
    MAX_SHOT_BUFFER_BYTES,
    ExperimentConfig,
    ProtocolNode,
    from_resolved,
    resolved_hash,
)
from .errors import ConfigError, MagsenseError, SchemaError
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
    GRIDS,
    dataset_meta,
    grid_axes,
    relaxation_delays,
    require_protocol,
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
# subsample_time_budget is not called here; the benchmark's tracer wraps it
# under this name (perfbench/layers.py, Tracer.install), so the name stays bound
from .subsample import subsample_draws, subsample_time_budget  # noqa: F401
from .sweep import SweepDataset, read_dataset, write_dataset

MANIFEST_NAME = "manifest.json"

# Peak memory of a subsample report per stacked draw: bytes per grid point
# plus bytes per fit row. Slopes of tracemalloc peaks at 20, 80 and 320 draws
# gave 64 B a point and 978 B a row on 41 x 4 and 41 x 25 decay-phase
# artifacts, and 213 B a point and 1895 B a row on 21 x 81 and 41 x 11
# decay-spectroscopy ones; each constant is the larger of its kind (numpy
# 2.4, Python 3.11).
SUBSAMPLE_BYTES_PER_POINT = 214
SUBSAMPLE_BYTES_PER_ROW = 1896


@dataclass(frozen=True)
class RunArtifact:
    """A completed run directory: manifest plus dataset and report files."""

    path: Path
    datasets: dict
    reports: dict


def _series_seed(master_seed: int, index: int) -> int:
    """Independent per-series master seed, stable across runs."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1)[0])


def _protocol_params(config: ExperimentConfig) -> SystemParams:
    """The device parameters the protocols run with."""
    return config.system.with_ideal_qubit() if config.ideal_qubit else config.system


def execute_protocol(node: ProtocolNode, config: ExperimentConfig) -> SweepDataset:
    """Run one protocol block and return its dataset."""
    params = _protocol_params(config)
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
    reproducible. Kept shots are copied into the series' stack as each row
    is sampled, so no row holds its own past the copy.
    """
    powers = node.grids["pump_powers"]
    delays = node.grids["delays"]
    rows = []
    shots = None
    for k, power in enumerate(powers):
        pump = replace(node.pump, power_w=float(power))
        row = run_ramsey(
            params,
            pump,
            delays,
            config.protocol_config(pump, master_seed=_series_seed(config.seed, k)),
        )
        if row.shots is not None:
            if shots is None:
                shots = np.empty((len(powers),) + row.shots.shape, dtype=row.shots.dtype)
            shots[k] = row.shots
            row = replace(row, shots=None)
        rows.append(row)
    first = rows[0]
    warnings = tuple(dict.fromkeys(w for row in rows for w in row.warnings))
    return SweepDataset(
        axes=grid_axes("ramsey-series", (powers, delays)),
        p_e=np.stack([row.p_e for row in rows]),
        stderr=np.stack([row.stderr for row in rows]),
        n_shots=np.stack([row.n_shots for row in rows]),
        shot_duration=first.shot_duration,
        protocol="ramsey-series",
        shots=shots,
        meta=dataset_meta(
            config.protocol_config(node.pump),
            {
                "c_pump": node.pump.c_pump,
                "artificial_detuning": first.meta["artificial_detuning"],
            },
        ),
        warnings=warnings,
    )


def _fit_status(fits) -> dict:
    """Report keys saying whether every fit behind a report converged."""
    failures = dict.fromkeys(fit.message for fit in fits if not fit.converged)
    return {
        "fit_converged": not failures,
        "fit_message": "; ".join(failures) if failures else "none",
    }


# A report builder maps (node, datasets, system, sensing, subsample) to (keys,
# fits, {table file name: columns}). It calls its estimators by their names in
# this module, looked up at each call, so a wrapper bound there sees each call.


def _coherence_report(node, datasets, system, sensing, subsample):
    ramsey = datasets[node.inputs["ramsey"]]
    relaxation = datasets[node.inputs["relaxation"]]
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
    }, (t1_fit, ramsey_fit), {}


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


def _calibration_report(node, datasets, system, sensing, subsample):
    _, _, fits, keys = _calibrate(system, datasets, node.inputs)
    return keys, fits, {}


def _sensitivity_report(node, datasets, system, sensing, subsample):
    calibration, spectro_fits, fits, keys = _calibrate(system, datasets, node.inputs)
    spectroscopy = datasets[node.inputs["spectroscopy"]]
    profile = fit_noise_profile(spectroscopy, calibration)
    options = node.options
    grid = np.linspace(options["n_min"], options["n_max"], int(options["count"]))
    curve = sensitivity_curve(spectro_fits, profile, calibration, sensing, grid)
    resolved = curve.sensitivity[~curve.unresolvable]
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
        }
    )
    table = [
        ("n_m", "magnons", curve.n_grid),
        ("sensitivity", "magnons/sqrt(Hz)", curve.sensitivity),
        ("unresolvable", "flag", curve.unresolvable.astype(int)),
        ("extrapolated", "flag", curve.extrapolated.astype(int)),
    ]
    return keys, fits + list(profile.fits), {"sensitivity.csv": table}


def _lifetime_keys(estimate) -> dict:
    """The report keys of one lifetime estimate."""
    keys = {
        "method": estimate.method,
        "lifetime_s": estimate.lifetime,
        "uncertainty_s": estimate.uncertainty,
        "flags": ";".join(estimate.flags) if estimate.flags else "none",
    }
    for name in estimate.fit.parameter_names:
        keys[f"fit_{name}"] = estimate.fit.parameter(name)
    return keys


def _check_subsample_count(dataset: SweepDataset, count: int) -> None:
    """Reject a draw count whose estimates would overflow the buffer.

    A report of ``count`` draws holds ``count + 1`` stacked draws, each
    taking SUBSAMPLE_BYTES_PER_POINT bytes for every grid point and
    SUBSAMPLE_BYTES_PER_ROW for every row of the grid's last axis.
    """
    rows = dataset.p_e.size // dataset.grid_shape[-1]
    per_draw = SUBSAMPLE_BYTES_PER_POINT * dataset.p_e.size + SUBSAMPLE_BYTES_PER_ROW * rows
    max_count = MAX_SHOT_BUFFER_BYTES // per_draw - 1
    if count > max_count:
        raise ConfigError(
            f"--subsample-count {count} needs {(count + 1) * per_draw} bytes of draws "
            f"and fits on a {dataset.p_e.size}-point grid of {rows} rows; at most {max_count} "
            f"draws fit the {MAX_SHOT_BUFFER_BYTES}-byte buffer"
        )


def _lifetime_report(node, datasets, subsample, estimate, stack):
    """A lifetime report from ``estimate``, or from ``stack`` with a subsample.

    With a subsample request, the recorded ``p_e`` and ``stderr`` are draw 0
    of one stack and the time-budget draws 1..count, all fit in one ``stack``
    call. Estimate 0 gives the keys the report writes without a request, and
    the draws' estimates the subsample table.
    """
    dataset = datasets[node.inputs["dataset"]]
    if subsample is None:
        full = estimate(dataset)
        return _lifetime_keys(full), full.fits, {}
    budget, count = subsample
    protocol, _ = ANALYSES[node.kind]["dataset"]
    # the kind check comes before the draw, so a wrong-kind dataset is
    # reported as such and not as one the draw cannot use
    require_protocol(dataset, protocol)
    _check_subsample_count(dataset, count)
    p_e = np.empty((count + 1,) + dataset.grid_shape)
    stderr = np.empty_like(p_e)
    p_e[0], stderr[0] = dataset.p_e, dataset.stderr
    p_e[1:], stderr[1:] = subsample_draws(dataset, budget, range(count))
    full, *draws = stack(dataset, p_e, stderr)
    lifetimes = np.array([draw.lifetime for draw in draws])
    keys = {
        **_lifetime_keys(full),
        "subsample_budget_s": budget,
        "subsample_count": count,
        "subsample_lifetime_mean_s": float(np.mean(lifetimes)),
        "subsample_lifetime_std_s": float(np.std(lifetimes, ddof=1)),
    }
    table = [
        ("subset", "index", np.arange(count)),
        ("lifetime", "s", lifetimes),
        ("uncertainty", "s", np.array([draw.uncertainty for draw in draws])),
    ]
    return keys, full.fits, {f"{node.kind}-subsample.csv": table}


def _phase_lifetime_report(node, datasets, system, sensing, subsample):
    return _lifetime_report(node, datasets, subsample, lifetime_from_phase, phase_lifetimes)


def _frequency_lifetime_report(node, datasets, system, sensing, subsample):
    return _lifetime_report(
        node, datasets, subsample, lifetime_from_frequency, frequency_lifetimes
    )


def _parametric_report(node, datasets, system, sensing, subsample):
    estimate = extract_kappa_m_from_scan(datasets[node.inputs["dataset"]])
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
    }, estimate.fits, {}


# analysis kind -> its report builder, for each kind of config.ANALYSES; the
# kinds of _SUBSAMPLED fit a subsample request's draws
REPORTS = {
    "coherence": _coherence_report,
    "calibration": _calibration_report,
    "sensitivity": _sensitivity_report,
    "lifetime-phase": _phase_lifetime_report,
    "lifetime-frequency": _frequency_lifetime_report,
    "parametric": _parametric_report,
}
_SUBSAMPLED = ("lifetime-phase", "lifetime-frequency")


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
    """Run analysis nodes, writing their tables and then one report each.

    Calibration and sensitivity read the device's ``system`` parameters, and
    sensitivity its ``sensing`` budget; the other analyses read only their
    datasets. Every report ends in the same fit-status keys. A
    ``MagsenseError`` raised inside an analysis is raised again, as the same
    type, with the analysis's index, kind and inputs in front, and no file
    is written; so is a ``subsample`` request that no analysis run can use.
    """
    runs = [(k, node) for k, node in enumerate(analyses) if only in (None, node.kind)]
    if subsample is not None and runs and not any(n.kind in _SUBSAMPLED for _, n in runs):
        raise ConfigError("--subsample-budget applies only to a lifetime analysis")
    built = {}
    for k, node in runs:
        try:
            built[node.kind] = REPORTS[node.kind](node, datasets, system, sensing, subsample)
        except MagsenseError as exc:
            inputs = ", ".join(f"{key}={name}" for key, name in node.inputs.items())
            raise type(exc)(f"analyses[{k}] ({node.kind}), inputs {inputs}: {exc}") from exc
    for _, _, tables in built.values():
        for name, columns in tables.items():
            _write_table(out_dir / name, manifest_hash, columns)
    reports = {}
    for kind, (keys, fits, _) in built.items():
        reports[kind] = out_dir / f"{kind}.txt"
        _write_report(reports[kind], manifest_hash, {**keys, **_fit_status(fits)})
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
    cells = []
    for _, _, values in columns:
        values = np.asarray(values)
        if np.issubdtype(values.dtype, np.integer):
            cells.append([str(int(v)) for v in values.tolist()])
        else:
            cells.append([repr(float(v)) for v in values.tolist()])
    lines = [f"# manifest_sha256: {manifest_hash}", header]
    lines += [",".join(row) for row in zip(*cells)]
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
        # the analyses read no shots: once in their sidecar, a protocol's
        # shots are not held while the next protocol samples its own
        datasets[node.name] = replace(dataset, shots=None)
        del dataset
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
        datasets={k: output / p.name for k, p in dataset_paths.items()},
        reports={k: output / p.name for k, p in reports.items()},
    )


def load_artifact(path) -> tuple[dict, ExperimentConfig, dict]:
    """Load a run artifact's manifest, config, and datasets from disk.

    Each dataset must carry the manifest's hash, and each axis the grid the
    manifest records for it; relaxation's default delays, which the manifest
    leaves out, are derived from the recorded system.
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
        grids = dict(node.grids)
        if node.kind == "relaxation" and "delays" not in grids:
            try:
                grids["delays"] = relaxation_delays(_protocol_params(config))
            except ValueError as exc:
                raise SchemaError(
                    f"{manifest_path}: config.protocols[{k}].grids.delays: {exc}"
                ) from exc
        for key, grid in grids.items():
            axis = GRIDS[key][0]
            if axis not in axes or not np.array_equal(axes[axis], grid):
                source = "" if key in node.grids else " (default, from config.system.t1)"
                raise SchemaError(
                    f"{manifest_path}: config.protocols[{k}].grids.{key}{source} does "
                    f"not match axis {axis!r} of {dataset_path.name}"
                )
        datasets[node.name] = dataset
    return manifest, config, datasets
