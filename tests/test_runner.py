"""Artifact-level tests: shots regenerated from a manifest, fit status keys."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import removed_field_edits, rewrite_manifest, traced_peak

from magsense import fitting
from magsense.config import AnalysisNode, load_config
from magsense.errors import DegenerateDataError, EstimationError, MagsenseError
from magsense.lifetimes import lifetime_from_frequency, lifetime_from_phase
from magsense.protocols import run_ramsey
from magsense.runner import (
    _fit_status,
    _protocol_params,
    _series_seed,
    _subsample_table,
    execute_protocol,
    load_artifact,
    read_report,
    run_analyses,
    run_experiment,
)
from magsense.subsample import subsample_time_budget
from magsense.sweep import Axis

SHOTS_YAML = """\
name: regenerate-shots
seed: 29
acquisition:
  n_shots: 120
  keep_shots: true
  artificial_detuning: 4 MHz
protocols:
  - kind: decay-phase
    n0: 650
    sense_times: {start: 0 ns, stop: 240 ns, count: 7}
    second_pulse_phases: {start: 0 rad, stop: 6.2832 rad, count: 9}
  - kind: decay-spectroscopy
    n0: 650
    sense_times: {start: 0 ns, stop: 240 ns, count: 5}
    probe_freqs: {around: omega_q, start: -48 MHz, stop: 4 MHz, count: 11}
  - kind: ramsey-series
    pump:
      c_pump: 2.3e9 1/W
    pump_powers: {start: 0 W, stop: 17.4 nW, count: 3}
    delays: {start: 0 us, stop: 3 us, count: 13}
  - kind: relaxation
"""

DECAY_YAML = """\
name: subsample-fits
seed: 41
acquisition:
  n_shots: 200
  keep_shots: true
  artificial_detuning: 4 MHz
protocols:
  - kind: decay-phase
    n0: 650
    sense_times: {start: 0 ns, stop: 240 ns, count: 9}
    second_pulse_phases: {start: 0 rad, stop: 6.2832 rad, count: 13}
  - kind: decay-spectroscopy
    n0: 650
    sense_times: {start: 0 ns, stop: 240 ns, count: 7}
    probe_freqs: {around: omega_q, start: -48 MHz, stop: 4 MHz, count: 27}
"""

FITS_YAML = """\
name: fit-status
seed: 17
acquisition:
  n_shots: 300
  artificial_detuning: 4 MHz
sensing:
  tau: 32 us
  n_shots: 1000
  threshold: 0.18
protocols:
  - kind: spectroscopy
    pump:
      c_pump: 2.3e9 1/W
    pump_powers: {start: 0 W, stop: 1 uW, count: 5}
    probe_freqs: {around: omega_q, start: -165 MHz, stop: 10 MHz, count: 71}
  - kind: ramsey-series
    pump:
      c_pump: 2.3e9 1/W
    pump_powers: {start: 0 W, stop: 17.4 nW, count: 5}
    delays: {start: 0 us, stop: 3 us, count: 41}
  - kind: ramsey
    delays: {start: 0 us, stop: 8 us, count: 81}
  - kind: relaxation
analyses:
  - kind: coherence
  - kind: calibration
  - kind: sensitivity
    n_min: 0
    n_max: 2000
    count: 21
"""


def _run(tmp_path, text):
    source = tmp_path / "config.yaml"
    source.write_text(text, encoding="utf-8")
    return run_experiment(load_config(source), tmp_path / "artifact")


def test_recorded_shots_regenerate_from_the_manifest(tmp_path):
    # the point_seed contract: a protocol re-run from the manifest's resolved
    # config draws every recorded shot again, bit for bit, also from a
    # manifest that still records removed fields, added one at a time
    artifact = _run(tmp_path, SHOTS_YAML)
    for label, edit in [("as written", None)] + removed_field_edits():
        if edit is not None:
            old_hash, new_hash = rewrite_manifest(artifact.path, edit)
            assert old_hash != new_hash, label
        manifest, config, datasets = load_artifact(artifact.path)
        assert manifest["hash"] == config.manifest_hash
        for node in config.protocols:
            recorded = datasets[node.name]
            regenerated = execute_protocol(node, config)
            with np.load(artifact.path / f"{node.name}_shots.npz") as payload:
                recorded_shots = payload["shots"]
            assert regenerated.shots.dtype == recorded_shots.dtype
            assert np.array_equal(regenerated.shots, recorded_shots)
            threshold = recorded.meta["readout_threshold"]
            clicks = np.count_nonzero(regenerated.shots > threshold, axis=-1)
            assert np.array_equal(recorded.clicks, clicks)
            assert np.array_equal(regenerated.p_e, recorded.p_e)
            assert np.array_equal(regenerated.stderr, recorded.stderr)


LIFETIME_NODES = (
    AnalysisNode("lifetime-phase", {"dataset": "decay-phase"}),
    AnalysisNode("lifetime-frequency", {"dataset": "decay-spectroscopy"}),
)


def _keep_60_of_200(dataset):
    return 60 * dataset.p_e.size * dataset.shot_duration


def test_subsample_table_matches_per_draw_estimates(tmp_path):
    artifact = _run(tmp_path, DECAY_YAML)
    manifest, _, datasets = load_artifact(artifact.path)
    cases = [
        ("lifetime-phase", datasets["decay-phase"], lifetime_from_phase),
        ("lifetime-frequency", datasets["decay-spectroscopy"], lifetime_from_frequency),
    ]
    count = 6
    for kind, dataset, estimator in cases:
        budget = _keep_60_of_200(dataset)
        table = tmp_path / f"{kind}-subsample.csv"
        keys = _subsample_table(dataset, kind, budget, count, table, manifest["hash"])
        rows = np.loadtxt(table, delimiter=",", comments="#", skiprows=2, ndmin=2)
        loop = [estimator(subsample_time_budget(dataset, budget, seed=k)) for k in range(count)]
        assert rows[:, 0].tolist() == list(range(count))
        assert rows[:, 1].tolist() == [e.lifetime for e in loop]
        assert rows[:, 2].tolist() == [e.uncertainty for e in loop]
        assert keys["lifetime_s"] == estimator(dataset).lifetime
        assert keys["subsample_lifetime_mean_s"] == np.mean(rows[:, 1])
        assert len(set(rows[:, 1])) == count


def test_subsample_request_keeps_the_lifetime_report_keys(tmp_path):
    artifact = _run(tmp_path, DECAY_YAML)
    manifest, _, datasets = load_artifact(artifact.path)
    plain, drawn = tmp_path / "plain", tmp_path / "drawn"
    plain.mkdir()
    drawn.mkdir()
    for node in LIFETIME_NODES:
        subsample = (_keep_60_of_200(datasets[node.inputs["dataset"]]), 4)
        run_analyses((node,), datasets, plain, manifest["hash"])
        run_analyses((node,), datasets, drawn, manifest["hash"], subsample=subsample)
        lines = (drawn / f"{node.kind}.txt").read_bytes().splitlines(keepends=True)
        report = [line for line in lines if not line.startswith(b"subsample_")]
        assert len(lines) - len(report) == 4
        assert b"".join(report) == (plain / f"{node.kind}.txt").read_bytes()


def _analysis_error(node, datasets, out_dir, subsample=None):
    with pytest.raises(MagsenseError) as info:
        run_analyses((node,), datasets, out_dir, "0" * 64, subsample=subsample)
    return type(info.value), str(info.value)


def test_a_subsample_request_keeps_the_error_of_a_failing_analysis(tmp_path):
    artifact = _run(tmp_path, DECAY_YAML)
    _, _, datasets = load_artifact(artifact.path)
    node = LIFETIME_NODES[0]
    dataset = datasets["decay-phase"]
    subsample = (_keep_60_of_200(dataset), 3)
    no_shots = {"decay-phase": replace(dataset, clicks=None)}
    assert _analysis_error(node, no_shots, tmp_path, subsample) == (
        EstimationError,
        "analyses[0] (lifetime-phase), inputs dataset=decay-phase: "
        "time-budget subsampling needs retained raw shots",
    )
    p_e = dataset.p_e.copy()
    p_e[2, 4] = np.nan
    five_times = (Axis("sense_time", "s", dataset.axes[0].values[:5]), dataset.axes[1])
    failing = [
        (replace(dataset, p_e=p_e), DegenerateDataError),
        (
            replace(
                dataset,
                axes=five_times,
                p_e=dataset.p_e[:5],
                stderr=dataset.stderr[:5],
                n_shots=dataset.n_shots[:5],
                clicks=dataset.clicks[:5],
            ),
            EstimationError,
        ),
    ]
    for broken, error in failing:
        expected = _analysis_error(node, {"decay-phase": broken}, tmp_path)
        assert expected[0] is error
        assert _analysis_error(node, {"decay-phase": broken}, tmp_path, subsample) == expected


def test_a_subsample_request_checks_the_dataset_kind_before_the_draw(tmp_path):
    artifact = _run(tmp_path, DECAY_YAML)
    _, _, datasets = load_artifact(artifact.path)
    dataset = datasets["decay-spectroscopy"]
    node = AnalysisNode("lifetime-phase", {"dataset": "decay-spectroscopy"})
    no_shots = {"decay-spectroscopy": replace(dataset, clicks=None)}
    expected = (
        EstimationError,
        "analyses[0] (lifetime-phase), inputs dataset=decay-spectroscopy: "
        "expected a decay-phase dataset, got 'decay-spectroscopy'",
    )
    assert _analysis_error(node, no_shots, tmp_path) == expected
    subsample = (_keep_60_of_200(dataset), 3)
    assert _analysis_error(node, no_shots, tmp_path, subsample) == expected


def test_fit_status_names_each_failing_message_once():
    fits = [
        SimpleNamespace(converged=True, message="stalled: no damped step reduces the residual"),
        SimpleNamespace(converged=False, message="no convergence within 6 iterations"),
        SimpleNamespace(converged=False, message="non-finite model derivatives"),
        SimpleNamespace(converged=False, message="no convergence within 6 iterations"),
    ]
    assert _fit_status(fits) == {
        "fit_converged": False,
        "fit_message": "no convergence within 6 iterations; non-finite model derivatives",
    }
    assert _fit_status(fits[:1]) == {"fit_converged": True, "fit_message": "none"}


def test_reports_say_when_a_fit_did_not_converge(tmp_path, monkeypatch):
    artifact = _run(tmp_path, FITS_YAML)
    kinds = ("coherence", "calibration", "sensitivity")
    for kind in kinds:
        report = read_report(artifact.reports[kind])
        assert (report["fit_converged"], report["fit_message"]) == ("True", "none")
    manifest, config, datasets = load_artifact(artifact.path)
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    stalled = tmp_path / "stalled"
    stalled.mkdir()
    reports = run_analyses(
        config.analyses,
        datasets,
        stalled,
        manifest["hash"],
        system=config.system,
        sensing=config.sensing,
    )
    for kind in kinds:
        report = read_report(reports[kind])
        assert report["fit_converged"] == "False"
        assert report["fit_message"] == "no convergence within 1 iterations"


SERIES_SHOTS_YAML = """\
name: series-shots
seed: 23
acquisition:
  n_shots: 1200
  keep_shots: true
  artificial_detuning: 4 MHz
protocols:
  - kind: ramsey-series
    pump:
      c_pump: 2.3e9 1/W
    pump_powers: {start: 0 W, stop: 17.4 nW, count: 8}
    delays: {start: 0 us, stop: 3 us, count: 150}
"""


def test_ramsey_series_holds_one_copy_of_its_kept_shots(tmp_path):
    source = tmp_path / "config.yaml"
    source.write_text(SERIES_SHOTS_YAML, encoding="utf-8")
    config = load_config(source)
    node = config.protocols[0]
    series = []
    peak = traced_peak(lambda: series.append(execute_protocol(node, config)))
    shots = series[0].shots
    # stacking rows that still hold their shots would peak at twice the stack
    assert peak < 1.5 * shots.nbytes
    powers = node.grids["pump_powers"]
    assert shots.shape == (len(powers), len(node.grids["delays"]), 1200)
    for k, power in enumerate(powers):
        pump = replace(node.pump, power_w=float(power))
        row = run_ramsey(
            _protocol_params(config),
            pump,
            node.grids["delays"],
            config.protocol_config(pump, master_seed=_series_seed(config.seed, k)),
        )
        assert np.array_equal(shots[k], row.shots)


# decay-tracking at the benchmark's smoke grids, with its 800 kept shots
SMOKE_DECAY_YAML = """\
name: smoke-decay-tracking
seed: 51
acquisition:
  n_shots: 800
  keep_shots: true
  probe_duration: 8 ns
protocols:
  - kind: decay-phase
    n0: 650
    sense_times: {start: 0 ns, stop: 240 ns, count: 13}
    second_pulse_phases: {start: 0 rad, stop: 6.283185307179586 rad, count: 25}
  - kind: decay-spectroscopy
    n0: 650
    sense_times: {start: 0 ns, stop: 240 ns, count: 9}
    probe_freqs: {around: omega_q, start: -48 MHz, stop: 4 MHz, count: 27}
analyses:
  - kind: lifetime-phase
  - kind: lifetime-frequency
"""


def _sidecar_shot_bytes(artifact) -> list:
    """The bytes of shots each sidecar of ``artifact`` holds."""
    sizes = []
    for sidecar in sorted(artifact.glob("*_shots.npz")):
        with np.load(sidecar) as payload:
            sizes.append(payload["shots"].nbytes)
    return sizes


def test_a_run_holds_one_protocols_kept_shots_at_a_time(tmp_path):
    source = tmp_path / "config.yaml"
    source.write_text(SMOKE_DECAY_YAML, encoding="utf-8")
    config = load_config(source)
    peak = traced_peak(lambda: run_experiment(config, tmp_path / "artifact"))
    shot_bytes = _sidecar_shot_bytes(tmp_path / "artifact")
    assert len(shot_bytes) == 2
    # holding the first protocol's shots while the second samples its own
    # would peak above both
    assert peak < sum(shot_bytes)


@pytest.fixture(scope="module")
def smoke_decay_artifact(tmp_path_factory):
    work = tmp_path_factory.mktemp("smoke-decay")
    source = work / "config.yaml"
    source.write_text(SMOKE_DECAY_YAML, encoding="utf-8")
    return run_experiment(load_config(source), work / "artifact").path


def test_loading_an_artifact_holds_no_sidecars_shots(smoke_decay_artifact):
    loaded = []
    peak = traced_peak(lambda: loaded.append(load_artifact(smoke_decay_artifact)))
    # the sidecars are checked a block at a time, not held
    assert peak < sum(_sidecar_shot_bytes(smoke_decay_artifact)) / 8
    _, _, datasets = loaded[0]
    assert all(dataset.clicks is not None for dataset in datasets.values())


def test_a_subsample_report_holds_no_sidecars_shots(smoke_decay_artifact, tmp_path):
    def report():
        manifest, config, datasets = load_artifact(smoke_decay_artifact)
        # the stacked fits grow with the draw count, and not with the shots;
        # two draws keep them under the bound, so the shots are what it tests
        reports = run_analyses(
            config.analyses, datasets, tmp_path, manifest["hash"], subsample=(1.0, 2)
        )
        assert set(reports) == {"lifetime-phase", "lifetime-frequency"}

    peak = traced_peak(report)
    assert (tmp_path / "lifetime-phase-subsample.csv").exists()
    assert peak < sum(_sidecar_shot_bytes(smoke_decay_artifact)) / 8
