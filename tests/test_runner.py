"""Artifact-level tests: shots regenerated from a manifest, fit status keys."""

import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import removed_field_edits, rewrite_manifest, traced_peak

from magsense import fitting, runner
from magsense.config import ANALYSES, AnalysisNode, load_config
from magsense.errors import DegenerateDataError, EstimationError, MagsenseError
from magsense.lifetimes import (
    frequency_lifetimes,
    lifetime_from_frequency,
    lifetime_from_phase,
    phase_lifetimes,
)
from magsense.protocols import run_ramsey
from magsense.readout import SHOT_DTYPE, sample_readout
from magsense.runner import (
    REPORTS,
    _fit_status,
    execute_protocol,
    load_artifact,
    read_report,
    run_analyses,
    run_experiment,
)
from magsense.subsample import subsample_draws, subsample_time_budget
from magsense.sweep import Axis, point_seed

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

# The spectroscopy probe grid steps 1 MHz, the width of the narrowest line
# (the probe's own at zero pump power). At a 2.5 MHz step that line covers
# one or two points, and its Gaussian fit can trade amplitude for width
# along a flat valley without converging.
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
    probe_freqs: {around: omega_q, start: -165 MHz, stop: 10 MHz, count: 176}
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
            assert recorded_shots.dtype == regenerated.shots.dtype == SHOT_DTYPE
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


def test_subsample_table_matches_per_draw_estimates(tmp_path, monkeypatch):
    artifact = _run(tmp_path, DECAY_YAML)
    manifest, _, datasets = load_artifact(artifact.path)
    estimators = (lifetime_from_phase, lifetime_from_frequency)
    count = 6
    # the default chunk fits every estimate in one stack; chunks of 4 cross
    # a boundary, with estimate 0 and draws 0-2 first, then draws 3-5
    for chunk, (node, estimator) in itertools.product(
        (runner.SUBSAMPLE_CHUNK, 4), zip(LIFETIME_NODES, estimators)
    ):
        monkeypatch.setattr(runner, "SUBSAMPLE_CHUNK", chunk)
        dataset = datasets[node.inputs["dataset"]]
        budget = _keep_60_of_200(dataset)
        reports = run_analyses(
            (node,), datasets, tmp_path, manifest["hash"], subsample=(budget, count)
        )
        keys = read_report(reports[node.kind])
        table = tmp_path / f"{node.kind}-subsample.csv"
        rows = np.loadtxt(table, delimiter=",", comments="#", skiprows=2, ndmin=2)
        loop = [estimator(subsample_time_budget(dataset, budget, seed=k)) for k in range(count)]
        assert rows[:, 0].tolist() == list(range(count))
        assert rows[:, 1].tolist() == [e.lifetime for e in loop]
        assert rows[:, 2].tolist() == [e.uncertainty for e in loop]
        assert float(keys["lifetime_s"]) == estimator(dataset).lifetime
        assert float(keys["subsample_lifetime_mean_s"]) == np.mean(rows[:, 1])
        assert len(set(rows[:, 1])) == count


def test_a_frequency_stack_fits_in_a_fixed_number_of_row_grids(tmp_path):
    # a report's chunk of draws: 448 spectroscopy rows of 27 points. The
    # estimates' own fits (rss traces and covariances) hold about 16 grids;
    # the engine's working set, data, weights, residuals and a 4-column
    # Jacobian among it, must fit in the other 9
    artifact = _run(tmp_path, DECAY_YAML)
    _, _, datasets = load_artifact(artifact.path)
    dataset = datasets["decay-spectroscopy"]
    draws = range(runner.SUBSAMPLE_CHUNK)
    p_e, stderr = subsample_draws(dataset, _keep_60_of_200(dataset), draws)
    grid = p_e.size * 8  # one row grid, rows x points x 8 B
    peak = traced_peak(lambda: frequency_lifetimes(dataset, p_e, stderr))
    assert peak < 25 * grid, f"{peak / grid:.2f} row grids"


def test_a_subsample_reports_memory_does_not_grow_with_its_draws(tmp_path, monkeypatch):
    artifact = _run(tmp_path, DECAY_YAML)
    manifest, _, datasets = load_artifact(artifact.path)
    node = LIFETIME_NODES[0]
    dataset = datasets[node.inputs["dataset"]]
    budget = _keep_60_of_200(dataset)
    chunk = 4
    monkeypatch.setattr(runner, "SUBSAMPLE_CHUNK", chunk)
    # one chunk's worth: the peak of fitting one chunk of draws as a stack
    p_e, stderr = subsample_draws(dataset, budget, range(chunk))
    chunk_peak = traced_peak(lambda: phase_lifetimes(dataset, p_e, stderr))
    peaks = []
    for count in (8, 80):
        output = tmp_path / str(count)
        output.mkdir()
        report = (node,), datasets, output, manifest["hash"]
        peaks.append(traced_peak(lambda: run_analyses(*report, subsample=(budget, count))))
    # fitting the 81 estimates as one stack would grow by 18 chunks' worth
    assert abs(peaks[1] - peaks[0]) < chunk_peak


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


# 13 durations a detuning, so that every rate fit of the clean case converges
# at seeds 0-159; with 9, seeds 28, 44, 135 and 153 ended in "no convergence
# within 500 iterations" and seed 139 in a ZeroDivisionError
PARAMETRIC_YAML = """\
name: parametric-fits
seed: 5
acquisition:
  n_shots: 1600
protocols:
  - kind: parametric-scan
    pump:
      omega_qm: 0.66 MHz
    deltas: {start: -7.215 MHz, stop: 7.215 MHz, count: 9}
    durations: {start: 0 us, stop: 4 us, count: 13}
analyses:
  - kind: parametric
"""

# DECAY_YAML's grids at the bundled 800 shots, its probe grid stepped 1 MHz.
# At 200 shots and a 2 MHz step the spectroscopy rows fail at many seeds in
# two ways. The t = 0 line (sigma about 12 MHz, 0.03 high in click
# probability) sits at a point's error of 0.02, and its least-squares
# optimum is a flat line of unbounded sigma. The later lines (sigma about
# 1 MHz) cover one or two points and can collapse to a one-point spike.
LIFETIMES_YAML = """\
name: lifetime-fits
seed: 41
acquisition:
  n_shots: 800
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
    probe_freqs: {around: omega_q, start: -48 MHz, stop: 4 MHz, count: 53}
analyses:
  - kind: lifetime-phase
  - kind: lifetime-frequency
"""

# configs that between them run every analysis kind, with every fit converged
KIND_CASES = {
    "coherence-calibration-sensitivity": FITS_YAML,
    "lifetimes": LIFETIMES_YAML,
    "parametric": PARAMETRIC_YAML,
}


@pytest.fixture(scope="module")
def kind_artifacts(tmp_path_factory):
    return {
        case: _run(tmp_path_factory.mktemp(case), text) for case, text in KIND_CASES.items()
    }


def test_reports_say_when_a_fit_did_not_converge(kind_artifacts, tmp_path, monkeypatch):
    kinds = set()
    for artifact in kind_artifacts.values():
        for kind, path in artifact.reports.items():
            report = read_report(path)
            assert (report["fit_converged"], report["fit_message"]) == ("True", "none")
            assert list(report)[-2:] == ["fit_converged", "fit_message"]
            kinds.add(kind)
    assert kinds == set(ANALYSES)
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    for case, artifact in kind_artifacts.items():
        manifest, config, datasets = load_artifact(artifact.path)
        stalled = tmp_path / case
        stalled.mkdir()
        run = [node for node in config.analyses if node.kind != "sensitivity"]
        if len(run) < len(config.analyses):
            # the response model takes converged line fits only, and here
            # none of the 5 converged
            with pytest.raises(EstimationError, match="0 of 5 converged"):
                run_analyses(
                    config.analyses,
                    datasets,
                    stalled,
                    manifest["hash"],
                    system=config.system,
                    sensing=config.sensing,
                    only="sensitivity",
                )
        reports = run_analyses(
            tuple(run),
            datasets,
            stalled,
            manifest["hash"],
            system=config.system,
            sensing=config.sensing,
        )
        assert reports.keys() == artifact.reports.keys() - {"sensitivity"}
        for kind, path in reports.items():
            report = read_report(path)
            assert report["fit_converged"] == "False"
            assert report["fit_message"] == "no convergence within 1 iterations"


def test_parametric_report_flags_an_undetermined_omega_qm(tmp_path):
    # at 9 durations a detuning and seed 139 the profile amplitude fits below
    # 0, so omega_qm = sqrt(amplitude * fwhm) sits where sqrt has no slope; the
    # report flags it, with no RuntimeWarning and no division by omega_qm = 0
    text = PARAMETRIC_YAML.replace("seed: 5", "seed: 139").replace("count: 13}", "count: 9}")
    report = read_report(_run(tmp_path, text).reports["parametric"])
    assert "omega-qm-undetermined" in report["flags"].split(";")
    assert report["fit_converged"] == "False"
    for key in ("omega_qm_stderr", "resonant_induced_lifetime_s"):
        assert not math.isfinite(float(report[key])), key


# the estimators the benchmark's tracer (perfbench/layers.py) wraps by their
# names on runner, which each report builder must call through those names
TRACED = {
    "coherence": {"fit_curve"},
    "calibration": {"fit_power_spectra"},
    "sensitivity": {"fit_power_spectra", "fit_noise_profile", "sensitivity_curve"},
    "lifetime-phase": {"lifetime_from_phase"},
    "lifetime-frequency": {"lifetime_from_frequency"},
    "parametric": {"extract_kappa_m_from_scan"},
}


def test_each_report_calls_its_traced_estimators_by_name(kind_artifacts, tmp_path, monkeypatch):
    assert REPORTS.keys() == ANALYSES.keys() == TRACED.keys()
    calls = []
    for name in set().union(*TRACED.values()):

        def counted(*args, _name=name, _fn=getattr(runner, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(runner, name, counted)
    ran = set()
    for artifact in kind_artifacts.values():
        manifest, config, datasets = load_artifact(artifact.path)
        for node in config.analyses:
            calls.clear()
            run_analyses(
                (node,),
                datasets,
                tmp_path,
                manifest["hash"],
                system=config.system,
                sensing=config.sensing,
            )
            assert set(calls) == TRACED[node.kind], node.kind
            ran.add(node.kind)
    assert ran == set(REPORTS)


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
    # the whole grid is one stream: flat point j draws from its point seed
    expectation = replace(config.protocol_config(node.pump), mode="expectation")
    p_true = np.concatenate(
        [
            run_ramsey(
                config.system,
                node.grids["delays"],
                replace(expectation, pump=replace(node.pump, power_w=float(power))),
            ).p_e
            for power in powers
        ]
    )
    readout = config.protocol_config(node.pump).readout
    for j, (p, row) in enumerate(zip(p_true, shots.reshape(-1, 1200))):
        record = sample_readout(
            float(p), readout, 1200, seed=point_seed(config.seed, "ramsey-series", j)
        )
        assert np.array_equal(row, record.values), j


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
def smoke_decay_artifacts(tmp_path_factory):
    """The smoke artifact at 800 kept shots a point, and at 1600."""
    artifacts = []
    for n_shots in (800, 1600):
        work = tmp_path_factory.mktemp(f"smoke-decay-{n_shots}")
        source = work / "config.yaml"
        text = SMOKE_DECAY_YAML.replace("n_shots: 800", f"n_shots: {n_shots}")
        source.write_text(text, encoding="utf-8")
        artifacts.append(run_experiment(load_config(source), work / "artifact").path)
    return artifacts


def _assert_peak_grows_by_no_shots(artifacts, peaks):
    # the table and fit memory is fixed, so a call that held the sidecars'
    # shots would grow by the shot bytes that doubling the shots adds
    small, large = (sum(_sidecar_shot_bytes(artifact)) for artifact in artifacts)
    assert large == 2 * small
    assert peaks[1] - peaks[0] < (large - small) / 8


def test_loading_an_artifact_holds_no_sidecars_shots(smoke_decay_artifacts):
    loaded = []
    peaks = [
        traced_peak(lambda: loaded.append(load_artifact(artifact)))
        for artifact in smoke_decay_artifacts
    ]
    # the sidecars are checked a block at a time, not held
    _assert_peak_grows_by_no_shots(smoke_decay_artifacts, peaks)
    for _, _, datasets in loaded:
        assert all(dataset.clicks is not None for dataset in datasets.values())


def test_a_subsample_report_holds_no_sidecars_shots(smoke_decay_artifacts, tmp_path):
    def report(artifact, output):
        manifest, config, datasets = load_artifact(artifact)
        # draws are fit a chunk at a time, and two draws keep the one chunk
        # small, so the shots are what it tests
        reports = run_analyses(
            config.analyses, datasets, output, manifest["hash"], subsample=(1.0, 2)
        )
        assert set(reports) == {"lifetime-phase", "lifetime-frequency"}

    peaks = []
    for k, artifact in enumerate(smoke_decay_artifacts):
        output = tmp_path / str(k)
        output.mkdir()
        peaks.append(traced_peak(lambda: report(artifact, output)))
        assert (output / "lifetime-phase-subsample.csv").exists()
    _assert_peak_grows_by_no_shots(smoke_decay_artifacts, peaks)
