"""Artifact-level tests: shots regenerated from a manifest, fit status keys."""

from types import SimpleNamespace

import numpy as np
from conftest import removed_field_edits, rewrite_manifest

from magsense import fitting
from magsense.config import load_config
from magsense.lifetimes import lifetime_from_frequency, lifetime_from_phase
from magsense.runner import (
    _fit_status,
    _subsample_table,
    execute_protocol,
    load_artifact,
    read_report,
    run_analyses,
    run_experiment,
)
from magsense.subsample import subsample_time_budget

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
            assert recorded.shots is not None
            assert regenerated.shots.dtype == recorded.shots.dtype
            assert np.array_equal(regenerated.shots, recorded.shots)
            assert np.array_equal(regenerated.p_e, recorded.p_e)
            assert np.array_equal(regenerated.stderr, recorded.stderr)


def test_subsample_table_matches_per_draw_estimates(tmp_path):
    artifact = _run(tmp_path, DECAY_YAML)
    manifest, _, datasets = load_artifact(artifact.path)
    cases = [
        ("phase", datasets["decay-phase"], lifetime_from_phase),
        ("frequency", datasets["decay-spectroscopy"], lifetime_from_frequency),
    ]
    count = 6
    for method, dataset, estimator in cases:
        budget = 60 * dataset.p_e.size * dataset.shot_duration  # 60 of 200 shots
        table = tmp_path / f"{method}-subsample.csv"
        keys = _subsample_table(dataset, method, budget, count, table, manifest["hash"])
        rows = np.loadtxt(table, delimiter=",", comments="#", skiprows=2, ndmin=2)
        loop = [estimator(subsample_time_budget(dataset, budget, seed=k)) for k in range(count)]
        assert rows[:, 0].tolist() == list(range(count))
        np.testing.assert_allclose(rows[:, 1], [e.lifetime for e in loop], rtol=1e-12)
        np.testing.assert_allclose(rows[:, 2], [e.uncertainty for e in loop], rtol=1e-12)
        assert keys["subsample_lifetime_mean_s"] == np.mean(rows[:, 1])
        assert len(set(rows[:, 1])) == count


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

