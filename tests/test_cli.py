"""End-to-end tests for the command line: verbs, exit codes, artifacts."""

import ast
import gc
import importlib
import json
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import removed_field_edits, rewrite_manifest

from magsense import runner
from magsense.cli import bundled_configs, main
from magsense.config import MAX_SHOT_BUFFER_BYTES
from magsense.runner import read_report
from magsense.sweep import read_dataset

COHERENCE_YAML = """\
name: cli-coherence
seed: 7
acquisition:
  n_shots: 150
  artificial_detuning: 1.5 MHz
protocols:
  - kind: ramsey
    delays: {start: 0 us, stop: 3 us, count: 31}
  - kind: relaxation
    name: t1
analyses:
  - kind: coherence
"""

DECAY_YAML = """\
name: cli-decay
seed: 13
acquisition:
  n_shots: 300
  keep_shots: true
protocols:
  - kind: decay-phase
    n0: 650
    sense_times: {start: 0 ns, stop: 240 ns, count: 13}
    second_pulse_phases: {start: 0 rad, stop: 6.2832 rad, count: 13}
analyses:
  - kind: lifetime-phase
"""

PARAMETRIC_SHORT_YAML = """\
name: cli-parametric-short
seed: 3
acquisition:
  mode: expectation
protocols:
  - kind: parametric-scan
    pump:
      omega_qm: 0.66 MHz
    deltas: {start: -2 MHz, stop: 2 MHz, count: 5}
    durations: {start: 0 us, stop: 1 us, count: 5}
analyses:
  - kind: parametric
"""

# no magnons: the line centers cannot decay, which only the fit can tell
FLAT_CENTERS_YAML = """\
name: cli-flat-centers
seed: 3
acquisition:
  mode: expectation
  probe_duration: 8 ns
protocols:
  - kind: decay-spectroscopy
    n0: 0
    sense_times: {start: 0 ns, stop: 240 ns, count: 7}
    probe_freqs: {around: omega_q, start: -48 MHz, stop: 4 MHz, count: 27}
analyses:
  - kind: lifetime-frequency
"""


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "coherence.yaml").write_text(COHERENCE_YAML, encoding="utf-8")
    (root / "decay.yaml").write_text(DECAY_YAML, encoding="utf-8")
    (root / "parametric.yaml").write_text(PARAMETRIC_SHORT_YAML, encoding="utf-8")
    (root / "flat-centers.yaml").write_text(FLAT_CENTERS_YAML, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def coherence_artifact(work):
    out = work / "coh"
    assert main(["run", str(work / "coherence.yaml"), "--output", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def decay_artifact(work):
    out = work / "dec"
    assert main(["run", str(work / "decay.yaml"), "--output", str(out)]) == 0
    return out


def _write_zip_member(path, name, data):
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr(name, data)


def artifact_files(path):
    return sorted(p.name for p in path.iterdir())


def source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def parametric_9x9(work):
    """The bundled parametric-scan config on a 9 x 9 grid, written under ``work``."""
    config = yaml.safe_load(bundled_configs()["parametric-scan"].read_text(encoding="utf-8"))
    config["protocols"][0]["deltas"]["count"] = 9
    config["protocols"][0]["durations"]["count"] = 9
    path = work / "parametric-9x9.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


def artifact_contents(path):
    """Each file of an artifact by name; the manifest parsed, without ``created``."""
    files = {}
    for file in sorted(path.rglob("*")):
        if file.is_file():
            files[str(file.relative_to(path))] = file.read_bytes()
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["created"]
    return files | {"manifest.json": manifest}


class TestValidate:
    def test_ok_prints_name_and_hash(self, work, capsys):
        assert main(["validate", str(work / "coherence.yaml")]) == 0
        out = capsys.readouterr().out
        assert "ok: cli-coherence" in out
        assert "hash: " in out
        assert "protocols: ramsey, t1" in out
        assert "analyses: coherence" in out

    def test_unknown_field_exits_2(self, work, capsys):
        bad = work / "bad.yaml"
        bad.write_text(
            COHERENCE_YAML.replace("seed: 7", "seed: 7\nfrobnicate: 1"),
            encoding="utf-8",
        )
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown field 'frobnicate'" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_shots: 0", "n_shots must be >= 1"),
            ("n_shots: 2000\n  probe_amplitude: 1.5", "probe_amplitude must lie in (0, 1]"),
            ('n_shots: 2000\n  half_pi_duration: "-16 ns"', "half_pi_duration must be >= 0"),
            ('n_shots: 2000\n  pi_duration: "-32 ns"', "pi_duration must be >= 0"),
            ('n_shots: 2000\n  dead_time: "-1 us"', "dead_time must be >= 0"),
            ('n_shots: 2000\n  dt: "-1 ns"', "unknown field 'dt'"),
            ("n_shots: 2000\n  workers: 3", "unknown field 'workers'"),
        ],
        ids=[
            "n_shots", "probe_amplitude", "half_pi_duration", "pi_duration",
            "dead_time", "dt", "removed-field",
        ],
    )
    def test_bad_acquisition_exits_2(self, work, line, message, capsys):
        # coherence-baseline with one acquisition field changed
        text = bundled_configs()["coherence-baseline"].read_text(encoding="utf-8")
        bad = work / "bad-acquisition.yaml"
        bad.write_text(text.replace("  n_shots: 2000\n", f"  {line}\n"), encoding="utf-8")
        out = work / "bad-acquisition-run"
        for argv in (["validate", str(bad)], ["run", str(bad), "--output", str(out)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and ".acquisition: " in err and message in err
            assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "anchor", ["[omega_q]", "{omega_q: 1}"], ids=["list", "mapping"]
    )
    def test_non_string_anchor_exits_2(self, work, anchor, capsys):
        text = bundled_configs()["decay-tracking"].read_text(encoding="utf-8")
        bad = work / "bad-anchor.yaml"
        bad.write_text(text.replace("around: omega_q", f"around: {anchor}"), encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "probe_freqs.around: expected a string" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("count", [10**12, 10**19], ids=["1e12", "1e19"])
    def test_oversized_grid_exits_2_before_allocating(self, work, count, monkeypatch, capsys):
        def no_grid_array(*args, **kwargs):
            raise AssertionError("a grid array was built")

        monkeypatch.setattr(np, "linspace", no_grid_array)
        text = bundled_configs()["coherence-baseline"].read_text(encoding="utf-8")
        bad = work / "oversized-grid.yaml"
        bad.write_text(text.replace("count: 161", f"count: {count}"), encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"protocols[0].delays.count: {count} points" in err
        assert "Traceback" not in err

    def test_bundled_name_resolves(self, capsys):
        assert main(["validate", "coherence-baseline"]) == 0
        assert "ok: coherence-baseline" in capsys.readouterr().out

    def test_unknown_spec_exits_2(self, capsys):
        assert main(["validate", "no-such-config"]) == 2
        assert "neither a config file nor a bundled config" in capsys.readouterr().err

    def test_all_bundled_configs_validate(self):
        names = sorted(bundled_configs())
        assert names == [
            "coherence-baseline",
            "decay-tracking",
            "magnon-counting",
            "parametric-scan",
            "sensitivity-scan",
            "sensitivity-scan-ideal",
        ]
        for name in names:
            assert main(["validate", name]) == 0


class TestListConfigs:
    def test_lists_all_with_descriptions(self, capsys):
        assert main(["list-configs"]) == 0
        out = capsys.readouterr().out
        for name in bundled_configs():
            assert name in out


class TestRun:
    def test_artifact_layout(self, work, coherence_artifact):
        files = artifact_files(coherence_artifact)
        assert "manifest.json" in files
        assert "ramsey.csv" in files
        assert "t1.csv" in files
        assert "coherence.txt" in files
        assert not (work / "coh.partial").exists()

    def test_manifest_is_resolved_config_with_matching_hash(
        self, coherence_artifact, capsys
    ):
        manifest = json.loads(
            (coherence_artifact / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["name"] == "cli-coherence"
        assert "created" in manifest
        # the hash covers only the resolved config, never the timestamp
        assert "created" not in manifest["config"]
        assert main(["validate", str(coherence_artifact.parent / "coherence.yaml")]) == 0
        printed = capsys.readouterr().out
        assert f"hash: {manifest['hash']}" in printed

    def test_existing_output_needs_force(self, work, coherence_artifact, capsys):
        argv = ["run", str(work / "coherence.yaml"), "--output", str(coherence_artifact)]
        assert main(argv) == 2
        assert "already exists" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0

    def test_force_onto_a_regular_file_exits_2_before_sampling(self, work, capsys):
        # --force replaces an artifact directory; onto a file, run used to
        # sample and fit everything before failing and leaving its staging
        # directory
        target = work / "outfile"
        target.write_text("not an artifact\n", encoding="utf-8")
        argv = ["run", str(work / "coherence.yaml"), "--output", str(target), "--force"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: output {target} exists and is not a directory\n"
        assert target.read_text(encoding="utf-8") == "not an artifact\n"
        assert not (work / "outfile.partial").exists()

    def test_rerun_is_byte_identical(self, work, coherence_artifact):
        out2 = work / "coh-twin"
        assert main(["run", str(work / "coherence.yaml"), "--output", str(out2)]) == 0
        for name in ("ramsey.csv", "t1.csv", "coherence.txt"):
            assert (out2 / name).read_bytes() == (coherence_artifact / name).read_bytes()

    def test_no_output_anywhere_exits_2(self, work, capsys):
        assert main(["run", str(work / "coherence.yaml")]) == 2
        assert "no output directory" in capsys.readouterr().err

    def test_runtime_failure_exits_3_without_artifact(self, work, capsys):
        out = work / "pf"
        assert main(["run", str(work / "flat-centers.yaml"), "--output", str(out)]) == 3
        assert capsys.readouterr().err.startswith("runtime error:")
        assert not out.exists()
        assert not (work / "pf.partial").exists()

    def test_too_few_detunings_exit_2_before_sampling(self, work, capsys):
        # the rate profile needs 7 detunings; run used to sample 5 and exit 3
        out = work / "short"
        for argv in (["validate"], ["run", "--output", str(out)]):
            assert main(argv[:1] + [str(work / "parametric.yaml")] + argv[1:]) == 2
            assert capsys.readouterr().err.startswith(
                f"error: {work / 'parametric.yaml'}.protocols[0].deltas: the parametric "
                "estimate along this grid needs at least 7 points, got 5"
            )
        assert not out.exists()
        assert not (work / "short.partial").exists()

    def test_a_failed_dataset_write_exits_3_leaving_nothing(self, work, capsys, monkeypatch):
        # the first protocol's dataset is staged before the second one's write fails
        write = runner.write_dataset

        def write_but_t1(dataset, path):
            if path.name == "t1.csv":
                raise OSError(f"{path.name}: no space left")
            write(dataset, path)

        monkeypatch.setattr(runner, "write_dataset", write_but_t1)
        out = work / "unwritten"
        assert main(["run", str(work / "coherence.yaml"), "--output", str(out)]) == 3
        assert capsys.readouterr().err == "runtime error: t1.csv: no space left\n"
        assert not out.exists()
        assert not (work / "unwritten.partial").exists()

    def test_analysis_failure_names_the_analysis_and_its_input(self, work, capsys):
        # no magnons and no shot noise: the line centers cannot decay
        config = yaml.safe_load(bundled_configs()["decay-tracking"].read_text(encoding="utf-8"))
        config["acquisition"].update(mode="expectation", keep_shots=False)
        for block in config["protocols"]:
            block["n0"] = 0
        path = work / "no-magnons.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        out = work / "no-magnons"
        assert main(["run", str(path), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "runtime error: analyses[1] (lifetime-frequency), inputs "
            "dataset=decay-spectroscopy: constant data carries no information"
        ), err
        assert not out.exists()
        assert not (work / "no-magnons.partial").exists()

    def test_too_short_fit_grid_exits_2_before_sampling(self, work, capsys):
        config = yaml.safe_load(bundled_configs()["sensitivity-scan"].read_text(encoding="utf-8"))
        config["protocols"][0]["probe_freqs"]["count"] = 1
        path = work / "one-probe.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        out = work / "one-probe"
        assert main(["run", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {path}.protocols[0].probe_freqs: the gaussian fit along this grid "
            "needs at least 5 points, got 1"
        ), err
        assert not out.exists()

    def test_run_and_report_leave_numpy_polynomial_unloaded(self, work):
        # the fits solve and evaluate their polynomials themselves, so no
        # command pays for loading numpy.polynomial
        path = parametric_9x9(work)
        out = work / "parametric-9x9"
        code = (
            "import sys\n"
            "from magsense.cli import main\n"
            f"assert main(['run', {str(path)!r}, '--output', {str(out)!r}]) == 0\n"
            f"assert main(['report', {str(out)!r}]) == 0\n"
            "print('numpy.polynomial' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True
        )
        assert done.stdout.splitlines()[-1] == "False"

    def test_coherence_report_contents(self, coherence_artifact):
        report = read_report(coherence_artifact / "coherence.txt")
        t1 = float(report["t1_s"])
        t2 = float(report["t2_s"])
        assert 1e-6 < t1 < 6e-6
        assert 1e-6 < t2 < 8e-6

    def test_bundled_sensitivity_scan_table(self, work):
        out = work / "sens"
        assert main(["run", "sensitivity-scan", "--output", str(out)]) == 0
        table = out / "sensitivity.csv"
        assert table.exists()
        rows = [
            line.split(",")
            for line in table.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#") and line[0].isdigit()
        ]
        n_m = np.array([float(r[0]) for r in rows])
        sensitivity = np.array([float(r[1]) for r in rows])
        assert n_m[0] == 0.0 and n_m[-1] == 2000.0
        assert np.all(np.isfinite(sensitivity))
        assert np.all(sensitivity > 0)


class TestReport:
    def test_rerun_reproduces_report(self, coherence_artifact, capsys):
        before = (coherence_artifact / "coherence.txt").read_bytes()
        assert main(["report", str(coherence_artifact)]) == 0
        assert "report coherence:" in capsys.readouterr().out
        assert (coherence_artifact / "coherence.txt").read_bytes() == before

    def test_only_filter(self, coherence_artifact, capsys):
        assert main(["report", str(coherence_artifact), "--only", "coherence"]) == 0
        capsys.readouterr()
        assert main(["report", str(coherence_artifact), "--only", "nope"]) == 2
        assert "no analysis matched" in capsys.readouterr().err

    def test_missing_artifact_exits_2(self, work, capsys):
        empty = work / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 2
        assert "not a run artifact" in capsys.readouterr().err

    def test_no_artifact_argument_exits_2(self, capsys):
        assert main(["report"]) == 2
        assert "artifact directory or --import" in capsys.readouterr().err

    def test_tampered_manifest_exits_2(self, work, coherence_artifact, capsys):
        twin = work / "tampered"
        shutil.copytree(coherence_artifact, twin)
        manifest = json.loads((twin / "manifest.json").read_text(encoding="utf-8"))
        manifest["config"]["seed"] = 999
        (twin / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["report", str(twin)]) == 2
        assert "hash does not match" in capsys.readouterr().err

    def test_relaxation_default_grid_is_checked_against_t1(self, work, capsys):
        # a manifest written by an earlier version leaves relaxation's default
        # delays out; they follow from system.t1, so such a manifest still
        # reports, and a recorded t1 that no longer gives them fails
        out = work / "baseline-t1"
        assert main(["run", "coherence-baseline", "--output", str(out)]) == 0
        # every line but the first, which holds the manifest hash
        before = (out / "coherence.txt").read_text(encoding="utf-8").split("\n", 1)[1]
        rewrite_manifest(out, lambda config: config["protocols"][1]["grids"].clear())
        assert main(["report", str(out)]) == 0
        assert (out / "coherence.txt").read_text(encoding="utf-8").split("\n", 1)[1] == before
        rewrite_manifest(out, lambda config: config["system"].update(t1=2 * config["system"]["t1"]))
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert (
            "config.protocols[1].grids.delays does not match axis 'delay' of relaxation.csv"
        ) in err

    def test_manifest_with_a_removed_acquisition_field_still_reports(self, work, capsys):
        # artifacts written by earlier versions record fields since removed
        # (a thread-pool size, the integrator step, ...) in their resolved
        # config, and their hash covers them; each is added in turn
        out = work / "legacy"
        assert main(["run", str(work / "decay.yaml"), "--output", str(out)]) == 0
        expected = (out / "lifetime-phase.txt").read_text(encoding="utf-8")
        first_hash = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["hash"]
        for label, edit in removed_field_edits():
            _, new_hash = rewrite_manifest(out, edit)
            assert main(["report", str(out)]) == 0, label
            assert "report lifetime-phase:" in capsys.readouterr().out
            assert (out / "lifetime-phase.txt").read_text(encoding="utf-8") == expected.replace(
                first_hash, new_hash
            ), label

    def test_missing_shots_sidecar_exits_2(self, work, decay_artifact, capsys):
        twin = work / "no-sidecar"
        shutil.copytree(decay_artifact, twin)
        (twin / "decay-phase_shots.npz").unlink()
        assert main(["report", str(twin)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "decay-phase_shots.npz" in err
        assert "Traceback" not in err

    def test_sidecar_that_disagrees_with_its_table_exits_2(self, work, decay_artifact, capsys):
        twin = work / "flipped-click"
        shutil.copytree(decay_artifact, twin)
        sidecar = twin / "decay-phase_shots.npz"
        threshold = read_dataset(twin / "decay-phase.csv").meta["readout_threshold"]
        with np.load(sidecar) as payload:
            shots = payload["shots"]
        # move one shot of the last point across the threshold
        shots[-1, -1, 0] = threshold - 1.0 if shots[-1, -1, 0] > threshold else threshold + 1.0
        np.savez(sidecar, shots=shots)
        last_line = len((twin / "decay-phase.csv").read_text(encoding="utf-8").splitlines())
        assert main(["report", str(twin), "--subsample-budget", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: decay-phase.csv, line {last_line}: p_e and stderr")
        assert "decay-phase_shots.npz" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "defect",
        [
            lambda path, shots: path.write_bytes(b"not a zip archive " * 4),
            lambda path, shots: np.savez(path, values=shots),
            lambda path, shots: np.savez(path, shots=shots.astype(np.int64)),
            lambda path, shots: np.savez(path, shots=shots[:, :5]),
            lambda path, shots: _write_zip_member(path, "shots.npy", b"no .npy header here"),
        ],
        ids=["not-an-npz", "no-shots-member", "integer-shots", "grid-mismatch", "not-npy-member"],
    )
    def test_malformed_shots_sidecar_exits_2(self, work, decay_artifact, defect, capsys):
        table = work / "malformed" / "decay-phase.csv"
        table.parent.mkdir(exist_ok=True)
        shutil.copy(decay_artifact / "decay-phase.csv", table)
        with np.load(decay_artifact / "decay-phase_shots.npz") as payload:
            defect(table.parent / "decay-phase_shots.npz", payload["shots"])
        argv = [
            "report",
            "--import",
            str(table),
            "--analysis",
            "lifetime-phase",
            "--subsample-budget",
            "0.1",
            "--subsample-count",
            "2",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "decay-phase_shots.npz" in err
        assert "Traceback" not in err

    def test_subsample_flags(self, decay_artifact):
        argv = [
            "report",
            str(decay_artifact),
            "--only",
            "lifetime-phase",
            "--subsample-budget",
            "0.1",
            "--subsample-count",
            "5",
        ]
        assert main(argv) == 0
        report = read_report(decay_artifact / "lifetime-phase.txt")
        assert float(report["subsample_budget_s"]) == 0.1
        assert int(float(report["subsample_count"])) == 5
        assert float(report["subsample_lifetime_std_s"]) >= 0
        assert (decay_artifact / "lifetime-phase-subsample.csv").exists()

    @pytest.mark.parametrize("count", [10, 100])
    def test_subsample_counts_that_fit_run(self, decay_artifact, count):
        argv = ["report", str(decay_artifact), "--subsample-budget", "0.1"]
        assert main([*argv, "--subsample-count", str(count)]) == 0
        table = np.loadtxt(
            decay_artifact / "lifetime-phase-subsample.csv", delimiter=",", skiprows=2
        )
        assert table.shape == (count, 3)

    def test_an_oversized_subsample_count_exits_2_before_any_draw(
        self, decay_artifact, capsys, monkeypatch
    ):
        def no_draw(*args):
            raise AssertionError("drew subsamples for an oversized count")

        monkeypatch.setattr(runner, "subsample_draws", no_draw)
        argv = ["report", str(decay_artifact), "--subsample-budget", "1.0"]
        assert main([*argv, "--subsample-count", "1000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--subsample-count 1000000000" in err
        assert "Traceback" not in err
        # draws are fit a chunk at a time, so only the table of one row a
        # draw grows with the count, at a fixed charge a row whatever the data
        largest = MAX_SHOT_BUFFER_BYTES // runner.SUBSAMPLE_ROW_BYTES
        assert largest == 524288
        assert f"at most {largest} draws" in err
        assert main([*argv, "--subsample-count", str(largest + 1)]) == 2
        assert f"at most {largest} draws" in capsys.readouterr().err
        # the largest count passes the bound and reaches the draw
        with pytest.raises(AssertionError, match="drew subsamples"):
            main([*argv, "--subsample-count", str(largest)])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--subsample-budget", "inf"],
            ["--subsample-budget", "nan"],
            ["--subsample-budget", "0.1", "--subsample-count", "0"],
            ["--subsample-budget", "0.1", "--subsample-count", "1"],
            ["--subsample-budget", "0.1", "--subsample-count", "-2"],
        ],
        ids=["budget-inf", "budget-nan", "count-0", "count-1", "count-negative"],
    )
    def test_bad_subsample_arguments_exit_2(self, decay_artifact, flags, capsys):
        assert main(["report", str(decay_artifact), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--subsample-" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "artifact, flags",
        [
            ("decay_artifact", ["--subsample-count", "5"]),
            ("decay_artifact", ["--analysis", "lifetime-phase"]),
            ("decay_artifact", ["--output", "not-made"]),
            ("coherence_artifact", ["--subsample-budget", "1.0"]),
        ],
        ids=[
            "count-without-budget",
            "analysis-without-import",
            "output-without-import",
            "budget-without-lifetime",
        ],
    )
    def test_flags_that_do_not_apply_exit_2(
        self, artifact, flags, tmp_path, monkeypatch, capsys, request
    ):
        artifact = request.getfixturevalue(artifact)
        capsys.readouterr()
        before = {path.name: path.read_bytes() for path in artifact.iterdir()}
        monkeypatch.chdir(tmp_path)
        assert main(["report", str(artifact), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and flags[0] in captured.err
        assert list(tmp_path.iterdir()) == []
        assert {path.name: path.read_bytes() for path in artifact.iterdir()} == before


class TestImport:
    def test_import_runs_single_analysis(self, work, decay_artifact, capsys):
        out = work / "imported"
        argv = [
            "report",
            "--import",
            str(decay_artifact / "decay-phase.csv"),
            "--analysis",
            "lifetime-phase",
            "--output",
            str(out),
        ]
        assert main(argv) == 0
        assert "report lifetime-phase:" in capsys.readouterr().out
        report = read_report(out / "lifetime-phase.txt")
        assert float(report["lifetime_s"]) > 0

    def test_import_needs_analysis_kind(self, decay_artifact, capsys):
        argv = ["report", "--import", str(decay_artifact / "decay-phase.csv")]
        assert main(argv) == 2
        assert "--import needs --analysis" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", ["--only", "artifact"])
    def test_import_rejects_artifact_arguments(self, work, decay_artifact, extra, capsys):
        out = work / f"imported-with-{extra.strip('-')}"
        argv = [
            "report",
            "--import",
            str(decay_artifact / "decay-phase.csv"),
            "--analysis",
            "lifetime-phase",
            "--output",
            str(out),
        ]
        if extra == "--only":
            argv += ["--only", "lifetime-phase"]
        else:
            argv.insert(1, str(decay_artifact))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and extra in err
        assert not out.exists()

    def test_import_rejects_multi_input_analyses(self, decay_artifact, capsys):
        argv = [
            "report",
            "--import",
            str(decay_artifact / "decay-phase.csv"),
            "--analysis",
            "coherence",
        ]
        assert main(argv) == 2
        assert "cannot run on a single imported table" in capsys.readouterr().err

    def test_import_with_missing_unit_tag_exits_2(self, work, decay_artifact, capsys):
        source = (decay_artifact / "decay-phase.csv").read_text(encoding="utf-8")
        corrupted = work / "no-units.csv"
        corrupted.write_text(
            source.replace("sense_time (s)", "sense_time"), encoding="utf-8"
        )
        argv = [
            "report",
            "--import",
            str(corrupted),
            "--analysis",
            "lifetime-phase",
            "--output",
            str(work),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_import_with_a_non_numeric_cell_exits_2(self, work, decay_artifact, capsys):
        lines = (decay_artifact / "decay-phase.csv").read_text(encoding="utf-8").splitlines()
        fields = lines[-1].split(",")
        fields[2] = "0.x44375"
        corrupted = work / "bad-cell.csv"
        corrupted.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n", encoding="utf-8")
        argv = ["report", "--import", str(corrupted), "--analysis", "lifetime-phase"]
        assert main(argv + ["--output", str(work)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"bad-cell.csv, line {len(lines)}: " in err

    def test_import_rejects_bad_subsample_budget(self, work, decay_artifact, capsys):
        argv = [
            "report",
            "--import",
            str(decay_artifact / "decay-phase.csv"),
            "--analysis",
            "lifetime-phase",
            "--output",
            str(work / "imported-bad-budget"),
            "--subsample-budget",
            "inf",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--subsample-budget" in err
        assert "Traceback" not in err


class TestProcessEntry:
    def test_module_entry_writes_what_in_process_main_writes(self, work):
        # python3 -m magsense runs its command with the imported module state
        # frozen; its run and report write what cli.main writes in-process
        config = str(work / "decay.yaml")
        in_process, module = work / "entry-in-process", work / "entry-module"
        assert main(["run", config, "--output", str(in_process)]) == 0
        assert main(["report", str(in_process)]) == 0
        for argv in (["run", config, "--output", str(module)], ["report", str(module)]):
            subprocess.run(
                [sys.executable, "-m", "magsense", *argv],
                env=source_env(),
                capture_output=True,
                check=True,
            )
        assert artifact_contents(module) == artifact_contents(in_process)

    def test_package_import_loads_no_numpy_yaml_or_submodule(self):
        # the process entry sets its policy before numpy loads, so the
        # package import must not load numpy
        code = (
            "import sys\n"
            "import magsense\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name in ('numpy', 'yaml') or name.startswith('magsense.')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("threads, expected", [(None, "1"), ("2", "2")])
    def test_entry_runs_openblas_on_one_thread_unless_set(self, work, threads, expected):
        env = source_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        code = (
            "import os, sys\n"
            f"sys.argv = ['magsense', 'validate', {str(work / 'coherence.yaml')!r}]\n"
            "from magsense.__main__ import main\n"
            "assert main() == 0\n"
            "threads = None\n"
            "if sys.platform == 'linux':\n"
            "    with open('/proc/self/status', encoding='utf-8') as status:\n"
            "        threads = next(int(line.split()[1]) for line in status if line.startswith('Threads:'))\n"
            "print(repr((os.environ['OPENBLAS_NUM_THREADS'], threads)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        variable, count = ast.literal_eval(done.stdout.splitlines()[-1])
        assert variable == expected
        if threads is None and count is not None:
            # numpy loaded after the entry set the variable: no BLAS worker
            assert count == 1

    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, work):
        # the largest BLAS operand is the d = 8 Lindblad 64 x 64 mat-vec; a
        # second thread must not move a bit of a Lindblad or a sampled run
        for config in (parametric_9x9(work), work / "decay.yaml"):
            contents = []
            for threads in ("1", "2"):
                out = work / f"blas-{config.stem}-{threads}"
                subprocess.run(
                    [sys.executable, "-m", "magsense", "run", str(config), "--output", str(out)],
                    env={**source_env(), "OPENBLAS_NUM_THREADS": threads},
                    capture_output=True,
                    check=True,
                )
                contents.append(artifact_contents(out))
            assert contents[0] == contents[1], config.stem

    @pytest.mark.parametrize("enabled", [True, False])
    def test_in_process_main_leaves_the_collector_as_it_was(
        self, work, enabled, monkeypatch
    ):
        # neither importing the process entry nor calling cli.main sets the
        # entry's process-wide policy: the collector and the environment
        # stay as the caller had them
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        environ = dict(os.environ)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            frozen = gc.get_freeze_count()
            monkeypatch.delitem(sys.modules, "magsense.__main__", raising=False)
            importlib.import_module("magsense.__main__")
            assert dict(os.environ) == environ
            assert main(["validate", str(work / "coherence.yaml")]) == 0
            assert main(["run", str(work / "coherence.yaml"), "--output", str(work / "gc")]) == 0
            assert main(["report", str(work / "gc")]) == 0
            assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
            assert dict(os.environ) == environ
        finally:
            (gc.enable if was_enabled else gc.disable)()
            shutil.rmtree(work / "gc", ignore_errors=True)

    def test_script_target_is_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, name = target["magsense"].partition(":")
        assert module == "magsense.__main__"
        # the one call under the module's __main__ guard, which python3 -m
        # magsense runs, is the script's function
        entry = importlib.import_module(module)
        tree = ast.parse(Path(entry.__file__).read_text(encoding="utf-8"))
        guards = [
            node.body
            for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [[ast.unparse(line) for line in body] for body in guards] == [
            [f"sys.exit({name}())"]
        ]
        # that function freezes the imported state before cli.main runs
        code = (
            "import gc, importlib, sys\n"
            "import magsense.cli\n"
            "magsense.cli.main = lambda: print(gc.get_freeze_count() > 1000) or 0\n"
            f"sys.exit(getattr(importlib.import_module({module!r}), {name!r})())\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=source_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "True"
