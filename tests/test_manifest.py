"""A malformed manifest ends in exit 2 naming the field, never in a traceback.

Every case edits a real artifact's ``manifest.json``. Config edits go
through ``rewrite_manifest``, which signs the artifact again, so the hash
check passes and the edit itself reaches the config schema.
"""

import json
import shutil

import numpy as np
import pytest
from conftest import rewrite_manifest

from magsense.cli import main

ARTIFACT_YAML = """\
name: manifest-cases
seed: 23
acquisition:
  n_shots: 200
  artificial_detuning: 4 MHz
sensing:
  tau: 32 us
  n_shots: 1000
protocols:
  - kind: ramsey
    delays: {start: 0 us, stop: 8 us, count: 41}
  - kind: relaxation
    name: t1
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
analyses:
  - kind: coherence
  - kind: calibration
  - kind: sensitivity
    count: 11
"""


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    (root / "config.yaml").write_text(ARTIFACT_YAML, encoding="utf-8")
    out = root / "artifact"
    assert main(["run", str(root / "config.yaml"), "--output", str(out)]) == 0
    return out


def _report(twin, capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = main(["report", str(twin)])
    return code, capsys.readouterr().err


def _edit_config(edit):
    return lambda twin: rewrite_manifest(twin, edit)


def _edit_envelope(edit):
    def apply(twin):
        path = twin / "manifest.json"
        manifest = edit(json.loads(path.read_text(encoding="utf-8")))
        path.write_text(json.dumps(manifest), encoding="utf-8")

    return apply


def _drop(key):
    def edit(mapping):
        del mapping[key]
        return mapping

    return edit


def _at(config, path):
    for step in path:
        config = config[step]
    return config


def _set(*path, value):
    return lambda config: _at(config, path[:-1]).__setitem__(path[-1], value)


def _delete(*path):
    return lambda config: _at(config, path[:-1]).__delitem__(path[-1])


# Each case with the field its error must name. With the rebuild that read
# manifests without a schema, the first ten ended in a traceback (exit 1),
# negative-t1 and negative-pump-power in an untyped runtime error (exit 3),
# the next three loaded silently, and bogus-analysis-kind alone exited 2.
HAND_CASES = {
    "missing-seed": (_edit_config(_delete("seed")), "config.seed: required field is missing"),
    "missing-t1": (
        _edit_config(_delete("system", "t1")),
        "config.system.t1: required field is missing",
    ),
    "missing-protocols": (
        _edit_config(_delete("protocols")),
        "config.protocols: required field is missing",
    ),
    "missing-grids": (
        _edit_config(_delete("protocols", 0, "grids")),
        "config.protocols[0].grids.delays: required grid is missing",
    ),
    "string-sigma": (
        _edit_config(_set("readout", "sigma", value="0.35")),
        "config.readout.sigma: expected a plain number",
    ),
    "extra-pump-key": (
        _edit_config(_set("protocols", 2, "pump", "gain", value=1.0)),
        "config.protocols[2].pump: unknown field 'gain'",
    ),
    "input-naming-no-protocol": (
        _edit_config(_set("analyses", 0, "inputs", "ramsey", value="nope")),
        "config.analyses[0].inputs.ramsey: no protocol block named 'nope'",
    ),
    "list-manifest": (_edit_envelope(lambda manifest: [manifest]), "expected a JSON object"),
    "missing-hash": (_edit_envelope(_drop("hash")), "'hash' must be a string"),
    "missing-config": (_edit_envelope(_drop("config")), "'config' must be a mapping"),
    "negative-t1": (
        _edit_config(_set("system", "t1", value=-1.0)),
        "config.system: t1 must be > 0",
    ),
    "negative-pump-power": (
        _edit_config(_set("protocols", 2, "pump", "power_w", value=-1.0)),
        "config.protocols[2].pump: pump power must be >= 0",
    ),
    "bogus-protocol-kind": (
        _edit_config(_set("protocols", 0, "kind", value="teleport")),
        "config.protocols[0].kind: 'teleport' is not one of",
    ),
    "unknown-config-field": (
        _edit_config(_set("extra", value=1)),
        "config: unknown field 'extra'",
    ),
    "string-ideal-qubit": (
        _edit_config(_set("system", "ideal_qubit", value="no")),
        "config.system.ideal_qubit: expected true/false",
    ),
    "bogus-analysis-kind": (
        _edit_config(_set("analyses", 1, "kind", value="astrology")),
        "config.analyses[1].kind: 'astrology' is not one of",
    ),
    # a grid that no longer matches the axis its dataset was sampled on
    "probe-freqs-element-deleted": (
        _edit_config(_delete("protocols", 2, "grids", "probe_freqs", 35)),
        "config.protocols[2].grids.probe_freqs does not match axis 'probe_frequency' "
        "of spectroscopy.csv",
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_CASES))
def test_malformed_manifest_exits_2_naming_the_field(artifact, tmp_path, case, capsys):
    edit, message = HAND_CASES[case]
    twin = tmp_path / "twin"
    shutil.copytree(artifact, twin)
    edit(twin)
    code, err = _report(twin, capsys)
    assert code == 2, err
    assert err.startswith("error:") and "manifest.json" in err and message in err, err
    assert "Traceback" not in err


# Values that replace a field; a number never stands in for another number.
SWAPS = (None, True, 2.5, "text", [2.5], {"text": 2.5})


def _same_type(left, right) -> bool:
    def kind(value):
        if isinstance(value, bool) or value is None:
            return type(value)
        return float if isinstance(value, (int, float)) else type(value)

    return kind(left) == kind(right)


def _paths(node, prefix=()):
    """Every key and list index below ``node``, one element per grid list."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, dict) or (isinstance(value, list) and value):
            if isinstance(value, list) and not isinstance(value[0], (dict, list)):
                yield prefix + (key, len(value) // 2)
            else:
                yield from _paths(value, prefix + (key,))


def _mutations(config, rng):
    """(label, edit) for a deletion, a type swap and a key rename at every path."""
    for path in _paths(config):
        where, key = path[:-1], path[-1]
        swaps = [v for v in SWAPS if not _same_type(v, _at(config, path))]
        swap = swaps[int(rng.integers(len(swaps)))]
        yield f"delete {path}", lambda c, w=where, k=key: _at(c, w).__delitem__(k)
        yield f"swap {path} to {swap!r}", lambda c, w=where, k=key, v=swap: _at(
            c, w
        ).__setitem__(k, v)
        if isinstance(key, str):
            yield f"rename {path}", lambda c, w=where, k=key: _at(c, w).__setitem__(
                k + "_renamed", _at(c, w).pop(k)
            )


def test_fuzzed_manifests_load_or_exit_2(artifact, tmp_path, capsys):
    config = json.loads((artifact / "manifest.json").read_text(encoding="utf-8"))["config"]
    rng = np.random.default_rng(2024)
    cases = list(_mutations(config, rng))
    assert len(cases) > 300
    outcomes = {0: 0, 2: 0}
    for label, edit in cases:
        twin = tmp_path / "twin"
        shutil.rmtree(twin, ignore_errors=True)
        shutil.copytree(artifact, twin)
        rewrite_manifest(twin, edit)
        code, err = _report(twin, capsys)
        assert code in outcomes, f"{label}: exit {code}: {err}"
        if code == 2:
            assert err.startswith("error:") and "manifest.json: config" in err, f"{label}: {err}"
        outcomes[code] += 1
    assert outcomes[0] and outcomes[2]
