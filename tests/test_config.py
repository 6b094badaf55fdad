"""Tests for unit-tagged config parsing, resolution, and manifest hashing."""

import copy
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import kind_blocks

from magsense.cli import bundled_configs, main
from magsense.config import (
    ANALYSES,
    MAX_SHOT_BUFFER_BYTES,
    ExperimentConfig,
    from_resolved,
    load_config,
    parse_config,
    parse_grid,
    parse_quantity,
    resolved_hash,
)
from magsense.errors import ConfigError
from magsense.params import PumpSpec, SystemParams
from magsense.protocols import PROTOCOLS, ProtocolConfig
from magsense.readout import ReadoutModel

TWO_PI = 2.0 * math.pi


def base_config(**overrides):
    """Minimal valid raw config: one ramsey protocol, no analyses."""
    raw = {
        "name": "unit-test",
        "protocols": [
            {"kind": "ramsey", "delays": ["0 us", "1 us", "2 us"]},
        ],
    }
    raw.update(overrides)
    return raw


# the fewest Ramsey delays the coherence analysis's damped sinusoid can fit
FITTED_DELAYS = {"start": "0 us", "stop": "5 us", "count": 6}


class TestQuantityParsing:
    def test_frequency_units_carry_two_pi(self):
        assert parse_quantity("4.81 MHz", "frequency", "p") == pytest.approx(
            TWO_PI * 4.81e6, rel=1e-12
        )
        assert parse_quantity("67 kHz", "frequency", "p") == pytest.approx(
            TWO_PI * 67e3, rel=1e-12
        )
        assert parse_quantity("5.9 GHz", "frequency", "p") == pytest.approx(
            TWO_PI * 5.9e9, rel=1e-12
        )
        assert parse_quantity("10 Hz", "frequency", "p") == pytest.approx(
            TWO_PI * 10, rel=1e-12
        )

    def test_rad_per_s_taken_verbatim(self):
        assert parse_quantity("3.0222e7 rad/s", "frequency", "p") == pytest.approx(
            3.0222e7, rel=1e-15
        )

    def test_time_power_inverse_power_angle(self):
        assert parse_quantity("2.78 us", "time", "p") == pytest.approx(2.78e-6)
        assert parse_quantity("250 ns", "time", "p") == pytest.approx(250e-9)
        assert parse_quantity("1 uW", "power", "p") == pytest.approx(1e-6)
        assert parse_quantity("2.3e9 1/W", "inverse-power", "p") == pytest.approx(2.3e9)
        assert parse_quantity("4 1/nW", "inverse-power", "p") == pytest.approx(4e9)
        assert parse_quantity("90 deg", "angle", "p") == pytest.approx(math.pi / 2)

    def test_bare_number_where_unit_required(self):
        with pytest.raises(ConfigError, match="explicit unit"):
            parse_quantity(4.81, "frequency", "system.kappa_m")

    def test_dimensionless_requires_plain_number(self):
        assert parse_quantity(3, "dimensionless", "p") == 3.0
        with pytest.raises(ConfigError, match="plain number"):
            parse_quantity("3 rad", "dimensionless", "p")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_dimensionless_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="n0: value must be finite"):
            parse_quantity(value, "dimensionless", "n0")

    def test_unknown_unit_is_rejected_with_choices(self):
        with pytest.raises(ConfigError, match="unknown frequency unit 'THz'"):
            parse_quantity("4.81 THz", "frequency", "p")

    def test_malformed_quantity_strings(self):
        with pytest.raises(ConfigError, match="expected 'value unit'"):
            parse_quantity("4.81MHz", "frequency", "p")
        with pytest.raises(ConfigError, match="is not a number"):
            parse_quantity("abc MHz", "frequency", "p")
        with pytest.raises(ConfigError, match="finite"):
            parse_quantity("inf s", "time", "p")


class TestGridParsing:
    def test_list_form(self):
        grid = parse_grid(["0 MHz", "1 MHz"], "frequency", "g", {})
        assert np.allclose(grid, [0.0, TWO_PI * 1e6])

    def test_mapping_form_is_linspace(self):
        grid = parse_grid(
            {"start": "0 us", "stop": "8 us", "count": 161}, "time", "g", {}
        )
        assert len(grid) == 161
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(8e-6)
        assert np.allclose(np.diff(grid), grid[1] - grid[0])

    def test_around_offsets_by_anchor(self):
        anchors = {"omega_q": TWO_PI * 5.9e9}
        grid = parse_grid(
            {"start": "-10 MHz", "stop": "10 MHz", "count": 3, "around": "omega_q"},
            "frequency",
            "g",
            anchors,
        )
        assert grid[1] == pytest.approx(TWO_PI * 5.9e9, rel=1e-12)
        assert grid[-1] - grid[0] == pytest.approx(TWO_PI * 20e6, rel=1e-12)

    def test_around_rejected_off_frequency_grids(self):
        with pytest.raises(ConfigError, match="only frequency grids"):
            parse_grid(
                {"start": "0 us", "stop": "1 us", "count": 2, "around": "omega_q"},
                "time",
                "g",
                {"omega_q": 1.0},
            )

    def test_unknown_anchor(self):
        with pytest.raises(ConfigError, match="unknown anchor 'omega_x'"):
            parse_grid(
                {"start": "0 MHz", "stop": "1 MHz", "count": 2, "around": "omega_x"},
                "frequency",
                "g",
                {"omega_q": 1.0},
            )

    def test_empty_list_and_bad_count(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_grid([], "time", "g", {})
        with pytest.raises(ConfigError, match="count"):
            parse_grid({"start": "0 us", "stop": "1 us", "count": 0}, "time", "g", {})


@pytest.fixture
def no_grid_arrays(monkeypatch):
    # an unchecked grid fails here instead of allocating
    def no_grid_array(start, stop, count):
        assert count <= 1000, "an oversized grid array was built"
        return np.arange(count, dtype=float)

    monkeypatch.setattr(np, "linspace", no_grid_array)


@pytest.mark.usefixtures("no_grid_arrays")
class TestShotBufferBound:
    def test_bundled_protocols_fit_well_inside(self):
        for path in bundled_configs().values():
            config = load_config(path)
            for node in config.protocols:
                points = math.prod(len(grid) for grid in node.grids.values())
                shots = 8 * points * config.acquisition["n_shots"]
                assert shots < MAX_SHOT_BUFFER_BYTES / 32

    @pytest.mark.parametrize("count", [10**12, 10**19])
    def test_a_huge_count_names_its_field(self, count):
        delays = {"start": "0 us", "stop": "1 us", "count": count}
        raw = base_config(protocols=[{"kind": "ramsey", "delays": delays}])
        with pytest.raises(ConfigError, match=rf"protocols\[0\]\.delays\.count: {count} points exceed"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "count, code",
        [(MAX_SHOT_BUFFER_BYTES // 8, 0), (MAX_SHOT_BUFFER_BYTES // 8 + 1, 2), (10**12, 2)],
    )
    def test_the_sensitivity_grid_count_is_bounded(self, count, code, tmp_path, capsys):
        text = bundled_configs()["sensitivity-scan"].read_text(encoding="utf-8")
        assert text.count("    count: 81\n") == 1
        path = tmp_path / "huge-count.yaml"
        text = text.replace("    count: 81\n", f"    count: {count}\n")
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == code
        if code:
            err = capsys.readouterr().err
            assert f"analyses[0].count: {count} points exceed" in err, err

    def test_the_bound_is_on_the_product_of_grids_and_shots(self):
        limit = MAX_SHOT_BUFFER_BYTES // 8
        raw = base_config(
            acquisition={},
            protocols=[
                {
                    "kind": "decay-phase",
                    "sense_times": {"start": "0 ns", "stop": "1 ns", "count": 2},
                    "second_pulse_phases": {"start": "0 rad", "stop": "1 rad", "count": 3},
                }
            ],
        )
        raw["acquisition"]["n_shots"] = limit // 6
        parse_config(raw)
        raw["acquisition"]["n_shots"] = limit // 6 + 1
        with pytest.raises(
            ConfigError, match=rf"second_pulse_phases\.count: 3 points exceed the 2 that fit"
        ):
            parse_config(raw)
        # a list grid and the relaxation scan's default grid count as well
        raw["acquisition"]["n_shots"] = limit // 2
        raw["protocols"] = [{"kind": "ramsey", "delays": ["0 us", "1 us", "2 us"]}]
        with pytest.raises(ConfigError, match=r"protocols\[0\]\.delays: 3 points exceed"):
            parse_config(raw)
        raw["protocols"] = [{"kind": "relaxation"}]
        with pytest.raises(ConfigError, match=r"protocols\[0\]\.delays: 20 points exceed"):
            parse_config(raw)


# Values every field of a bundled config is set to: wrong types, containers,
# malformed and non-finite quantities, negative, huge and unit-less numbers.
HOSTILE_VALUES = (
    None,
    True,
    "text",
    "",
    "1 parsec",
    "nan MHz",
    "inf us",
    "-1 us",
    "1e400 s",
    -1,
    0,
    2.5,
    -2.5,
    10**19,
    1e19,
    math.nan,
    math.inf,
    -math.inf,
    [1],
    {"text": 1},
    [],
    {},
)


def _field_paths(node, prefix=()):
    """Every key and list index below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from _field_paths(value, prefix + (key,))


def _field_label(source: str, path: tuple) -> str:
    return source + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _names_field(message: str, source: str, path: tuple) -> bool:
    """The message names the field, or its block and then its key."""
    if _field_label(source, path) in message:
        return True
    block = _field_label(source, path[:-1]) + ":"
    return block in message and str(path[-1]) in message.split(block, 1)[1]


def _fuzzed_configs(rng):
    """(bundled name, field path, hostile value, mutated raw config) cases."""
    for name, path in sorted(bundled_configs().items()):
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
        for field_path in _field_paths(raw):
            # two seeded numbers of random sign and magnitude join the fixed list
            seeded = (
                float(rng.normal() * 10.0 ** rng.integers(-12, 30)),
                int(rng.integers(-(2**62), 2**62)),
            )
            for value in HOSTILE_VALUES + seeded:
                mutated = copy.deepcopy(raw)
                block = mutated
                for key in field_path[:-1]:
                    block = block[key]
                block[field_path[-1]] = copy.deepcopy(value)
                yield name, field_path, value, mutated


@pytest.mark.usefixtures("no_grid_arrays")
class TestConfigFieldFuzzer:
    def test_every_hostile_field_loads_or_names_the_field(self):
        outcomes = {"loaded": 0, "rejected": 0}
        cases = list(_fuzzed_configs(np.random.default_rng(2026)))
        assert len(cases) > 3000
        for name, path, value, raw in cases:
            case = f"{name}: {_field_label('config', path)} = {value!r}"
            try:
                parse_config(raw, source="config")
            except ConfigError as exc:
                assert _names_field(str(exc), "config", path), f"{case}: {exc}"
                outcomes["rejected"] += 1
            else:
                outcomes["loaded"] += 1
        assert outcomes["loaded"] and outcomes["rejected"]

    def test_validate_exits_2_on_a_seeded_sample(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        cases = list(_fuzzed_configs(rng))
        path = tmp_path / "fuzzed.yaml"
        codes = set()
        for index in rng.choice(len(cases), size=40, replace=False):
            name, field_path, value, raw = cases[int(index)]
            path.write_text(yaml.safe_dump(raw), encoding="utf-8")
            try:
                parse_config(raw, source=str(path))
                expected = 0
            except ConfigError:
                expected = 2
            capsys.readouterr()
            code = main(["validate", str(path)])
            err = capsys.readouterr().err
            case = f"{name}: {_field_label('config', field_path)} = {value!r}"
            assert code == expected, f"{case}: exit {code}: {err}"
            if code == 2:
                assert err.startswith("error:") and "Traceback" not in err, f"{case}: {err}"
                assert _names_field(err, str(path), field_path), f"{case}: {err}"
            codes.add(code)
        assert codes == {0, 2}


class TestFittedGrids:
    @pytest.mark.parametrize(
        "protocol, key, count, family, n_min",
        [
            (0, "probe_freqs", 1, "gaussian", 5),
            (0, "probe_freqs", 4, "gaussian", 5),
            (0, "pump_powers", 2, "polynomial", 3),
            (1, "delays", 3, "damped-sinusoid", 6),
            (1, "delays", 5, "damped-sinusoid", 6),
            (0, "second_pulse_phases", 3, "fringe", 4),
        ],
    )
    def test_a_grid_too_short_for_its_fit_exits_2(
        self, protocol, key, count, family, n_min, tmp_path, capsys
    ):
        name = "decay-tracking" if key == "second_pulse_phases" else "sensitivity-scan"
        config = yaml.safe_load(bundled_configs()[name].read_text(encoding="utf-8"))
        path = tmp_path / "short.yaml"
        config["protocols"][protocol][key]["count"] = n_min
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        config["protocols"][protocol][key]["count"] = count
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert (
            f"short.yaml.protocols[{protocol}].{key}: the {family} fit along this grid "
            f"needs at least {n_min} points, got {count}"
        ) in err, err
        # with no analysis to read it, the grid is only sampled
        del config["analyses"]
        config.pop("sensing", None)
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize(
        "name, protocol, key, analysis, n_min",
        [
            ("decay-tracking", 0, "sense_times", "lifetime-phase", 6),
            ("decay-tracking", 1, "sense_times", "lifetime-frequency", 6),
            ("parametric-scan", 0, "deltas", "parametric", 7),
        ],
    )
    def test_a_grid_too_short_for_its_estimator_exits_2(
        self, name, protocol, key, analysis, n_min, tmp_path, capsys
    ):
        # the estimators need more points than their fits' parameter counts;
        # validate used to pass such a grid, and run to exit 3 after sampling
        config = yaml.safe_load(bundled_configs()[name].read_text(encoding="utf-8"))
        path = tmp_path / "short.yaml"
        config["protocols"][protocol][key]["count"] = n_min
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        config["protocols"][protocol][key]["count"] = n_min - 1
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert (
            f"short.yaml.protocols[{protocol}].{key}: the {analysis} estimate along this grid "
            f"needs at least {n_min} points, got {n_min - 1}"
        ) in err, err

    def test_every_fitted_grid_has_its_fit(self):
        read = set()
        for kind, inputs in ANALYSES.items():
            for input_key, (protocol, fits) in inputs.items():
                assert sorted(fits) == sorted(PROTOCOLS[protocol][1]), (kind, input_key)
                read.add(protocol)
        assert read == set(PROTOCOLS)


class TestConfigValidation:
    def test_field_tables_repeat_the_model_defaults(self):
        # the readout and acquisition tables restate the defaults of
        # ReadoutModel.for_qubit and ProtocolConfig, the threshold midpoint
        # among them; a default edited on one side only fails here
        config = parse_config(base_config())
        assert config.readout == ReadoutModel.for_qubit(config.system.t1)
        assert config.protocol_config(PumpSpec()) == ProtocolConfig(
            readout=config.readout, master_seed=config.seed
        )

    def test_minimal_config_gets_reference_defaults(self):
        config = parse_config(base_config())
        reference = SystemParams.reference()
        assert config.seed == 1
        assert config.system == reference
        assert config.readout.sigma == 0.35
        assert config.acquisition["n_shots"] == 400
        assert config.acquisition["mode"] == "shots"
        assert config.sensing is None

    def test_system_override_in_config_units(self):
        config = parse_config(
            base_config(system={"kappa_m": "4.81 MHz", "t1": "2.78 us"})
        )
        assert config.system.kappa_m == pytest.approx(TWO_PI * 4.81e6, rel=1e-12)
        assert config.system.t1 == pytest.approx(2.78e-6)

    def test_chi_override_rescales_coupling(self):
        reference = SystemParams.reference()
        config = parse_config(base_config(system={"chi_qm": "-134 kHz"}))
        expected = math.sqrt(
            config.system.chi_qm / reference.chi_qc
        ) * (reference.omega_m - reference.omega_c)
        assert config.system.g_mc == pytest.approx(expected, rel=1e-12)

    def test_unknown_field_is_named_with_its_path(self):
        with pytest.raises(ConfigError, match="unknown field 'extra'"):
            parse_config(base_config(extra=1))
        raw = base_config()
        raw["protocols"][0]["typo_field"] = 2
        with pytest.raises(
            ConfigError, match=r"config\.protocols\[0\]: unknown field 'typo_field'"
        ):
            parse_config(raw)

    def test_bare_number_in_unit_field_is_rejected(self):
        with pytest.raises(ConfigError, match=r"system\.kappa_m"):
            parse_config(base_config(system={"kappa_m": 4.81}))

    def test_missing_required_grid(self):
        raw = base_config()
        raw["protocols"] = [
            {"kind": "spectroscopy", "pump_powers": ["0 W"], "pump": {"c_pump": "1 1/W"}}
        ]
        with pytest.raises(ConfigError, match="probe_freqs: required grid is missing"):
            parse_config(raw)

    def test_required_pump_key(self):
        raw = base_config()
        raw["protocols"] = [
            {
                "kind": "spectroscopy",
                "pump_powers": ["0 W"],
                "probe_freqs": ["5.9 GHz"],
            }
        ]
        with pytest.raises(ConfigError, match="c_pump: must be > 0"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "protocol, message",
        [
            (
                {"kind": "ramsey", "delays": ["0 us", "1 us"], "n0": 5},
                "protocols[0]: unknown field 'n0'",
            ),
            (
                {"kind": "relaxation", "pump": {"c_pump": "2.3e9 1/W"}},
                "protocols[0].pump: unknown field 'c_pump'",
            ),
            (
                {
                    "kind": "parametric-scan",
                    "deltas": ["0 MHz"],
                    "durations": ["0 us", "1 us"],
                    "pump": {"omega_qm": "0.66 MHz", "power": "1 uW"},
                },
                "protocols[0].pump: unknown field 'power'",
            ),
        ],
        ids=["n0-on-ramsey", "c_pump-on-relaxation", "power-on-parametric-scan"],
    )
    def test_a_field_the_kind_does_not_read_is_unknown(self, protocol, message, tmp_path, capsys):
        # such a field used to validate, and to change the manifest hash
        # while changing no output
        path = tmp_path / "unread.yaml"
        path.write_text(yaml.safe_dump(base_config(protocols=[protocol])), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}.{message}\n"

    def test_relaxation_default_grid_is_resolved_at_parse_time(self, tmp_path, capsys):
        raw = base_config(protocols=[{"kind": "relaxation"}])
        config = parse_config(raw)
        t1 = SystemParams.reference().t1
        assert np.array_equal(config.protocols[0].grids["delays"], np.linspace(0.0, 4 * t1, 20))
        assert config.resolved["protocols"][0]["grids"]["delays"] == list(
            np.linspace(0.0, 4 * t1, 20)
        )
        # an ideal qubit's T1 is infinite: validate used to accept the block,
        # and run failed after sampling, with an untyped error (exit 3)
        raw["system"] = {"ideal_qubit": True}
        path = tmp_path / "ideal.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}.protocols[0].delays: relaxation scan needs an explicit "
            "grid for infinite T1\n"
        )
        raw["protocols"][0]["delays"] = ["0 us", "1 us"]
        assert parse_config(raw).protocols[0].grids["delays"].tolist() == [0.0, 1e-6]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"system": {"t2r": "0 us"}}, r"config\.system\.t2r: must be > 0"),
            ({"system": {"chi_qc": "0 MHz"}}, r"config\.system\.chi_qc: must be nonzero"),
            (
                {"protocols": [{"kind": "ramsey", "delays": ["1 us"], "pump": {"power": "-1 W"}}]},
                r"config\.protocols\[0\]\.pump: pump power must be >= 0",
            ),
        ],
        ids=["zero-t2r", "zero-chi_qc", "negative-pump-power"],
    )
    def test_constructor_errors_name_their_block(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(base_config(**overrides))

    def test_negative_seed_is_rejected(self):
        # numpy seeds streams from non-negative integers; at run time a
        # negative seed used to end in an untyped runtime error
        assert parse_config(base_config(seed=0)).seed == 0
        with pytest.raises(ConfigError, match=r"config\.seed: must be >= 0"):
            parse_config(base_config(seed=-1))

    def test_duplicate_protocol_names(self):
        raw = base_config()
        raw["protocols"] = [
            {"kind": "ramsey", "name": "twin", "delays": ["0 us", "1 us"]},
            {"kind": "relaxation", "name": "twin"},
        ]
        with pytest.raises(ConfigError, match="duplicate name 'twin'"):
            parse_config(raw)

    def test_a_second_analysis_of_a_kind_is_rejected(self, tmp_path, capsys):
        phase = {
            "kind": "decay-phase",
            "n0": 650,
            "sense_times": {"start": "0 ns", "stop": "240 ns", "count": 7},
            "second_pulse_phases": {"start": "0 rad", "stop": "6 rad", "count": 9},
        }
        raw = base_config(
            protocols=[{**phase, "name": "early"}, {**phase, "name": "late"}],
            analyses=[
                {"kind": "lifetime-phase", "dataset": "early"},
                {"kind": "lifetime-phase", "dataset": "late"},
            ],
        )
        message = (
            "config.analyses[1].kind: a second 'lifetime-phase' analysis, after "
            "analyses[0]; each kind writes one report"
        )
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == message
        path = tmp_path / "twice.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "analyses[1].kind" in capsys.readouterr().err
        del raw["analyses"][1]
        assert parse_config(raw).analyses[0].inputs == {"dataset": "early"}

    def test_analysis_input_kind_mismatch(self):
        raw = base_config(
            analyses=[{"kind": "coherence", "ramsey": "ramsey", "relaxation": "ramsey"}]
        )
        with pytest.raises(ConfigError, match="has kind 'ramsey', expected 'relaxation'"):
            parse_config(raw)

    def test_analysis_unknown_protocol_name(self):
        raw = base_config(analyses=[{"kind": "coherence", "relaxation": "nope"}])
        raw["protocols"].append({"kind": "relaxation", "name": "t1"})
        with pytest.raises(ConfigError, match="no protocol block named 'nope'"):
            parse_config(raw)

    def test_analysis_inputs_bind_by_unique_kind(self):
        raw = base_config(analyses=[{"kind": "coherence"}])
        raw["protocols"][0]["delays"] = FITTED_DELAYS
        raw["protocols"].append({"kind": "relaxation", "name": "t1"})
        config = parse_config(raw)
        assert config.analyses[0].inputs == {"ramsey": "ramsey", "relaxation": "t1"}

    def test_sensitivity_needs_sensing_block(self):
        raw = base_config(analyses=[{"kind": "sensitivity"}])
        raw["protocols"] = [
            {
                "kind": "spectroscopy",
                "name": "spec",
                "pump_powers": ["0 W", "0.5 uW", "1 uW"],
                "probe_freqs": {"start": "5.8 GHz", "stop": "5.9 GHz", "count": 5},
                "pump": {"c_pump": "2.3e9 1/W"},
            },
            {
                "kind": "ramsey-series",
                "name": "series",
                "pump_powers": ["0 W", "0.5 nW", "1 nW"],
                "delays": FITTED_DELAYS,
                "pump": {"c_pump": "2.3e9 1/W"},
            },
        ]
        with pytest.raises(ConfigError, match="needs a 'sensing' block"):
            parse_config(raw)
        raw["sensing"] = {"tau": "32 us", "n_shots": 1000}
        config = parse_config(raw)
        assert config.sensing.tau == pytest.approx(32e-6)
        assert config.sensing.n_shots == 1000
        assert config.sensing.threshold == 0.18
        assert config.analyses[0].options == {"n_min": 0.0, "n_max": 2000.0, "count": 81}

    def test_negative_sensitivity_n_min_is_rejected(self, tmp_path, capsys):
        # a negative n_min used to validate and run, sweeping negative
        # magnon numbers through the report
        text = bundled_configs()["sensitivity-scan"].read_text(encoding="utf-8")
        assert text.count("    n_min: 0\n") == 1
        path = tmp_path / "negative-n-min.yaml"
        path.write_text(text.replace("    n_min: 0\n", "    n_min: -100\n"), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "analyses[0].n_min: must be >= 0" in capsys.readouterr().err

    def test_empty_protocols_rejected(self):
        with pytest.raises(ConfigError, match="non-empty list"):
            parse_config(base_config(protocols=[]))

    def test_a_protocol_name_may_fill_a_file_name(self):
        # <name>_shots.npz may take exactly 255 bytes once encoded
        for name in ("x" * 245, "\u00e9" * 122 + "x"):
            protocol = {**base_config()["protocols"][0], "name": name}
            assert parse_config(base_config(protocols=[protocol])).protocols[0].name == name

    def test_ideal_qubit_flag_idealizes_readout(self):
        plain = parse_config(base_config())
        ideal = parse_config(base_config(system={"ideal_qubit": True}))
        assert ideal.system == plain.system.with_ideal_qubit()
        # the readout is built from the ideal device's T1: exp(-window/inf) = 1
        assert ideal.readout == ReadoutModel.for_qubit(math.inf)
        assert ideal.readout == ReadoutModel.for_qubit(plain.system.t1).idealized()
        assert ideal.readout.contrast() > plain.readout.contrast()
        # the manifest records the measured system and the flag
        assert ideal.resolved["system"] == {**plain.resolved["system"], "ideal_qubit": True}

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("decay-tracking", None, "protocols[0] (decay-phase)"),
            (
                "decay-tracking",
                lambda raw: raw["protocols"].pop(0),
                "protocols[0] (decay-spectroscopy)",
            ),
            ("sensitivity-scan", None, "analyses[0] (sensitivity)"),
            ("magnon-counting", None, "analyses[0] (calibration)"),
        ],
        ids=["decay-phase", "decay-spectroscopy", "sensitivity", "calibration"],
    )
    def test_a_zero_magnon_linewidth_exits_2_where_it_is_divided_by(
        self, name, edit, message, tmp_path, capsys
    ):
        # such a config used to validate; run then ended in a ZeroDivisionError
        # traceback, or exited 3 after sampling every protocol
        raw = yaml.safe_load(bundled_configs()[name].read_text(encoding="utf-8"))
        raw["system"] = {**(raw.get("system") or {}), "kappa_m": "0 MHz"}
        if edit is not None:
            edit(raw)
            raw.pop("analyses")
        path = tmp_path / "no-linewidth.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--output", str(out)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: {path}.system.kappa_m: must be > 0 for {message}\n"
            )
        assert not out.exists()

    def test_a_zero_magnon_linewidth_is_allowed_where_nothing_divides_by_it(self):
        raw = base_config(system={"kappa_m": "0 MHz"}, protocols=kind_blocks())
        raw["protocols"] = [
            block for block in raw["protocols"] if PROTOCOLS[block["kind"]][3] != "n0"
        ]
        assert parse_config(raw).system.kappa_m == 0.0

    @pytest.mark.parametrize(
        "durations, message",
        [
            ({"start": "0.1 us", "stop": "1 us", "count": 5}, "must start at 0 with >= 2 points"),
            (["0 us", "0.1 us", "0.3 us", "0.4 us", "0.5 us"], "must be uniform"),
        ],
        ids=["offset", "non-uniform"],
    )
    def test_a_duration_grid_the_scan_cannot_record_on_exits_2(
        self, durations, message, tmp_path, capsys
    ):
        # validate used to pass such a grid, and run to exit 3 after sampling
        # every earlier protocol
        raw = yaml.safe_load(bundled_configs()["parametric-scan"].read_text(encoding="utf-8"))
        raw["protocols"].insert(0, {"kind": "relaxation"})
        raw["protocols"][1]["durations"] = durations
        path = tmp_path / "durations.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--output", str(out)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: {path}.protocols[1].durations: duration grid {message}\n"
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "acquisition, message",
        [
            ({"n_shots": 0}, "n_shots must be >= 1"),
            ({"probe_amplitude": 1.5}, r"probe_amplitude must lie in \(0, 1\]"),
            ({"half_pi_duration": "-16 ns"}, "half_pi_duration must be >= 0"),
            ({"pi_duration": "-32 ns"}, "pi_duration must be >= 0"),
            ({"dead_time": "-1 us"}, "dead_time must be >= 0"),
        ],
    )
    def test_acquisition_values_checked_at_parse_time(self, acquisition, message):
        with pytest.raises(ConfigError, match=rf"config\.acquisition: {message}"):
            parse_config(base_config(acquisition=acquisition))

    def test_protocol_config_carries_seed_and_acquisition(self):
        config = parse_config(
            base_config(seed=9, acquisition={"n_shots": 123, "dead_time": "30 us"})
        )
        protocol_config = config.protocol_config(config.protocols[0].pump)
        assert protocol_config.master_seed == 9
        assert protocol_config.n_shots == 123
        assert protocol_config.dead_time == pytest.approx(30e-6)


class TestResolvedManifest:
    def test_hash_is_deterministic_and_seed_sensitive(self):
        a = parse_config(base_config())
        b = parse_config(base_config())
        c = parse_config(base_config(seed=2))
        assert a.manifest_hash == b.manifest_hash
        assert a.manifest_hash != c.manifest_hash
        assert a.manifest_hash == resolved_hash(a.resolved)

    def test_resolved_is_json_serializable(self):
        config = parse_config(base_config())
        payload = json.dumps(config.resolved, sort_keys=True)
        assert json.loads(payload) == config.resolved

    def test_resolved_acquisition_holds_the_protocol_knobs(self):
        # every recorded acquisition and system field has a constructor field
        # behind it, and each protocol records the n0 and pump fields its
        # kind reads and no other: a manifest records nothing that no code reads
        resolved = parse_config(base_config(protocols=kind_blocks())).resolved
        shared = {"readout", "master_seed", "pump"}
        for recorded, names in (
            (resolved["acquisition"], {f.name for f in fields(ProtocolConfig)} - shared),
            (resolved["system"], {f.name for f in fields(SystemParams)} | {"ideal_qubit"}),
        ):
            assert sorted(recorded) == sorted(names)
        pump_fields = {f.name for f in fields(PumpSpec)}
        assert [protocol["kind"] for protocol in resolved["protocols"]] == list(PROTOCOLS)
        for protocol in resolved["protocols"]:
            _, _, _, lead, pump_reads = PROTOCOLS[protocol["kind"]]
            assert ("n0" in protocol) == (lead == "n0"), protocol["kind"]
            assert set(protocol.get("pump", {})) == set(pump_reads) <= pump_fields

    def test_from_resolved_does_not_revalidate_acquisition(self):
        # an artifact's manifest loads as recorded, even with values that
        # parse_config now rejects
        resolved = parse_config(base_config()).resolved
        resolved["acquisition"]["pi_duration"] = -32e-9
        assert from_resolved(resolved).acquisition["pi_duration"] == -32e-9

    def test_from_resolved_round_trip(self):
        raw = base_config(
            seed=3,
            system={"kappa_m": "4.81 MHz"},
            acquisition={"n_shots": 250, "artificial_detuning": "1.5 MHz"},
            analyses=[{"kind": "coherence"}],
            sensing={"tau": "32 us", "n_shots": 1000},
        )
        raw["protocols"][0]["delays"] = FITTED_DELAYS
        raw["protocols"].append({"kind": "relaxation", "name": "t1"})
        config = parse_config(raw)
        rebuilt = from_resolved(config.resolved)
        assert isinstance(rebuilt, ExperimentConfig)
        assert rebuilt.manifest_hash == config.manifest_hash
        assert rebuilt.system == config.system
        assert rebuilt.readout == config.readout
        assert rebuilt.acquisition == config.acquisition
        assert rebuilt.sensing == config.sensing
        assert len(rebuilt.protocols) == len(config.protocols)
        for left, right in zip(rebuilt.protocols, config.protocols):
            assert left.kind == right.kind and left.name == right.name
            assert left.pump == right.pump
            assert sorted(left.grids) == sorted(right.grids)
            for key in left.grids:
                assert np.allclose(left.grids[key], right.grids[key])
        assert rebuilt.analyses == config.analyses


BUNDLED_HASHES = {
    "coherence-baseline": "86e7e5ce2523e1bdcce7fd372ff2031331bd9d74b8044f75e5ce266c13fc4195",
    "decay-tracking": "91e301894165178f2435ea9624febeeadfe29f0b25d0e1d664a6a05abd0ac58d",
    "magnon-counting": "0eb3f80a9363643d60fa8192f276969214dd6cbbe602083504c70f6fcfa3dbca",
    "parametric-scan": "10681c4dcc8ef8355cad8de5cfd26bf339007f1fcf33f6bf216661b1642a52ea",
    "sensitivity-scan-ideal": "76ed2feafcbf2afed365a522db9866a4b0b340942b583958554ce7069a22cbca",
    "sensitivity-scan": "75b9cb9c544f8114a51c7e1e856d85bd75e79331fa9810e4f192b192957441fc",
}


class TestBundledManifests:
    def test_bundled_manifest_hashes_are_pinned(self):
        hashes = {name: load_config(path).manifest_hash for name, path in bundled_configs().items()}
        assert hashes == BUNDLED_HASHES

    @pytest.mark.parametrize("name", sorted(BUNDLED_HASHES))
    def test_manifest_round_trip_rebuilds_every_field(self, name):
        config = load_config(bundled_configs()[name])
        rebuilt = from_resolved(json.loads(json.dumps(config.resolved)))
        for item in fields(ExperimentConfig):
            left, right = getattr(rebuilt, item.name), getattr(config, item.name)
            if item.name == "output":
                # the manifest records where nothing was written to
                assert left is None
            elif item.name == "protocols":
                assert len(left) == len(right)
                for mine, theirs in zip(left, right):
                    assert (mine.name, mine.kind, mine.pump, mine.n0) == (
                        theirs.name, theirs.kind, theirs.pump, theirs.n0
                    )
                    assert sorted(mine.grids) == sorted(theirs.grids)
                    for key in mine.grids:
                        assert np.array_equal(mine.grids[key], theirs.grids[key])
            else:
                assert left == right, item.name
        assert rebuilt.manifest_hash == BUNDLED_HASHES[name]


class TestLoadConfig:
    def test_yaml_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "name: file-test\n"
            "seed: 4\n"
            "protocols:\n"
            "  - kind: ramsey\n"
            "    delays: {start: 0 us, stop: 2 us, count: 5}\n",
            encoding="utf-8",
        )
        config = load_config(path)
        assert config.name == "file-test"
        assert config.seed == 4
        assert np.allclose(
            config.protocols[0].grids["delays"], np.linspace(0.0, 2e-6, 5)
        )

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("name: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(path)

    def test_non_mapping_yaml(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="must be a YAML mapping"):
            load_config(path)


def test_importing_the_cli_leaves_yaml_unloaded():
    # report reads only the artifact's JSON, so only load_config imports yaml
    code = "import sys\nimport magsense.cli\nprint('yaml' in sys.modules)\n"
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
