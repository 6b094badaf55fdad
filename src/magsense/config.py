"""Unit-tagged experiment configuration files.

A config is one YAML document with nested sections: system parameters,
readout model, acquisition settings, a list of protocol blocks, a list of
attached analyses, and an optional sensing block. Every physical quantity is
written as a "value unit" string ("4.81 MHz", "2.78 us", "1 uW") and
converted at parse time; frequencies tagged Hz/kHz/MHz/GHz are multiplied
by 2 pi, "rad/s" is taken as is. Plain numbers are accepted only for
dimensionless fields, so a bare number where a unit is required is a
validation error rather than a silent factor-of-2-pi bug.

Parsing produces a fully resolved mapping (every default materialized, all
values in SI radian units) whose canonical JSON is hashed into the run
manifest. ``from_resolved`` reads that recorded mapping back through the same
field tables, checks and constructors. A recorded quantity is an SI number
rather than a "value unit" string, every field must be present, and three
keys sit where the mapping puts them: the pump's ``power_w``, a protocol's
``grids`` and an analysis's ``inputs`` and ``options``. A manifest written
by an earlier version may still record a field since removed from the
schema (``REMOVED_FIELDS``); it is dropped where its recorded value is one
the current code reproduces, and rejected where it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fitting import FitModel
from .params import PumpSpec, SystemParams, gamma2_from_coherence
from .protocols import (
    BLUR_PHASE_LIMIT,
    DEFAULT_PROBE_DURATION,
    DEFAULT_RELAXATION_POINTS,
    GRIDS,
    PROTOCOLS,
    ProtocolConfig,
)
from .readout import DEFAULT_SIGMA, DEFAULT_WINDOW, ReadoutModel
from .sensitivity import DEFAULT_THRESHOLD, SensingConfig

TWO_PI = 2.0 * math.pi

FREQUENCY_UNITS = {
    "GHz": TWO_PI * 1e9,
    "MHz": TWO_PI * 1e6,
    "kHz": TWO_PI * 1e3,
    "Hz": TWO_PI,
    "rad/s": 1.0,
}
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
POWER_UNITS = {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "nW": 1e-9}
INVERSE_POWER_UNITS = {"1/W": 1.0, "1/mW": 1e3, "1/uW": 1e6, "1/nW": 1e9}
ANGLE_UNITS = {"rad": 1.0, "deg": math.pi / 180.0}

_UNIT_TABLES = {
    "frequency": FREQUENCY_UNITS,
    "time": TIME_UNITS,
    "power": POWER_UNITS,
    "inverse-power": INVERSE_POWER_UNITS,
    "angle": ANGLE_UNITS,
}

# Fields, per block, that manifests written by earlier versions may still
# record, each with the one recorded value the current code reproduces; None
# marks a field that never changed the output. A manifest's removed field is
# dropped on rebuild, or rejected at a value no longer reproduced; in YAML it
# is an unknown field.
REMOVED_FIELDS = {
    "system": {"chi_mc": None, "t2e": None},
    # a dt of 0 let the parametric scan pick its own Lindblad step
    "acquisition": {"workers": None, "dt": 0.0, "blur_phase_limit": BLUR_PHASE_LIMIT},
    "pump": {"drive_frequency": None, "delta": None},
}

# A protocol with keep_shots samples its grid into one (points, shots)
# float64 buffer, which its sidecar is written from without a copy. A run
# holds one protocol's shots at a time: they are dropped once written. Its
# peak RSS rose 8.3 bytes a shot, plus about 4 MiB, above start-up (4e6 and
# 8e6 kept shots in one protocol; two protocols of 8e6 each peaked as one;
# numpy 2.4, 2-vCPU Linux VM), so at the bound a run peaks about 0.56 GB
# above start-up however many protocols it has. A report reads each
# sidecar a block at a time and holds none of its shots. The
# largest bundled protocol with kept shots (decay-tracking's
# decay-spectroscopy, 1701 points x 800 shots) fills 10.9 MB of the bound.
MAX_SHOT_BUFFER_BYTES = 512 * 1024**2

# analysis kind -> {input key: expected protocol kind}
ANALYSIS_INPUTS = {
    "coherence": {"ramsey": "ramsey", "relaxation": "relaxation"},
    "calibration": {"spectroscopy": "spectroscopy", "ramsey_series": "ramsey-series"},
    "sensitivity": {"spectroscopy": "spectroscopy", "ramsey_series": "ramsey-series"},
    "lifetime-phase": {"dataset": "decay-phase"},
    "lifetime-frequency": {"dataset": "decay-spectroscopy"},
    "parametric": {"dataset": "parametric-scan"},
}


# protocol kind -> {grid key: the fit its analyses run along that grid}. A
# grid with no more points than the fit has parameters would fail that fit
# only after the run had sampled every grid, so a YAML config whose analysis
# reads such a grid is rejected up front.
_GRID_FITS = {
    "spectroscopy": {
        "pump_powers": FitModel("polynomial", order=1),
        "probe_freqs": FitModel("gaussian"),
    },
    "ramsey": {"delays": FitModel("damped-sinusoid")},
    "ramsey-series": {
        "pump_powers": FitModel("polynomial", order=1),
        "delays": FitModel("damped-sinusoid"),
    },
    "relaxation": {"delays": FitModel("exponential-decay")},
    "decay-phase": {
        "sense_times": FitModel("saturating-exponential"),
        "second_pulse_phases": FitModel("sinusoid"),
    },
    "decay-spectroscopy": {
        "sense_times": FitModel("exponential-decay"),
        "probe_freqs": FitModel("gaussian"),
    },
    "parametric-scan": {
        "deltas": FitModel("lorentzian"),
        "durations": FitModel("exponential-decay"),
    },
}


def parse_quantity(value, dimension: str, path: str) -> float:
    """Convert a "value unit" string (or plain number) to SI radian units."""
    if dimension == "dimensionless":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a plain number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{path}: value must be finite")
        return float(value)
    table = _UNIT_TABLES[dimension]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        raise ConfigError(
            f"{path}: {dimension} values need an explicit unit "
            f"(one of {', '.join(sorted(table))}), got bare number {value!r}"
        )
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a 'value unit' string, got {value!r}")
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(f"{path}: expected 'value unit', got {value!r}")
    magnitude, unit = parts
    if unit not in table:
        raise ConfigError(
            f"{path}: unknown {dimension} unit {unit!r} "
            f"(expected one of {', '.join(sorted(table))})"
        )
    try:
        number = float(magnitude)
    except ValueError as exc:
        raise ConfigError(f"{path}: {magnitude!r} is not a number") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{path}: value must be finite")
    return number * table[unit]


def _check(value, kind, path: str, recorded: bool):
    """One present field value of ``kind``.

    A kind is a unit dimension, "dimensionless", "integer", "boolean",
    "string", "list", or a tuple of allowed strings. A recorded quantity is
    an SI number, so it is checked as a plain finite number.
    """
    if kind in _UNIT_TABLES and not recorded:
        return parse_quantity(value, kind, path)
    if kind in _UNIT_TABLES or kind == "dimensionless":
        return parse_quantity(value, "dimensionless", path)
    if kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
    elif kind == "boolean":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
    elif kind == "list":
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
    elif not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    elif kind != "string" and value not in kind:
        raise ConfigError(f"{path}: {value!r} is not one of {', '.join(kind)}")
    return value


_REQUIRED = object()


class _Block:
    """A mapping section that tracks which keys were consumed.

    A recorded block is part of a manifest's resolved mapping: it holds SI
    numbers and every field, so it applies no defaults.
    """

    def __init__(self, raw, path: str, recorded: bool):
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a mapping")
        self.raw = raw
        self.path = path
        self.recorded = recorded
        self.seen: set[str] = set()

    def take(self, key: str):
        self.seen.add(key)
        return self.raw.get(key)

    def child(self, key: str) -> "_Block":
        return _Block(self.take(key), f"{self.path}.{key}", self.recorded)

    def get(self, key: str, kind, default=_REQUIRED):
        """One field; a default of None makes it optional."""
        value = self.take(key)
        if value is None:
            if default is _REQUIRED or (self.recorded and default is not None):
                raise ConfigError(f"{self.path}.{key}: required field is missing")
            return default
        return _check(value, kind, f"{self.path}.{key}", self.recorded)

    def read(self, table) -> dict:
        """The fields of a (key, kind, default) table."""
        return {key: self.get(key, kind, default) for key, kind, default in table}

    def drop_removed(self, block: str) -> None:
        """Take the ``REMOVED_FIELDS`` of ``block`` that a manifest records."""
        if not self.recorded:
            return
        for key, reproduced in REMOVED_FIELDS[block].items():
            value = self.take(key)
            if value is not None and reproduced is not None and value != reproduced:
                raise ConfigError(
                    f"{self.path}.{key}: the field was removed, and only "
                    f"{reproduced!r} is reproduced, not the recorded {value!r}"
                )

    def finish(self) -> None:
        unknown = sorted(set(self.raw) - self.seen)
        if unknown:
            raise ConfigError(f"{self.path}: unknown field {unknown[0]!r}")


def _check_points(points: int, max_points: int | None, path: str) -> None:
    if max_points is not None and points > max_points:
        raise ConfigError(
            f"{path}: {points} points exceed the {max_points} that fit, with "
            "acquisition.n_shots and the protocol's other grids, in the "
            f"{MAX_SHOT_BUFFER_BYTES}-byte shot buffer"
        )


def parse_grid(
    value,
    dimension: str,
    path: str,
    anchors: dict,
    max_points: int | None = None,
    recorded: bool = False,
) -> np.ndarray:
    """A grid is a list of quantities or a start/stop/count mapping.

    The mapping form accepts ``around: <system frequency field>``, which
    offsets start and stop by that resolved frequency. A grid longer than
    ``max_points`` is rejected before any array is built.
    """
    if isinstance(value, list):
        if not value:
            raise ConfigError(f"{path}: grid list is empty")
        _check_points(len(value), max_points, path)
        return np.array(
            [_check(v, dimension, f"{path}[{k}]", recorded) for k, v in enumerate(value)]
        )
    block = _Block(value, path, recorded)
    start = block.get("start", dimension)
    stop = block.get("stop", dimension)
    count = block.get("count", "integer")
    around = block.get("around", "string", None)
    block.finish()
    if count < 1:
        raise ConfigError(f"{path}.count: must be >= 1")
    _check_points(count, max_points, f"{path}.count")
    offset = 0.0
    if around is not None:
        if dimension != "frequency":
            raise ConfigError(f"{path}.around: only frequency grids take an anchor")
        if around not in anchors:
            raise ConfigError(
                f"{path}.around: unknown anchor {around!r} "
                f"(expected one of {', '.join(sorted(anchors))})"
            )
        offset = anchors[around]
    return offset + np.linspace(start, stop, count)


@dataclass(frozen=True)
class ProtocolNode:
    """One resolved protocol block: kind, grids, pump, shots overrides."""

    name: str
    kind: str
    grids: dict
    pump: PumpSpec
    n0: float = 0.0


@dataclass(frozen=True)
class AnalysisNode:
    """One resolved analysis block: kind, named dataset inputs, options."""

    kind: str
    inputs: dict
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: parameters, protocols, and analyses."""

    name: str
    description: str
    seed: int
    output: str | None
    system: SystemParams
    ideal_qubit: bool
    readout: ReadoutModel
    acquisition: dict
    protocols: tuple
    analyses: tuple
    sensing: SensingConfig | None
    resolved: dict

    def protocol_config(self, pump: PumpSpec, master_seed: int | None = None) -> ProtocolConfig:
        """ProtocolConfig for one protocol run, with the shared acquisition."""
        return ProtocolConfig(
            readout=self.readout,
            pump=pump,
            master_seed=self.seed if master_seed is None else master_seed,
            **self.acquisition,
        )

    @property
    def manifest_hash(self) -> str:
        return resolved_hash(self.resolved)


def resolved_hash(resolved: dict) -> str:
    """sha256 of the canonical JSON of the resolved config (seed included)."""
    payload = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Field tables: (key, kind, default). A default of None marks a field that
# may be absent; g_mc and gamma2_0 are then derived from the others.
_REFERENCE = SystemParams.reference()
_SYSTEM_FIELDS = tuple(
    (key, kind, None if key in ("g_mc", "gamma2_0") else getattr(_REFERENCE, key))
    for key, kind in (
        ("omega_c", "frequency"),
        ("omega_m", "frequency"),
        ("omega_q", "frequency"),
        ("alpha", "frequency"),
        ("g_qc", "frequency"),
        ("g_mc", "frequency"),
        ("chi_qc", "frequency"),
        ("chi_qm", "frequency"),
        ("kappa_m", "frequency"),
        ("gamma2_0", "frequency"),
        ("t1", "time"),
        ("t2r", "time"),
    )
)
_READOUT_FIELDS = (
    ("mu_g", "dimensionless", 0.0),
    ("mu_e", "dimensionless", 1.0),
    ("sigma", "dimensionless", DEFAULT_SIGMA),
    ("window", "time", DEFAULT_WINDOW),
)
_ACQUISITION_FIELDS = (
    ("n_shots", "integer", 400),
    ("mode", ("shots", "expectation"), "shots"),
    ("keep_shots", "boolean", False),
    ("probe_duration", "time", DEFAULT_PROBE_DURATION),
    ("probe_amplitude", "dimensionless", 0.9),
    ("pi_duration", "time", 32e-9),
    ("half_pi_duration", "time", 16e-9),
    ("artificial_detuning", "frequency", 0.0),
    ("dead_time", "time", 0.0),
)
# the pump's power_w is written "power" in YAML
_PUMP_FIELDS = (
    ("c_pump", "inverse-power", 0.0),
    ("omega_qm", "frequency", 0.0),
)
_SENSING_FIELDS = (
    ("tau", "time", _REQUIRED),
    ("n_shots", "integer", _REQUIRED),
    ("threshold", "dimensionless", DEFAULT_THRESHOLD),
)
_SENSITIVITY_OPTIONS = (
    ("n_min", "dimensionless", 0.0),
    ("n_max", "dimensionless", 2000.0),
    ("count", "integer", 81),
)


def _read_system(block: _Block) -> tuple[SystemParams, bool, dict]:
    values = block.read(_SYSTEM_FIELDS)
    ideal = block.get("ideal_qubit", "boolean", False)
    block.drop_removed("system")
    block.finish()
    # the derived g_mc and gamma2_0 divide by chi_qc and t2r
    if values["g_mc"] is None and values["chi_qc"] == 0:
        raise ConfigError(f"{block.path}.chi_qc: must be nonzero to derive g_mc")
    if values["gamma2_0"] is None and values["t2r"] <= 0:
        raise ConfigError(f"{block.path}.t2r: must be > 0")
    try:
        # keep the coupling set self-consistent with overridden chis unless
        # the coupling itself was pinned
        if values["g_mc"] is None:
            ratio = values["chi_qm"] / values["chi_qc"]
            if ratio < 0:
                raise ValueError("chi_qm and chi_qc must share a sign to derive g_mc")
            values["g_mc"] = math.sqrt(ratio) * (values["omega_m"] - values["omega_c"])
        if values["gamma2_0"] is None:
            values["gamma2_0"] = gamma2_from_coherence(values["t1"], values["t2r"])
        params = SystemParams(**values)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{block.path}: {exc}") from exc
    resolved = {key: float(values[key]) for key in sorted(values)}
    resolved["ideal_qubit"] = ideal
    return params, ideal, resolved


def _read_readout(block: _Block, t1: float, ideal: bool) -> tuple[ReadoutModel, dict]:
    values = block.read(_READOUT_FIELDS)
    values["threshold"] = block.get(
        "threshold", "dimensionless", 0.5 * (values["mu_g"] + values["mu_e"])
    )
    block.finish()
    try:
        model = ReadoutModel.for_qubit(t1=t1, **values)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{block.path}: {exc}") from exc
    return (model.idealized() if ideal else model), values


def _read_acquisition(block: _Block) -> dict:
    values = block.read(_ACQUISITION_FIELDS)
    block.drop_removed("acquisition")
    block.finish()
    return values


def _read_pump(block: _Block, required: tuple = ()) -> tuple[PumpSpec, dict]:
    values = {"power_w": block.get("power_w" if block.recorded else "power", "power", 0.0)}
    values.update(block.read(_PUMP_FIELDS))
    block.drop_removed("pump")
    block.finish()
    for key in required:
        if values[key] <= 0:
            raise ConfigError(f"{block.path}.{key}: must be > 0 for this protocol")
    try:
        return PumpSpec(**values), values
    except ValueError as exc:
        raise ConfigError(f"{block.path}: {exc}") from exc


def _read_protocol(block: _Block, anchors: dict, n_shots: int) -> tuple[ProtocolNode, dict]:
    kind = block.get("kind", tuple(PROTOCOLS))
    name = block.get("name", "string", kind)
    keys, optional, needs_n0, pump_required = PROTOCOLS[kind]
    grid_block = block.child("grids") if block.recorded else block
    # grid points that still fit in the (points, shots) float64 buffer
    capacity = MAX_SHOT_BUFFER_BYTES // (8 * max(n_shots, 1))
    grids = {}
    for key in keys:
        path = f"{grid_block.path}.{key}"
        value = grid_block.take(key)
        if value is None:
            if key not in optional:
                raise ConfigError(f"{path}: required grid is missing")
            # the protocol falls back to its default grid
            _check_points(DEFAULT_RELAXATION_POINTS, capacity, path)
            continue
        grids[key] = parse_grid(
            value, GRIDS[key][2], path, anchors, capacity, block.recorded
        )
        capacity //= len(grids[key])
    n0 = block.get("n0", "dimensionless", 0.0)
    pump, pump_resolved = _read_pump(block.child("pump"), pump_required)
    grid_block.finish()
    block.finish()
    if needs_n0 and n0 < 0:
        raise ConfigError(f"{block.path}.n0: must be >= 0")
    node = ProtocolNode(name=name, kind=kind, grids=grids, pump=pump, n0=n0)
    resolved = {
        "name": name,
        "kind": kind,
        "n0": n0,
        "pump": pump_resolved,
        "grids": {key: [float(v) for v in grid] for key, grid in sorted(grids.items())},
    }
    return node, resolved


def _read_analysis(block: _Block, protocols: dict) -> tuple[AnalysisNode, dict]:
    kind = block.get("kind", tuple(ANALYSIS_INPUTS))
    inputs_block = block.child("inputs") if block.recorded else block
    options_block = block.child("options") if block.recorded else block
    inputs = {}
    for input_key, expected_kind in ANALYSIS_INPUTS[kind].items():
        matches = [name for name, other in protocols.items() if other == expected_kind]
        name = inputs_block.get(
            input_key, "string", matches[0] if len(matches) == 1 else _REQUIRED
        )
        if name not in protocols:
            raise ConfigError(
                f"{inputs_block.path}.{input_key}: no protocol block named {name!r}"
            )
        if protocols[name] != expected_kind:
            raise ConfigError(
                f"{inputs_block.path}.{input_key}: protocol {name!r} has kind "
                f"{protocols[name]!r}, expected {expected_kind!r}"
            )
        inputs[input_key] = name
    options = {}
    if kind == "sensitivity":
        options = options_block.read(_SENSITIVITY_OPTIONS)
        if options["count"] < 2:
            raise ConfigError(f"{options_block.path}.count: must be >= 2")
        if options["n_min"] < 0:
            raise ConfigError(f"{options_block.path}.n_min: must be >= 0")
        if options["n_max"] <= options["n_min"]:
            raise ConfigError(f"{options_block.path}: n_max must be > n_min")
        # the solve holds float64 arrays of the grid's length
        max_count = MAX_SHOT_BUFFER_BYTES // 8
        if options["count"] > max_count:
            raise ConfigError(
                f"{options_block.path}.count: {options['count']} points exceed the "
                f"{max_count} float64 values of a {MAX_SHOT_BUFFER_BYTES}-byte buffer"
            )
    inputs_block.finish()
    options_block.finish()
    block.finish()
    node = AnalysisNode(kind=kind, inputs=inputs, options=options)
    return node, {"kind": kind, "inputs": inputs, "options": options}


def _check_fitted_grids(node: ProtocolNode, path: str) -> None:
    """Reject a grid of ``node`` too short for the fit an analysis runs along it."""
    for key, grid in node.grids.items():
        fit = _GRID_FITS[node.kind][key]
        n_min = fit.n_parameters() + 1
        if len(grid) < n_min:
            raise ConfigError(
                f"{path}.{key}: the {fit.family} fit along this grid needs at least "
                f"{n_min} points, got {len(grid)}"
            )


def _read_sensing(block: _Block) -> tuple[SensingConfig, dict]:
    values = block.read(_SENSING_FIELDS)
    block.finish()
    try:
        return SensingConfig(**values), values
    except ValueError as exc:
        raise ConfigError(f"{block.path}: {exc}") from exc


def parse_config(raw: dict, source: str = "config") -> ExperimentConfig:
    """Validate a raw YAML mapping into an ExperimentConfig."""
    return _read_config(raw, source, recorded=False)


def from_resolved(resolved: dict, source: str = "config") -> ExperimentConfig:
    """Read a manifest's resolved mapping through the config schema.

    A removed field (``REMOVED_FIELDS``) is dropped if its recorded value is
    reproduced, and acquisition values are not checked again; ``resolved``
    itself, and so the manifest hash, is kept as recorded.
    """
    return _read_config(resolved, source, recorded=True)


def _read_config(raw: dict, source: str, recorded: bool) -> ExperimentConfig:
    block = _Block(raw, source, recorded)
    name = block.get("name", "string")
    description = block.get("description", "string", "")
    seed = block.get("seed", "integer", 1)
    if seed < 0:
        # numpy seeds its streams from non-negative integers only
        raise ConfigError(f"{source}.seed: must be >= 0")
    output = block.get("output", "string", None)
    system, ideal, system_resolved = _read_system(block.child("system"))
    readout, readout_resolved = _read_readout(block.child("readout"), system.t1, ideal)
    acquisition = _read_acquisition(block.child("acquisition"))
    if not recorded:
        # only YAML is checked: an artifact keeps the acquisition it ran with,
        # even values that later versions reject
        try:
            ProtocolConfig(readout=readout, **acquisition)
        except ValueError as exc:
            raise ConfigError(f"{source}.acquisition: {exc}") from exc
        # one point's shots must fit in the shot buffer
        max_shots = MAX_SHOT_BUFFER_BYTES // 8
        if acquisition["n_shots"] > max_shots:
            raise ConfigError(
                f"{source}.acquisition.n_shots: {acquisition['n_shots']} shots exceed "
                f"the {max_shots} float64 values of the {MAX_SHOT_BUFFER_BYTES}-byte "
                "shot buffer"
            )
    anchors = {key: getattr(system, key) for key in ("omega_q", "omega_c", "omega_m")}
    raw_protocols = block.get("protocols", "list")
    if not raw_protocols:
        raise ConfigError(f"{source}.protocols: expected a non-empty list")
    protocol_nodes = []
    protocols_resolved = []
    kinds_by_name: dict[str, str] = {}
    for k, raw_protocol in enumerate(raw_protocols):
        path = f"{source}.protocols[{k}]"
        node, resolved = _read_protocol(
            _Block(raw_protocol, path, recorded), anchors, acquisition["n_shots"]
        )
        if node.name in kinds_by_name:
            raise ConfigError(f"{path}.name: duplicate name {node.name!r}")
        kinds_by_name[node.name] = node.kind
        protocol_nodes.append(node)
        protocols_resolved.append(resolved)
    analysis_nodes = []
    analyses_resolved = []
    for k, raw_analysis in enumerate(block.get("analyses", "list", [])):
        node, resolved = _read_analysis(
            _Block(raw_analysis, f"{source}.analyses[{k}]", recorded), kinds_by_name
        )
        analysis_nodes.append(node)
        analyses_resolved.append(resolved)
    if not recorded:
        # like acquisition values, an artifact's grids are not checked again
        read = {name for node in analysis_nodes for name in node.inputs.values()}
        for k, node in enumerate(protocol_nodes):
            if node.name in read:
                _check_fitted_grids(node, f"{source}.protocols[{k}]")
    sensing = None
    sensing_resolved = None
    if block.take("sensing") is not None:
        sensing, sensing_resolved = _read_sensing(block.child("sensing"))
    block.finish()
    if any(node.kind == "sensitivity" for node in analysis_nodes) and sensing is None:
        raise ConfigError(
            f"{source}: a sensitivity analysis needs a 'sensing' block"
        )
    record = raw
    if not recorded:
        record = {
            "name": name,
            "description": description,
            "seed": seed,
            "system": system_resolved,
            "readout": readout_resolved,
            "acquisition": dict(acquisition),
            "protocols": protocols_resolved,
            "analyses": analyses_resolved,
            "sensing": sensing_resolved,
        }
    return ExperimentConfig(
        name=name,
        description=description,
        seed=seed,
        output=output,
        system=system,
        ideal_qubit=ideal,
        readout=readout,
        acquisition=acquisition,
        protocols=tuple(protocol_nodes),
        analyses=tuple(analysis_nodes),
        sensing=sensing,
        resolved=record,
    )


def load_config(path) -> ExperimentConfig:
    """Parse a YAML config file."""
    # imported here so that commands which read no YAML, such as ``report``
    # on an artifact's JSON manifest, do not pay for the import
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a YAML mapping")
    return parse_config(raw, source=str(path))
