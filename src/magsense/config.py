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
manifest; ``from_resolved`` rebuilds the same ExperimentConfig from that
mapping without consulting the original file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError
from .params import PumpSpec, SystemParams, gamma2_from_coherence
from .protocols import DEFAULT_PROBE_DURATION, ProtocolConfig
from .readout import ReadoutModel
from .sensitivity import SensingConfig

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

PROTOCOL_KINDS = (
    "spectroscopy",
    "ramsey",
    "ramsey-series",
    "relaxation",
    "decay-phase",
    "decay-spectroscopy",
    "parametric-scan",
)

# acquisition fields that manifests written by earlier versions may still
# record; they no longer change the output and are dropped on rebuild
REMOVED_ACQUISITION_FIELDS = ("workers",)

# analysis kind -> {input key: expected protocol kind}
ANALYSIS_INPUTS = {
    "coherence": {"ramsey": "ramsey", "relaxation": "relaxation"},
    "calibration": {"spectroscopy": "spectroscopy", "ramsey_series": "ramsey-series"},
    "sensitivity": {"spectroscopy": "spectroscopy", "ramsey_series": "ramsey-series"},
    "lifetime-phase": {"dataset": "decay-phase"},
    "lifetime-frequency": {"dataset": "decay-spectroscopy"},
    "parametric": {"dataset": "parametric-scan"},
}


def parse_quantity(value, dimension: str, path: str) -> float:
    """Convert a "value unit" string (or plain number) to SI radian units."""
    if dimension == "dimensionless":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a plain number, got {value!r}")
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


class _Block:
    """A mapping section that tracks which keys were consumed."""

    def __init__(self, raw, path: str):
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a mapping")
        self.raw = raw
        self.path = path
        self.seen: set[str] = set()

    def take(self, key: str, default=None):
        self.seen.add(key)
        return self.raw.get(key, default)

    def has(self, key: str) -> bool:
        return key in self.raw

    def quantity(self, key: str, dimension: str, default=None) -> float:
        value = self.take(key)
        if value is None:
            if default is None:
                raise ConfigError(f"{self.path}.{key}: required field is missing")
            return float(default)
        return parse_quantity(value, dimension, f"{self.path}.{key}")

    def number(self, key: str, default=None) -> float:
        return self.quantity(key, "dimensionless", default)

    def integer(self, key: str, default=None) -> int:
        value = self.take(key)
        if value is None:
            if default is None:
                raise ConfigError(f"{self.path}.{key}: required field is missing")
            return int(default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{self.path}.{key}: expected an integer, got {value!r}")
        return value

    def boolean(self, key: str, default: bool = False) -> bool:
        value = self.take(key, default)
        if not isinstance(value, bool):
            raise ConfigError(f"{self.path}.{key}: expected true/false, got {value!r}")
        return value

    def string(self, key: str, default=None, choices=None) -> str:
        value = self.take(key)
        if value is None:
            if default is None:
                raise ConfigError(f"{self.path}.{key}: required field is missing")
            value = default
        if not isinstance(value, str):
            raise ConfigError(f"{self.path}.{key}: expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(
                f"{self.path}.{key}: {value!r} is not one of {', '.join(choices)}"
            )
        return value

    def finish(self) -> None:
        unknown = sorted(set(self.raw) - self.seen)
        if unknown:
            raise ConfigError(f"{self.path}: unknown field {unknown[0]!r}")


def parse_grid(value, dimension: str, path: str, anchors: dict) -> np.ndarray:
    """A grid is a list of quantities or a start/stop/count mapping.

    The mapping form accepts ``around: <system frequency field>``, which
    offsets start and stop by that resolved frequency.
    """
    if isinstance(value, list):
        if not value:
            raise ConfigError(f"{path}: grid list is empty")
        return np.array(
            [parse_quantity(v, dimension, f"{path}[{k}]") for k, v in enumerate(value)]
        )
    block = _Block(value, path)
    start = block.quantity("start", dimension)
    stop = block.quantity("stop", dimension)
    count = block.integer("count")
    around = block.take("around")
    block.finish()
    if count < 1:
        raise ConfigError(f"{path}.count: must be >= 1")
    offset = 0.0
    if around is not None:
        if not isinstance(around, str):
            raise ConfigError(f"{path}.around: expected a string, got {around!r}")
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


_SYSTEM_FREQUENCIES = (
    "omega_c",
    "omega_m",
    "omega_q",
    "alpha",
    "g_qc",
    "g_mc",
    "chi_qc",
    "chi_qm",
    "chi_mc",
    "kappa_m",
    "gamma2_0",
)
_SYSTEM_TIMES = ("t1", "t2r", "t2e")


def _parse_system(raw, path: str) -> tuple[SystemParams, bool, dict]:
    block = _Block(raw, path)
    reference = SystemParams.reference()
    values = {}
    for key in _SYSTEM_FREQUENCIES:
        if block.has(key):
            values[key] = block.quantity(key, "frequency")
        else:
            block.take(key)
    for key in _SYSTEM_TIMES:
        if block.has(key):
            values[key] = block.quantity(key, "time")
        else:
            block.take(key)
    ideal = block.boolean("ideal_qubit", False)
    block.finish()
    merged = {
        key: values.get(key, getattr(reference, key))
        for key in _SYSTEM_FREQUENCIES + _SYSTEM_TIMES
    }
    # keep the coupling set self-consistent with overridden chis unless the
    # coupling itself was pinned
    if "g_mc" not in values:
        ratio = merged["chi_qm"] / merged["chi_qc"]
        if ratio < 0:
            raise ConfigError(
                f"{path}: chi_qm and chi_qc must share a sign to derive g_mc"
            )
        merged["g_mc"] = math.sqrt(ratio) * (merged["omega_m"] - merged["omega_c"])
    if "gamma2_0" not in values:
        merged["gamma2_0"] = gamma2_from_coherence(merged["t1"], merged["t2r"])
    try:
        params = SystemParams(**merged)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    resolved = {key: float(merged[key]) for key in sorted(merged)}
    resolved["ideal_qubit"] = ideal
    return params, ideal, resolved


def _system_from_resolved(resolved: dict) -> tuple[SystemParams, bool]:
    values = {k: v for k, v in resolved.items() if k != "ideal_qubit"}
    return SystemParams(**values), bool(resolved["ideal_qubit"])


def _parse_readout(raw, path: str, t1: float, ideal: bool) -> tuple[ReadoutModel, dict]:
    block = _Block(raw, path)
    mu_g = block.number("mu_g", 0.0)
    mu_e = block.number("mu_e", 1.0)
    sigma = block.number("sigma", 0.35)
    window = block.quantity("window", "time", 2e-6)
    threshold = block.number("threshold", 0.5 * (mu_g + mu_e))
    block.finish()
    try:
        model = ReadoutModel.for_qubit(
            t1=t1, mu_g=mu_g, mu_e=mu_e, sigma=sigma, window=window, threshold=threshold
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if ideal:
        model = model.idealized()
    resolved = {
        "mu_g": mu_g,
        "mu_e": mu_e,
        "sigma": sigma,
        "window": window,
        "threshold": threshold,
    }
    return model, resolved


def _readout_from_resolved(resolved: dict, t1: float, ideal: bool) -> ReadoutModel:
    model = ReadoutModel.for_qubit(
        t1=t1,
        mu_g=resolved["mu_g"],
        mu_e=resolved["mu_e"],
        sigma=resolved["sigma"],
        window=resolved["window"],
        threshold=resolved["threshold"],
    )
    return model.idealized() if ideal else model


def _parse_acquisition(raw, path: str) -> dict:
    block = _Block(raw, path)
    values = {
        "n_shots": block.integer("n_shots", 400),
        "mode": block.string("mode", "shots", choices=("shots", "expectation")),
        "keep_shots": block.boolean("keep_shots", False),
        "probe_duration": block.quantity(
            "probe_duration", "time", DEFAULT_PROBE_DURATION
        ),
        "probe_amplitude": block.number("probe_amplitude", 0.9),
        "pi_duration": block.quantity("pi_duration", "time", 32e-9),
        "half_pi_duration": block.quantity("half_pi_duration", "time", 16e-9),
        "artificial_detuning": block.quantity("artificial_detuning", "frequency", 0.0),
        "blur_phase_limit": block.quantity("blur_phase_limit", "angle", math.pi),
        "dead_time": block.quantity("dead_time", "time", 0.0),
        "dt": block.quantity("dt", "time", 0.0),
    }
    block.finish()
    return values


def _parse_pump(raw, path: str, required: tuple = ()) -> tuple[PumpSpec, dict]:
    block = _Block(raw, path)
    values = {
        "power_w": block.quantity("power", "power", 0.0),
        "c_pump": block.quantity("c_pump", "inverse-power", 0.0),
        "drive_frequency": block.quantity("drive_frequency", "frequency", 0.0),
        "omega_qm": block.quantity("omega_qm", "frequency", 0.0),
        "delta": block.quantity("delta", "frequency", 0.0),
    }
    block.finish()
    for config_key, spec_key in (("c_pump", "c_pump"), ("omega_qm", "omega_qm")):
        if config_key in required and values[spec_key] <= 0:
            raise ConfigError(f"{path}.{config_key}: must be > 0 for this protocol")
    return PumpSpec(**values), values


_GRID_DIMENSIONS = {
    "pump_powers": "power",
    "probe_freqs": "frequency",
    "delays": "time",
    "sense_times": "time",
    "second_pulse_phases": "angle",
    "deltas": "frequency",
    "durations": "time",
}

# protocol kind -> (required grids, optional grids, needs n0, required pump keys)
_PROTOCOL_LAYOUT = {
    "spectroscopy": (("pump_powers", "probe_freqs"), (), False, ("c_pump",)),
    "ramsey": (("delays",), (), False, ()),
    "ramsey-series": (("pump_powers", "delays"), (), False, ("c_pump",)),
    "relaxation": ((), ("delays",), False, ()),
    "decay-phase": (("sense_times", "second_pulse_phases"), (), True, ()),
    "decay-spectroscopy": (("sense_times", "probe_freqs"), (), True, ()),
    "parametric-scan": (("deltas", "durations"), (), False, ("omega_qm",)),
}


def _parse_protocol(raw, path: str, anchors: dict) -> tuple[ProtocolNode, dict]:
    block = _Block(raw, path)
    kind = block.string("kind", choices=PROTOCOL_KINDS)
    name = block.string("name", kind)
    required, optional, needs_n0, pump_required = _PROTOCOL_LAYOUT[kind]
    grids = {}
    for key in required:
        value = block.take(key)
        if value is None:
            raise ConfigError(f"{path}.{key}: required grid is missing")
        grids[key] = parse_grid(value, _GRID_DIMENSIONS[key], f"{path}.{key}", anchors)
    for key in optional:
        value = block.take(key)
        if value is not None:
            grids[key] = parse_grid(
                value, _GRID_DIMENSIONS[key], f"{path}.{key}", anchors
            )
    n0 = block.number("n0", 0.0) if (needs_n0 or block.has("n0")) else 0.0
    pump, pump_resolved = _parse_pump(block.take("pump"), f"{path}.pump", pump_required)
    block.finish()
    if needs_n0 and n0 < 0:
        raise ConfigError(f"{path}.n0: must be >= 0")
    node = ProtocolNode(name=name, kind=kind, grids=grids, pump=pump, n0=n0)
    resolved = {
        "name": name,
        "kind": kind,
        "n0": n0,
        "pump": pump_resolved,
        "grids": {key: [float(v) for v in grid] for key, grid in sorted(grids.items())},
    }
    return node, resolved


def _protocol_from_resolved(resolved: dict) -> ProtocolNode:
    return ProtocolNode(
        name=resolved["name"],
        kind=resolved["kind"],
        grids={k: np.array(v) for k, v in resolved["grids"].items()},
        pump=PumpSpec(**resolved["pump"]),
        n0=resolved["n0"],
    )


def _parse_analysis(raw, path: str, protocols: dict) -> tuple[AnalysisNode, dict]:
    block = _Block(raw, path)
    kind = block.string("kind", choices=tuple(ANALYSIS_INPUTS))
    inputs = {}
    for input_key, expected_kind in ANALYSIS_INPUTS[kind].items():
        name = block.string(input_key, _default_input(protocols, expected_kind))
        if name not in protocols:
            raise ConfigError(
                f"{path}.{input_key}: no protocol block named {name!r}"
            )
        if protocols[name] != expected_kind:
            raise ConfigError(
                f"{path}.{input_key}: protocol {name!r} has kind "
                f"{protocols[name]!r}, expected {expected_kind!r}"
            )
        inputs[input_key] = name
    options = {}
    if kind == "sensitivity":
        options["n_min"] = block.number("n_min", 0.0)
        options["n_max"] = block.number("n_max", 2000.0)
        options["count"] = block.integer("count", 81)
        if options["count"] < 2 or options["n_max"] <= options["n_min"]:
            raise ConfigError(f"{path}: sensitivity grid must be increasing")
    block.finish()
    node = AnalysisNode(kind=kind, inputs=inputs, options=options)
    return node, {"kind": kind, "inputs": inputs, "options": options}


def _default_input(protocols: dict, expected_kind: str) -> str | None:
    matches = [name for name, kind in protocols.items() if kind == expected_kind]
    return matches[0] if len(matches) == 1 else None


def _analysis_from_resolved(resolved: dict) -> AnalysisNode:
    return AnalysisNode(
        kind=resolved["kind"],
        inputs=dict(resolved["inputs"]),
        options=dict(resolved["options"]),
    )


def _parse_sensing(raw, path: str) -> tuple[SensingConfig, dict]:
    block = _Block(raw, path)
    values = {
        "tau": block.quantity("tau", "time"),
        "n_shots": block.integer("n_shots"),
        "threshold": block.number("threshold", 0.18),
    }
    block.finish()
    try:
        sensing = SensingConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return sensing, values


def parse_config(raw: dict, source: str = "config") -> ExperimentConfig:
    """Validate a raw YAML mapping into an ExperimentConfig."""
    block = _Block(raw, source)
    name = block.string("name")
    description = block.string("description", "")
    seed = block.integer("seed", 1)
    output = block.take("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"{source}.output: expected a path string")
    system, ideal, system_resolved = _parse_system(block.take("system"), f"{source}.system")
    readout, readout_resolved = _parse_readout(
        block.take("readout"), f"{source}.readout", system.t1, ideal
    )
    acquisition = _parse_acquisition(block.take("acquisition"), f"{source}.acquisition")
    try:
        ProtocolConfig(readout=readout, **acquisition)
    except ValueError as exc:
        raise ConfigError(f"{source}.acquisition: {exc}") from exc
    anchors = {key: getattr(system, key) for key in ("omega_q", "omega_c", "omega_m")}
    raw_protocols = block.take("protocols")
    if not isinstance(raw_protocols, list) or not raw_protocols:
        raise ConfigError(f"{source}.protocols: expected a non-empty list")
    protocol_nodes = []
    protocols_resolved = []
    kinds_by_name: dict[str, str] = {}
    for k, raw_protocol in enumerate(raw_protocols):
        node, resolved = _parse_protocol(
            raw_protocol, f"{source}.protocols[{k}]", anchors
        )
        if node.name in kinds_by_name:
            raise ConfigError(
                f"{source}.protocols[{k}].name: duplicate name {node.name!r}"
            )
        kinds_by_name[node.name] = node.kind
        protocol_nodes.append(node)
        protocols_resolved.append(resolved)
    raw_analyses = block.take("analyses", [])
    if raw_analyses is None:
        raw_analyses = []
    if not isinstance(raw_analyses, list):
        raise ConfigError(f"{source}.analyses: expected a list")
    analysis_nodes = []
    analyses_resolved = []
    for k, raw_analysis in enumerate(raw_analyses):
        node, resolved = _parse_analysis(
            raw_analysis, f"{source}.analyses[{k}]", kinds_by_name
        )
        analysis_nodes.append(node)
        analyses_resolved.append(resolved)
    sensing = None
    sensing_resolved = None
    if block.has("sensing"):
        sensing, sensing_resolved = _parse_sensing(block.take("sensing"), f"{source}.sensing")
    else:
        block.take("sensing")
    block.finish()
    if any(node.kind == "sensitivity" for node in analysis_nodes) and sensing is None:
        raise ConfigError(
            f"{source}: a sensitivity analysis needs a 'sensing' block"
        )
    resolved = {
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
        resolved=resolved,
    )


def from_resolved(resolved: dict) -> ExperimentConfig:
    """Rebuild an ExperimentConfig from a manifest's resolved mapping.

    Acquisition fields that no longer exist are dropped from the rebuilt
    acquisition; ``resolved`` itself, and so the manifest hash, is kept as
    recorded.
    """
    system, ideal = _system_from_resolved(resolved["system"])
    readout = _readout_from_resolved(resolved["readout"], system.t1, ideal)
    sensing = None
    if resolved.get("sensing"):
        sensing = SensingConfig(
            tau=resolved["sensing"]["tau"],
            n_shots=int(resolved["sensing"]["n_shots"]),
            threshold=resolved["sensing"]["threshold"],
        )
    return ExperimentConfig(
        name=resolved["name"],
        description=resolved.get("description", ""),
        seed=int(resolved["seed"]),
        output=None,
        system=system,
        ideal_qubit=ideal,
        readout=readout,
        acquisition={
            key: value
            for key, value in resolved["acquisition"].items()
            if key not in REMOVED_ACQUISITION_FIELDS
        },
        protocols=tuple(
            _protocol_from_resolved(p) for p in resolved["protocols"]
        ),
        analyses=tuple(_analysis_from_resolved(a) for a in resolved["analyses"]),
        sensing=sensing,
        resolved=resolved,
    )


def load_config(path) -> ExperimentConfig:
    """Parse a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a YAML mapping")
    return parse_config(raw, source=str(path))
