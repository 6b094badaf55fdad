"""Sweep grids, shot-sampled datasets, and their on-disk table format.

A SweepDataset holds estimates of the excited-state probability on a
cartesian grid of sweep axes, with standard errors, per-point shot counts,
and optionally the raw analog shots (needed for time-budget subsampling).
Datasets serialize to comma-separated tables with a commented header that
records the manifest hash and per-column units; raw shots go to a companion
``.npz`` file referenced from the header.

Per-point random streams derive from (master seed, protocol tag, flat point
index) so grid points can be evaluated in any order, or in parallel, without
changing the result.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import SchemaError

UNMANAGED_HASH = "unmanaged"


@dataclass(frozen=True)
class Axis:
    """One sweep coordinate: a named, unit-tagged grid."""

    name: str
    unit: str
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError(f"axis {self.name!r} needs a non-empty 1-d grid")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"axis {self.name!r} grid must be finite")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class SweepDataset:
    """Excited-state probability estimates over a cartesian sweep."""

    axes: tuple
    p_e: np.ndarray
    stderr: np.ndarray
    n_shots: np.ndarray
    shot_duration: float  # wall time per shot (full sequence), s
    protocol: str
    shots: np.ndarray | None = None  # analog values, shape grid + (N,)
    meta: dict = field(default_factory=dict)
    warnings: tuple = ()
    manifest_hash: str = UNMANAGED_HASH

    def __post_init__(self) -> None:
        shape = self.grid_shape
        self.p_e = np.asarray(self.p_e, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        self.n_shots = np.broadcast_to(
            np.asarray(self.n_shots, dtype=int), shape
        ).copy()
        for name, arr in (("p_e", self.p_e), ("stderr", self.stderr)):
            if arr.shape != shape:
                raise ValueError(
                    f"{name} shape {arr.shape} does not match grid {shape}"
                )
        if self.shots is not None and self.shots.shape[:-1] != shape:
            raise ValueError("shots array does not match the sweep grid")
        if self.shot_duration <= 0:
            raise ValueError("shot duration must be > 0")

    @property
    def grid_shape(self) -> tuple:
        return tuple(len(axis) for axis in self.axes)

    def axis(self, name: str) -> Axis:
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise KeyError(f"no axis named {name!r}")

    def total_time(self) -> float:
        """Summed wall time of all recorded shots."""
        return float(np.sum(self.n_shots)) * self.shot_duration

    def with_manifest(self, manifest_hash: str) -> "SweepDataset":
        return replace(self, manifest_hash=manifest_hash)


def stream_seed(master_seed: int, tag: str) -> tuple:
    """Seed material for the random stream a run keeps under ``tag``."""
    return (int(master_seed), zlib.crc32(tag.encode("utf-8")))


def point_seed(master_seed: int, protocol: str, index: int) -> tuple:
    """Seed material for one grid point, stable across execution order."""
    return stream_seed(master_seed, protocol) + (int(index),)


def map_points(n_points: int, fn, workers: int | None = None) -> list:
    """Evaluate ``fn(index)`` for every flat grid index.

    Results are assembled by index, so any execution order (or thread pool)
    yields the same list.
    """
    if workers is None or workers <= 1:
        return [fn(i) for i in range(n_points)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_points)))


def _column_label(name: str, unit: str) -> str:
    return f"{name} ({unit})"


def _parse_column_label(label: str) -> tuple[str, str]:
    label = label.strip()
    if not label.endswith(")") or "(" not in label:
        raise SchemaError(f"column {label!r} is missing a unit tag")
    name, _, unit = label.rpartition("(")
    name = name.strip()
    unit = unit[:-1].strip()
    if not name or not unit:
        raise SchemaError(f"column {label!r} is missing a unit tag")
    return name, unit


def write_dataset(dataset: SweepDataset, path) -> None:
    """Write the dataset as a commented CSV (plus ``.npz`` shot sidecar)."""
    path = Path(path)
    shots_name = ""
    if dataset.shots is not None:
        shots_name = path.stem + "_shots.npz"
        np.savez_compressed(path.parent / shots_name, shots=dataset.shots)
    lines = [
        f"# manifest_sha256: {dataset.manifest_hash}",
        f"# protocol: {dataset.protocol}",
        f"# shot_duration_s: {dataset.shot_duration!r}",
    ]
    if shots_name:
        lines.append(f"# shots_file: {shots_name}")
    for key in sorted(dataset.meta):
        value = dataset.meta[key]
        # only scalar metadata survives the round trip
        if isinstance(value, (int, float)) and np.isfinite(value):
            lines.append(f"# meta_{key}: {float(value)!r}")
    for warning in dataset.warnings:
        lines.append(f"# warning: {warning}")
    columns = [_column_label(ax.name, ax.unit) for ax in dataset.axes]
    columns += [
        _column_label("p_e", "dimensionless"),
        _column_label("stderr", "dimensionless"),
        _column_label("n_shots", "count"),
    ]
    lines.append(",".join(columns))
    grids = np.meshgrid(*[ax.values for ax in dataset.axes], indexing="ij")
    flat_axes = [g.reshape(-1) for g in grids]
    p_flat = dataset.p_e.reshape(-1)
    err_flat = dataset.stderr.reshape(-1)
    n_flat = dataset.n_shots.reshape(-1)
    for k in range(len(p_flat)):
        row = [repr(float(v[k])) for v in flat_axes]
        row += [repr(float(p_flat[k])), repr(float(err_flat[k])), str(int(n_flat[k]))]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_dataset(path) -> SweepDataset:
    """Read a dataset table written by write_dataset (or hand-built to match).

    Raises SchemaError on malformed headers, missing unit tags, a
    non-cartesian coordinate block, or a shots sidecar named in the header
    but absent from disk.
    """
    path = Path(path)
    header: dict[str, str] = {}
    warnings: list[str] = []
    columns: list[tuple[str, str]] | None = None
    rows: list[list[float]] = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                key = key.strip()
                if key == "warning":
                    warnings.append(value.strip())
                else:
                    header[key] = value.strip()
            continue
        if columns is None:
            columns = [_parse_column_label(part) for part in line.split(",")]
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise SchemaError(
                f"row has {len(parts)} fields, expected {len(columns)}"
            )
        rows.append([float(p) for p in parts])
    if columns is None or not rows:
        raise SchemaError("dataset table has no column header or no rows")
    names = [c[0] for c in columns]
    for required in ("p_e", "stderr", "n_shots"):
        if required not in names:
            raise SchemaError(f"dataset table lacks a {required!r} column")
    n_axes = names.index("p_e")
    if n_axes < 1:
        raise SchemaError("dataset table has no sweep axis columns")
    data = np.asarray(rows, dtype=float)
    axes = []
    shape = []
    for k in range(n_axes):
        # unique values in order of first appearance define the grid
        _, first = np.unique(data[:, k], return_index=True)
        values = data[np.sort(first), k]
        axes.append(Axis(name=names[k], unit=columns[k][1], values=values))
        shape.append(len(values))
    if int(np.prod(shape)) != len(rows):
        raise SchemaError(
            f"coordinate block is not a full cartesian grid: {shape} vs {len(rows)} rows"
        )
    shape = tuple(shape)
    expected = np.meshgrid(*[ax.values for ax in axes], indexing="ij")
    for k in range(n_axes):
        if not np.array_equal(expected[k].reshape(-1), data[:, k]):
            raise SchemaError(
                "coordinate rows are not in row-major cartesian order"
            )
    try:
        duration = float(header.get("shot_duration_s", "nan"))
    except ValueError as exc:
        raise SchemaError("shot_duration_s header is not a number") from exc
    if not np.isfinite(duration) or duration <= 0:
        raise SchemaError("dataset table lacks a positive shot_duration_s header")
    shots = None
    if "shots_file" in header:
        sidecar = path.parent / header["shots_file"]
        if not sidecar.exists():
            raise SchemaError(f"{path.name} names shots sidecar {sidecar.name}, which is missing")
        with np.load(sidecar) as payload:
            shots = payload["shots"]
    meta = {}
    for key, value in header.items():
        if key.startswith("meta_"):
            try:
                meta[key[len("meta_"):]] = float(value)
            except ValueError as exc:
                raise SchemaError(f"meta header {key!r} is not a number") from exc
    dataset = SweepDataset(
        axes=tuple(axes),
        p_e=data[:, n_axes].reshape(shape),
        stderr=data[:, n_axes + 1].reshape(shape),
        n_shots=data[:, n_axes + 2].astype(int).reshape(shape),
        shot_duration=duration,
        protocol=header.get("protocol", "imported"),
        shots=shots,
        meta=meta,
        warnings=tuple(warnings),
        manifest_hash=header.get("manifest_sha256", UNMANAGED_HASH),
    )
    return dataset
