"""Sweep grids, shot-sampled datasets, and their on-disk table format.

A SweepDataset holds estimates of the excited-state probability on a
cartesian grid of sweep axes, with standard errors, per-point shot counts,
and optionally the raw analog shots (needed for time-budget subsampling).
Datasets serialize to comma-separated tables with a commented header that
records the manifest hash and per-column units; raw shots go to a companion
``.npz`` file referenced from the header. The sidecar's member is stored, not
deflated: float64 readout noise does not compress, so zlib would spend most
of a run's write time to save a few percent of the bytes.

Per-point random streams derive from (master seed, protocol tag, flat point
index), so the order in which grid points are evaluated cannot change the
result.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .readout import laplace_stderr

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
    """Seed material for one grid point, stable across execution order.

    ``readout.sample_grid`` draws grid point ``index`` from this stream.
    """
    return stream_seed(master_seed, protocol) + (int(index),)


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
    """Write the dataset as a commented CSV.

    Raw shots, when present, go to an uncompressed ``<stem>_shots.npz``
    sidecar with one ``shots`` member, named in the header's ``shots_file``.
    """
    path = Path(path)
    shots_name = ""
    if dataset.shots is not None:
        shots_name = path.stem + "_shots.npz"
        np.savez(path.parent / shots_name, shots=dataset.shots)
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
    # a memoryview yields one Python number at a time, so no column of
    # Python objects is held next to the lines
    floats = [
        memoryview(np.ascontiguousarray(values, dtype=float).reshape(-1))
        for values in (*grids, dataset.p_e, dataset.stderr)
    ]
    counts = memoryview(np.ascontiguousarray(dataset.n_shots, dtype=np.int64).reshape(-1))
    row = ",".join(["%r"] * len(floats) + ["%d"])
    lines += [row % values for values in zip(*floats, counts)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_shots(sidecar: Path, shape: tuple) -> np.ndarray:
    """The ``shots`` array of a sidecar, checked against the sweep grid."""
    try:
        payload = np.load(sidecar)
        if not isinstance(payload, np.lib.npyio.NpzFile):
            raise SchemaError(f"shots sidecar {sidecar.name} is not an .npz archive")
        with payload:
            if "shots" not in payload.files:
                raise SchemaError(f"shots sidecar {sidecar.name} has no 'shots' member")
            shots = payload["shots"]
    # zipfile raises RuntimeError (NotImplementedError among them) for
    # encrypted members and compression methods it does not support
    except (OSError, ValueError, EOFError, RuntimeError, zipfile.BadZipFile, zlib.error) as exc:
        raise SchemaError(f"shots sidecar {sidecar.name} is not a loadable .npz: {exc}") from exc
    if not np.issubdtype(shots.dtype, np.floating):
        raise SchemaError(
            f"shots sidecar {sidecar.name} holds {shots.dtype} values, not floating point"
        )
    if shots.shape[:-1] != shape or shots.shape[-1] < 1:
        raise SchemaError(
            f"shots sidecar {sidecar.name} has shape {shots.shape}, "
            f"expected {shape} + (n_shots,)"
        )
    return shots


def read_dataset(path) -> SweepDataset:
    """Read a dataset table written by write_dataset (or hand-built to match).

    Raises SchemaError on text that is not UTF-8, malformed headers,
    missing unit tags, a cell that is not a finite number or an ``n_shots``
    cell that is not a whole number (naming the file and line), a
    non-cartesian coordinate block, an ``n_shots`` cell that differs from the
    sidecar's shots per point, a ``p_e`` or ``stderr`` cell that is not the
    sidecar's click count above the recorded ``meta_readout_threshold``
    (bit for bit, naming the first such line), or a shots sidecar named
    in the header that is absent, unreadable, lacks a ``shots`` member, or
    holds anything but a floating-point array of shape
    ``grid + (n_shots,)``. Sidecars written compressed load like stored
    ones.
    """
    path = Path(path)
    header: dict[str, str] = {}
    warnings: list[str] = []
    columns: list[tuple[str, str]] | None = None
    rows: list[list[float]] = []
    row_lines: list[int] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path.name} is not UTF-8 text: {exc}") from exc
    for number, raw in enumerate(text.splitlines(), start=1):
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
                f"{path.name}, line {number}: row has {len(parts)} fields, "
                f"expected {len(columns)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise SchemaError(f"{path.name}, line {number}: {exc}") from exc
        row_lines.append(number)
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
    finite = np.all(np.isfinite(data), axis=1)
    if not np.all(finite):
        number = row_lines[int(np.argmin(finite))]
        raise SchemaError(f"{path.name}, line {number}: values must be finite")
    n_shots = data[:, n_axes + 2]
    whole = n_shots == np.round(n_shots)
    if not np.all(whole):
        number = row_lines[int(np.argmin(whole))]
        raise SchemaError(f"{path.name}, line {number}: n_shots must be a whole number")
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
    meta = {}
    for key, value in header.items():
        if key.startswith("meta_"):
            try:
                meta[key[len("meta_"):]] = float(value)
            except ValueError as exc:
                raise SchemaError(f"meta header {key!r} is not a number") from exc
    shots = None
    if "shots_file" in header:
        sidecar = path.parent / header["shots_file"]
        if not sidecar.exists():
            raise SchemaError(f"{path.name} names shots sidecar {sidecar.name}, which is missing")
        shots = _read_shots(sidecar, shape)
        n_per_point = shots.shape[-1]
        mismatch = n_shots != n_per_point
        if np.any(mismatch):
            number = row_lines[int(np.argmax(mismatch))]
            raise SchemaError(
                f"{path.name}, line {number}: n_shots differs from the "
                f"{n_per_point} shots per point in {sidecar.name}"
            )
        threshold = meta.get("readout_threshold")
        if threshold is not None:
            # p_e and stderr must be the sidecar's clicks, counted as sampled
            clicks = np.count_nonzero(shots > threshold, axis=-1).reshape(-1)
            agree = (clicks / n_per_point == data[:, n_axes]) & (
                laplace_stderr(clicks, n_per_point) == data[:, n_axes + 1]
            )
            if not np.all(agree):
                number = row_lines[int(np.argmin(agree))]
                raise SchemaError(
                    f"{path.name}, line {number}: p_e and stderr disagree with the "
                    f"clicks above threshold {threshold!r} in {sidecar.name}"
                )
    dataset = SweepDataset(
        axes=tuple(axes),
        p_e=data[:, n_axes].reshape(shape),
        stderr=data[:, n_axes + 1].reshape(shape),
        n_shots=n_shots.astype(int).reshape(shape),
        shot_duration=duration,
        protocol=header.get("protocol", "imported"),
        shots=shots,
        meta=meta,
        warnings=tuple(warnings),
        manifest_hash=header.get("manifest_sha256", UNMANAGED_HASH),
    )
    return dataset
