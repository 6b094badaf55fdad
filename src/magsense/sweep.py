"""Sweep grids, shot-sampled datasets, and their on-disk table format.

A SweepDataset holds estimates of the excited-state probability on a
cartesian grid of sweep axes, with standard errors, per-point shot counts,
and optionally the raw analog shots of a run or the recorded click counts
read back from them (either serves time-budget subsampling). Datasets
serialize to comma-separated tables with a commented header that records the
manifest hash and per-column units; raw shots go to a companion ``.npz`` file
referenced from the header. The sidecar's member is stored, not deflated:
float32 readout noise (``readout.SHOT_DTYPE``) deflates to about 92 %, so
zlib would spend most of a run's write time to save under a tenth of the
bytes. The member is written straight from the shots array's buffer, so
writing a sidecar copies no shot. Sidecars of float64 shots load alike.

Reading a table checks its sidecar in one pass over the member, in blocks of
``SIDECAR_BLOCK_BYTES``: the ``.npy`` header, the CRC and each point's clicks
above the recorded readout threshold. The dataset keeps those counts and no
shot, so reading holds two blocks of shots at most, however many a sidecar
has.

Per-point random streams derive from (master seed, protocol tag, flat point
index), so the order in which grid points are evaluated cannot change the
result.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .readout import click_estimates, clicked

UNMANAGED_HASH = "unmanaged"

# Bytes of a sidecar's shots read, checked and counted at a time. Reading a
# sidecar holds two blocks at most (the next is read before the last is
# freed) besides its grid's counts, so 64 KiB keeps ``report`` on the
# benchmark's smoke artifact, 1.8 MB of shots, under an eighth of them.
SIDECAR_BLOCK_BYTES = 64 * 1024

# The ``.npz`` member spellings ``np.load`` resolves for the key ``shots``,
# the exact name first, and the ``.npy`` header reader of each format
# version it accepts; version 3.0 differs from 2.0 only in decoding the
# header as UTF-8, which a floating-point header never needs.
_SHOTS_MEMBERS = ("shots", "shots.npy")
_NPY_HEADERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
    (3, 0): np.lib.format.read_array_header_2_0,
}
# the leading bytes by which np.load tells a zip archive
_ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")
# the characters of the table cells np.loadtxt parses exactly as float() does
_DECIMAL_CHARS = b"0123456789+-.eE,\n"


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
    # clicks above meta's readout_threshold per point, read from a sidecar of
    # the same n_shots at every point; None on a dataset that holds its shots
    clicks: np.ndarray | None = None
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
        if self.clicks is not None:
            if np.shape(self.clicks) != shape:
                raise ValueError("clicks array does not match the sweep grid")
            if np.any(self.n_shots != self.n_shots.flat[0]):
                raise ValueError("recorded clicks need the same n_shots at every point")
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

    ``readout.sample_grid`` draws the shots of point ``index`` of a grid
    whose shots are kept from this stream; a grid without kept shots draws
    its click counts from ``stream_seed(master_seed, protocol)`` alone.
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


def _write_shots(path: Path, shots: np.ndarray) -> None:
    """Write ``shots`` as the one ``shots.npy`` member of an ``.npz`` archive.

    The archive's bytes are those ``np.savez(path, shots=shots)`` writes for
    a C-ordered array: a stored zip64 member behind a version 1.0 ``.npy``
    header. ``savez`` copies the array in 16 MiB ``tobytes`` chunks; here
    the member is written from the array's own buffer.
    """
    shots = np.ascontiguousarray(shots)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as archive:
        with archive.open("shots.npy", "w", force_zip64=True) as member:
            header = np.lib.format.header_data_from_array_1_0(shots)
            np.lib.format.write_array_header_1_0(member, header)
            member.write(shots.reshape(-1).view(np.uint8))


def write_dataset(dataset: SweepDataset, path) -> None:
    """Write the dataset as a commented CSV.

    Raw shots, when present, go to an uncompressed ``<stem>_shots.npz``
    sidecar with one ``shots`` member, named in the header's ``shots_file``.
    The sidecar is byte for byte what ``np.savez`` writes, without the copy
    of the shots that ``np.savez`` makes on the way.
    """
    path = Path(path)
    shots_name = ""
    if dataset.shots is not None:
        shots_name = path.stem + "_shots.npz"
        _write_shots(path.parent / shots_name, dataset.shots)
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


def count_clicks(blocks, shape: tuple, fortran_order: bool, threshold: float) -> np.ndarray:
    """Each grid point's shots above ``threshold``, counted in one pass.

    ``blocks`` yields the flat values of a ``shape`` array, a grid and then
    a shot axis, in C order or with ``fortran_order`` in Fortran order; a
    block may end anywhere. Returns the counts on the grid, those of
    ``np.count_nonzero(readout.clicked(shots, threshold), axis=-1)``. Both
    the shots a run holds and a sidecar read back are counted here.
    """
    grid, n_shots = shape[:-1], shape[-1]
    n_points = math.prod(grid)
    # the values form a C-ordered (rows, width) matrix: a row per point in
    # C order, a row per shot, across the points, in Fortran order
    width = n_points if fortran_order else n_shots
    counts = np.zeros(n_points, dtype=np.int64)
    start = 0
    for block in blocks:
        above = clicked(block, threshold)
        row, col = divmod(start, width)
        start += len(above)
        # the values that finish row ``row``, then whole rows, then the rest
        head = min(len(above), -col % width)
        whole = (len(above) - head) // width
        body = above[head : head + whole * width].reshape(whole, width)
        tail = above[head + whole * width :]
        if fortran_order:
            counts[col : col + head] += above[:head]
            if whole:
                counts += np.count_nonzero(body, axis=0)
            counts[: len(tail)] += tail
        else:
            first = row + (head > 0)
            counts[row] += np.count_nonzero(above[:head])
            counts[first : first + whole] += np.count_nonzero(body, axis=1)
            if len(tail):
                counts[first + whole] += np.count_nonzero(tail)
    return counts.reshape(grid, order="F" if fortran_order else "C")


def _member_blocks(member, dtype: np.dtype, n_values: int):
    """The ``n_values`` values after a member's ``.npy`` header, a block at a time."""
    step = max(SIDECAR_BLOCK_BYTES // dtype.itemsize, 1) * dtype.itemsize
    left = n_values * dtype.itemsize
    while left:
        size = min(step, left)
        data = member.read(size)
        if len(data) < size:
            raise EOFError(f"the shots member ends {left - len(data)} bytes short of its array")
        left -= size
        yield np.frombuffer(data, dtype=dtype)


def _shots_member(archive: zipfile.ZipFile, sidecar: Path) -> str:
    """The name of the archive's ``shots`` member, resolved as ``np.load`` does."""
    names = set(archive.namelist())
    for name in _SHOTS_MEMBERS:
        if name in names:
            return name
    raise SchemaError(f"shots sidecar {sidecar.name} has no 'shots' member")


def _shots_header(member, sidecar: Path, grid: tuple) -> tuple:
    """The member's ``.npy`` shape, order and dtype, checked against the grid."""
    version = np.lib.format.read_magic(member)
    if version not in _NPY_HEADERS:
        raise ValueError(f"unsupported .npy format version {version}")
    shape, fortran_order, dtype = _NPY_HEADERS[version](member)
    if not np.issubdtype(dtype, np.floating):
        raise SchemaError(
            f"shots sidecar {sidecar.name} holds {dtype} values, not floating point"
        )
    if shape[:-1] != grid or shape[-1] < 1:
        raise SchemaError(
            f"shots sidecar {sidecar.name} has shape {shape}, expected {grid} + (n_shots,)"
        )
    return shape, fortran_order, dtype


def _read_sidecar(sidecar: Path, grid: tuple, threshold: float | None) -> tuple:
    """Check a sidecar's ``shots`` against the grid in one streamed pass.

    Returns the shots per point and, with a ``threshold``, each point's
    clicks above it. The member is read to its end, where zipfile checks
    its CRC; it is never held whole.
    """
    try:
        with open(sidecar, "rb") as handle:
            if not handle.read(len(np.lib.format.MAGIC_PREFIX)).startswith(_ZIP_MAGIC):
                raise SchemaError(f"shots sidecar {sidecar.name} is not an .npz archive")
            handle.seek(0)
            with (
                zipfile.ZipFile(handle) as archive,
                archive.open(_shots_member(archive, sidecar)) as member,
            ):
                shape, fortran_order, dtype = _shots_header(member, sidecar, grid)
                blocks = _member_blocks(member, dtype, math.prod(shape))
                clicks = None
                if threshold is None:
                    for _ in blocks:
                        pass
                else:
                    clicks = count_clicks(blocks, shape, fortran_order, threshold)
                while member.read(SIDECAR_BLOCK_BYTES):
                    pass
    # zipfile raises RuntimeError (NotImplementedError among them) for
    # encrypted members and compression methods it does not support
    except (OSError, ValueError, EOFError, RuntimeError, zipfile.BadZipFile, zlib.error) as exc:
        raise SchemaError(f"shots sidecar {sidecar.name} is not a loadable .npz: {exc}") from exc
    return shape[-1], clicks


def _parse_rows(path: Path, rows: list, row_lines: list) -> np.ndarray:
    """The table rows' comma-separated cells as ``float()`` reads each one.

    Rows of plain ASCII decimals, which ``float()`` and numpy's text reader
    both round correctly, go through one ``np.loadtxt`` call. Any other
    cell (``nan``, ``1_0``, a blank) sends the rows through ``float()``
    one at a time, which raises naming the line of the first cell that is
    not a number.
    """
    if rows and not "\n".join(rows).encode("ascii", "replace").translate(None, _DECIMAL_CHARS):
        try:
            return np.loadtxt(rows, dtype=float, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    cells = []
    for number, line in zip(row_lines, rows):
        try:
            cells.append([float(part) for part in line.split(",")])
        except ValueError as exc:
            raise SchemaError(f"{path.name}, line {number}: {exc}") from exc
    return np.asarray(cells, dtype=float)


def read_dataset(path) -> SweepDataset:
    """Read a dataset table written by write_dataset (or hand-built to match).

    Raises SchemaError on text that is not UTF-8, malformed headers,
    missing unit tags, a cell that is not a finite number, an ``n_shots``
    cell that is not a whole number >= 1, a ``p_e`` cell outside [0, 1] or a
    negative ``stderr`` cell (each naming the file and line), a
    non-cartesian coordinate block, an ``n_shots`` cell that differs from the
    sidecar's shots per point, a ``p_e`` or ``stderr`` cell that is not the
    sidecar's click count above the recorded ``meta_readout_threshold``
    (bit for bit, naming the first such line), or a shots sidecar named
    in the header that is absent, unreadable, lacks a ``shots`` member, or
    holds anything but a floating-point array of shape
    ``grid + (n_shots,)``. Sidecars written compressed load like stored
    ones.

    The sidecar is streamed, ``SIDECAR_BLOCK_BYTES`` at a time, and never
    held: the dataset comes back with ``shots=None`` and, where the table
    records a readout threshold, each point's recorded clicks in
    ``clicks``.
    """
    path = Path(path)
    header: dict[str, str] = {}
    warnings: list[str] = []
    columns: list[tuple[str, str]] | None = None
    rows: list[str] = []
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
        n_fields = line.count(",") + 1
        if n_fields != len(columns):
            _parse_rows(path, rows, row_lines)  # a bad cell above raises first
            raise SchemaError(
                f"{path.name}, line {number}: row has {n_fields} fields, "
                f"expected {len(columns)}"
            )
        rows.append(line)
        row_lines.append(number)
    data = _parse_rows(path, rows, row_lines)
    # the text and its row strings are not held while the sidecar streams
    del text, rows
    if columns is None or not len(data):
        raise SchemaError("dataset table has no column header or no rows")
    names = [c[0] for c in columns]
    for required in ("p_e", "stderr", "n_shots"):
        if required not in names:
            raise SchemaError(f"dataset table lacks a {required!r} column")
    n_axes = names.index("p_e")
    if n_axes < 1:
        raise SchemaError("dataset table has no sweep axis columns")
    finite = np.all(np.isfinite(data), axis=1)
    if not np.all(finite):
        number = row_lines[int(np.argmin(finite))]
        raise SchemaError(f"{path.name}, line {number}: values must be finite")
    p_e, stderr, n_shots = data[:, n_axes], data[:, n_axes + 1], data[:, n_axes + 2]
    for bad, rule in (
        (n_shots != np.round(n_shots), "n_shots must be a whole number"),
        (n_shots < 1, "n_shots must be >= 1"),
        ((p_e < 0.0) | (p_e > 1.0), "p_e must lie in [0, 1]"),
        (stderr < 0.0, "stderr must be >= 0"),
    ):
        if np.any(bad):
            number = row_lines[int(np.argmax(bad))]
            raise SchemaError(f"{path.name}, line {number}: {rule}")
    axes = []
    shape = []
    for k in range(n_axes):
        # unique values in order of first appearance define the grid
        _, first = np.unique(data[:, k], return_index=True)
        values = data[np.sort(first), k]
        axes.append(Axis(name=names[k], unit=columns[k][1], values=values))
        shape.append(len(values))
    if int(np.prod(shape)) != len(data):
        raise SchemaError(
            f"coordinate block is not a full cartesian grid: {shape} vs {len(data)} rows"
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
    clicks = None
    if "shots_file" in header:
        sidecar = path.parent / header["shots_file"]
        if not sidecar.exists():
            raise SchemaError(f"{path.name} names shots sidecar {sidecar.name}, which is missing")
        threshold = meta.get("readout_threshold")
        n_per_point, clicks = _read_sidecar(sidecar, shape, threshold)
        mismatch = n_shots != n_per_point
        if np.any(mismatch):
            number = row_lines[int(np.argmax(mismatch))]
            raise SchemaError(
                f"{path.name}, line {number}: n_shots differs from the "
                f"{n_per_point} shots per point in {sidecar.name}"
            )
        if clicks is not None:
            # p_e and stderr must be the sidecar's clicks, counted as sampled
            counted_p_e, counted_stderr = click_estimates(clicks.reshape(-1), n_per_point)
            agree = (counted_p_e == p_e) & (counted_stderr == stderr)
            if not np.all(agree):
                number = row_lines[int(np.argmin(agree))]
                raise SchemaError(
                    f"{path.name}, line {number}: p_e and stderr disagree with the "
                    f"clicks above threshold {threshold!r} in {sidecar.name}"
                )
    dataset = SweepDataset(
        axes=tuple(axes),
        p_e=p_e.reshape(shape),
        stderr=stderr.reshape(shape),
        n_shots=n_shots.astype(int).reshape(shape),
        shot_duration=duration,
        protocol=header.get("protocol", "imported"),
        clicks=clicks,
        meta=meta,
        warnings=tuple(warnings),
        manifest_hash=header.get("manifest_sha256", UNMANAGED_HASH),
    )
    return dataset
