"""Tests for sweep datasets, per-point seeding, and the table format."""

import dataclasses
import io
import zipfile

import numpy as np
import pytest
from conftest import traced_peak

from magsense.errors import SchemaError
from magsense.readout import click_estimates
from magsense import sweep
from magsense.sweep import (
    Axis,
    SweepDataset,
    point_seed,
    read_dataset,
    write_dataset,
)


def make_dataset(with_shots=False):
    axes = (
        Axis("pump_power", "W", np.array([0.0, 1e-6, 2e-6])),
        Axis("probe_frequency", "rad/s", np.linspace(1.0, 2.0, 4)),
    )
    rng = np.random.default_rng(0)
    p_e = rng.random((3, 4))
    stderr = 0.01 + 0.01 * rng.random((3, 4))
    shots = rng.standard_normal((3, 4, 25)) if with_shots else None
    return SweepDataset(
        axes=axes,
        p_e=p_e,
        stderr=stderr,
        n_shots=25,
        shot_duration=32e-6,
        protocol="spectroscopy",
        shots=shots,
        warnings=("probe grid clipped",),
        manifest_hash="abc123",
    )


def _counted(ds, threshold=0.5):
    """``ds`` with p_e and stderr counting its shots' clicks above ``threshold``."""
    clicks = np.count_nonzero(ds.shots > threshold, axis=-1)
    p_e, stderr = click_estimates(clicks, ds.shots.shape[-1])
    return dataclasses.replace(
        ds, p_e=p_e, stderr=stderr, meta={**ds.meta, "readout_threshold": threshold}
    )


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("x", "s", np.array([]))
    with pytest.raises(ValueError):
        Axis("x", "s", np.array([1.0, np.nan]))


def test_dataset_shape_checks():
    axes = (Axis("delay", "s", np.linspace(0, 1, 5)),)
    with pytest.raises(ValueError):
        SweepDataset(
            axes=axes,
            p_e=np.zeros(4),
            stderr=np.zeros(5),
            n_shots=10,
            shot_duration=1e-6,
            protocol="t",
        )
    ds = SweepDataset(
        axes=axes,
        p_e=np.zeros(5),
        stderr=np.zeros(5),
        n_shots=10,
        shot_duration=1e-6,
        protocol="t",
    )
    assert ds.n_shots.shape == (5,)
    assert ds.total_time() == pytest.approx(50e-6)
    # recorded clicks lie on the grid and count as many shots at every point
    with pytest.raises(ValueError, match="clicks array"):
        dataclasses.replace(ds, clicks=np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="same n_shots"):
        dataclasses.replace(ds, n_shots=np.arange(5), clicks=np.zeros(5, dtype=int))


def test_point_seed_distinguishes_streams():
    base = point_seed(5, "ramsey", 3)
    assert base == point_seed(5, "ramsey", 3)
    assert base != point_seed(5, "ramsey", 4)
    assert base != point_seed(5, "relaxation", 3)
    assert base != point_seed(6, "ramsey", 3)


def test_round_trip_with_shots(tmp_path):
    ds = _counted(make_dataset(with_shots=True))
    path = tmp_path / "scan.csv"
    write_dataset(ds, path)
    loaded = read_dataset(path)
    assert loaded.protocol == "spectroscopy"
    assert loaded.manifest_hash == "abc123"
    assert loaded.warnings == ("probe grid clipped",)
    assert loaded.shot_duration == pytest.approx(32e-6)
    assert [ax.name for ax in loaded.axes] == ["pump_power", "probe_frequency"]
    assert [ax.unit for ax in loaded.axes] == ["W", "rad/s"]
    np.testing.assert_array_equal(loaded.p_e, ds.p_e)
    np.testing.assert_array_equal(loaded.stderr, ds.stderr)
    np.testing.assert_array_equal(loaded.n_shots, ds.n_shots)
    # the reader keeps each point's clicks, not the shots they count
    assert loaded.shots is None
    np.testing.assert_array_equal(loaded.clicks, np.count_nonzero(ds.shots > 0.5, axis=-1))
    with np.load(tmp_path / "scan_shots.npz") as payload:
        np.testing.assert_array_equal(payload["shots"], ds.shots)


def test_missing_shots_sidecar_rejected(tmp_path):
    path = tmp_path / "scan.csv"
    write_dataset(make_dataset(with_shots=True), path)
    (tmp_path / "scan_shots.npz").unlink()
    with pytest.raises(SchemaError, match="scan_shots.npz"):
        read_dataset(path)


def test_sidecar_member_is_stored_and_deflated_sidecars_still_load(tmp_path):
    ds = _counted(make_dataset(with_shots=True))
    path = tmp_path / "scan.csv"
    write_dataset(ds, path)
    sidecar = tmp_path / "scan_shots.npz"
    with zipfile.ZipFile(sidecar) as archive:
        members = [(info.filename, info.compress_type) for info in archive.infolist()]
    assert members == [("shots.npy", zipfile.ZIP_STORED)]
    stored = read_dataset(path).clicks
    np.savez_compressed(sidecar, shots=ds.shots)
    deflated = read_dataset(path).clicks
    clicks = np.count_nonzero(ds.shots > 0.5, axis=-1)
    assert np.array_equal(stored, clicks)
    assert np.array_equal(deflated, clicks)


def _dataset_of(shots):
    """A dataset holding ``shots``, on a grid of all but their last axis.

    Its p_e and stderr count the clicks above a recorded threshold of 0.
    """
    grid = shots.shape[:-1]
    p_e, stderr = click_estimates(np.count_nonzero(shots > 0.0, axis=-1), shots.shape[-1])
    return SweepDataset(
        axes=tuple(Axis(f"x{k}", "s", np.arange(n, dtype=float)) for k, n in enumerate(grid)),
        p_e=p_e,
        stderr=stderr,
        n_shots=shots.shape[-1],
        shot_duration=1e-6,
        protocol="t",
        shots=shots,
        meta={"readout_threshold": 0.0},
    )


def _assert_sidecar_is_savez(tmp_path, shots):
    path = tmp_path / "scan.csv"
    write_dataset(_dataset_of(shots), path)
    np.savez(tmp_path / "savez.npz", shots=shots)
    assert (tmp_path / "scan_shots.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()
    assert np.array_equal(read_dataset(path).clicks, np.count_nonzero(shots > 0.0, axis=-1))


@pytest.mark.parametrize("n_shots", [1, 800])
@pytest.mark.parametrize("grid", [(7,), (3, 5), (2, 3, 4)], ids=["1-axis", "2-axis", "3-axis"])
def test_sidecar_is_the_file_savez_writes(tmp_path, grid, n_shots):
    shots = np.random.default_rng(len(grid)).standard_normal(grid + (n_shots,))
    _assert_sidecar_is_savez(tmp_path, shots)


def test_sidecar_of_a_view_into_a_larger_buffer_is_the_file_savez_writes(tmp_path):
    buffer = np.random.default_rng(4).standard_normal((6, 4, 3, 800))
    shots = buffer[2:5]
    assert shots.base is buffer and shots.flags.c_contiguous
    _assert_sidecar_is_savez(tmp_path, shots)


def test_writing_a_sidecar_copies_no_shots(tmp_path):
    # numpy's savez copies an array of under 16 MiB whole, in one tobytes call
    shots = np.random.default_rng(5).standard_normal((4, 5, 50_000))
    dataset = _dataset_of(shots)
    peak = traced_peak(lambda: write_dataset(dataset, tmp_path / "scan.csv"))
    assert peak < shots.nbytes / 8


@pytest.mark.parametrize("n_shots", [50_000, 200_000])
def test_reading_a_sidecar_holds_one_block_of_shots(tmp_path, n_shots):
    shots = np.random.default_rng(6).standard_normal((4, 5, n_shots))
    path = tmp_path / "scan.csv"
    write_dataset(_dataset_of(shots), path)
    del shots
    loaded = []
    peak = traced_peak(lambda: loaded.append(read_dataset(path)))
    # two blocks, their click flags and the grid's counts, at any shot count
    assert peak < 3 * sweep.SIDECAR_BLOCK_BYTES
    assert loaded[0].shots is None


def _write_member(path, name, data, compression=zipfile.ZIP_STORED):
    """An archive whose one member ``name`` holds ``data``."""
    with zipfile.ZipFile(path, "w", compression=compression) as archive:
        archive.writestr(name, data)


# (grid, shots per point): whole blocks and a partial last one, a point
# wider than a block, and one shot per point
STREAM_SHAPES = [((3, 61), 1500), ((2,), 70_000), ((5, 7), 1)]


@pytest.mark.parametrize("grid, n_shots", STREAM_SHAPES, ids=["partial-block", "wide-point", "one-shot"])
@pytest.mark.parametrize("dtype", ["<f8", ">f8", "f4"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "compression", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED], ids=["stored", "deflated"]
)
@pytest.mark.parametrize("member", ["shots.npy", "shots"])
def test_streamed_clicks_match_np_load(tmp_path, grid, n_shots, dtype, order, compression, member):
    values = np.random.default_rng(7).standard_normal(grid + (n_shots,)).astype(dtype)
    values = np.asarray(values, order=order)
    assert np.lib.format.header_data_from_array_1_0(values)["fortran_order"] == (order == "F")
    threshold = 0.3
    ds = _counted(_dataset_of(values), threshold)
    path = tmp_path / "scan.csv"
    write_dataset(dataclasses.replace(ds, shots=None), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(3, "# shots_file: scan_shots.npz")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = tmp_path / "scan_shots.npz"
    _write_member(sidecar, member, _npy_bytes(values), compression)
    with np.load(sidecar) as payload:
        expected = np.count_nonzero(payload["shots"] > threshold, axis=-1)
    assert np.array_equal(read_dataset(path).clicks, expected)


def test_stream_counts_blocks_cut_anywhere():
    # blocks shorter than a point, spanning points and ending mid-point,
    # in both orders, against the count over the whole array
    values = np.random.default_rng(8).standard_normal((3, 4, 9))
    expected = np.count_nonzero(values > 0.1, axis=-1)
    for order in ("C", "F"):
        flat = values.reshape(-1, order=order)
        for size in (1, 4, 9, 10, 35, 108):
            blocks = [flat[i : i + size] for i in range(0, flat.size, size)]
            counts = sweep.count_clicks(blocks, values.shape, order == "F", 0.1)
            assert np.array_equal(counts, expected), (order, size)


def _npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


SIDECAR_DEFECTS = {
    "not-an-archive": lambda path, shots: path.write_bytes(b"\x80\x04 not a zip archive " * 4),
    "bare-npy": lambda path, shots: path.write_bytes(_npy_bytes(shots)),
    "no-shots-member": lambda path, shots: np.savez(path, values=shots),
    "integer-shots": lambda path, shots: np.savez(path, shots=shots.astype(np.int64)),
    "grid-mismatch": lambda path, shots: np.savez(path, shots=shots[:, :3]),
    "no-shot-axis": lambda path, shots: np.savez(path, shots=shots[..., 0]),
    "no-shots": lambda path, shots: np.savez(path, shots=shots[..., :0]),
    # np.load returns such a member's bytes, not an array
    "not-npy-member": lambda path, shots: _write_member(path, "shots.npy", b"no .npy header here"),
}


@pytest.mark.parametrize("defect", sorted(SIDECAR_DEFECTS))
def test_malformed_shots_sidecar_rejected(tmp_path, defect):
    ds = make_dataset(with_shots=True)
    path = tmp_path / "scan.csv"
    write_dataset(ds, path)
    SIDECAR_DEFECTS[defect](tmp_path / "scan_shots.npz", ds.shots)
    with pytest.raises(SchemaError, match="scan_shots.npz"):
        read_dataset(path)


def test_corrupted_sidecar_bytes_load_exactly_or_raise_schema_error(tmp_path):
    axes = (Axis("delay", "s", np.array([0.0, 1e-6])),)
    shots = np.random.default_rng(3).standard_normal((2, 4))
    p_e, stderr = click_estimates(np.count_nonzero(shots > 0.0, axis=1), 4)
    ds = SweepDataset(
        axes=axes,
        p_e=p_e,
        stderr=stderr,
        n_shots=4,
        shot_duration=1e-6,
        protocol="t",
        shots=shots,
        meta={"readout_threshold": 0.0},
    )
    path = tmp_path / "tiny.csv"
    write_dataset(ds, path)
    sidecar = tmp_path / "tiny_shots.npz"
    good = sidecar.read_bytes()
    variants = [good[:n] for n in range(len(good))]
    for pos in range(len(good)):
        for flip in (0x01, 0xFF):
            variants.append(good[:pos] + bytes([good[pos] ^ flip]) + good[pos + 1:])
    clicks = np.count_nonzero(shots > 0.0, axis=1)
    loaded = 0
    for data in variants:
        sidecar.write_bytes(data)
        try:
            counted = read_dataset(path).clicks
        except SchemaError:
            continue
        assert np.array_equal(counted, clicks)
        with np.load(sidecar) as payload:
            assert np.array_equal(payload["shots"], ds.shots)
        loaded += 1
    assert 0 < loaded < len(variants)
    # a well-formed sidecar must still count the clicks the table records:
    # a shot moved across the threshold raises, naming the point's line
    n_lines = len(path.read_text(encoding="utf-8").splitlines())
    for point in range(2):
        line = n_lines - 1 + point
        for shot in range(4):
            flipped = ds.shots.copy()
            flipped[point, shot] = -flipped[point, shot]
            np.savez(sidecar, shots=flipped)
            with pytest.raises(SchemaError, match=rf"tiny\.csv, line {line}: .*tiny_shots\.npz"):
                read_dataset(path)
            moved = ds.shots.copy()
            moved[point, shot] *= 2.0
            np.savez(sidecar, shots=moved)
            assert np.array_equal(read_dataset(path).clicks, clicks)


def test_one_byte_substitutions_load_or_raise_schema_error(tmp_path):
    # p_e and stderr count the sidecar's clicks, so the unmodified table loads
    ds = _counted(make_dataset(with_shots=True))
    path = tmp_path / "scan.csv"
    write_dataset(ds, path)
    good = path.read_bytes()
    assert np.array_equal(read_dataset(path).p_e, ds.p_e)
    # printable text, a line break and one byte that is not UTF-8
    alphabet = np.frombuffer(bytes(range(32, 127)) + b"\n\xff", dtype=np.uint8)
    rng = np.random.default_rng(11)
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(400):
        pos = int(rng.integers(len(good)))
        data = bytearray(good)
        data[pos] = rng.choice(alphabet[alphabet != good[pos]])
        path.write_bytes(bytes(data))
        try:
            read_dataset(path)
        except SchemaError:
            outcomes["rejected"] += 1
        else:
            outcomes["loaded"] += 1
    assert outcomes["loaded"] and outcomes["rejected"]
    # a cell that is not a finite number names the file and its line
    lines = good.decode("utf-8").splitlines()
    for column, cell in ((2, "0.x44375"), (0, "1e999")):
        fields = lines[-1].split(",")
        fields[column] = cell
        path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=rf"scan\.csv, line {len(lines)}: "):
            read_dataset(path)


@pytest.mark.parametrize(
    "with_shots, cell, message",
    [
        (False, "2.5", "n_shots must be a whole number"),
        (True, "2.5", "n_shots must be a whole number"),
        (True, "24", "n_shots differs from the 25 shots per point in scan_shots.npz"),
    ],
    ids=["fraction", "fraction-with-sidecar", "sidecar-mismatch"],
)
def test_n_shots_cell_is_whole_and_matches_the_sidecar(tmp_path, with_shots, cell, message):
    path = tmp_path / "scan.csv"
    write_dataset(make_dataset(with_shots=with_shots), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = len(lines) - 3
    fields = lines[row - 1].split(",")
    fields[-1] = cell
    lines[row - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=rf"scan\.csv, line {row}: {message}"):
        read_dataset(path)


def test_n_shots_may_vary_without_a_sidecar(tmp_path):
    path = tmp_path / "scan.csv"
    write_dataset(make_dataset(), path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: text.rindex(",")] + ",24\n", encoding="utf-8")
    n_shots = read_dataset(path).n_shots
    assert n_shots[-1, -1] == 24 and np.all(n_shots.reshape(-1)[:-1] == 25)


def test_missing_unit_tag_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# shot_duration_s: 1e-6\n"
        "delay,p_e (dimensionless),stderr (dimensionless),n_shots (count)\n"
        "0.0,0.5,0.01,100\n"
        "1.0,0.6,0.01,100\n"
    )
    with pytest.raises(SchemaError):
        read_dataset(path)


def test_incomplete_grid_rejected(tmp_path):
    ds = make_dataset()
    path = tmp_path / "scan.csv"
    write_dataset(ds, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(SchemaError):
        read_dataset(path)


def test_shuffled_rows_rejected(tmp_path):
    ds = make_dataset()
    path = tmp_path / "scan.csv"
    write_dataset(ds, path)
    lines = path.read_text().splitlines()
    header, rows = lines[:4], lines[4:]
    rows[0], rows[5] = rows[5], rows[0]
    path.write_text("\n".join(header + rows) + "\n")
    with pytest.raises(SchemaError):
        read_dataset(path)


def test_missing_duration_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "delay (s),p_e (dimensionless),stderr (dimensionless),n_shots (count)\n"
        "0.0,0.5,0.01,100\n"
        "1.0,0.6,0.01,100\n"
    )
    with pytest.raises(SchemaError):
        read_dataset(path)


def test_values_round_trip_exactly(tmp_path):
    # repr-based serialization must reproduce doubles bit-exactly
    axes = (Axis("x", "s", np.array([0.1, 0.2, 0.30000000000000004])),)
    ds = SweepDataset(
        axes=axes,
        p_e=np.array([1 / 3, 2 / 7, 0.1 + 0.2]),
        stderr=np.array([1e-3, 2e-3, 3e-3]),
        n_shots=7,
        shot_duration=1.7e-6,
        protocol="demo",
    )
    path = tmp_path / "exact.csv"
    write_dataset(ds, path)
    loaded = read_dataset(path)
    assert np.array_equal(loaded.p_e, ds.p_e)
    assert np.array_equal(loaded.axes[0].values, axes[0].values)
    assert loaded.shot_duration == ds.shot_duration
