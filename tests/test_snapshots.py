"""Binary snapshot and CSV round-trips."""

import csv
import json
import struct
import tracemalloc

import numpy as np
import pytest

from angiosolve import (
    ConfigurationError,
    DataError,
    GridSpec,
    PhaseField,
    Schedule,
    ShapeError,
    SpatialField,
    check_positivity,
    integrate_phase,
    load_field,
    moments_of,
    picard_pure,
    save_field,
    solve_linear,
    speed_moment,
    write_moment_table,
    write_report,
)
from angiosolve.snapshots import moment_row
from angiosolve.stepping import CoefficientTrack, Trajectory

from conftest import gaussian_phase
from test_picard import _params


def _grid16():
    return GridSpec(dim_x=1, dim_v=1, n_x=16, n_v=16,
                    half_width_x=8.0, half_width_v=8.0)


def test_phase_field_roundtrip(tmp_path):
    g = _grid16()
    rng = np.random.default_rng(7)
    f = PhaseField(g, rng.random(g.phase_shape), time_tag=0.625)
    path = tmp_path / "p.akf"
    save_field(f, path)

    back = load_field(path)  # phase snapshots are self-describing
    assert back.grid == g
    assert back.time_tag == 0.625
    np.testing.assert_array_equal(back.values, f.values)

    again = load_field(path, grid=g)  # explicit grid is validated, not ignored
    np.testing.assert_array_equal(again.values, f.values)

    other = GridSpec(dim_x=1, dim_v=1, n_x=32, n_v=32,
                     half_width_x=8.0, half_width_v=8.0)
    with pytest.raises(ConfigurationError):
        load_field(path, grid=other)


def test_spatial_field_roundtrip(tmp_path):
    g = _grid16()
    f = SpatialField(g, np.linspace(0.0, 1.0, 16), time_tag=1.5)
    path = tmp_path / "c.akf"
    save_field(f, path)

    # a spatial snapshot stores no velocity lattice, so the grid is required
    with pytest.raises(ConfigurationError):
        load_field(path)
    back = load_field(path, grid=g)
    assert isinstance(back, SpatialField)
    assert back.time_tag == 1.5
    np.testing.assert_array_equal(back.values, f.values)

    shrunk = GridSpec(dim_x=1, dim_v=1, n_x=16, n_v=16,
                      half_width_x=4.0, half_width_v=8.0)
    with pytest.raises(ConfigurationError):
        load_field(path, grid=shrunk)


def test_save_is_byte_deterministic(tmp_path):
    g = _grid16()
    f = PhaseField(g, np.random.default_rng(3).random(g.phase_shape))
    save_field(f, tmp_path / "a.akf")
    save_field(f, tmp_path / "b.akf")
    assert (tmp_path / "a.akf").read_bytes() == (tmp_path / "b.akf").read_bytes()


def test_load_rejects_corrupt_files(tmp_path):
    g = _grid16()
    f = PhaseField(g, np.ones(g.phase_shape))
    good = tmp_path / "good.akf"
    save_field(f, good)
    blob = good.read_bytes()

    bad_magic = tmp_path / "magic.akf"
    bad_magic.write_bytes(b"ZZZ1" + blob[4:])
    with pytest.raises(DataError, match="magic"):
        load_field(bad_magic)

    short_header = tmp_path / "short.akf"
    short_header.write_bytes(blob[:20])
    with pytest.raises(DataError, match="truncated"):
        load_field(short_header)

    clipped = tmp_path / "clipped.akf"
    clipped.write_bytes(blob[:-16])  # drop two payload values
    with pytest.raises(DataError, match="payload"):
        load_field(clipped)

    padded = tmp_path / "padded.akf"
    padded.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(DataError, match="payload"):
        load_field(padded)

    # no whole number of float64 values: a DataError naming the file, not
    # numpy's bare ValueError
    ragged = tmp_path / "ragged.akf"
    ragged.write_bytes(blob + b"\x00" * 3)
    with pytest.raises(DataError, match="ragged.akf.*payload"):
        load_field(ragged)

    for tag in (float("nan"), float("inf")):
        untimed = tmp_path / "untimed.akf"
        untimed.write_bytes(blob[:52] + struct.pack("<d", tag) + blob[60:])
        with pytest.raises(DataError, match="untimed.akf.*time tag"):
            load_field(untimed)


def test_save_rejects_bare_arrays(tmp_path):
    with pytest.raises(ShapeError):
        save_field(np.zeros((4, 4)), tmp_path / "no.akf")


def test_save_field_writes_the_payload_without_a_copy(tmp_path):
    g = GridSpec(dim_x=1, dim_v=1, n_x=1024, n_v=1024,
                 half_width_x=8.0, half_width_v=8.0)
    f = PhaseField(g, np.random.default_rng(5).random(g.phase_shape))
    assert f.values.nbytes == 8 * 2**20
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_field(f, tmp_path / "big.akf")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    np.testing.assert_array_equal(load_field(tmp_path / "big.akf").values, f.values)


def test_moment_table_rows_align_with_nodes(tmp_path, grid64):
    # one row per saved time, in the order handed over, each number written
    # repr-faithfully; the integral column is the driver's at those times
    p0 = gaussian_phase(grid64)
    sched = Schedule(t_end=0.1, dt=0.01, save_stride=5)
    traj, _ = picard_pure(p0, _params(), sched, tol=1e-9)
    rows = [moment_row(t, moments_of(f), a)
            for t, f, a in zip(traj.times, traj.fields, traj.aux["a"])]
    path = tmp_path / "moments.csv"
    write_moment_table(rows, path)
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["time", "mass", "sup_p_tilde", "sup_j", "sup_m", "sup_a"]
    assert len(table) == 1 + 3  # saves at t = 0, 0.05, 0.1
    for written, row, f in zip(table[1:], rows, traj.fields):
        # repr-faithful floats reparse exactly
        assert [float(x) for x in written] == list(row)
        assert float(written[1]) == integrate_phase(f)
        assert float(written[3]) == float(speed_moment(f).values.max())
    # the integral column is nondecreasing, starting at zero
    sup_a = [float(r[5]) for r in table[1:]]
    assert sup_a[0] == 0.0 and sup_a == sorted(sup_a)


def test_write_report_is_deterministic(tmp_path, grid64):
    p0 = gaussian_phase(grid64)
    sched = Schedule(t_end=0.05, dt=0.01, save_stride=5)
    traj = solve_linear(p0, CoefficientTrack(sched, grid64), 0.05)
    check = check_positivity(traj)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    payload = write_report([check], p1)
    write_report([check], p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert payload["all_passed"] is True
    loaded = json.loads(p1.read_text())
    assert loaded == payload
    entry = loaded["checks"][0]
    assert entry["name"] == "positivity"
    assert entry["verdict"] == "pass"
    assert isinstance(entry["worst_cell"], list)
