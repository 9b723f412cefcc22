"""On-disk formats: binary field snapshots and CSV tables.

Binary snapshot layout (fixed, little-endian, magic ``AKF1``):

    bytes 0-3    magic  b"AKF1"
    int64        dim_x, dim_v, n_x, n_v     (dim_v = n_v = 0 for spatial fields)
    float64      L_x, L_v, time_tag         (L_v = 0.0 for spatial fields)
    float64[]    payload, C order

The header pins everything needed to interpret a phase field; a spatial
field deliberately stores no velocity lattice (it has none), so reloading
one needs the run's grid.

CSV output is plain text with one row per lattice point (coordinates then
value) or one row per saved time for the reduced-quantity table; floats are
written with repr-faithful precision so files are bit-stable across runs.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .errors import ConfigurationError, DataError, ShapeError
from .grid import GridSpec, PhaseField, SpatialField, integrate_phase

MAGIC = b"AKF1"
_HEADER = struct.Struct("<4sqqqqddd")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_field(field, path) -> None:
    """Write one field to ``path`` in the binary snapshot format."""
    if not isinstance(field, (PhaseField, SpatialField)):
        raise ShapeError(f"expected PhaseField or SpatialField, got {type(field).__name__}")
    g = field.grid
    # a spatial field has no velocity lattice, so its header records none
    if field.kind == "phase":
        v_lattice = (g.dim_v, g.n_v, g.half_width_v)
    else:
        v_lattice = (0, 0, 0.0)
    header = _HEADER.pack(MAGIC, g.dim_x, v_lattice[0], g.n_x, v_lattice[1],
                          g.half_width_x, v_lattice[2], field.time_tag)
    with open(path, "wb") as fh:
        fh.write(header)
        # the array's own buffer: no copy of the payload
        fh.write(memoryview(np.ascontiguousarray(field.values, dtype="<f8")).cast("B"))


def load_field(path, grid: GridSpec = None):
    """Read a snapshot back.

    Phase fields are self-describing; spatial snapshots carry no velocity
    lattice, so ``grid`` must be supplied for them (and, when given for a
    phase field, is validated against the header).
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise DataError(f"{path}: truncated header")
        magic, dim_x, dim_v, n_x, n_v, l_x, l_v, time_tag = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        payload = np.frombuffer(fh.read(), dtype="<f8")
    if dim_v == 0:
        if grid is None:
            raise ConfigurationError(
                f"{path} holds a spatial field, which carries no velocity "
                "lattice; pass the run's grid to reconstruct it"
            )
        if (grid.dim_x, grid.n_x) != (dim_x, n_x) or grid.half_width_x != l_x:
            raise ConfigurationError(
                f"{path}: header (dim_x={dim_x}, n_x={n_x}, L_x={l_x}) does "
                "not match the supplied grid"
            )
        expected = n_x ** dim_x
        if payload.size != expected:
            raise DataError(f"{path}: payload has {payload.size} values, expected {expected}")
        return SpatialField(grid, payload.reshape(grid.spatial_shape),
                            time_tag=time_tag)
    if grid is None:
        grid = GridSpec(dim_x=dim_x, dim_v=dim_v, n_x=n_x, n_v=n_v,
                        half_width_x=l_x, half_width_v=l_v)
    elif (grid.dim_x, grid.dim_v, grid.n_x, grid.n_v) != (dim_x, dim_v, n_x, n_v) \
            or (grid.half_width_x, grid.half_width_v) != (l_x, l_v):
        raise ConfigurationError(f"{path}: header does not match the supplied grid")
    expected = n_x ** dim_x * n_v ** dim_v
    if payload.size != expected:
        raise DataError(f"{path}: payload has {payload.size} values, expected {expected}")
    return PhaseField(grid, payload.reshape(grid.phase_shape), time_tag=time_tag)


def field_to_csv(field, path) -> None:
    """One row per lattice point: cell-centre coordinates, then the value."""
    g = field.grid
    dim_v = g.dim_v if field.kind == "phase" else 0
    axes = [g.x_coords()] * g.dim_x + [g.v_coords()] * dim_v
    names = [f"x{i}" for i in range(g.dim_x)] + [f"v{i}" for i in range(dim_v)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["value"])
        flat = field.values.reshape(-1)
        for k, idx in enumerate(np.ndindex(*field.values.shape)):
            row = [_fmt(axes[d][idx[d]]) for d in range(len(axes))]
            row.append(_fmt(flat[k]))
            writer.writerow(row)


def write_moment_table(traj, moment_sets, a_nodes, path) -> None:
    """Reduced-quantity table of a phase trajectory, one row per saved time.

    Columns: time, mass, sup of the velocity marginal, of the speed moment,
    of the second moment (from ``moment_sets``, the MomentSet of each saved
    field), and of the running time integral (``a_nodes`` is the node-level
    integral stack from the driver; rows pick the node matching each saved
    time).
    """
    if traj.node_times is None:
        raise ConfigurationError("trajectory carries no node times; run a driver first")
    if len(moment_sets) != len(traj):
        raise ConfigurationError(
            f"need one moment set per saved field, got {len(moment_sets)} "
            f"for {len(traj)}")
    dt = float(traj.node_times[1] - traj.node_times[0])
    t0 = float(traj.node_times[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "mass", "sup_p_tilde", "sup_j", "sup_m", "sup_a"])
        for t, f, ms in zip(traj.times, traj.fields, moment_sets):
            node = int(round((t - t0) / dt))
            writer.writerow([
                _fmt(t), _fmt(integrate_phase(f)),
                _fmt(float(ms.p_tilde.values.max())),
                _fmt(float(ms.j.values.max())),
                _fmt(float(ms.m.values.max())),
                _fmt(float(a_nodes[node].max())),
            ])
