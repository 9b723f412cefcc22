"""On-disk formats: binary field snapshots and CSV tables.

Binary snapshot layout (fixed, little-endian, magic ``AKF1``):

    bytes 0-3    magic  b"AKF1"
    int64        dim_x, dim_v, n_x, n_v     (dim_v = n_v = 0 for spatial fields)
    float64      L_x, L_v, time_tag         (L_v = 0.0 for spatial fields)
    float64[]    payload, C order

The header pins everything needed to interpret a phase field; a spatial
field deliberately stores no velocity lattice (it has none), so reloading
one needs the run's grid.

The reduced-quantity table is plain CSV text with one row per saved time,
written from the numbers the caller reduced each saved field to (the
writer reads no field); floats are written with repr-faithful precision so
files are bit-stable across runs.
"""

from __future__ import annotations

import csv
import math
import struct

import numpy as np

from .errors import ConfigurationError, DataError, ShapeError
from .grid import GridSpec, PhaseField, SpatialField

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
        if not math.isfinite(time_tag):
            raise DataError(f"{path}: time tag {time_tag!r} is not finite")
        raw = fh.read()
    if len(raw) % 8:
        raise DataError(f"{path}: payload of {len(raw)} bytes is not a whole "
                        "number of float64 values")
    payload = np.frombuffer(raw, dtype="<f8")
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


def moment_row(t, moments, a) -> tuple:
    """The six numbers of one saved time's table row: ``t``, the mass and
    the sups of the velocity marginal, the speed moment and the second
    moment (from its MomentSet ``moments``), and the sup of the running
    time integral ``a`` at ``t``."""
    return (t, moments.mass, float(moments.p_tilde.values.max()),
            float(moments.j.values.max()), float(moments.m.values.max()),
            float(a.max()))


def write_moment_table(rows, path) -> None:
    """Reduced-quantity table of a run, one :func:`moment_row` per saved
    time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "mass", "sup_p_tilde", "sup_j", "sup_m", "sup_a"])
        writer.writerows([_fmt(x) for x in row] for row in rows)
