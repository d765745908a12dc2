"""Cell-averaged space-time fields, initial data descriptors, and file I/O.

A GridField stores a uniform-grid numerical solution: one slab of cell
averages per stored time level on the box [lo, hi]^dim.  On disk a field is
a directory (or explicit list) of slab files, one binary file per stored
level, ordered by their stored time.  A slab header holds exactly the
fields of a GridField, so ``load_field(write_slabs(f))`` equals ``f``
bitwise.  Byte layout, little-endian:

    magic    4 bytes  b"CLW2"
    dim      uint32
    nx       uint32
    lo       float64
    hi       float64
    bound_M  float64
    time     float64
    data     float64 * nx^dim   (C order)

The files of one field must agree on dim, nx, lo, hi and bound_M.  A file
that cannot be read as a slab (missing, another format, the old CLW1
layout, cut short) raises ``FieldFileError`` naming the path and the defect.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import FieldFileError, GridMismatch

_MAGIC = b"CLW2"
_SHARED = struct.Struct("<IIddd")
_SHARED_NAMES = ("dim", "nx", "lo", "hi", "bound_M")
_TIME = struct.Struct("<d")
_HEADER_SIZE = len(_MAGIC) + _SHARED.size + _TIME.size


def _tensor_points(axis: np.ndarray, dim: int) -> np.ndarray:
    """Every point of the lattice axis^dim, shape (n,) * dim + (dim,)."""
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)


@dataclass
class GridField:
    """Cell-averaged values on [lo, hi]^dim at the stored time levels."""

    dim: int
    lo: float
    hi: float
    nx: int
    times: np.ndarray            # (nt,)
    data: np.ndarray             # (nt, nx) or (nt, nx, nx)
    bound_M: float

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / self.nx

    @property
    def centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis, shape (nx,)."""
        return self.lo + (np.arange(self.nx) + 0.5) * self.dx

    def centers_points(self) -> np.ndarray:
        """All cell centers as points, shape (nx,) * dim + (dim,)."""
        return _tensor_points(self.centers, self.dim)

    def level_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            from .errors import MissingTimeLevels
            raise MissingTimeLevels(f"time {t} is not a stored level")
        return idx

    def same_grid(self, other: "GridField") -> bool:
        return (self.dim == other.dim and self.nx == other.nx
                and abs(self.lo - other.lo) < 1e-12
                and abs(self.hi - other.hi) < 1e-12)

    def require_compatible(self, other: "GridField"):
        if not self.same_grid(other):
            raise GridMismatch("fields do not share grid geometry")
        if len(self.times) != len(other.times) or \
                not np.allclose(self.times, other.times, rtol=0, atol=1e-12):
            raise GridMismatch("fields do not share stored time levels")


def write_slab(path, field: GridField, level: int) -> None:
    """Write one stored level in the documented binary layout."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC + _SHARED.pack(field.dim, field.nx, field.lo,
                                       field.hi, field.bound_M)
                 + _TIME.pack(field.times[level]))
        fh.write(np.ascontiguousarray(field.data[level], dtype="<f8").tobytes())


def write_slabs(directory, field: GridField) -> list:
    """Write every stored level as ``u_<level>.slab`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for n in range(len(field.times)):
        p = directory / f"u_{n:05d}.slab"
        write_slab(p, field, n)
        paths.append(p)
    return paths


def _read_slab(path: Path):
    """Return (shared header bytes, time, data) of one slab file."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FieldFileError(f"{path}: {exc.strerror or exc}") from exc
    magic = raw[:len(_MAGIC)]
    if magic == b"CLW1":
        raise FieldFileError(
            f"{path}: slab version CLW1 is no longer read (it lacks hi and "
            "bound_M); run the experiment again to write CLW2 slabs")
    if magic != _MAGIC:
        raise FieldFileError(f"{path}: not a slab file (magic {magic!r})")
    if len(raw) < _HEADER_SIZE:
        raise FieldFileError(f"{path}: header cut short ({len(raw)} of "
                             f"{_HEADER_SIZE} bytes)")
    shared = raw[len(_MAGIC):len(_MAGIC) + _SHARED.size]
    dim, nx = _SHARED.unpack(shared)[:2]
    if dim not in (1, 2) or nx < 1:
        raise FieldFileError(f"{path}: bad grid (dim {dim}, nx {nx})")
    payload = len(raw) - _HEADER_SIZE
    if payload != 8 * nx ** dim:
        raise FieldFileError(f"{path}: {payload} data bytes, expected "
                             f"{8 * nx ** dim} for nx**dim = {nx ** dim} "
                             "cells")
    (time,) = _TIME.unpack_from(raw, _HEADER_SIZE - _TIME.size)
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER_SIZE)
    return shared, time, data.reshape((nx,) * dim)


def load_field(source) -> GridField:
    """A field's one reader: assemble a GridField from a slab file, a
    directory of slab files or a list of slab files; levels are ordered by
    their stored time."""
    if isinstance(source, (list, tuple)):
        paths = [Path(p) for p in source]
    else:
        src = Path(source)
        paths = sorted(src.glob("*.slab")) if src.is_dir() else [src]
    if not paths:
        raise FieldFileError(f"{source}: no slab files")
    records = [_read_slab(p) for p in paths]
    head = _SHARED.unpack(records[0][0])
    for p, rec in zip(paths[1:], records[1:]):
        if rec[0] != records[0][0]:
            diff = ", ".join(
                f"{name} {a!r} vs {b!r}" for name, a, b
                in zip(_SHARED_NAMES, _SHARED.unpack(rec[0]), head)
                if repr(a) != repr(b))
            raise GridMismatch(f"{p} and {paths[0]} disagree on {diff}")
    records.sort(key=lambda r: r[1])
    dim, nx, lo, hi, bound = head
    return GridField(dim, lo, hi, nx, np.array([r[1] for r in records]),
                     np.stack([r[2] for r in records]), bound)


@dataclass(frozen=True)
class InitialData:
    """Descriptor for initial data; evaluable at cell-center points.

    Kinds: riemann(ul, ur, x0) jumps along the first axis; box(height, lo,
    hi) is ``height`` on the product interval; sine(amp, freq, offset) is
    offset + amp sin(2 pi freq x) (times the y-factor in 2-d); constant
    (value); file(path) resamples a stored level-0 field by nearest cell.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def sample(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        x = pts[..., 0]
        p = self.params
        if self.kind == "riemann":
            x0 = p.get("x0", 0.0)
            return np.where(x < x0, p["ul"], p["ur"]) + np.zeros(pts.shape[:-1])
        if self.kind == "box":
            inside = (x >= p["lo"]) & (x <= p["hi"])
            if pts.shape[-1] == 2:
                inside &= (pts[..., 1] >= p["lo"]) & (pts[..., 1] <= p["hi"])
            return np.where(inside, p["height"], 0.0)
        if self.kind == "sine":
            off = p.get("offset", 0.0)
            val = p["amp"] * np.sin(2.0 * np.pi * p["freq"] * x)
            if pts.shape[-1] == 2:
                val = val * np.sin(2.0 * np.pi * p["freq"] * pts[..., 1])
            return off + val
        if self.kind == "constant":
            return np.full(pts.shape[:-1], float(p["value"]))
        if self.kind == "file":
            src = load_field(p["path"])
            return _nearest_sample(src, pts)
        raise ValueError(f"unknown initial data kind {self.kind!r}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.sample(points)


def field_from_function(fn, lo: float, hi: float, nx: int, times,
                        dim: int = 1) -> GridField:
    """Sample an analytic u(x, t) on the grid at the given times.

    Used to synthesize exact or counterexample fields (shocks joined by
    jump conditions, rarefactions) whose residuals have closed forms.
    """
    grid = GridField(dim, float(lo), float(hi), nx,
                     np.asarray(times, dtype=float), np.empty(0), 0.0)
    pts = grid.centers_points()
    data = np.stack([np.asarray(fn(pts, float(t)), dtype=float)
                     + np.zeros(pts.shape[:-1]) for t in grid.times])
    return replace(grid, data=data, bound_M=float(np.abs(data).max()))


def _nearest_sample(src: GridField, pts: np.ndarray) -> np.ndarray:
    idx = np.clip(((pts - src.lo) / src.dx - 0.5).round().astype(int), 0, src.nx - 1)
    return src.data[0][tuple(idx[..., a] for a in range(src.dim))]


def riemann_data(ul: float, ur: float, x0: float = 0.0) -> InitialData:
    return InitialData("riemann", {"ul": float(ul), "ur": float(ur), "x0": float(x0)})


def box_data(height: float, lo: float, hi: float) -> InitialData:
    return InitialData("box", {"height": float(height), "lo": float(lo), "hi": float(hi)})


def sine_data(amp: float, freq: float, offset: float = 0.0) -> InitialData:
    return InitialData("sine", {"amp": float(amp), "freq": float(freq),
                                "offset": float(offset)})


def constant_data(value: float) -> InitialData:
    return InitialData("constant", {"value": float(value)})


def file_data(path) -> InitialData:
    return InitialData("file", {"path": str(path)})
