"""Cell-averaged space-time fields, initial data descriptors, and file I/O.

A GridField stores a uniform-grid numerical solution: one slab of cell
averages per stored time level on the box [lo, hi]^dim, with dim one of
``DIMS``, the one statement of the supported dimensions.  On disk a field is
one slab file, ``field.slab`` in the field's directory: one header, the
stored times, then every level's cells.  The header holds exactly the
fields of a GridField, so ``load_field(write_slabs(d, f)[0])`` equals ``f``
bitwise.  Layout, little-endian:

    magic    4 bytes  b"CLW3"
    dim      uint32
    nx       uint32
    nt       uint32             (stored levels)
    lo       float64
    hi       float64
    bound_M  float64
    times    float64 * nt       (strictly increasing)
    data     float64 * nt * nx^dim   (C order)

A file that is not one whole field of this layout (missing, another
magic, the old CLW1 or CLW2 layout, a header cut short, even inside the
magic, dim not in ``DIMS``, nx or nt below 1, any other size, or times
that do not increase) raises ``FieldFileError`` naming the path and the defect.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import FieldFileError, GridMismatch

# the dimensions a field and a run may have.  The solver has one step
# class for each entry; every other rule is one formula in d
DIMS = (1, 2)
_MAGIC = b"CLW3"
_HEADER = struct.Struct("<4sIIIddd")
# the layouts before this one, each with why it is no longer read
_OLD = {b"CLW1": "it lacks hi and bound_M",
        b"CLW2": "it repeats the grid header on every level"}


def cell_centers(lo: float, hi: float, nx: int) -> np.ndarray:
    """Centers of nx equal cells on [lo, hi], shape (nx,)."""
    return lo + (np.arange(nx) + 0.5) * ((hi - lo) / nx)


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
        return cell_centers(self.lo, self.hi, self.nx)

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


def write_slabs(directory, field: GridField) -> list:
    """Write the field as ``directory/field.slab``: the header, the times,
    then the data, straight from the field's arrays.  It is written beside
    the old file and renamed onto it: a field loaded from the old file
    maps it, and cutting that file short in place would take its pages."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "field.slab"
    part = directory / "field.slab.part"
    with open(part, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, field.dim, field.nx, len(field.times),
                              field.lo, field.hi, field.bound_M))
        fh.write(np.ascontiguousarray(field.times, dtype="<f8"))
        fh.write(np.ascontiguousarray(field.data, dtype="<f8"))
    os.replace(part, path)
    # a list, as the benchmark's tracer (perfbench/tracing.py) takes it:
    # it counts the bytes of every path in the list, and of the *.slab
    # files of a directory given to load_field
    return [path]


def load_field(source) -> GridField:
    """A field's one reader: the GridField of a slab file, or of the
    ``field.slab`` of a field directory.  The header is read, and the
    times and data are writable views of one copy-on-write map of the
    rest: a caller pages in only the levels it reads, and writing to the
    field leaves the file as it was."""
    path = Path(source)
    if path.is_dir():
        path = path / "field.slab"
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            size = os.fstat(fh.fileno()).st_size
    except OSError as exc:
        raise FieldFileError(f"{path}: {exc.strerror or exc}") from exc
    magic = head[:len(_MAGIC)]
    if magic in _OLD:
        raise FieldFileError(
            f"{path}: slab version {magic.decode()} is no longer read "
            f"({_OLD[magic]}); run the experiment again to write "
            f"{_MAGIC.decode()} slabs")
    # a file cut inside the magic holds a proper prefix of it: cut short
    if not _MAGIC.startswith(magic):
        raise FieldFileError(f"{path}: not a slab file (magic {magic!r})")
    if len(head) < _HEADER.size:
        raise FieldFileError(f"{path}: header cut short ({len(head)} of "
                             f"{_HEADER.size} bytes)")
    _, dim, nx, nt, lo, hi, bound = _HEADER.unpack(head)
    if dim not in DIMS or nx < 1 or nt < 1:
        raise FieldFileError(f"{path}: bad grid (dim {dim}, nx {nx}, nt {nt})")
    cells = nx ** dim
    expected = _HEADER.size + 8 * nt * (1 + cells)
    if size != expected:
        raise FieldFileError(
            f"{path}: {size} bytes, expected {expected} for nt = {nt} "
            f"levels of nx**dim = {cells} cells")
    # the map is never empty: nt and the cell count are at least 1
    values = np.memmap(path, "<f8", "c", _HEADER.size).view(np.ndarray)
    times = values[:nt]
    if not (times[1:] > times[:-1]).all():
        raise FieldFileError(f"{path}: stored times are not strictly "
                             "increasing")
    return GridField(dim, lo, hi, nx, times,
                     values[nt:].reshape((nt,) + (nx,) * dim), bound)


@dataclass(frozen=True)
class InitialData:
    """Descriptor for initial data; evaluable at cell-center points.

    Kinds: riemann(ul, ur, x0) jumps along the first axis; box(height, lo,
    hi) is ``height`` on the cube [lo, hi]^d; sine(amp, freq, offset) is
    offset + amp sin(2 pi freq x_1) ... sin(2 pi freq x_d), multiplied in
    axis order; constant (value); file(path) resamples a stored level-0
    field by nearest cell.
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
            inside = ((pts >= p["lo"]) & (pts <= p["hi"])).all(axis=-1)
            return np.where(inside, p["height"], 0.0)
        if self.kind == "sine":
            val = p["amp"]
            for axis in range(pts.shape[-1]):
                val = val * np.sin(2.0 * np.pi * p["freq"] * pts[..., axis])
            return p.get("offset", 0.0) + val
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
