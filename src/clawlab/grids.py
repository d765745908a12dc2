"""Cell-averaged space-time fields, initial data descriptors, and file I/O.

A GridField stores a uniform-grid numerical solution: one slab of cell
averages per stored time level on the box [lo, hi]^dim.  On disk a field is
a sequence of slab records, one per stored level, ordered by their stored
time.  ``write_slabs`` writes them back to back into one file,
``field.slab`` in the field's directory; the reader takes a file of one or
more records, a directory of such files or a list of them, so a directory
of one-record files per level (the layout before one file per field) loads
the same.  A record header holds exactly the fields of a GridField, so
``load_field(write_slabs(f))`` equals ``f`` bitwise.  Record layout,
little-endian:

    magic    4 bytes  b"CLW2"
    dim      uint32
    nx       uint32
    lo       float64
    hi       float64
    bound_M  float64
    time     float64
    data     float64 * nx^dim   (C order)

The records of one field must agree on dim, nx, lo, hi and bound_M
(``GridMismatch`` otherwise).  A file that cannot be read as slab records
(missing, another format, the old CLW1 layout, a record cut short or
trailing bytes) raises ``FieldFileError`` naming the path, the record and
the defect.
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
    """Write every stored level as one record of ``directory/field.slab``,
    in level order, each straight from the field's array; returns the
    file's path in a list."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "field.slab"
    shared = _MAGIC + _SHARED.pack(field.dim, field.nx, field.lo, field.hi,
                                   field.bound_M)
    with open(path, "wb") as fh:
        for n, t in enumerate(field.times):
            fh.write(shared + _TIME.pack(t))
            fh.write(np.ascontiguousarray(field.data[n], dtype="<f8"))
    return [path]


def _read_records(path: Path):
    """Yield (shared header bytes, time, data, record index) for every
    record of one slab file."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FieldFileError(f"{path}: {exc.strerror or exc}") from exc
    offset, index = 0, 0
    while True:
        where = f"{path}: record {index}"
        magic = raw[offset:offset + len(_MAGIC)]
        if magic == b"CLW1":
            raise FieldFileError(
                f"{where}: slab version CLW1 is no longer read (it lacks hi "
                "and bound_M); run the experiment again to write CLW2 slabs")
        if magic != _MAGIC:
            raise FieldFileError(f"{where}: not a slab file (magic {magic!r})")
        rest = len(raw) - offset
        if rest < _HEADER_SIZE:
            raise FieldFileError(f"{where}: header cut short ({rest} of "
                                 f"{_HEADER_SIZE} bytes)")
        start = offset + len(_MAGIC)
        shared = raw[start:start + _SHARED.size]
        dim, nx = _SHARED.unpack(shared)[:2]
        if dim not in (1, 2) or nx < 1:
            raise FieldFileError(f"{where}: bad grid (dim {dim}, nx {nx})")
        expected = 8 * nx ** dim
        end = offset + _HEADER_SIZE + expected
        # the next record starts right after this one's data, with a magic;
        # bytes up to the end of the file that do not are this record's
        if end > len(raw) or (end < len(raw) and raw[end:end + len(_MAGIC)]
                              not in (_MAGIC, b"CLW1")):
            raise FieldFileError(
                f"{where}: {rest - _HEADER_SIZE} data bytes, expected "
                f"{expected} for nx**dim = {nx ** dim} cells")
        (time,) = _TIME.unpack_from(raw, offset + _HEADER_SIZE - _TIME.size)
        data = np.frombuffer(raw, dtype="<f8", count=nx ** dim,
                             offset=offset + _HEADER_SIZE)
        yield shared, time, data.reshape((nx,) * dim), index
        if end == len(raw):
            return
        offset, index = end, index + 1


def load_field(source) -> GridField:
    """A field's one reader: assemble a GridField from a slab file, a
    directory of slab files or a list of slab files, each holding one or
    more records; levels are ordered by their stored time."""
    if isinstance(source, (list, tuple)):
        paths = [Path(p) for p in source]
    else:
        src = Path(source)
        paths = sorted(src.glob("*.slab")) if src.is_dir() else [src]
    if not paths:
        raise FieldFileError(f"{source}: no slab files")
    records = [(p, *rec) for p in paths for rec in _read_records(p)]
    first, shared0 = records[0][0], records[0][1]
    head = _SHARED.unpack(shared0)
    for p, shared, _, _, index in records[1:]:
        if shared != shared0:
            diff = ", ".join(
                f"{name} {a!r} vs {b!r}" for name, a, b
                in zip(_SHARED_NAMES, _SHARED.unpack(shared), head)
                if repr(a) != repr(b))
            raise GridMismatch(f"{p} record {index} and {first} record 0 "
                               f"disagree on {diff}")
    records.sort(key=lambda r: r[2])
    dim, nx, lo, hi, bound = head
    return GridField(dim, lo, hi, nx, np.array([r[2] for r in records]),
                     np.stack([r[3] for r in records]), bound)


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
