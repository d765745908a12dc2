"""Cell-averaged space-time fields, initial data descriptors, and file I/O.

A GridField stores a uniform-grid numerical solution: one slab of cell
averages per stored time level on the box [lo, hi]^dim.  Two on-disk forms
are supported:

* CSV: one row per (level, cell): ``time,x[,y],value`` with 17-significant-
  digit decimal floats (lossless round trip).  ``write_csv`` is an export:
  it formats and writes one stored level at a time, with the same bytes as
  a per-value ``format(v, ".17g")`` writer.
* slab: one binary file per stored level.  Byte layout, little-endian:

      magic   4 bytes  b"CLW1"
      dim     uint32
      nx      uint32
      dx      float64
      origin  float64 * dim      (lower domain corner per axis)
      time    float64
      data    float64 * nx^dim   (C order)

  A field is a directory (or explicit list) of such files; levels are
  ordered by their stored time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import GridMismatch

_MAGIC = b"CLW1"


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
        """All cell centers as points, shape (nx, 1) or (nx, nx, 2)."""
        c = self.centers
        if self.dim == 1:
            return c[:, None]
        X, Y = np.meshgrid(c, c, indexing="ij")
        return np.stack([X, Y], axis=-1)

    def level_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            from .errors import MissingTimeLevels
            raise MissingTimeLevels(f"time {t} is not a stored level")
        return idx

    def values_at(self, t: float) -> np.ndarray:
        return self.data[self.level_index(t)]

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


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_csv(field: GridField, path) -> None:
    """Export ``field`` as CSV (layout in the module docstring).

    The ``x[,y]`` column text is formatted once; each stored level is then
    one ``%.17g`` template filled with that level's values and written
    before the next level is formatted, so memory stays at one level.
    """
    xs = [_fmt(x) for x in field.centers]
    if field.dim == 1:
        header = "time,x,value\n"
        cells = [f",{x},%.17g" for x in xs]
    else:
        header = "time,x,y,value\n"
        cells = [f",{x},{y},%.17g" for x in xs for y in xs]
    with open(Path(path), "w") as fh:
        fh.write(header)
        for n, t in enumerate(field.times):
            ts = _fmt(t)
            template = ts + f"\n{ts}".join(cells) + "\n"
            fh.write(template % tuple(field.data[n].ravel().tolist()))


def read_csv(path) -> GridField:
    path = Path(path)
    raw = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
    raw = np.atleast_2d(raw)
    ncols = raw.shape[1]
    if ncols == 3:
        dim = 1
    elif ncols == 4:
        dim = 2
    else:
        raise ValueError(f"{path}: expected 3 or 4 columns, got {ncols}")
    times = np.unique(raw[:, 0])
    xs = np.unique(raw[:, 1])
    nx = len(xs)
    dx = xs[1] - xs[0] if nx > 1 else 1.0
    lo, hi = xs[0] - 0.5 * dx, xs[-1] + 0.5 * dx
    if dim == 1:
        data = np.empty((len(times), nx))
        for n, t in enumerate(times):
            rows = raw[raw[:, 0] == t]
            order = np.argsort(rows[:, 1])
            data[n] = rows[order, 2]
    else:
        data = np.empty((len(times), nx, nx))
        for n, t in enumerate(times):
            rows = raw[raw[:, 0] == t]
            order = np.lexsort((rows[:, 2], rows[:, 1]))
            data[n] = rows[order, 3].reshape(nx, nx)
    bound = float(np.abs(data).max())
    return GridField(dim, float(lo), float(hi), nx, times, data, bound)


def write_slab(path, field: GridField, level: int) -> None:
    """Write one stored level in the documented binary layout."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", field.dim, field.nx))
        fh.write(struct.pack("<d", field.dx))
        fh.write(struct.pack(f"<{field.dim}d", *([field.lo] * field.dim)))
        fh.write(struct.pack("<d", float(field.times[level])))
        fh.write(np.ascontiguousarray(field.data[level], dtype="<f8").tobytes())


def write_slabs(directory, field: GridField, basename: str = "u") -> list:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for n in range(len(field.times)):
        p = directory / f"{basename}_{n:05d}.slab"
        write_slab(p, field, n)
        paths.append(p)
    return paths


def read_slab(path):
    """Return (dim, nx, dx, origin, time, data) for one slab file."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        dim, nx = struct.unpack("<II", fh.read(8))
        (dx,) = struct.unpack("<d", fh.read(8))
        origin = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        (time,) = struct.unpack("<d", fh.read(8))
        payload = np.frombuffer(fh.read(8 * nx ** dim), dtype="<f8")
    shape = (nx,) if dim == 1 else (nx, nx)
    return dim, nx, dx, origin, time, payload.reshape(shape).copy()


def read_slabs(source) -> GridField:
    """Assemble a GridField from a directory of slab files or a path list."""
    src = Path(source) if not isinstance(source, (list, tuple)) else source
    if isinstance(src, Path):
        if src.is_dir():
            paths = sorted(src.glob("*.slab"))
        else:
            paths = [src]
    else:
        paths = [Path(p) for p in src]
    if not paths:
        raise ValueError(f"no slab files found in {source}")
    records = [read_slab(p) for p in paths]
    dim, nx, dx, origin = records[0][:4]
    for rec in records[1:]:
        if rec[:4] != (dim, nx, dx, origin):
            raise GridMismatch("slab files disagree on grid geometry")
    records.sort(key=lambda r: r[4])
    times = np.array([r[4] for r in records])
    data = np.stack([r[5] for r in records])
    lo = origin[0]
    hi = lo + nx * dx
    return GridField(dim, float(lo), float(hi), nx, times, data,
                     float(np.abs(data).max()))


def load_field(path) -> GridField:
    """Dispatch on path: .csv file, .slab file, or directory of slabs."""
    p = Path(path)
    if p.is_dir():
        return read_slabs(p)
    if p.suffix == ".csv":
        return read_csv(p)
    return read_slabs(p)


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
    if src.dim == 1:
        return src.data[0][idx[..., 0]]
    return src.data[0][idx[..., 0], idx[..., 1]]


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
