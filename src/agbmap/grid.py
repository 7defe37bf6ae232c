"""Single-band raster grids of float32 values, NaN where a cell has no value.

Grids are stored north-to-south, west-to-east (row 0 is the northernmost row).
The origin is the outer corner of the south-west cell, so the cell (col, row)
covers x in [x_origin + col*cellsize, x_origin + (col+1)*cellsize) and the
row index counts down from the north edge.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


class GridFormatError(ValueError):
    """Raised when a grid file cannot be parsed or violates the format."""


# the fields two grids share when they are aligned
GEOMETRY = ("ncols", "nrows", "x_origin", "y_origin", "cellsize")

# cells of a row block: code that works through a raster in blocks of whole rows
# (predict_grid, assign_lattice, synth's fields and layers) keeps each block's
# temporaries this small
ROW_BLOCK_CELLS = 1 << 15


def block_rows(ncols: int) -> int:
    """Rows of a row block on a raster of `ncols` columns: at least one."""
    return max(1, ROW_BLOCK_CELLS // max(1, ncols))


def row_blocks(nrows: int, ncols: int):
    """The row slices of a raster of `nrows` x `ncols` cells, one row block each."""
    step = block_rows(ncols)
    return (slice(r, r + step) for r in range(0, nrows, step))


# threads of `map_chunks`: the CPUs this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def map_chunks(n: int, chunk: int, values, per_cell: dict) -> np.ndarray:
    """`values(lo, hi, buffers)` of each chunk of range(n) in one array. The caller and w - 1
    helper threads, w = min(_WORKERS, chunks), take chunk i, then the next none took, in
    arrays each allocates once: `buffers[name]` is a (k, hi - lo) prefix of `per_cell[name]`,
    (k, dtype). Bodies call no public function or model `predict`: no span opens off-thread."""
    out, starts, m = np.empty(n, dtype=np.float64), range(0, n, chunk), min(chunk, n)
    w = min(_WORKERS, len(starts))
    rest = iter(starts[w:])  # shared; a range iterator's next is one step under the GIL

    def take(i):
        own = {name: (k, np.empty(k * m, dtype)) for name, (k, dtype) in per_cell.items()}
        for lo, hi in ((lo, min(lo + chunk, n)) for part in (starts[i:i + 1], rest) for lo in part):
            out[lo:hi] = values(lo, hi, {name: a[:k * (hi - lo)].reshape(k, hi - lo)
                                         for name, (k, a) in own.items()})

    with ThreadPoolExecutor(max(w - 1, 1)) as pool:  # a thread starts on its first submit
        helpers = pool.map(take, range(1, w))
        take(0)
        list(helpers)  # re-raises a helper's exception
    return out


class Grid:
    """A rectangular raster of float32 values, NaN where a cell has no value.

    Every such cell holds the one quiet NaN 0x7FC00000, so that serialization is
    a pure function of the logical content, and no cell holds an infinity. The
    array is read-only: one that is read-only, views only read-only memory and
    has float32 dtype, C order and no other NaN is kept, and any other is copied.
    Sizes are ints (a numpy integer is taken as its int) and units a string.
    """

    def __init__(self, ncols: int, nrows: int, x_origin: float, y_origin: float,
                 cellsize: float, units: str, values):
        ncols, nrows = (int(n) if isinstance(n, np.integer) else n for n in (ncols, nrows))
        _check_geometry(ncols, nrows, x_origin, y_origin, cellsize)
        if not isinstance(units, str):  # else the file written is one read_header refuses
            raise ValueError(f"units must be a string, got {units!r}")
        self.ncols, self.nrows, self.units = ncols, nrows, units
        # floats, as read_header gives them: a grid read back is aligned
        self.x_origin, self.y_origin, self.cellsize = map(float, (x_origin, y_origin, cellsize))
        if not _kept(values, np.float32):
            values = np.array(values, dtype=np.float32, order="C")
        if values.shape != (nrows, ncols):
            raise ValueError(f"values of shape {values.shape} on a grid of {nrows} x {ncols} cells")
        bits = values.view(np.uint32)  # each cell finite or the quiet NaN, by row blocks
        if not all((np.isfinite(values[rows]) | (bits[rows] == 0x7FC00000)).all()
                   for rows in row_blocks(nrows, ncols)):
            if np.isinf(values).any():
                raise ValueError("cells must not hold an infinity")
            values = np.where(np.isnan(values), np.float32(np.nan), values)  # -NaN is 0xFFC00000
        values.flags.writeable = False
        self.values = values

    @property
    def mask(self) -> np.ndarray:  # True where a cell has a value; computed on each use
        return ~np.isnan(self.values)

    # -- geometry ---------------------------------------------------------

    def aligned_with(self, other: "Grid") -> bool:
        """True iff both grids share all five geometry fields exactly."""
        return all(getattr(self, key) == getattr(other, key) for key in GEOMETRY)

    @property
    def y_max(self) -> float:
        return self.y_origin + self.nrows * self.cellsize

    def cell_centers(self):
        """Center coordinates as (xs[ncols], ys[nrows]), ys north to south."""
        xs = self.x_origin + (np.arange(self.ncols) + 0.5) * self.cellsize
        ys = self.y_origin + (self.nrows - np.arange(self.nrows) - 0.5) * self.cellsize
        return xs, ys

    def with_values(self, values: np.ndarray, units: str | None = None) -> "Grid":
        """New grid on the same geometry with different content."""
        return Grid(**{key: getattr(self, key) for key in GEOMETRY},
                    units=self.units if units is None else units, values=values)


@dataclass
class GridSummary:
    n_valid: int
    mean: float | None
    min: float | None
    max: float | None


def summarize(grid: Grid) -> GridSummary:
    """Summary statistics over valid cells; None statistics when none are valid."""
    vals = grid.values[grid.mask].astype(np.float64)
    if vals.size == 0:
        return GridSummary(n_valid=0, mean=None, min=None, max=None)
    return GridSummary(
        n_valid=int(vals.size),
        mean=float(vals.mean()),
        min=float(vals.min()),
        max=float(vals.max()),
    )


def difference(a: Grid, b: Grid) -> Grid:
    """Cellwise a - b; NaN, no value, where either operand has none."""
    if not a.aligned_with(b):
        raise ValueError("grids are not aligned")
    values = a.values - b.values
    values.flags.writeable = False  # so the grid keeps it
    return a.with_values(values)


def percent_rank(grid: Grid) -> Grid:
    """Percent rank of each valid cell among all valid cells, in [0, 100].

    Ties take the minimum rank, so a grid of identical values maps to all
    zeros. Needs at least two valid cells.
    """
    valid = grid.mask
    vals = grid.values[valid]
    n = vals.size
    if n < 2:
        raise ValueError("percent_rank needs at least two valid cells")
    order = np.argsort(vals)
    ordered, smaller = vals[order], np.empty(n, dtype=np.int64)
    del vals
    # minimum rank for ties: 1 + the number of strictly smaller values, which is
    # where the value's run of equal values starts in sorted order (any sort kind)
    smaller[order] = np.searchsorted(ordered, ordered)
    del order, ordered
    values = np.full(grid.values.shape, np.nan, dtype=np.float32)
    values[valid] = 100.0 * smaller / (n - 1)
    values.flags.writeable = False  # so the grid keeps it
    return grid.with_values(values, units="percent")


# -- file format ----------------------------------------------------------

# the header's fields and their JSON types; a bool is neither an integer nor a number
_HEADER_TYPES = {"ncols": int, "nrows": int, "x_origin": (int, float), "y_origin": (int, float),
                 "cellsize": (int, float), "units": str, "byte_order": str, "format": str}


def write_grid(grid: Grid, path) -> None:
    """Write a grid to `path`: one JSON header line, padded with spaces so that
    the values start at a multiple of 4 bytes, then row-major little-endian
    float32 values (north row first), NaN where a cell has no value.
    """
    header = {**{key: getattr(grid, key) for key in (*GEOMETRY, "units")},
              "byte_order": "little", "format": "float32-nan"}
    line = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(line + b" " * (-(len(line) + 1) % 4) + b"\n")
        f.write(grid.values.astype("<f4", copy=False).data)  # C order


def finite_number(value) -> bool:
    """An int or float, not a bool, and finite as a float: no nan, no inf and no
    integer too large for a float (on which `math.isfinite` raises)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _kept(a, dtype) -> bool:
    """Whether `a` is an array of `dtype` in C order that no array it views lets anyone write."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous):
        return False
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        a = a.base
    return a is None


def _check_geometry(ncols, nrows, x_origin, y_origin, cellsize) -> None:
    """The rule on a grid's geometry, in memory and in a file header: int sizes (not
    bools) of at least one column and one row, finite origins and a positive finite
    cellsize."""
    for name, cells in (("ncols", ncols), ("nrows", nrows)):
        if not isinstance(cells, int) or isinstance(cells, bool):
            raise ValueError(f"{name} must be an int, got {cells!r}")
    if ncols < 1 or nrows < 1:
        raise ValueError("grid must have at least one column and one row")
    if not all(map(finite_number, (x_origin, y_origin, cellsize))):
        raise ValueError("grid origins and cellsize must be finite")
    if not cellsize > 0:
        raise ValueError(f"cellsize must be positive, got {cellsize!r}")


def read_header(path) -> dict:
    """The checked header of a grid file written by :func:`write_grid`, as the
    `Grid` fields besides its values, without reading them. The file's size
    must fit the header's ncols and nrows."""
    with open(path, "rb") as f:
        line = f.readline()
        size = os.fstat(f.fileno()).st_size
    if not line.endswith(b"\n"):
        raise GridFormatError("missing header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise GridFormatError(f"malformed header: {e}") from e
    if isinstance(header, dict) and "format" not in header:
        raise GridFormatError("old format of float32 values and a mask byte per cell: not read")
    if not isinstance(header, dict) or set(header) != set(_HEADER_TYPES):
        raise GridFormatError("header must hold exactly the grid geometry fields")
    wrong = [key for key, types in _HEADER_TYPES.items()
             if isinstance(header[key], bool) or not isinstance(header[key], types)]
    if wrong:
        raise GridFormatError(f"header fields of the wrong type: {wrong}")
    for key, want in (("byte_order", "little"), ("format", "float32-nan")):
        if (got := header.pop(key)) != want:
            raise GridFormatError(f"unsupported {key} {got!r}")
    try:
        _check_geometry(*(header[key] for key in GEOMETRY))
    except ValueError as e:
        raise GridFormatError(str(e)) from None
    if len(line) % 4:
        raise GridFormatError(f"header of {len(line)} bytes is not padded to a multiple of 4")
    ncols, nrows = header["ncols"], header["nrows"]
    if size - len(line) != 4 * ncols * nrows:  # a float32 per cell
        raise GridFormatError(
            f"payload holds {size - len(line)} bytes, expected {4 * ncols * nrows}")
    return {**header, **{key: float(header[key]) for key in GEOMETRY[2:]}}


def read_grid(path) -> Grid:
    """Read a grid written by :func:`write_grid`; its cells are checked as `Grid` checks them."""
    header = read_header(path)
    values = np.empty((header["nrows"], header["ncols"]), dtype="<f4")
    with open(path, "rb") as f:
        f.readline()
        got = f.readinto(values)
    if got != values.nbytes:  # the file shrank since its header was read
        raise GridFormatError(f"payload holds {got} bytes, expected {values.nbytes}")
    values.flags.writeable = False  # so the grid keeps it
    try:
        return Grid(values=values, **header)
    except ValueError as e:  # an infinity
        raise GridFormatError(str(e)) from e
