"""Single-band raster grids with an explicit validity mask.

Grids are stored north-to-south, west-to-east (row 0 is the northernmost row).
The origin is the outer corner of the south-west cell, so the cell (col, row)
covers x in [x_origin + col*cellsize, x_origin + (col+1)*cellsize) and the
row index counts down from the north edge.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np


class GridFormatError(ValueError):
    """Raised when a grid file cannot be parsed or violates the format."""


# the fields two grids share when they are aligned
GEOMETRY = ("ncols", "nrows", "x_origin", "y_origin", "cellsize")


@dataclass
class Grid:
    """A rectangular raster with float32 values and a boolean validity mask.

    Masked cells carry no value; their payload slot is canonicalized to 0.0 so
    that serialization is a pure function of the logical content. Arrays are
    frozen after construction.
    """

    ncols: int
    nrows: int
    x_origin: float
    y_origin: float
    cellsize: float
    units: str
    values: np.ndarray
    mask: np.ndarray = field(default=None)  # True where the cell is valid

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError("grid must have at least one column and one row")
        if not self.cellsize > 0:
            raise ValueError("cellsize must be positive")
        values = np.asarray(self.values, dtype=np.float32, order="C")
        if values.shape != (self.nrows, self.ncols):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"(nrows, ncols)=({self.nrows}, {self.ncols})"
            )
        if self.mask is None:
            mask = np.ones((self.nrows, self.ncols), dtype=bool)
        else:
            mask = np.array(self.mask, dtype=bool, order="C")
        if mask.shape != values.shape:
            raise ValueError("mask shape does not match values shape")
        values = np.where(mask, values, 0)  # a new C-order array, as mask is
        if not np.isfinite(values).all():
            raise ValueError("valid cells must hold finite values")
        values.flags.writeable = False
        mask.flags.writeable = False
        self.values = values
        self.mask = mask

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

    def with_values(self, values: np.ndarray, mask: np.ndarray | None = None,
                    units: str | None = None) -> "Grid":
        """New grid on the same geometry with different content."""
        return Grid(**{key: getattr(self, key) for key in GEOMETRY},
                    units=self.units if units is None else units, values=values, mask=mask)


@dataclass
class GridSummary:
    n_valid: int
    mean: float | None
    min: float | None
    max: float | None


def summarize(grid: Grid) -> GridSummary:
    """Summary statistics over valid cells; None statistics when none are valid."""
    vals = grid.values[grid.mask]
    if vals.size == 0:
        return GridSummary(n_valid=0, mean=None, min=None, max=None)
    v64 = vals.astype(np.float64)
    return GridSummary(
        n_valid=int(vals.size),
        mean=float(v64.mean()),
        min=float(v64.min()),
        max=float(v64.max()),
    )


def difference(a: Grid, b: Grid) -> Grid:
    """Cellwise a - b; a cell is masked if it is masked in either operand."""
    if not a.aligned_with(b):
        raise ValueError("grids are not aligned")
    return a.with_values(a.values - b.values, a.mask & b.mask)


def percent_rank(grid: Grid) -> Grid:
    """Percent rank of each valid cell among all valid cells, in [0, 100].

    Ties take the minimum rank, so a grid of identical values maps to all
    zeros. Needs at least two valid cells.
    """
    vals = grid.values[grid.mask].astype(np.float64)
    n = vals.size
    if n < 2:
        raise ValueError("percent_rank needs at least two valid cells")
    order = np.argsort(vals)
    ordered, smaller = vals[order], np.empty(n, dtype=np.int64)
    # minimum rank for ties: 1 + the number of strictly smaller values, which is
    # where the value's run of equal values starts in sorted order (any sort kind)
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    smaller[order] = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
    pct = 100.0 * smaller / (n - 1)
    values = np.zeros(grid.values.shape, dtype=np.float32)
    values[grid.mask] = pct
    return grid.with_values(values, grid.mask, units="percent")


# -- file format ----------------------------------------------------------

# the header's fields and their JSON types; a bool is neither an integer nor a number
_HEADER_TYPES = {"ncols": int, "nrows": int, "x_origin": (int, float), "y_origin": (int, float),
                 "cellsize": (int, float), "units": str, "byte_order": str}


def write_grid(grid: Grid, path) -> None:
    """Write a grid to `path`: one JSON header line, then row-major
    little-endian float32 values (north row first), then one validity byte
    per cell.
    """
    header = {**{key: getattr(grid, key) for key in (*GEOMETRY, "units")}, "byte_order": "little"}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(grid.values.astype("<f4", copy=False).data)  # C order; a bool is one byte
        f.write(grid.mask.data)


def finite_number(value) -> bool:
    """An int or float, not a bool, and finite as a float: no nan, no inf and no
    integer too large for a float (on which `math.isfinite` raises)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def read_header(path) -> dict:
    """The checked header of a grid file written by :func:`write_grid`, as the
    `Grid` fields besides values and mask, without reading the payload. The
    file's size must fit the header's ncols and nrows."""
    with open(path, "rb") as f:
        line = f.readline()
        size = os.fstat(f.fileno()).st_size
    if not line.endswith(b"\n"):
        raise GridFormatError("missing header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise GridFormatError(f"malformed header: {e}") from e
    if not isinstance(header, dict) or set(header) != set(_HEADER_TYPES):
        raise GridFormatError("header must hold exactly the grid geometry fields")
    wrong = [key for key, types in _HEADER_TYPES.items()
             if isinstance(header[key], bool) or not isinstance(header[key], types)]
    if wrong:
        raise GridFormatError(f"header fields of the wrong type: {wrong}")
    byte_order = header.pop("byte_order")
    if byte_order != "little":
        raise GridFormatError(f"unsupported byte order {byte_order!r}")
    floats = ("x_origin", "y_origin", "cellsize")
    if not all(finite_number(header[key]) for key in floats):
        raise GridFormatError("grid origins and cellsize must be finite")
    if not header["cellsize"] > 0:
        raise GridFormatError(f"cellsize must be positive, got {header['cellsize']!r}")
    ncols, nrows = header["ncols"], header["nrows"]
    if ncols < 1 or nrows < 1:
        raise GridFormatError("grid dimensions must be positive")
    if size - len(line) != 5 * ncols * nrows:  # a float32 and a mask byte per cell
        raise GridFormatError(
            f"payload holds {size - len(line)} bytes, expected {5 * ncols * nrows}")
    return {**header, **{key: float(header[key]) for key in floats}}


def read_grid(path) -> Grid:
    """Read a grid written by :func:`write_grid`."""
    header = read_header(path)
    shape = (header["nrows"], header["ncols"])
    n = shape[0] * shape[1]
    with open(path, "rb") as f:
        f.readline()
        payload = f.read()
    values = np.frombuffer(payload, dtype="<f4", count=n).reshape(shape)
    mask = np.frombuffer(payload, dtype=np.uint8, offset=4 * n).reshape(shape)
    if np.any(mask > 1):
        raise GridFormatError("mask bytes must be 0 or 1")
    try:
        return Grid(values=values, mask=mask, **header)
    except ValueError as e:  # a non-finite value in a valid cell
        raise GridFormatError(str(e)) from e
