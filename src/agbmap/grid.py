"""Single-band raster grids with an explicit validity mask.

Grids are stored north-to-south, west-to-east (row 0 is the northernmost row).
The origin is the outer corner of the south-west cell, so the cell (col, row)
covers x in [x_origin + col*cellsize, x_origin + (col+1)*cellsize) and the
row index counts down from the north edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class GridFormatError(ValueError):
    """Raised when a grid file cannot be parsed or violates the format."""


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
        values = np.asarray(self.values, dtype=np.float32)
        if values.shape != (self.nrows, self.ncols):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"(nrows, ncols)=({self.nrows}, {self.ncols})"
            )
        if self.mask is None:
            mask = np.ones((self.nrows, self.ncols), dtype=bool)
        else:
            mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != values.shape:
            raise ValueError("mask shape does not match values shape")
        if not np.all(np.isfinite(values[mask])):
            raise ValueError("valid cells must hold finite values")
        values = values.copy()
        values[~mask] = 0.0
        values.flags.writeable = False
        mask = mask.copy()
        mask.flags.writeable = False
        self.values = values
        self.mask = mask

    # -- geometry ---------------------------------------------------------

    def aligned_with(self, other: "Grid") -> bool:
        """True iff both grids share all five geometry fields exactly."""
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and self.x_origin == other.x_origin
            and self.y_origin == other.y_origin
            and self.cellsize == other.cellsize
        )

    @property
    def x_max(self) -> float:
        return self.x_origin + self.ncols * self.cellsize

    @property
    def y_max(self) -> float:
        return self.y_origin + self.nrows * self.cellsize

    def cell_area_ha(self) -> float:
        return self.cellsize * self.cellsize / 1e4

    def cell_centers(self):
        """Center coordinates as (xs[ncols], ys[nrows]), ys north to south."""
        xs = self.x_origin + (np.arange(self.ncols) + 0.5) * self.cellsize
        ys = self.y_origin + (self.nrows - np.arange(self.nrows) - 0.5) * self.cellsize
        return xs, ys

    def with_values(self, values: np.ndarray, mask: np.ndarray | None = None,
                    units: str | None = None) -> "Grid":
        """New grid on the same geometry with different content."""
        return Grid(
            ncols=self.ncols,
            nrows=self.nrows,
            x_origin=self.x_origin,
            y_origin=self.y_origin,
            cellsize=self.cellsize,
            units=self.units if units is None else units,
            values=values,
            mask=mask,
        )


@dataclass
class GridSummary:
    n_valid: int
    mean: float | None
    min: float | None
    max: float | None
    sum: float | None


def summarize(grid: Grid) -> GridSummary:
    """Summary statistics over valid cells; None statistics when none are valid."""
    vals = grid.values[grid.mask]
    if vals.size == 0:
        return GridSummary(n_valid=0, mean=None, min=None, max=None, sum=None)
    v64 = vals.astype(np.float64)
    return GridSummary(
        n_valid=int(vals.size),
        mean=float(v64.mean()),
        min=float(v64.min()),
        max=float(v64.max()),
        sum=float(v64.sum()),
    )


def difference(a: Grid, b: Grid) -> Grid:
    """Cellwise a - b; a cell is masked if it is masked in either operand."""
    if not a.aligned_with(b):
        raise ValueError("grids are not aligned")
    mask = a.mask & b.mask
    values = np.zeros_like(a.values)
    values[mask] = a.values[mask] - b.values[mask]
    return a.with_values(values, mask)


def percent_rank(grid: Grid) -> Grid:
    """Percent rank of each valid cell among all valid cells, in [0, 100].

    Ties take the minimum rank, so a grid of identical values maps to all
    zeros. Needs at least two valid cells.
    """
    vals = grid.values[grid.mask].astype(np.float64)
    n = vals.size
    if n < 2:
        raise ValueError("percent_rank needs at least two valid cells")
    ordered = np.sort(vals)
    # minimum rank for ties: 1 + number of strictly smaller values
    ranks = np.searchsorted(ordered, vals, side="left") + 1
    pct = 100.0 * (ranks - 1) / (n - 1)
    values = np.zeros(grid.values.shape, dtype=np.float64)
    values[grid.mask] = pct
    return grid.with_values(values, grid.mask, units="percent")


def mask_landcover(pred: Grid, landcover: Grid, removed_classes) -> Grid:
    """Mask cells of `pred` whose landcover class is in `removed_classes`.

    Cells masked in the landcover grid are also removed: an unknown class
    cannot be shown to be retained.
    """
    if not pred.aligned_with(landcover):
        raise ValueError("prediction and landcover grids are not aligned")
    removed = np.asarray(sorted(float(c) for c in removed_classes), dtype=np.float32)
    hit = np.isin(landcover.values, removed) & landcover.mask
    mask = pred.mask & landcover.mask & ~hit
    return pred.with_values(pred.values, mask)


# -- file format ----------------------------------------------------------

_HEADER_KEYS = {"ncols", "nrows", "x_origin", "y_origin", "cellsize", "units", "byte_order"}


def write_grid(grid: Grid, path) -> None:
    """Write a grid to `path`: one JSON header line, then row-major
    little-endian float32 values (north row first), then one validity byte
    per cell.
    """
    header = {
        "ncols": grid.ncols,
        "nrows": grid.nrows,
        "x_origin": grid.x_origin,
        "y_origin": grid.y_origin,
        "cellsize": grid.cellsize,
        "units": grid.units,
        "byte_order": "little",
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(grid.values.astype("<f4").tobytes(order="C"))
        f.write(grid.mask.astype(np.uint8).tobytes(order="C"))


def read_grid(path) -> Grid:
    """Read a grid written by :func:`write_grid`."""
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise GridFormatError("missing header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise GridFormatError(f"malformed header: {e}") from e
    if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
        raise GridFormatError("header must hold exactly the grid geometry fields")
    if header["byte_order"] != "little":
        raise GridFormatError(f"unsupported byte order {header['byte_order']!r}")
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if ncols < 1 or nrows < 1:
        raise GridFormatError("grid dimensions must be positive")
    n = ncols * nrows
    payload = raw[nl + 1:]
    if len(payload) != 4 * n + n:
        raise GridFormatError(
            f"payload holds {len(payload)} bytes, expected {4 * n + n}"
        )
    values = np.frombuffer(payload[: 4 * n], dtype="<f4").reshape(nrows, ncols)
    mask = np.frombuffer(payload[4 * n:], dtype=np.uint8).reshape(nrows, ncols)
    if np.any(mask > 1):
        raise GridFormatError("mask bytes must be 0 or 1")
    mask = mask.astype(bool)
    if not np.all(np.isfinite(values[mask])):
        raise GridFormatError("non-finite value in a valid cell")
    return Grid(
        ncols=ncols,
        nrows=nrows,
        x_origin=float(header["x_origin"]),
        y_origin=float(header["y_origin"]),
        cellsize=float(header["cellsize"]),
        units=str(header["units"]),
        values=values,
        mask=mask,
    )
