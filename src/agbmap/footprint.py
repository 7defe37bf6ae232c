"""Area-weighted extraction of raster values under a four-subplot field plot.

The footprint is the union of four disjoint circles of radius 7.32 m: one at
the plot center and three at 36.6 m, at azimuths 120/240/360 degrees clockwise
from north. Overlap areas between the footprint and each raster cell are
exact, in closed form. The area of a circle inside an axis-aligned cell
follows by inclusion-exclusion from a corner primitive G(x, y), the signed area
of the disc inside the box spanned by its center and (x, y), which integrates
to sqrt/asin terms. G is evaluated once on the cell corners of a window around
each circle, so every cell's area costs four lookups and three additions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .inventory import SUBPLOT_RADIUS_M, SUBPLOT_OFFSET_M, SUBPLOT_AZIMUTHS_DEG

SUBPLOT_AREA_M2 = math.pi * SUBPLOT_RADIUS_M ** 2


@dataclass(frozen=True)
class PlotFootprint:
    x: float
    y: float

    def subplot_centers(self) -> list[tuple[float, float]]:
        """Subplot centers: plot center first, then the three offset subplots.

        Azimuth is measured clockwise from north, so an azimuth a maps to the
        offset (sin a, cos a) times the offset distance.
        """
        centers = [(self.x, self.y)]
        for az_deg in SUBPLOT_AZIMUTHS_DEG:
            az = math.radians(az_deg)
            centers.append((self.x + SUBPLOT_OFFSET_M * math.sin(az),
                            self.y + SUBPLOT_OFFSET_M * math.cos(az)))
        return centers


@dataclass
class OverlapWeights:
    """Per-cell overlap areas in m^2; cols/rows index into the source grid."""

    cols: np.ndarray
    rows: np.ndarray
    weights: np.ndarray


def pixel_overlap_weights(footprint: PlotFootprint, grid: Grid) -> OverlapWeights:
    """Overlap area between the footprint and every intersected grid cell.

    Cells outside the grid extent are dropped, so a footprint straddling the
    edge yields weights summing to less than the footprint area, and one
    entirely outside yields no entries. Cell validity is ignored here: extraction
    (`weighted_mean`) skips cells with no value. Entries are sorted by (col, row).
    """
    r, cs = SUBPLOT_RADIUS_M, grid.cellsize
    centers = np.array(footprint.subplot_centers())
    # before the int casts, drop circles more than a cell clear of the grid
    x, y = centers.T
    centers = centers[(x + r > grid.x_origin - cs) & (x - r < grid.x_origin + (grid.ncols + 1) * cs)
                      & (y + r > grid.y_origin - cs) & (y - r < grid.y_max + cs)]
    # n x n cells from the one under each circle's north-west bounding-box corner
    # cover the circle; a window of at most the grid's size, moved inside it, holds
    # their cells in the grid
    n = math.ceil(2.0 * r / cs) + 1
    col0 = np.floor((centers[:, 0] - r - grid.x_origin) / cs)
    row0 = np.floor((grid.y_max - centers[:, 1] - r) / cs)
    nc, nr = min(n, grid.ncols), min(n, grid.nrows)
    c = np.clip(col0, 0, grid.ncols - nc).astype(np.int64)[:, None] + np.arange(nc + 1)
    w = np.clip(row0, 0, grid.nrows - nr).astype(np.int64)[:, None] + np.arange(nr + 1)
    # cell edges relative to each circle's center: x west to east, y north to
    # south; row 0 is the north row
    ex = grid.x_origin + c * cs - centers[:, :1]
    ey = grid.y_max - w * cs - centers[:, 1:]
    g = _corner_area(ex[:, None, :], ey[:, :, None], r)  # (circle, y edge, x edge)
    area = g[:, :-1, 1:] - g[:, :-1, :-1] - g[:, 1:, 1:] + g[:, 1:, :-1]

    # cells whose nearest point lies on or outside the circle carry no area;
    # zero them exactly rather than keep the round-off of the differences;
    # cells the moved window adds outside the circle's own window carry none
    dx = np.maximum(np.maximum(ex[:, :-1], -ex[:, 1:]), 0.0)
    dy = np.maximum(np.maximum(ey[:, 1:], -ey[:, :-1]), 0.0)
    cols = np.broadcast_to(c[:, None, :-1], area.shape)
    rows = np.broadcast_to(w[:, :-1, None], area.shape)
    col0, row0 = col0[:, None, None], row0[:, None, None]
    keep = ((dx[:, None, :] ** 2 + dy[:, :, None] ** 2 < r * r) & (area > 0.0)
            & (cols >= col0) & (cols < col0 + n) & (rows >= row0) & (rows < row0 + n))

    # the circles are disjoint but may share cells: merge on a packed key,
    # whose order is (col, row) order
    keys, inverse = np.unique(cols[keep] * grid.nrows + rows[keep], return_inverse=True)
    return OverlapWeights(cols=keys // grid.nrows, rows=keys % grid.nrows,
                          weights=np.bincount(inverse, weights=area[keep],
                                              minlength=keys.size))


def _corner_area(x, y, r: float):
    """Signed area of the disc of radius r about the origin inside the box
    with corners (0, 0) and (x, y); negative when exactly one of x, y is.

    With |x| and |y| clamped to r, the disc's upper edge crosses height |y|
    at a = min(sqrt(r^2 - y^2), |x|); the area is the rectangle a * |y| plus
    the disc's strip between a and |x|.
    """
    ax = np.minimum(np.abs(x), r)
    ay = np.minimum(np.abs(y), r)
    a = np.minimum(np.sqrt(r * r - ay * ay), ax)
    return np.sign(x) * np.sign(y) * (a * ay + _strip(ax, r) - _strip(a, r))


def _strip(t, r: float):
    """Integral of sqrt(r^2 - s^2) for s from 0 to t, |t| <= r."""
    return 0.5 * (t * np.sqrt(r * r - t * t) + r * r * np.arcsin(t / r))


def weighted_mean(grid: Grid, weights: OverlapWeights) -> float | None:
    """Weighted mean of valid cell values under precomputed overlap weights.

    The weights must have been computed against a grid sharing this grid's
    geometry; only the values may differ. A cell is valid where its value is
    not NaN. Returns None when no valid cell carries weight.
    """
    vals = grid.values[weights.rows, weights.cols]
    valid = ~np.isnan(vals)
    if not np.any(valid):
        return None
    wv = weights.weights[valid]
    return float(np.sum(wv * vals[valid].astype(np.float64)) / np.sum(wv))
