"""Regular flat-top hexagonal tessellations for multi-scale aggregation.

`spacing` is the distance between adjacent cell centroids; the circumradius is
spacing/sqrt(3) and the cell area is (sqrt(3)/2) * spacing^2. Cell ids are
(row, col) offset coordinates: columns step 1.5*R in x, rows step
sqrt(3)*R in y, odd columns shifted up half a row. The tessellation is the
Voronoi diagram of its centroids, so assignment is nearest-centroid with a
lexicographic (row, col) tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)


@dataclass
class HexGrid:
    spacing: float
    x0: float
    y0: float
    col_min: int
    col_max: int
    row_min: int
    row_max: int

    @property
    def circumradius(self) -> float:
        return self.spacing / SQRT3

    @property
    def cell_area(self) -> float:
        return (SQRT3 / 2.0) * self.spacing ** 2

    @property
    def n_cells(self) -> int:
        return (self.col_max - self.col_min + 1) * (self.row_max - self.row_min + 1)

    def center(self, row, col):
        """Centroid coordinates; row/col may be arrays."""
        r = self.circumradius
        col = np.asarray(col)
        row = np.asarray(row)
        x = self.x0 + col * (1.5 * r)
        y = self.y0 + row * (SQRT3 * r) + (col % 2) * (SQRT3 * r / 2.0)
        return x, y


def make_hexgrid(bbox: tuple[float, float, float, float], spacing: float) -> HexGrid:
    """Tessellation whose cells cover the bbox (xmin, ymin, xmax, ymax).

    The origin sits at the bbox lower-left corner and cell centers extend one
    circumradius beyond every edge, so every point inside the bbox has its
    nearest centroid in the grid.
    """
    xmin, ymin, xmax, ymax = bbox
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("bbox must have positive extent")
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    r = spacing / SQRT3
    # centers within one circumradius of the bbox; any point inside the bbox
    # is within r of some centroid, so this set holds every reachable cell
    width = xmax - xmin
    height = ymax - ymin
    col_min = int(math.ceil(-r / (1.5 * r)))
    col_max = int(math.floor((width + r) / (1.5 * r)))
    row_min = int(math.ceil((-r - SQRT3 * r / 2.0) / (SQRT3 * r)))
    row_max = int(math.floor((height + r) / (SQRT3 * r)))
    return HexGrid(spacing=spacing, x0=xmin, y0=ymin,
                   col_min=col_min, col_max=col_max,
                   row_min=row_min, row_max=row_max)


def covering_hexgrid(points, spacing: float) -> HexGrid:
    """Tessellation covering the bbox of a nonempty (n, 2) point array; an
    axis on which all points coincide is padded by half a spacing each side.
    """
    pts = np.asarray(points, dtype=np.float64)
    xmin, ymin = pts.min(axis=0).tolist()
    xmax, ymax = pts.max(axis=0).tolist()
    if xmax == xmin:
        xmin, xmax = xmin - spacing / 2, xmax + spacing / 2
    if ymax == ymin:
        ymin, ymax = ymin - spacing / 2, ymax + spacing / 2
    return make_hexgrid((xmin, ymin, xmax, ymax), spacing)


def assign(points: np.ndarray, hexgrid: HexGrid) -> np.ndarray:
    """Assign each point (n,2 array) to its cell; returns an (n,2) array of
    (row, col) ids.

    Equidistant points go to the lower (row, col). Points whose nearest
    centroid falls outside the tessellation raise.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    x = pts[:, 0]
    y = pts[:, 1]
    r = hexgrid.circumradius

    # a column-c cell spans x0 + 1.5*r*c +- r, so the nearest centroid lies in
    # column floor(u) or floor(u) + 1; within a column a cell spans its
    # centroid +- sqrt(3)*r/2 in y, so it lies in row floor(v) or floor(v) + 1
    c_est = np.floor((x - hexgrid.x0) / (1.5 * r)).astype(np.int64)
    span = hexgrid.col_max - hexgrid.col_min + 3
    best = None  # nearest candidate so far: distance, (row, col) order, row, col
    for dc in (0, 1):
        col = c_est + dc
        off = (col % 2) * (SQRT3 * r / 2.0)
        r_est = np.floor((y - hexgrid.y0 - off) / (SQRT3 * r)).astype(np.int64)
        for dr in (0, 1):
            row = r_est + dr
            cx, cy = hexgrid.center(row, col)
            d2 = (x - cx) ** 2 + (y - cy) ** 2
            order = (row - (hexgrid.row_min - 1)) * span + (col - (hexgrid.col_min - 1))
            if best is None:
                best = (d2, order, row, col.copy())  # `col` serves the next rows too
                continue
            # among exact-distance ties, the lowest (row, col) wins
            closer = (d2 < best[0]) | ((d2 == best[0]) & (order < best[1]))
            for kept, new in zip(best, (d2, order, row, col)):
                np.copyto(kept, new, where=closer)
    rows, cols = best[2], best[3]

    inside = ((rows >= hexgrid.row_min) & (rows <= hexgrid.row_max)
              & (cols >= hexgrid.col_min) & (cols <= hexgrid.col_max))
    if not np.all(inside):
        bad = int(np.nonzero(~inside)[0][0])
        raise ValueError(
            f"point ({x[bad]}, {y[bad]}) falls outside the tessellation")
    return np.stack([rows, cols], axis=1)


def aggregate_pairs(pairs, locations: np.ndarray, hexgrid: HexGrid) -> np.ndarray:
    """Unweighted per-cell means of paired values: per-cell sums over counts,
    members added in input order.

    `pairs` needs `y` and `yhat` array attributes; `locations` is the matching
    (n, 2) coordinate array. Returns an (n_hex, 2) float64 array of
    (y mean, yhat mean), one row per cell with at least one member, ordered
    by cell id.
    """
    y = np.asarray(pairs.y, dtype=np.float64)
    yhat = np.asarray(pairs.yhat, dtype=np.float64)
    locs = np.asarray(locations, dtype=np.float64)
    if locs.shape != (y.size, 2):
        raise ValueError("locations must be an (n, 2) array matching the pairs")
    if y.size == 0:
        return np.empty((0, 2))
    ids = assign(locs, hexgrid)
    # packed (row, col) key, so dense bins run in cell-id order
    span = hexgrid.col_max - hexgrid.col_min + 1
    key = (ids[:, 0] - hexgrid.row_min) * span + (ids[:, 1] - hexgrid.col_min)
    count = np.bincount(key, minlength=hexgrid.n_cells)
    occupied = count > 0
    sums = np.stack([np.bincount(key, weights=v, minlength=hexgrid.n_cells)
                     for v in (y, yhat)], axis=1)
    return sums[occupied] / count[occupied, None]
