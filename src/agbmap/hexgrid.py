"""Regular flat-top hexagonal tessellations for multi-scale aggregation.

`spacing` is the distance between adjacent cell centroids; the circumradius is
spacing/sqrt(3) and the cell area is (sqrt(3)/2) * spacing^2. Cells sit at
(row, col) offset coordinates: columns step 1.5*R in x, rows step sqrt(3)*R
in y, odd columns shifted up half a row. A cell's id is one int64, its
row-major index in the grid's rectangle of rows and columns, so id order is
(row, col) order. The tessellation is the Voronoi diagram of its centroids,
so assignment is nearest-centroid with a lexicographic (row, col) tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import row_blocks

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


def _refuse_outside(inside, x, y) -> None:
    """Raise naming the first point, of `x` and `y` broadcast together, where
    `inside` is False."""
    if not np.all(inside):
        bad = tuple(np.argwhere(~inside)[0])
        px, py = (np.broadcast_to(v, inside.shape)[bad] for v in (x, y))
        raise ValueError(f"point ({px}, {py}) falls outside the tessellation")


def _nearest_cells(x, y, hg: HexGrid):
    """The id of each point's cell by `assign`'s rule, where `x` and `y`
    broadcast together: point coordinates, or an x axis and a column of ys."""
    w, h = 1.5 * hg.circumradius, SQRT3 * hg.circumradius  # column and row steps
    # refused in metres, before any cast: points (nan and infinities too) more
    # than two columns or rows beyond the centroids
    _refuse_outside(((x >= hg.x0 + (hg.col_min - 2) * w) & (x <= hg.x0 + (hg.col_max + 2) * w))
                    & ((y >= hg.y0 + (hg.row_min - 2) * h)
                       & (y <= hg.y0 + (hg.row_max + 2.5) * h)), x, y)
    # a column-c cell spans x0 + w*c +- R, so the nearest centroid lies in
    # column floor(u) or floor(u) + 1, one of each parity; within a column a
    # cell spans its centroid +- h/2, so it lies in row floor(v) or floor(v) + 1.
    # On a lattice, columns and dx^2 come from x alone, rows and dy^2 from y and
    # the parity. Candidates lie within three columns of the centroids, so keys
    # of width span + 6 run in (row, col) order: the nearest wins, then the lowest.
    span = hg.col_max - hg.col_min + 1
    c_est = np.floor((x - hg.x0) / w).astype(np.int64)
    best = None  # (squared distance, key)
    for parity in (0, 1):
        col = c_est + (c_est + parity) % 2
        dx2 = (x - (hg.x0 + col * w)) ** 2
        off = parity * (h / 2.0)
        r_est = np.floor((y - hg.y0 - off) / h).astype(np.int64)
        for row in (r_est, r_est + 1):
            d2 = dx2 + (y - (hg.y0 + row * h + off)) ** 2
            key = (row - hg.row_min) * (span + 6) + (col - hg.col_min + 3)
            if best is not None:
                take = (d2 < best[0]) | ((d2 == best[0]) & (key < best[1]))
                d2, key = np.where(take, d2, best[0]), np.where(take, key, best[1])
            best = d2, key
    row, col = np.divmod(best[1], span + 6)  # row - row_min, col - col_min + 3
    col -= 3
    _refuse_outside((row >= 0) & (row <= hg.row_max - hg.row_min)
                    & (col >= 0) & (col < span), x, y)
    return row * span + col


def assign(points: np.ndarray, hexgrid: HexGrid) -> np.ndarray:
    """Assign each point (n,2 array) to its cell; returns (n,) int64 cell ids.

    Equidistant points go to the lower (row, col). Points whose nearest
    centroid falls outside the tessellation raise.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    return _nearest_cells(pts[:, 0], pts[:, 1], hexgrid)


def assign_lattice(xs, ys, hexgrid: HexGrid) -> np.ndarray:
    """The cell of every lattice center (xs[j], ys[i]): a (len(ys), len(xs))
    int64 array of cell ids, each what `assign` gives for that center,
    assigned a row block (`grid.row_blocks`) at a time."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    ids = np.empty((ys.size, xs.size), dtype=np.int64)
    for rows in row_blocks(ys.size, xs.size):
        ids[rows] = _nearest_cells(xs, ys[rows, None], hexgrid)
    return ids


def aggregate_pairs(pairs, ids: np.ndarray, hexgrid: HexGrid) -> np.ndarray:
    """Unweighted per-cell means of paired values: per-cell sums over counts,
    members added in input order.

    `pairs` needs `y` and `yhat` array attributes; `ids` is the matching
    (n,) array of cell ids, as `assign` gives. Returns an (n_hex, 2) float64
    array of (y mean, yhat mean), one row per cell with at least one member,
    ordered by cell id.
    """
    y = np.asarray(pairs.y, dtype=np.float64)
    yhat = np.asarray(pairs.yhat, dtype=np.float64)
    ids = np.asarray(ids)
    if ids.shape != (y.size,):
        raise ValueError("ids must be an (n,) array of cell ids matching the pairs")
    count = np.bincount(ids, minlength=hexgrid.n_cells)
    occupied = count > 0
    sums = np.stack([np.bincount(ids, weights=v, minlength=hexgrid.n_cells)
                     for v in (y, yhat)], axis=1)
    return sums[occupied] / count[occupied, None]
