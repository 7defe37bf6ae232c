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

SQRT3 = math.sqrt(3.0)
# centers per block of `assign_lattice`: its temporaries (~60 B each) stay in cache
LATTICE_BLOCK_CELLS = 1 << 15


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


def _nearest_cells(x, y, hexgrid: HexGrid):
    """The id of each point's cell by `assign`'s rule, where `x` and `y`
    broadcast together: point coordinates, or an x axis and a column of ys."""
    r = hexgrid.circumradius
    # a column-c cell spans x0 + 1.5*r*c +- r, so the nearest centroid lies in
    # column floor(u) or floor(u) + 1, one of each parity; within a column a
    # cell spans its centroid +- sqrt(3)*r/2 in y, so it lies in row floor(v)
    # or floor(v) + 1. Columns and dx^2 depend on x alone, rows and dy^2 on y
    # and the parity, so on a lattice each center costs only the sums below.
    c_est = np.floor((x - hexgrid.x0) / (1.5 * r)).astype(np.int64)
    candidates = []  # (squared distance, row, col) of four cells
    for parity in (0, 1):
        col = c_est + (c_est + parity) % 2
        dx2 = (x - (hexgrid.x0 + col * (1.5 * r))) ** 2
        off = parity * (SQRT3 * r / 2.0)
        r_est = np.floor((y - hexgrid.y0 - off) / (SQRT3 * r)).astype(np.int64)
        candidates += [(dx2 + (y - (hexgrid.y0 + row * (SQRT3 * r) + off)) ** 2, row, col)
                       for row in (r_est, r_est + 1)]
    d2, rows, cols = zip(*candidates)

    nearest = np.minimum(np.minimum(d2[0], d2[1]), np.minimum(d2[2], d2[3]))
    hits = [d == nearest for d in d2]
    # the first candidate at the nearest distance; a point with a nan
    # coordinate has none and stays outside the tessellation
    row = np.select(hits, rows, default=hexgrid.row_min - 1)
    col = np.select(hits, cols, default=hexgrid.col_min)
    # among exact-distance ties, the lowest (row, col) wins
    tied = np.nonzero(sum(hit.view(np.uint8) for hit in hits) > 1)
    if tied[0].size:
        for hit, *cand in zip(hits, rows, cols):
            cand_row, cand_col = (np.broadcast_to(a, row.shape)[tied] for a in cand)
            lower = hit[tied] & ((cand_row < row[tied])
                                 | ((cand_row == row[tied]) & (cand_col < col[tied])))
            row[tied], col[tied] = np.where(lower, (cand_row, cand_col), (row[tied], col[tied]))

    inside = ((row >= hexgrid.row_min) & (row <= hexgrid.row_max)
              & (col >= hexgrid.col_min) & (col <= hexgrid.col_max))
    if not np.all(inside):
        bad = tuple(np.argwhere(~inside)[0])
        px, py = (np.broadcast_to(v, row.shape)[bad] for v in (x, y))
        raise ValueError(f"point ({px}, {py}) falls outside the tessellation")
    span = hexgrid.col_max - hexgrid.col_min + 1
    return (row - hexgrid.row_min) * span + (col - hexgrid.col_min)


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
    int64 array of cell ids, each what `assign` gives for that center. Rows
    are assigned in blocks of about `LATTICE_BLOCK_CELLS` centers."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    ids = np.empty((ys.size, xs.size), dtype=np.int64)
    step = max(1, LATTICE_BLOCK_CELLS // max(1, xs.size))
    for lo in range(0, ys.size, step):
        ids[lo:lo + step] = _nearest_cells(xs, ys[lo:lo + step, None], hexgrid)
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
    if y.size == 0:
        return np.empty((0, 2))
    count = np.bincount(ids, minlength=hexgrid.n_cells)
    occupied = count > 0
    sums = np.stack([np.bincount(ids, weights=v, minlength=hexgrid.n_cells)
                     for v in (y, yhat)], axis=1)
    return sums[occupied] / count[occupied, None]
