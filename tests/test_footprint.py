import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agbmap.footprint import (
    SUBPLOT_AREA_M2, PlotFootprint, pixel_overlap_weights, weighted_mean,
)
from agbmap.grid import Grid
from agbmap.inventory import PLOT_AREA_M2

R = 7.32
OFFSET = 36.6


def flat_grid(ncols=40, nrows=40, cellsize=30.0, x0=0.0, y0=0.0, values=None, mask=True):
    if values is None:
        values = np.zeros((nrows, ncols), dtype=np.float32)
    return Grid(ncols=ncols, nrows=nrows, x_origin=x0, y_origin=y0, cellsize=cellsize,
                units="Mg/ha", values=np.where(mask, values, np.float32(np.nan)))


def mc_points(fp, n, rng):
    """Uniform points over the four-circle footprint (circles are disjoint)."""
    centers = np.array(fp.subplot_centers())
    which = rng.integers(0, 4, size=n)
    rr = R * np.sqrt(rng.random(n))
    th = rng.random(n) * 2 * math.pi
    x = centers[which, 0] + rr * np.cos(th)
    y = centers[which, 1] + rr * np.sin(th)
    return x, y


def mc_weights(fp, grid, n, rng):
    """Monte Carlo per-pixel overlap area, keyed (col, row)."""
    x, y = mc_points(fp, n, rng)
    col = np.floor((x - grid.x_origin) / grid.cellsize).astype(int)
    row = np.floor((grid.y_max - y) / grid.cellsize).astype(int)
    ok = (col >= 0) & (col < grid.ncols) & (row >= 0) & (row < grid.nrows)
    out = {}
    for c, r in zip(col[ok], row[ok]):
        out[(int(c), int(r))] = out.get((int(c), int(r)), 0) + 1
    return {k: v * PLOT_AREA_M2 / n for k, v in out.items()}


class TestSubplotCenters:
    def test_layout(self):
        fp = PlotFootprint(x=10.0, y=-5.0)
        c = fp.subplot_centers()
        assert c[0] == (10.0, -5.0)
        # azimuth 120: east-southeast; 240: west-southwest; 360: due north
        assert c[1][0] == pytest.approx(10.0 + OFFSET * math.sin(math.radians(120)))
        assert c[1][1] == pytest.approx(-5.0 + OFFSET * math.cos(math.radians(120)))
        assert c[3][0] == pytest.approx(10.0, abs=1e-9)
        assert c[3][1] == pytest.approx(-5.0 + OFFSET)

    def test_circles_disjoint(self):
        c = PlotFootprint(x=0.0, y=0.0).subplot_centers()
        for i in range(4):
            for j in range(i + 1, 4):
                d = math.dist(c[i], c[j])
                assert d >= 2 * R + 1e-9


class TestOverlapWeights:
    def test_total_area_interior(self):
        grid = flat_grid()
        fp = PlotFootprint(x=600.0, y=520.0)
        w = pixel_overlap_weights(fp, grid)
        assert w.weights.sum() == pytest.approx(PLOT_AREA_M2, rel=2e-4)

    def test_total_area_various_cellsizes(self):
        for cs, x, y in ((10.0, 140.7, 143.3), (30.0, 500.01, 444.44), (90.0, 800.5, 900.25)):
            grid = flat_grid(ncols=30, nrows=30, cellsize=cs)
            w = pixel_overlap_weights(PlotFootprint(x=x, y=y), grid)
            assert w.weights.sum() == pytest.approx(PLOT_AREA_M2, rel=2e-4), cs

    def test_weights_match_monte_carlo(self):
        rng = np.random.default_rng(99)
        grid = flat_grid()
        for trial in range(3):
            fp = PlotFootprint(x=float(rng.uniform(100, 1000)),
                               y=float(rng.uniform(100, 1000)))
            w = pixel_overlap_weights(fp, grid)
            ref = mc_weights(fp, grid, 400_000, rng)
            got = {(c, r): wt for c, r, wt in zip(w.cols, w.rows, w.weights)}
            # every pixel with nontrivial area agrees within MC noise
            for key, area in got.items():
                if area > 0.02 * SUBPLOT_AREA_M2:
                    assert key in ref
                    assert area == pytest.approx(ref[key], rel=0.03), key

    def test_outside_grid_is_empty(self):
        grid = flat_grid()
        w = pixel_overlap_weights(PlotFootprint(x=1e6, y=1e6), grid)
        assert w.weights.size == 0

    @pytest.mark.parametrize("far", [1e300, -1e300, 1.7e308])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_plot_far_off_the_grid_gives_no_cells_and_no_warning(self, far, axis):
        # the far circles are dropped before the int casts, which would warn
        # "invalid value encountered in cast" and the squares "overflow"
        grid = flat_grid(ncols=10, nrows=10)
        xy = [150.0, 150.0]
        xy[axis] = far
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = pixel_overlap_weights(PlotFootprint(*xy), grid)
        assert w.weights.size == w.cols.size == w.rows.size == 0

    def test_straddling_edge_loses_area(self):
        grid = flat_grid()
        # plot center on the west edge: roughly half the footprint is off-grid
        w = pixel_overlap_weights(PlotFootprint(x=0.0, y=600.0), grid)
        assert 0 < w.weights.sum() < PLOT_AREA_M2
        assert w.weights.sum() == pytest.approx(PLOT_AREA_M2 / 2, rel=0.15)

    def test_weights_are_positive_and_sorted_ids(self):
        grid = flat_grid()
        w = pixel_overlap_weights(PlotFootprint(x=450.0, y=450.0), grid)
        assert np.all(w.weights > 0)
        keys = list(zip(w.cols.tolist(), w.rows.tolist()))
        assert keys == sorted(keys)


# plot centers relative to the middle of a small grid: on a 10 x 10 grid the
# center circle covers the grid, cuts it on each side or across a corner, or an
# offset subplot (azimuth 120) lies over it
def small_grid_plots():
    az = math.radians(120.0)
    return [(0.0, 0.0), (7.2, 0.0), (-7.2, 0.0), (0.0, 7.2), (0.0, -7.2), (5.1, -5.1),
            (-5.1, 5.1), (-OFFSET * math.sin(az), -OFFSET * math.cos(az))]


def plot_over(grid, xy):
    return PlotFootprint(grid.x_origin + grid.ncols * grid.cellsize / 2 + xy[0],
                         grid.y_origin + grid.nrows * grid.cellsize / 2 + xy[1])


class TestWindowClampedToGrid:
    """Each circle's corners are evaluated on the grid's cells only, and every
    weight keeps the bits it has on a grid large enough to hold the window."""

    @pytest.mark.parametrize("xy", small_grid_plots())
    def test_corners_per_circle_at_most_the_grids(self, xy, monkeypatch):
        # 0.05 m cells: the unclamped window is 294 x 294 cells per circle; the
        # clamp bounds the work by the grid's size, so a raster whose cells are
        # tiny against a subplot (one in degrees, say) stays cheap
        from agbmap import footprint
        shapes, corner_area = [], footprint._corner_area
        def recording(x, y, r):
            shapes.append(np.broadcast_shapes(np.shape(x), np.shape(y)))
            return corner_area(x, y, r)
        monkeypatch.setattr(footprint, "_corner_area", recording)
        for side in (1, 3, 10):
            grid = flat_grid(side, side, cellsize=0.05)
            shapes.clear()
            w = pixel_overlap_weights(plot_over(grid, xy), grid)
            assert w.weights.size > 0, side
            assert shapes and all(shape[1:] <= (side + 1, side + 1) for shape in shapes), side

    @pytest.mark.parametrize("xy", small_grid_plots())
    def test_weights_keep_their_bits_on_an_extended_grid(self, xy):
        # cells of 1/16 m on a dyadic origin make every corner coordinate exact
        # on both grids; the extended grid adds the whole window, n cells, on
        # every side, so every circle's window lies inside it
        cs = 0.0625
        n = math.ceil(2.0 * R / cs) + 1
        for side in (1, 2, 3, 10):
            grid = flat_grid(side, side, cellsize=cs)
            fp = plot_over(grid, xy)
            w = pixel_overlap_weights(fp, grid)
            big = pixel_overlap_weights(fp, flat_grid(side + 2 * n, side + 2 * n, cellsize=cs,
                                                      x0=-n * cs, y0=-n * cs))
            inside = ((big.cols >= n) & (big.cols < n + side)
                      & (big.rows >= n) & (big.rows < n + side))
            assert w.weights.size == np.count_nonzero(inside), side
            assert np.array_equal(w.cols, big.cols[inside] - n), side
            assert np.array_equal(w.rows, big.rows[inside] - n), side
            assert w.weights.tobytes() == big.weights[inside].tobytes(), side
            assert w.weights.size > 0, side


def weight_of(w, col, row):
    hit = (w.cols == col) & (w.rows == row)
    assert hit.sum() == 1, (col, row)
    return float(w.weights[hit][0])


class TestExactGeometry:
    """Closed-form cases the overlap areas must reproduce to round-off."""

    def test_subplot_centered_on_cell_corner_splits_in_quarters(self):
        # 10 m cells: the center subplot lies in the four cells around the
        # corner (500, 500), and every other subplot lies outside them
        grid = flat_grid(ncols=100, nrows=100, cellsize=10.0)
        w = pixel_overlap_weights(PlotFootprint(x=500.0, y=500.0), grid)
        row_above = int((grid.y_max - 500.0) / 10.0) - 1
        for col in (49, 50):
            for row in (row_above, row_above + 1):
                assert weight_of(w, col, row) == pytest.approx(
                    SUBPLOT_AREA_M2 / 4, rel=1e-12, abs=0)

    def test_subplot_inside_one_cell_gets_its_full_area(self):
        # 40 m cells: the center subplot (132.68..147.32 on both axes) lies
        # inside cell [120, 160]^2, which no other subplot reaches
        grid = flat_grid(ncols=10, nrows=10, cellsize=40.0)
        w = pixel_overlap_weights(PlotFootprint(x=140.0, y=140.0), grid)
        row = int((grid.y_max - 140.0) // 40.0)
        assert weight_of(w, 3, row) == pytest.approx(SUBPLOT_AREA_M2, rel=1e-12, abs=0)

    def test_interior_total_is_exact(self):
        grid = flat_grid()
        w = pixel_overlap_weights(PlotFootprint(x=617.3, y=512.9), grid)
        assert w.weights.sum() == pytest.approx(PLOT_AREA_M2, rel=1e-12, abs=0)

    @settings(max_examples=200, deadline=None)
    @given(cs=st.floats(5.0, 300.0),
           x=st.floats(150.0, 250.0), y=st.floats(150.0, 250.0))
    def test_weights_bounded_and_total_exact(self, cs, x, y):
        n = math.ceil(400.0 / cs)
        grid = flat_grid(ncols=n, nrows=n, cellsize=cs)
        fp = PlotFootprint(x=x, y=y)
        w = pixel_overlap_weights(fp, grid)
        assert w.weights.sum() == pytest.approx(PLOT_AREA_M2, rel=1e-12, abs=0)
        centers = np.array(fp.subplot_centers())
        for col, row, wt in zip(w.cols, w.rows, w.weights):
            x0 = col * cs
            y1 = grid.y_max - row * cs
            # subplots whose circle reaches this cell; cells of 16 m and more
            # can hold parts of two of them
            dx = np.maximum.reduce([x0 - centers[:, 0], centers[:, 0] - x0 - cs,
                                    np.zeros(4)])
            dy = np.maximum.reduce([y1 - cs - centers[:, 1], centers[:, 1] - y1,
                                    np.zeros(4)])
            touching = int(np.sum(dx ** 2 + dy ** 2 < R * R))
            assert touching >= 1
            assert 0 < wt <= min(cs * cs, touching * SUBPLOT_AREA_M2) * (1 + 1e-12)


class TestExtraction:
    def test_constant_grid_returns_constant(self):
        vals = np.full((40, 40), 123.25, dtype=np.float32)
        grid = flat_grid(values=vals)
        fp = PlotFootprint(x=600.0, y=600.0)
        got = weighted_mean(grid, pixel_overlap_weights(fp, grid))
        assert got == pytest.approx(123.25, rel=1e-9)

    def test_matches_monte_carlo_mean(self):
        rng = np.random.default_rng(42)
        vals = rng.uniform(0, 300, size=(40, 40)).astype(np.float32)
        grid = flat_grid(values=vals)
        fp = PlotFootprint(x=617.3, y=512.9)
        got = weighted_mean(grid, pixel_overlap_weights(fp, grid))
        x, y = mc_points(fp, 400_000, rng)
        col = np.floor(x / 30.0).astype(int)
        row = np.floor((grid.y_max - y) / 30.0).astype(int)
        ref = vals[row, col].astype(np.float64).mean()
        assert got == pytest.approx(ref, rel=0.005)

    def test_masked_cells_excluded(self):
        vals = np.full((40, 40), 50.0, dtype=np.float32)
        mask = np.ones((40, 40), dtype=bool)
        # mask the east half; remaining valid cells all hold 50
        mask[:, 20:] = False
        grid = flat_grid(values=vals, mask=mask)
        fp = PlotFootprint(x=600.0, y=600.0)
        got = weighted_mean(grid, pixel_overlap_weights(fp, grid))
        assert got == pytest.approx(50.0, rel=1e-9)

    def test_fully_masked_returns_none(self):
        grid = flat_grid(mask=np.zeros((40, 40), dtype=bool))
        fp = PlotFootprint(x=600.0, y=600.0)
        assert weighted_mean(grid, pixel_overlap_weights(fp, grid)) is None

    def test_outside_grid_returns_none(self):
        grid = flat_grid()
        fp = PlotFootprint(x=-5000.0, y=0.0)
        assert weighted_mean(grid, pixel_overlap_weights(fp, grid)) is None
