import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agbmap import hexgrid
from agbmap.hexgrid import (
    HexGrid, aggregate_pairs, assign, assign_lattice, covering_hexgrid, make_hexgrid,
)

SQRT3 = math.sqrt(3.0)


class Pairs:
    def __init__(self, y, yhat):
        self.y = np.asarray(y, dtype=float)
        self.yhat = np.asarray(yhat, dtype=float)


def unpack(ids, hg: HexGrid):
    """(rows, cols) of cell ids."""
    rows, cols = np.divmod(ids, hg.col_max - hg.col_min + 1)
    return rows + hg.row_min, cols + hg.col_min


def brute_assign(points, hg: HexGrid):
    """Nearest centroid over every cell, lowest id on exact ties."""
    cx, cy = hg.center(*unpack(np.arange(hg.n_cells), hg))
    # argmin returns the first minimum
    return np.array([int(np.argmin((x - cx) ** 2 + (y - cy) ** 2)) for x, y in points])


class TestGeometry:
    def test_cell_area_formula(self):
        hg = make_hexgrid((0, 0, 1000, 1000), spacing=50.0)
        assert hg.cell_area == pytest.approx((SQRT3 / 2) * 2500.0, rel=1e-12)
        # 50 km spacing in km units
        assert (SQRT3 / 2) * 50.0 ** 2 == pytest.approx(2165.06, abs=0.01)

    def test_all_six_neighbors_at_spacing_distance(self):
        hg = make_hexgrid((0, 0, 10000, 10000), spacing=700.0)
        x0, y0 = hg.center(3, 2)
        neighbors = [(4, 2), (2, 2), (3, 3), (2, 3), (3, 1), (2, 1)]
        for r, c in neighbors:
            x1, y1 = hg.center(r, c)
            assert math.hypot(x1 - x0, y1 - y0) == pytest.approx(700.0, rel=1e-9), (r, c)

    def test_grid_covers_bbox_corners(self):
        hg = make_hexgrid((10, 20, 5010, 4020), spacing=900.0)
        corners = np.array([[10, 20], [5010, 20], [10, 4020], [5010, 4020]], dtype=float)
        ids = assign(corners, hg)
        assert ids.shape == (4,)

    def test_bad_bbox_rejected(self):
        with pytest.raises(ValueError):
            make_hexgrid((0, 0, 0, 10), spacing=5.0)
        with pytest.raises(ValueError):
            make_hexgrid((0, 0, 10, 10), spacing=0.0)

    def test_cells_listing_sorted_and_counted(self):
        hg = make_hexgrid((0, 0, 300, 300), spacing=100.0)
        ids = [(r, c) for r in range(hg.row_min, hg.row_max + 1)
               for c in range(hg.col_min, hg.col_max + 1)]
        assert len(ids) == hg.n_cells
        assert ids == sorted(ids)
        cx, cy = hg.center(*np.array(ids).T)
        assert np.array_equal(assign(np.column_stack([cx, cy]), hg), np.arange(hg.n_cells))


class TestAssignment:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for spacing in (700.0, 1900.0, 4100.0):
            hg = make_hexgrid((0, 0, 20000, 15000), spacing=spacing)
            pts = np.column_stack([rng.uniform(0, 20000, 300),
                                   rng.uniform(0, 15000, 300)])
            got = assign(pts, hg)
            ref = brute_assign(pts, hg)
            assert np.array_equal(got, ref), spacing

    def test_centroid_maps_to_own_cell(self):
        hg = make_hexgrid((0, 0, 5000, 5000), spacing=400.0)
        for rc in ((0, 0), (2, 3), (5, 1)):
            x, y = hg.center(*rc)
            got = assign(np.array([[x, y]]), hg)
            assert unpack(got[0], hg) == rc

    def test_exact_tie_takes_lower_id(self):
        hg = make_hexgrid((0, 0, 5000, 5000), spacing=600.0)
        x0, y0 = hg.center(0, 0)
        x1, y1 = hg.center(1, 0)
        assert x0 == x1
        mid = np.array([[x0, (y0 + y1) / 2.0]])
        got = assign(mid, hg)
        assert unpack(got[0], hg) == (0, 0)

    def test_point_far_outside_rejected(self):
        hg = make_hexgrid((0, 0, 100, 100), spacing=30.0)
        with pytest.raises(ValueError, match="outside"):
            assign(np.array([[1e5, 1e5]]), hg)

    def test_count_scales_inverse_square(self):
        # a fixed 300x300 km region; cell count ~ area / cell_area
        counts = {}
        for s_km in (5.0, 10.0, 20.0):
            hg = make_hexgrid((0, 0, 300e3, 300e3), spacing=s_km * 1e3)
            counts[s_km] = hg.n_cells
        norm = {s: c * s * s for s, c in counts.items()}
        vals = list(norm.values())
        assert max(vals) / min(vals) < 1.2


def lattice(x0, y0, cellsize, ncols, nrows):
    """Cell-center axes of a raster, as `Grid.cell_centers` gives them."""
    xs = x0 + (np.arange(ncols) + 0.5) * cellsize
    ys = y0 + (nrows - np.arange(nrows) - 0.5) * cellsize
    return xs, ys


def per_point(xs, ys, hg):
    """`assign` on every center (xs[j], ys[i]), shaped as a lattice."""
    x, y = np.meshgrid(xs, ys)
    return assign(np.column_stack([x.ravel(), y.ravel()]), hg).reshape(len(ys), len(xs))


class TestLatticeAssignment:
    def test_vertical_edge_midpoints_take_lower_id(self):
        # rows of a 600 m tessellation are 6 cells of 100 m apart, so the
        # centroids of column 0 and the midpoints between them are centers
        xs, ys = lattice(0.0, 0.0, 100.0, 12, 12)
        hg = covering_hexgrid([[xs[0], ys[-1]], [xs[-1], ys[0]]], 600.0)
        ids = assign_lattice(xs, ys, hg)
        (_, y_low), (_, y_high) = hg.center(0, 0), hg.center(1, 0)
        i = int(np.flatnonzero(ys == (y_low + y_high) / 2.0)[0])
        assert (xs[0] - hg.x0) ** 2 + (ys[i] - y_low) ** 2 == \
            (xs[0] - hg.x0) ** 2 + (ys[i] - y_high) ** 2
        assert unpack(ids[i, 0], hg) == (0, 0)
        assert np.array_equal(ids, per_point(xs, ys, hg))

    def test_every_edge_midpoint_takes_lower_id(self):
        # rows 2 apart, so centroid and midpoint ys are exact halves; the xs
        # are the centroid columns and the midpoints between them
        hg = make_hexgrid((0.0, 0.0, 12.0, 12.0), spacing=2.0)
        assert SQRT3 * hg.circumradius == 2.0
        col_xs = hg.center(0, np.arange(hg.col_min, hg.col_max + 1))[0]
        xs = np.sort(np.concatenate([col_xs, (col_xs[:-1] + col_xs[1:]) / 2.0]))
        ys = np.arange(0.0, 12.5, 0.5)[::-1]
        ids = assign_lattice(xs, ys, hg)
        x, y = np.meshgrid(xs, ys)
        brute = brute_assign(np.column_stack([x.ravel(), y.ravel()]), hg)
        assert np.array_equal(ids.ravel(), brute)
        # the midpoint of the edge between (1, 0) and the lower (0, 1) is a tie
        mid = [np.flatnonzero(ys == 1.5)[0], np.flatnonzero(xs == col_xs[1] / 2.0)[0]]
        assert unpack(ids[mid[0], mid[1]], hg) == (0, 1)

    def test_center_outside_rejected(self):
        hg = make_hexgrid((0, 0, 100, 100), spacing=30.0)
        with pytest.raises(ValueError, match="outside"):
            assign_lattice([50.0, 1e5], [50.0], hg)

    def test_blocks_of_rows_agree_with_one_block(self, monkeypatch):
        xs, ys = lattice(-3e4, 2e4, 30.0, 50, 90)
        hg = covering_hexgrid([[xs[0], ys[-1]], [xs[-1], ys[0]]], 700.0)
        whole = assign_lattice(xs, ys, hg)
        monkeypatch.setattr(hexgrid, "LATTICE_BLOCK_CELLS", 7 * len(xs))
        assert np.array_equal(assign_lattice(xs, ys, hg), whole)
        assert np.array_equal(whole, per_point(xs, ys, hg))


@settings(max_examples=150, deadline=None)
@given(x0=st.integers(-10**6, 10**6), y0=st.integers(-10**6, 10**6),
       cellsize=st.sampled_from([25.0, 30.0, 100.0, 300.0, 1000.0 / 3]),
       # an even number of cells per spacing puts column-0 centroids and
       # the midpoints of their vertical edges on centers (exact ties)
       cells_per_spacing=st.one_of(st.integers(1, 4).map(lambda m: 2.0 * m),
                                   st.floats(1.5, 40.0)),
       shape=st.tuples(st.integers(1, 30), st.integers(1, 30)), data=st.data())
def test_lattice_ids_equal_per_point_assign(x0, y0, cellsize, cells_per_spacing, shape, data):
    nrows, ncols = shape
    xs, ys = lattice(float(x0), float(y0), cellsize, ncols, nrows)
    # a window cut from the larger lattice, its tessellation over its corners
    r0 = data.draw(st.integers(0, nrows - 1))
    r1 = data.draw(st.integers(r0 + 1, nrows))
    c0 = data.draw(st.integers(0, ncols - 1))
    c1 = data.draw(st.integers(c0 + 1, ncols))
    xs, ys = xs[c0:c1], ys[r0:r1]
    hg = covering_hexgrid([[xs[0], ys[-1]], [xs[-1], ys[0]]], cells_per_spacing * cellsize)
    ids = assign_lattice(xs, ys, hg)
    assert ids.shape == (len(ys), len(xs))
    assert np.array_equal(ids, per_point(xs, ys, hg))


class TestAggregation:
    def test_unweighted_means_by_cell(self):
        hg = make_hexgrid((0, 0, 10000, 10000), spacing=3000.0)
        a = hg.center(0, 0)
        b = hg.center(1, 1)
        locs = np.array([a, a, b], dtype=float)
        pairs = Pairs(y=[10.0, 20.0, 7.0], yhat=[12.0, 18.0, 5.0])
        means = aggregate_pairs(pairs, assign(locs, hg), hg)
        # rows in cell-id order: (0, 0) holds the first two points, (1, 1) the third
        assert means.dtype == np.float64
        assert means.tolist() == [[15.0, 15.0], [7.0, 5.0]]

    def test_only_occupied_cells_emitted(self):
        hg = make_hexgrid((0, 0, 100000, 100000), spacing=5000.0)
        locs = np.array([[50.0, 50.0]])
        means = aggregate_pairs(Pairs([1.0], [2.0]), assign(locs, hg), hg)
        assert means.shape == (1, 2)

    def test_location_shape_checked(self):
        hg = make_hexgrid((0, 0, 100, 100), spacing=30.0)
        with pytest.raises(ValueError):
            aggregate_pairs(Pairs([1.0], [2.0]), assign(np.zeros((2, 2)), hg), hg)

    def test_empty_input_gives_no_cells(self):
        hg = make_hexgrid((0, 0, 100, 100), spacing=30.0)
        assert aggregate_pairs(Pairs([], []), assign(np.zeros((0, 2)), hg), hg).shape == (0, 2)


def test_ids_run_in_row_col_order_from_row_minus_one():
    hg = make_hexgrid((0, 0, 1000, 1000), spacing=300.0)
    assert (hg.row_min, hg.col_min) == (-1, 0)
    # row -1's last cell comes right before row 0's first
    locs = np.array([hg.center(0, 0), hg.center(-1, hg.col_max)])
    ids = assign(locs, hg)
    assert ids.dtype == np.int64 and ids.tolist() == [hg.col_max + 1, hg.col_max]
    # so means come out in (row, col) order
    pairs = Pairs([1.0, 2.0], [3.0, 4.0])
    assert aggregate_pairs(pairs, ids, hg).tolist() == [[2.0, 4.0], [1.0, 3.0]]
    # (n, 2) (row, col) ids are refused, not read as n cell ids
    with pytest.raises(ValueError, match=r"\(n,\)"):
        aggregate_pairs(pairs, np.array([[0, 0], [-1, hg.col_max]]), hg)


def in_order_mean(values):
    """Members summed one by one in input order from 0.0, over their count."""
    total = 0.0
    for v in values:
        total += float(v)
    return total / len(values)


def dict_grouping(pairs, locations, hg):
    """Per-point dict grouping, each cell's mean an in-order sequential sum."""
    y = np.asarray(pairs.y, dtype=np.float64)
    yhat = np.asarray(pairs.yhat, dtype=np.float64)
    ids = assign(np.asarray(locations, dtype=np.float64), hg)
    groups = {}
    for i, hex_id in enumerate(ids.tolist()):
        groups.setdefault(hex_id, []).append(i)
    return [(hex_id, len(members), in_order_mean(y[members]), in_order_mean(yhat[members]))
            for hex_id, members in sorted(groups.items())]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_random=st.integers(0, 120),
       n_stacked=st.integers(0, 30), n_ties=st.integers(0, 10),
       spacing=st.sampled_from([150.0, 700.0, 1900.0, 4100.0, 30000.0]))
def test_grouping_matches_dict_reference(seed, n_random, n_stacked, n_ties, spacing):
    rng = np.random.default_rng(seed)
    hg = make_hexgrid((0, 0, 20000, 15000), spacing=spacing)
    pts = [np.column_stack([rng.uniform(0, 20000, n_random), rng.uniform(0, 15000, n_random)])]
    # points stacked on a few centroids, and midpoints of vertically adjacent
    # centroids (exact ties, which go to the lower id)
    rows = rng.integers(0, max(1, hg.row_max), size=n_stacked + n_ties)
    cols = rng.integers(0, max(1, hg.col_max), size=n_stacked + n_ties)
    cx, cy = hg.center(rows, cols)
    _, cy_above = hg.center(rows + 1, cols)
    pts.append(np.column_stack([cx, cy])[:n_stacked])
    pts.append(np.column_stack([cx, (cy + cy_above) / 2.0])[n_stacked:])
    locs = np.concatenate(pts)
    locs = locs[rng.permutation(len(locs))]
    pairs = Pairs(rng.gamma(2.0, 50.0, len(locs)), rng.normal(100.0, 40.0, len(locs)))
    ref = dict_grouping(pairs, locs, hg)
    assert aggregate_pairs(pairs, assign(locs, hg), hg).tolist() == [
        [y_mean, yhat_mean] for _, _, y_mean, yhat_mean in ref]


def test_equals_block_fed_add_at_accumulator():
    """Sums fed to one accumulator in uneven blocks through np.add.at equal
    the in-memory means bit for bit, so block size cannot move a result."""
    rng = np.random.default_rng(7)
    hg = make_hexgrid((0, 0, 9000, 9000), spacing=3000.0)
    n = 4000
    # points jittered around the centroids of 12 cells, so each has many members
    cells = rng.integers(0, 3, size=(12, 2))[rng.integers(0, 12, n)]
    cx, cy = hg.center(cells[:, 0], cells[:, 1])
    locs = np.column_stack([cx, cy]) + rng.uniform(-500.0, 500.0, (n, 2))
    # float64 values with full mantissas, so summation order shows in the ulps
    pairs = Pairs(rng.gamma(2.0, 50.0, n) / 3.0, rng.normal(100.0, 40.0, n) / 7.0)
    key = assign(locs, hg)
    count = np.zeros(hg.n_cells, dtype=np.int64)
    sums = np.zeros((hg.n_cells, 2))
    bounds = [0, 1, 700, 2501, n]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.add.at(count, key[lo:hi], 1)
        np.add.at(sums[:, 0], key[lo:hi], pairs.y[lo:hi])
        np.add.at(sums[:, 1], key[lo:hi], pairs.yhat[lo:hi])
    occupied = count > 0
    assert count[occupied].min() >= 8
    # pairwise summation (slice.mean()) differs from in-order sums here
    assert any(pairs.y[key == k].mean() != sums[k, 0] / count[k]
               for k in np.flatnonzero(occupied))
    expected = sums[occupied] / count[occupied, None]
    assert aggregate_pairs(pairs, key, hg).tolist() == expected.tolist()
