import json

import numpy as np
import pytest

from agbmap.grid import (
    Grid, GridFormatError, difference, percent_rank,
    read_grid, read_header, summarize, write_grid,
)


def make_grid(values, mask=None, **kw):
    values = np.asarray(values, dtype=np.float32)
    geo = dict(ncols=values.shape[1], nrows=values.shape[0],
               x_origin=0.0, y_origin=0.0, cellsize=30.0, units="Mg/ha")
    geo.update(kw)
    return Grid(values=values, mask=mask, **geo)


class TestGridBasics:
    def test_masked_cells_are_canonicalized_to_zero(self):
        g = make_grid([[1.0, 2.0]], mask=[[True, False]])
        assert g.values[0, 1] == 0.0

    def test_nonfinite_valid_cell_rejected(self):
        with pytest.raises(ValueError):
            make_grid([[np.nan, 2.0]])

    def test_nonfinite_masked_cell_allowed(self):
        g = make_grid([[np.nan, 2.0]], mask=[[False, True]])
        assert g.values[0, 0] == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Grid(ncols=3, nrows=2, x_origin=0, y_origin=0, cellsize=30,
                 units="", values=np.zeros((2, 2)))

    def test_arrays_frozen(self):
        g = make_grid([[1.0, 2.0]])
        with pytest.raises(ValueError):
            g.values[0, 0] = 9.0

    def test_caller_arrays_neither_frozen_nor_aliased(self):
        values = np.array([[1.0, 2.0]], dtype=np.float32)
        mask = np.array([[True, False]])
        g = make_grid(values, mask=mask)
        assert values.flags.writeable and mask.flags.writeable
        values[0, 0], mask[0, 1] = 9.0, True
        assert np.array_equal(g.values, [[1.0, 0.0]])
        assert np.array_equal(g.mask, [[True, False]])

    def test_only_arrays_no_one_can_write_are_kept(self):
        def read_only(a):
            a.flags.writeable = False
            return a

        values = read_only(np.array([[1.0, 2.0]], dtype=np.float32))
        mask = read_only(np.array([[True, True]]))
        g = make_grid(values, mask=mask)
        assert g.values is values and g.mask is mask
        writable = np.array([[1.0, 2.0]], dtype=np.float32)  # a read-only view of it is copied
        view = read_only(writable.view())
        assert not np.shares_memory(make_grid(view).values, writable)
        # a kept array with a masked -0.0 is copied with +0.0 there, the caller's left as is
        signed = read_only(np.array([[1.0, -0.0]], dtype=np.float32))
        g = make_grid(signed, mask=read_only(np.array([[True, False]])))
        assert g.values is not signed
        assert g.values.tobytes() == make_grid([[1.0, 0.0]]).values.tobytes()
        assert np.signbit(signed[0, 1])

    @pytest.mark.parametrize("key", ["x_origin", "y_origin", "cellsize"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_origin_or_cellsize_rejected(self, key, value):
        # write_grid would put NaN or Infinity in a header read_grid refuses
        with pytest.raises(ValueError, match="must be finite"):
            make_grid([[1.0]], **{key: value})

    def test_alignment_requires_all_five_fields(self):
        a = make_grid([[1.0]])
        assert a.aligned_with(make_grid([[2.0]]))
        assert not a.aligned_with(make_grid([[2.0]], cellsize=10.0))
        assert not a.aligned_with(make_grid([[2.0]], x_origin=1.0))


class TestRoundTrip:
    def test_binary_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.normal(100, 40, size=(23, 17)).astype(np.float32)
        mask = rng.random((23, 17)) > 0.2
        g = make_grid(values, mask=mask, x_origin=5321.5, y_origin=-20.25, cellsize=12.5)
        p = tmp_path / "g.bin"
        write_grid(g, p)
        r = read_grid(p)
        assert r.aligned_with(g)
        assert r.units == g.units
        assert np.array_equal(r.mask, g.mask)
        assert np.array_equal(r.values, g.values)

    # an int geometry is held as the float a header gives back, even one
    # (10**300) that a float cannot hold exactly
    @pytest.mark.parametrize("geo", [dict(x_origin=-1.7e308, y_origin=1.7e308, cellsize=5e-324),
                                     dict(x_origin=1e300, y_origin=-3.0, cellsize=1e300),
                                     dict(x_origin=10**300, y_origin=-3, cellsize=10**300)])
    def test_any_finite_geometry_round_trips(self, tmp_path, geo):
        g = make_grid([[1.0, 2.0]], **geo)
        assert all(type(getattr(g, key)) is float for key in geo)
        write_grid(g, tmp_path / "g.bin")
        r = read_grid(tmp_path / "g.bin")
        assert r.aligned_with(g) and np.array_equal(r.values, g.values)

    def test_binary_round_trip_twice_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        g = make_grid(rng.normal(size=(9, 11)).astype(np.float32))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_grid(g, p1)
        write_grid(read_grid(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestMalformedFiles:
    def test_truncated_binary_payload(self, tmp_path):
        g = make_grid([[1.0, 2.0], [3.0, 4.0]])
        p = tmp_path / "g.bin"
        write_grid(g, p)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(GridFormatError):
            read_grid(p)

    def test_payload_truncated_after_its_header_was_read(self, tmp_path, monkeypatch):
        import agbmap.grid

        p = tmp_path / "g.bin"
        write_grid(make_grid([[1.0, 2.0], [3.0, 4.0]]), p)
        header = read_header(p)
        p.write_bytes(p.read_bytes()[:-3])
        monkeypatch.setattr(agbmap.grid, "read_header", lambda path: header)
        with pytest.raises(GridFormatError, match="payload holds 17 bytes, expected 20"):
            read_grid(p)

    def test_header_holds_the_grid_fields(self, tmp_path):
        p = tmp_path / "g.bin"
        write_grid(make_grid([[1.0, 2.0], [3.0, 4.0]], x_origin=-7), p)
        assert read_header(p) == dict(ncols=2, nrows=2, x_origin=-7.0, y_origin=0.0,
                                      cellsize=30.0, units="Mg/ha")

    @pytest.mark.parametrize("pad", [1, 5])
    def test_padded_binary_payload(self, tmp_path, pad):
        p = tmp_path / "g.bin"
        write_grid(make_grid([[1.0, 2.0], [3.0, 4.0]]), p)
        p.write_bytes(p.read_bytes() + b"\x00" * pad)
        for reader in (read_header, read_grid):
            with pytest.raises(GridFormatError, match="payload"):
                reader(p)

    def test_bad_header_json(self, tmp_path):
        p = tmp_path / "g.bin"
        p.write_bytes(b"not json\n\x00\x00")
        with pytest.raises(GridFormatError):
            read_grid(p)

    @pytest.mark.parametrize("key,value", [
        ("ncols", 2.5), ("ncols", 2.0), ("ncols", "2"), ("nrows", True), ("nrows", None),
        ("x_origin", None), ("y_origin", "0"), ("x_origin", float("inf")), ("y_origin", 10**400),
        ("cellsize", True), ("cellsize", float("nan")), ("cellsize", 0), ("cellsize", -30.0),
        ("units", None), ("units", 5),
    ])
    def test_mistyped_header_field(self, tmp_path, key, value):
        # the payload matches a 1 x 2 grid, so only the header field is wrong
        p = tmp_path / "g.bin"
        write_grid(make_grid([[1.0, 2.0]]), p)
        header, payload = p.read_bytes().split(b"\n", 1)
        p.write_bytes(json.dumps({**json.loads(header), key: value}).encode() + b"\n" + payload)
        for reader in (read_header, read_grid):
            with pytest.raises(GridFormatError):
                reader(p)

    @pytest.mark.parametrize("corrupt", ["mask_byte", "nan_in_valid_cell"])
    def test_corrupt_binary_payload(self, tmp_path, corrupt):
        p = tmp_path / "g.bin"
        write_grid(make_grid([[1.0, 2.0]]), p)
        raw = bytearray(p.read_bytes())
        if corrupt == "mask_byte":
            raw[-1] = 2
        else:
            raw[-10:-6] = np.array([np.nan], dtype="<f4").tobytes()
        p.write_bytes(bytes(raw))
        read_header(p)  # the cells are checked when they are read
        with pytest.raises(GridFormatError):
            read_grid(p)


class TestMapAlgebra:
    def test_difference_values(self):
        a = make_grid([[1.0, 2.0], [3.0, 4.0]])
        b = make_grid([[1.0, 1.0], [1.0, 1.0]])
        d = difference(a, b)
        assert np.array_equal(d.values, np.array([[0, 1], [2, 3]], dtype=np.float32))

    def test_difference_masks_if_either_masked(self):
        a = make_grid([[1.0, 2.0]], mask=[[True, False]])
        b = make_grid([[1.0, 1.0]], mask=[[False, True]])
        d = difference(a, b)
        assert not d.mask.any()

    def test_difference_misaligned_rejected(self):
        with pytest.raises(ValueError):
            difference(make_grid([[1.0]]), make_grid([[1.0]], cellsize=10.0))

    def test_percent_rank_distinct_values(self):
        g = make_grid([[10.0, 20.0], [30.0, 40.0]])
        pr = percent_rank(g)
        expect = np.array([[0.0, 100 / 3], [200 / 3, 100.0]], dtype=np.float32)
        assert np.allclose(pr.values, expect, atol=1e-4)
        assert pr.units == "percent"

    def test_percent_rank_ties_take_minimum_rank(self):
        g = make_grid([[1.0, 1.0, 2.0]])
        pr = percent_rank(g)
        assert np.array_equal(pr.values, np.array([[0.0, 0.0, 100.0]], dtype=np.float32))

    def test_percent_rank_all_equal_is_zero(self):
        g = make_grid([[5.0, 5.0, 5.0]])
        assert np.array_equal(percent_rank(g).values, np.zeros((1, 3), dtype=np.float32))

    def test_percent_rank_needs_two_valid(self):
        g = make_grid([[5.0, 1.0]], mask=[[True, False]])
        with pytest.raises(ValueError):
            percent_rank(g)

    def test_percent_rank_bounds_random(self):
        rng = np.random.default_rng(11)
        g = make_grid(rng.normal(size=(20, 20)).astype(np.float32),
                      mask=rng.random((20, 20)) > 0.4)
        pr = percent_rank(g)
        vals = pr.values[pr.mask]
        assert vals.min() == 0.0 and vals.max() == 100.0

    @pytest.mark.parametrize("case", ["tie-heavy", "one distinct value", "two valid cells",
                                      "signed zeros"])
    def test_percent_rank_matches_sort_and_binary_search(self, case):
        # the minimum rank of each value as a binary search of the sorted
        # values finds it: 1 + the number of strictly smaller values
        rng = np.random.default_rng(7)
        if case == "tie-heavy":
            values, mask = np.round(rng.normal(0.0, 4.0, (250, 400))), rng.random((250, 400)) > 0.1
        elif case == "one distinct value":
            values, mask = np.full((300, 300), 2.5), np.ones((300, 300), dtype=bool)
            values[123, 45] = -1.0
        elif case == "signed zeros":  # -0.0 == 0.0: one run of ties
            values = rng.choice([-1.0, -0.0, 0.0, 2.0], size=(40, 50))
            mask = rng.random((40, 50)) > 0.2
        else:
            values, mask = rng.normal(size=(3, 4)), np.zeros((3, 4), dtype=bool)
            mask[0, 3] = mask[2, 1] = True
        g = make_grid(values, mask=mask)
        vals = g.values[g.mask].astype(np.float64)
        ranks = np.searchsorted(np.sort(vals), vals, side="left") + 1
        expect = np.zeros(g.values.shape)
        expect[g.mask] = 100.0 * (ranks - 1) / (vals.size - 1)
        assert np.array_equal(percent_rank(g).values, expect.astype(np.float32))

    def test_summarize(self):
        g = make_grid([[1.0, 2.0], [3.0, 4.0]], mask=[[True, True], [True, False]])
        s = summarize(g)
        assert s.n_valid == 3
        assert s.mean == pytest.approx(2.0)
        assert s.min == 1.0 and s.max == 3.0

    def test_summarize_empty(self):
        g = make_grid([[1.0]], mask=[[False]])
        s = summarize(g)
        assert s.n_valid == 0 and s.mean is None and s.max is None
