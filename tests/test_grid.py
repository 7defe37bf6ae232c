import json

import numpy as np
import pytest

from agbmap.grid import (
    Grid, GridFormatError, difference, mask_landcover, percent_rank,
    read_grid, summarize, write_grid,
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

    def test_bad_header_json(self, tmp_path):
        p = tmp_path / "g.bin"
        p.write_bytes(b"not json\n\x00\x00")
        with pytest.raises(GridFormatError):
            read_grid(p)

    @pytest.mark.parametrize("key,value", [
        ("ncols", 2.5), ("ncols", 2.0), ("ncols", "2"), ("nrows", True), ("nrows", None),
        ("x_origin", None), ("y_origin", "0"), ("x_origin", float("inf")), ("y_origin", 10**400),
        ("cellsize", True), ("cellsize", float("nan")), ("units", None), ("units", 5),
    ])
    def test_mistyped_header_field(self, tmp_path, key, value):
        # the payload matches a 1 x 2 grid, so only the header type is wrong
        p = tmp_path / "g.bin"
        write_grid(make_grid([[1.0, 2.0]]), p)
        header, payload = p.read_bytes().split(b"\n", 1)
        p.write_bytes(json.dumps({**json.loads(header), key: value}).encode() + b"\n" + payload)
        with pytest.raises(GridFormatError):
            read_grid(p)

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

    def test_mask_landcover_removes_classes(self):
        pred = make_grid([[10.0, 20.0, 30.0, 40.0]])
        lc = make_grid([[3.0, 1.0, 4.0, 3.0]], mask=[[True, True, True, False]])
        out = mask_landcover(pred, lc, removed_classes={1, 2, 4, 5})
        # class 3 kept, classes 1/4 removed, unknown landcover removed
        assert out.mask.tolist() == [[True, False, False, False]]
        assert out.values[0, 0] == 10.0

    def test_summarize(self):
        g = make_grid([[1.0, 2.0], [3.0, 4.0]], mask=[[True, True], [True, False]])
        s = summarize(g)
        assert s.n_valid == 3
        assert s.mean == pytest.approx(2.0)
        assert s.min == 1.0 and s.max == 3.0 and s.sum == 6.0

    def test_summarize_empty(self):
        g = make_grid([[1.0]], mask=[[False]])
        s = summarize(g)
        assert s.n_valid == 0 and s.mean is None and s.sum is None
