import json
import os

import numpy as np
import pytest

from agbmap.grid import (
    Grid, GridFormatError, difference, percent_rank,
    read_grid, read_header, summarize, write_grid,
)


QUIET_NAN = 0x7FC00000  # the bits of every cell with no value


def bits(a):
    return np.asarray(a, dtype=np.float32).view(np.uint32)


def rewrite_header(path, header, payload):
    """Write `header` as a grid file's padded first line, then `payload`."""
    line = json.dumps(header).encode()
    path.write_bytes(line + b" " * (-(len(line) + 1) % 4) + b"\n" + payload)


def make_grid(values, mask=None, **kw):  # NaN where a `mask` is False
    values = np.asarray(values, dtype=np.float32)
    if mask is not None:
        values = np.where(mask, values, np.float32(np.nan))
    geo = dict(ncols=values.shape[1], nrows=values.shape[0],
               x_origin=0.0, y_origin=0.0, cellsize=30.0, units="Mg/ha")
    geo.update(kw)
    return Grid(values=values, **geo)


class TestGridBasics:
    def test_masked_cells_hold_the_one_quiet_nan(self):
        g = make_grid([[1.0, 2.0]], mask=[[True, False]])
        assert bits(g.values).tolist() == [[bits(1.0), QUIET_NAN]]
        assert g.mask.tolist() == [[True, False]]

    def test_nonfinite_valid_cell_rejected(self):
        # a NaN is a cell with no value; an infinity is refused
        g = make_grid([[np.nan, 2.0]])
        assert g.mask.tolist() == [[False, True]] and bits(g.values[0, 0]) == QUIET_NAN
        for inf in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="infinity"):
                make_grid([[inf, 2.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Grid(ncols=3, nrows=2, x_origin=0, y_origin=0, cellsize=30,
                 units="", values=np.zeros((2, 2)))

    def test_arrays_frozen(self):
        g = make_grid([[1.0, 2.0]])
        with pytest.raises(ValueError):
            g.values[0, 0] = 9.0

    def test_caller_arrays_neither_frozen_nor_aliased(self):
        values = np.array([[1.0, np.nan]], dtype=np.float32)
        g = make_grid(values)
        assert values.flags.writeable
        values[0] = 9.0, 2.0
        assert bits(g.values).tolist() == [[bits(1.0), QUIET_NAN]]
        assert np.array_equal(g.mask, [[True, False]])
        # nor through with_values
        h = g.with_values(values)
        assert values.flags.writeable and not np.shares_memory(h.values, values)
        values[0, 0] = 7.0
        assert h.values.tolist() == [[9.0, 2.0]]

    def test_only_arrays_no_one_can_write_are_kept(self):
        def read_only(a):
            a.flags.writeable = False
            return a

        values = read_only(np.array([[1.0, np.nan]], dtype=np.float32))
        assert make_grid(values).values is values
        writable = np.array([[1.0, 2.0]], dtype=np.float32)  # a read-only view of it is copied
        view = read_only(writable.view())
        assert not np.shares_memory(make_grid(view).values, writable)
        # a kept array with another NaN, as -x gives, is copied with the quiet NaN
        # there, the caller's left as is; a valid -0.0 keeps its sign
        other = read_only(-np.array([[np.nan, -0.0]], dtype=np.float32))
        assert bits(other).tolist() == [[0xFFC00000, 0]]
        g = make_grid(other)
        assert g.values is not other
        assert bits(g.values).tolist() == [[QUIET_NAN, 0]]
        assert bits(other).tolist() == [[0xFFC00000, 0]]
        signed = read_only(np.array([[-0.0, np.nan]], dtype=np.float32))
        assert make_grid(signed).values is signed and np.signbit(signed[0, 0])

    @pytest.mark.parametrize("key", ["x_origin", "y_origin", "cellsize"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_origin_or_cellsize_rejected(self, key, value):
        # write_grid would put NaN or Infinity in a header read_grid refuses
        with pytest.raises(ValueError, match="must be finite"):
            make_grid([[1.0]], **{key: value})

    @pytest.mark.parametrize("key, value", [("ncols", 1.0), ("ncols", True), ("nrows", 1.0),
                                            ("nrows", False)],
                             ids=["float ncols", "bool ncols", "float nrows", "bool nrows"])
    def test_size_that_is_no_int_rejected_naming_it(self, key, value):
        # write_grid would write a header read_grid refuses, or fail in the middle
        with pytest.raises(ValueError, match=f"{key} must be an int, got {value!r}"):
            make_grid([[1.0]], **{key: value})

    def test_units_that_are_no_string_rejected(self):
        with pytest.raises(ValueError, match="units must be a string, got 5"):
            make_grid([[1.0]], units=5)

    def test_numpy_integer_sizes_are_taken_as_ints(self, tmp_path):
        grid = make_grid(np.ones((2, 3)), ncols=np.int64(3), nrows=np.uint8(2))
        assert type(grid.ncols) is int and type(grid.nrows) is int
        write_grid(grid, tmp_path / "g.bin")
        assert read_grid(tmp_path / "g.bin").aligned_with(grid)

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
        assert r.values.tobytes() == g.values.tobytes()

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

    @pytest.mark.parametrize("units", ["", "m", "Mg", "Mg/ha", "percent"])
    def test_file_is_a_padded_header_then_4_bytes_per_cell(self, tmp_path, units):
        # the units' lengths move the header through every remainder mod 4
        g = make_grid(np.arange(15.0).reshape(3, 5), mask=np.arange(15).reshape(3, 5) % 4 > 0,
                      units=units)
        p = tmp_path / "g.bin"
        write_grid(g, p)
        raw = p.read_bytes()
        line = raw[:raw.index(b"\n") + 1]
        assert len(line) % 4 == 0 and os.path.getsize(p) == len(line) + 4 * 15
        assert line.rstrip(b" \n") == json.dumps(json.loads(line), sort_keys=True).encode()
        assert json.loads(line)["format"] == "float32-nan"
        assert raw[len(line):] == g.values.astype("<f4").tobytes()
        assert read_grid(p).values.tobytes() == g.values.tobytes()

    def test_other_nan_is_stored_and_written_as_the_quiet_nan(self, tmp_path):
        values = -np.array([[np.nan, 1.0]], dtype=np.float32)
        g = make_grid(values)
        p = tmp_path / "g.bin"
        write_grid(g, p)
        assert p.read_bytes()[-8:-4] == np.uint32(QUIET_NAN).astype("<u4").tobytes()
        # a file that holds another NaN reads back with the quiet one
        raw = bytearray(p.read_bytes())
        raw[-8:-4] = np.uint32(0xFFC00000).astype("<u4").tobytes()
        p.write_bytes(bytes(raw))
        r = read_grid(p)
        assert bits(r.values).tolist() == [[QUIET_NAN, bits(-1.0)]]

    def test_valid_negative_zero_keeps_its_sign(self, tmp_path):
        g = make_grid([[-0.0, 0.0]], mask=[[True, True]])
        write_grid(g, tmp_path / "g.bin")
        r = read_grid(tmp_path / "g.bin")
        assert bits(r.values).tolist() == [[0x80000000, 0]] and r.mask.all()

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
        with pytest.raises(GridFormatError, match="payload holds 13 bytes, expected 16"):
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
        # the payload matches a 1 x 2 grid and the header is padded, so only
        # the header field is wrong
        p = tmp_path / "g.bin"
        write_grid(make_grid([[1.0, 2.0]]), p)
        header, payload = p.read_bytes().split(b"\n", 1)
        rewrite_header(p, {**json.loads(header), key: value}, payload)
        for reader in (read_header, read_grid):
            with pytest.raises(GridFormatError) as refused:
                reader(p)
            assert "padded" not in str(refused.value)

    @pytest.mark.parametrize("corrupt", ["infinity", "negative infinity"])
    def test_corrupt_binary_payload(self, tmp_path, corrupt):
        p = tmp_path / "g.bin"
        write_grid(make_grid([[1.0, 2.0]]), p)
        raw = bytearray(p.read_bytes())
        raw[-8:-4] = np.array([np.inf if corrupt == "infinity" else -np.inf], "<f4").tobytes()
        p.write_bytes(bytes(raw))
        read_header(p)  # the cells are checked when they are read
        with pytest.raises(GridFormatError, match="infinity"):
            read_grid(p)

    def test_old_format_of_a_mask_byte_per_cell_refused(self, tmp_path):
        p = tmp_path / "g.bin"
        header = dict(byte_order="little", cellsize=30.0, ncols=2, nrows=1, units="Mg/ha",
                      x_origin=0.0, y_origin=0.0)
        p.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                      + np.array([1.0, 2.0], "<f4").tobytes() + b"\x01\x01")
        for reader in (read_header, read_grid):
            with pytest.raises(GridFormatError, match="old format of float32 values and a "
                                                      "mask byte per cell"):
                reader(p)

    @pytest.mark.parametrize("change", ["other format", "unpadded header"])
    def test_header_of_another_format_or_unpadded_refused(self, tmp_path, change):
        p = tmp_path / "g.bin"
        write_grid(make_grid([[1.0, 2.0]]), p)
        header, payload = p.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        if change == "other format":
            rewrite_header(p, {**header, "format": "float64-nan"}, payload)
            reported = "unsupported format 'float64-nan'"
        else:
            line = json.dumps(header, sort_keys=True).encode() + b"\n"
            p.write_bytes(b" " * (len(line) % 4 == 0) + line + payload)
            reported = "is not padded to a multiple of 4"
        for reader in (read_header, read_grid):
            with pytest.raises(GridFormatError, match=reported):
                reader(p)



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
        expect = np.full(g.values.shape, np.nan)
        expect[g.mask] = 100.0 * (ranks - 1) / (vals.size - 1)
        assert percent_rank(g).values.tobytes() == expect.astype(np.float32).tobytes()

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
