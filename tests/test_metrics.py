import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agbmap.hexgrid import covering_hexgrid
from agbmap.metrics import (
    PairedSample, ac_decompose, basic_metrics, gmfr_fit, ks_statistic,
    multiscale_assessment, multiscale_pairs, willmott_dr,
)


# -- plain-loop oracles (no shared code with the package) ------------------

def o_mean(v):
    return sum(v) / len(v)


def o_rmse(y, yh):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(y, yh)) / len(y))


def o_mae(y, yh):
    return sum(abs(a - b) for a, b in zip(y, yh)) / len(y)


def o_me(y, yh):
    return sum(a - b for a, b in zip(y, yh)) / len(y)


def o_r2(y, yh):
    yb = o_mean(y)
    sse = sum((a - b) ** 2 for a, b in zip(y, yh))
    sst = sum((a - yb) ** 2 for a in y)
    return 1 - sse / sst


def o_dr(y, yh, c=2.0):
    num = sum(abs(b - a) for a, b in zip(y, yh))
    den = c * sum(abs(a - o_mean(y)) for a in y)
    if num <= den:
        return 1 - num / den
    return den / num - 1


def o_gmfr(y, yh):
    yb, yhb = o_mean(y), o_mean(yh)
    ssy = sum((a - yb) ** 2 for a in y)
    ssyh = sum((b - yhb) ** 2 for b in yh)
    cov = sum((a - yb) * (b - yhb) for a, b in zip(y, yh))
    b = math.sqrt(ssy / ssyh)
    if cov < 0:
        b = -b
    return yb - b * yhb, b


def o_ac_parts(y, yh):
    yb, yhb = o_mean(y), o_mean(yh)
    m = abs(yhb - yb)
    d = sum((m + abs(b - yhb)) * (m + abs(a - yb)) for a, b in zip(y, yh))
    ssd = sum((b - a) ** 2 for a, b in zip(y, yh))
    a0, b0 = o_gmfr(y, yh)
    spd = sum(abs(b - ((a - a0) / b0)) * abs(a - (a0 + b0 * b)) for a, b in zip(y, yh))
    return ssd, spd, d


def randpairs(rng, n):
    y = rng.uniform(0, 300, n)
    yhat = y + rng.normal(0, 40, n)
    return y, yhat


class TestBasicMetrics:
    def test_against_oracle_random(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            y, yhat = randpairs(rng, n)
            pairs = PairedSample(y=y, yhat=yhat)
            rep = basic_metrics(pairs, ybar_train=100.0)
            assert rep.rmse == pytest.approx(o_rmse(y, yhat), rel=1e-12)
            assert rep.mae == pytest.approx(o_mae(y, yhat), rel=1e-12)
            assert rep.me == pytest.approx(o_me(y, yhat), rel=1e-9, abs=1e-9)
            assert rep.r2 == pytest.approx(o_r2(y, yhat), rel=1e-9)
            assert rep.pct_rmse == pytest.approx(100 * rep.rmse / 100.0, rel=1e-12)
            assert rep.pct_mae == pytest.approx(100 * rep.mae / 100.0, rel=1e-12)

    def test_dr_is_willmotts(self):
        rng = np.random.default_rng(22)
        for n in (2, 7, 40):
            pairs = PairedSample(*randpairs(rng, n))
            assert basic_metrics(pairs, ybar_train=50.0).dr == willmott_dr(pairs)
        constant = PairedSample(y=[2.0, 2.0], yhat=[1.0, 3.0])
        assert basic_metrics(constant, 2.0).dr is None

    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        rep = basic_metrics(PairedSample(y=y, yhat=y.copy()), 2.0)
        assert rep.rmse == 0.0 and rep.mae == 0.0 and rep.me == 0.0
        assert rep.r2 == 1.0 and rep.pct_rmse == 0.0

    def test_r2_can_be_negative(self):
        pairs = PairedSample(y=[1.0, 2.0, 3.0], yhat=[3.0, 3.0, 3.0])
        rep = basic_metrics(pairs, 2.0)
        assert rep.r2 == pytest.approx(1 - 5 / 2)  # -1.5, unclamped

    def test_constant_reference_has_no_r2(self):
        pairs = PairedSample(y=[2.0, 2.0, 2.0], yhat=[1.0, 2.0, 3.0])
        assert basic_metrics(pairs, 2.0).r2 is None

    def test_nonpositive_normalizer_rejected(self):
        pairs = PairedSample(y=[1.0], yhat=[1.0])
        with pytest.raises(ValueError):
            basic_metrics(pairs, 0.0)

    def test_percent_anchor(self):
        # 100 * 60.33 / 131.24 rounds to 45.97
        assert round(100 * 60.33 / 131.24, 2) == 45.97


class TestWillmottDr:
    def test_perfect_is_one(self):
        pairs = PairedSample(y=[1.0, 2.0, 3.0], yhat=[1.0, 2.0, 3.0])
        assert willmott_dr(pairs) == 1.0

    def test_first_branch_anchor(self):
        pairs = PairedSample(y=[1.0, 3.0], yhat=[2.0, 2.0])
        assert willmott_dr(pairs) == pytest.approx(0.5, abs=1e-15)

    def test_second_branch_anchor(self):
        pairs = PairedSample(y=[1.0, 3.0], yhat=[11.0, 13.0])
        assert willmott_dr(pairs) == pytest.approx(-0.8, abs=1e-15)

    def test_constant_reference_is_none(self):
        pairs = PairedSample(y=[2.0, 2.0], yhat=[1.0, 3.0])
        assert willmott_dr(pairs) is None

    def test_oracle_and_bounds_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            y, yhat = randpairs(rng, n)
            pairs = PairedSample(y=y, yhat=yhat)
            dr = willmott_dr(pairs)
            assert dr == pytest.approx(o_dr(y, yhat), rel=1e-12, abs=1e-12)
            assert -1.0 <= dr <= 1.0

    def test_asymmetric_in_arguments(self):
        y = np.array([1.0, 2.0, 3.0, 8.0])
        yhat = np.array([2.0, 2.5, 2.0, 4.0])
        a = willmott_dr(PairedSample(y=y, yhat=yhat))
        b = willmott_dr(PairedSample(y=yhat, yhat=y))
        assert a != b


class TestGmfr:
    def test_double_slope_anchor(self):
        y = np.array([1.0, 2.0, 3.0])
        fit = gmfr_fit(PairedSample(y=y, yhat=2 * y))
        assert fit.b == pytest.approx(0.5, rel=1e-12)
        assert fit.a == pytest.approx(0.0, abs=1e-12)

    def test_line_passes_through_means(self):
        rng = np.random.default_rng(3)
        y, yhat = randpairs(rng, 25)
        fit = gmfr_fit(PairedSample(y=y, yhat=yhat))
        assert fit.a + fit.b * yhat.mean() == pytest.approx(y.mean(), rel=1e-10)

    def test_oracle_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(3, 50))
            y, yhat = randpairs(rng, n)
            fit = gmfr_fit(PairedSample(y=y, yhat=yhat))
            a_ref, b_ref = o_gmfr(list(y), list(yhat))
            assert fit.b == pytest.approx(b_ref, rel=1e-12)
            assert fit.a == pytest.approx(a_ref, rel=1e-9, abs=1e-9)

    def test_negative_correlation_gives_negative_slope(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        fit = gmfr_fit(PairedSample(y=y, yhat=-2 * y + 10))
        assert fit.b == pytest.approx(-0.5, rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            gmfr_fit(PairedSample(y=[1.0, 1.0], yhat=[1.0, 2.0]))


class TestAcDecomposition:
    def test_identical_maps_give_ac_one(self):
        y = np.array([1.0, 5.0, 9.0])
        dec = ac_decompose(PairedSample(y=y, yhat=y.copy()))
        assert dec.ac == 1.0
        assert dec.ac_systematic == 1.0
        assert dec.ac_unsystematic == 1.0

    def test_oracle_random(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(3, 60))
            y, yhat = randpairs(rng, n)
            dec = ac_decompose(PairedSample(y=y, yhat=yhat))
            ssd, spd, d = o_ac_parts(list(y), list(yhat))
            assert dec.ac == pytest.approx(1 - ssd / d, rel=1e-10)
            assert dec.ac_unsystematic == pytest.approx(1 - spd / d, rel=1e-10)
            assert dec.ac_systematic == pytest.approx(1 - (ssd - spd) / d, rel=1e-10)

    def test_identity_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            y, yhat = randpairs(rng, 30)
            dec = ac_decompose(PairedSample(y=y, yhat=yhat))
            lhs = dec.ac_systematic + dec.ac_unsystematic - 1.0
            assert abs(lhs - dec.ac) <= 1e-12 * max(1.0, abs(dec.ac))

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        y, yhat = randpairs(rng, 40)
        a = ac_decompose(PairedSample(y=y, yhat=yhat))
        b = ac_decompose(PairedSample(y=yhat, yhat=y))
        assert a.ac == pytest.approx(b.ac, rel=1e-12)

    def test_pure_offset_is_fully_systematic(self):
        y = np.array([10.0, 20.0, 30.0, 40.0])
        dec = ac_decompose(PairedSample(y=y, yhat=y + 5.0))
        assert dec.ac_unsystematic == 1.0
        assert dec.ac < 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ac_decompose(PairedSample(y=[3.0, 3.0], yhat=[3.0, 3.0]))


class TestEcdfKs:
    def test_ks_self_is_zero(self):
        v = np.random.default_rng(0).normal(size=50)
        assert ks_statistic(v, v.copy()) == 0.0

    def test_ks_disjoint_is_one(self):
        assert ks_statistic([1.0, 2.0], [10.0, 11.0]) == 1.0

    def test_ks_known_value(self):
        # F_a jumps to 2/3 at 2; F_b still 1/3 there: D = 1/3 attained at 2
        a = [1.0, 2.0, 4.0]
        b = [1.5, 3.0, 5.0]
        assert ks_statistic(a, b) == pytest.approx(1 / 3, rel=1e-15)

    def test_ks_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            a = rng.normal(0, 1, int(rng.integers(1, 30)))
            b = rng.normal(0.3, 1.2, int(rng.integers(1, 30)))
            pooled = sorted(set(a.tolist()) | set(b.tolist()))
            d_ref = max(
                abs(sum(1 for v in a if v <= p) / len(a)
                    - sum(1 for v in b if v <= p) / len(b))
                for p in pooled
            )
            assert ks_statistic(a, b) == pytest.approx(d_ref, rel=1e-12, abs=1e-15)

    def test_empty_rejected(self):
        for a, b in (([], [1.0]), ([1.0], [])):
            with pytest.raises(ValueError, match="empty sample"):
                ks_statistic(a, b)
        with pytest.raises(ValueError, match="finite"):
            ks_statistic([1.0, np.nan], [1.0])


class TestMultiscale:
    def test_scale_one_is_plot_level_passthrough(self):
        rng = np.random.default_rng(10)
        n = 80
        y, yhat = randpairs(rng, n)
        locs = np.column_stack([rng.uniform(0, 5e4, n), rng.uniform(0, 5e4, n)])
        pairs = PairedSample(y=y, yhat=yhat)
        rows = multiscale_assessment(pairs, locs, spacings_km=(1, 5), ybar_train=120.0)
        assert rows[0].scale_km == 1.0
        assert rows[0].pph is None
        assert rows[0].n == n
        assert rows[0].rmse == pytest.approx(o_rmse(y, yhat), rel=1e-12)
        assert rows[0].dr == pytest.approx(o_dr(list(y), list(yhat)), rel=1e-12)

    def test_aggregation_reduces_noise_rmse(self):
        # region much larger than the coarsest spacing, so occupied cells
        # average many plots instead of boundary slivers
        rng = np.random.default_rng(20)
        n = 6000
        side = 400e3
        locs = np.column_stack([rng.uniform(0, side, n), rng.uniform(0, side, n)])
        y = 100 + 30 * np.sin(locs[:, 0] / 3e4) + 20 * np.cos(locs[:, 1] / 2e4)
        yhat = y + rng.normal(0, 35, n)
        pairs = PairedSample(y=y, yhat=yhat)
        rows = multiscale_assessment(pairs, locs, spacings_km=(1, 10, 40),
                                     ybar_train=float(y.mean()))
        assert rows[0].pct_rmse > rows[1].pct_rmse > rows[2].pct_rmse

    def test_pph_bookkeeping(self):
        rng = np.random.default_rng(2)
        n = 200
        locs = np.column_stack([rng.uniform(0, 3e4, n), rng.uniform(0, 3e4, n)])
        y, yhat = randpairs(rng, n)
        pairs = PairedSample(y=y, yhat=yhat)
        rows = multiscale_assessment(pairs, locs, spacings_km=(10,), ybar_train=100.0)
        assert rows[0].pph == pytest.approx(n / rows[0].n)

    def test_single_cell_scale_reports_no_metrics(self):
        locs = np.array([[0.0, 0.0], [10.0, 10.0]])
        pairs = PairedSample(y=[1.0, 2.0], yhat=[1.5, 2.5])
        rows = multiscale_assessment(pairs, locs, spacings_km=(50,), ybar_train=1.0)
        assert rows[0].n == 1
        assert rows[0].rmse is None and rows[0].r2 is None
        assert rows[0].pph == 2.0

    def test_pairs_per_scale(self):
        empty = multiscale_pairs(np.empty(0), np.empty(0), np.empty((0, 2)), (1, 5, 20))
        assert [s for s, _, _ in empty] == [1.0, 5.0, 20.0]
        assert all(y.size == 0 and yhat.size == 0 for _, y, yhat in empty)
        # three points within 100 m: one hexagon at every aggregated scale
        locs = np.array([[0.0, 0.0], [30.0, 10.0], [60.0, 40.0]])
        y = np.array([10.0, 20.0, 60.0])
        yhat = np.array([12.0, 18.0, 33.0])
        scales = multiscale_pairs(y, yhat, locs, (5, 1, 50))
        assert [s for s, _, _ in scales] == [5.0, 1.0, 50.0]
        for s_km, ys, yhats in scales:
            if s_km == 1:
                assert np.array_equal(ys, y) and np.array_equal(yhats, yhat)
            else:
                assert ys.tolist() == [30.0] and yhats.tolist() == [21.0]

    @pytest.mark.parametrize("locs", [
        [[500.0, 0.0], [500.0, 700.0], [500.0, 2600.0], [500.0, 9000.0], [500.0, 700.0]],
        [[0.0, -300.0], [1200.0, -300.0], [4100.0, -300.0], [9500.0, -300.0], [0.0, -300.0]],
        [[250.0, 750.0]] * 5,
    ], ids=["one x", "one y", "one point"])
    def test_pairs_on_locations_of_zero_extent(self, locs):
        # the covering tessellation pads each axis of zero extent; every
        # location still falls in its nearest hexagon, searched by brute force
        # over the tessellation and three more rings of cells, and each scale
        # but 1 km has one row per occupied hexagon, in (row, col) order
        locs = np.array(locs)
        y, yhat = np.array([10.0, 20.0, 60.0, 5.0, 7.0]), np.array([12.0, 18.0, 33.0, 9.0, 1.0])
        for s_km, ys, yhats in multiscale_pairs(y, yhat, locs, (1, 2, 5, 50)):
            if s_km == 1:
                continue
            hg = covering_hexgrid(locs, s_km * 1000.0)
            wide = dataclasses.replace(hg, col_min=hg.col_min - 3, col_max=hg.col_max + 3,
                                       row_min=hg.row_min - 3, row_max=hg.row_max + 3)
            rows, cols = np.divmod(np.arange(wide.n_cells), wide.col_max - wide.col_min + 1)
            rows, cols = rows + wide.row_min, cols + wide.col_min  # in (row, col) order
            cx, cy = wide.center(rows, cols)
            nearest = [int(np.argmin((px - cx) ** 2 + (py - cy) ** 2)) for px, py in locs]
            cells = sorted(set(zip(rows[nearest].tolist(), cols[nearest].tolist())))
            assert all(hg.row_min <= r <= hg.row_max and hg.col_min <= c <= hg.col_max
                       for r, c in cells)
            members = [[i for i, at in enumerate(nearest) if (rows[at], cols[at]) == cell]
                       for cell in cells]
            assert ys.tolist() == [o_mean(y[m].tolist()) for m in members]
            assert yhats.tolist() == [o_mean(yhat[m].tolist()) for m in members]


# -- property tests --------------------------------------------------------

paired = st.integers(2, 40).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n),
        st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n),
    )
)


@settings(max_examples=150, deadline=None)
@given(paired)
def test_rmse_dominates_mae_dominates_me(data):
    y, yhat = data
    pairs = PairedSample(y=y, yhat=yhat)
    rep = basic_metrics(pairs, ybar_train=1.0)
    assert rep.rmse + 1e-9 >= rep.mae >= abs(rep.me) - 1e-9


@settings(max_examples=150, deadline=None)
@given(paired)
def test_dr_bounded(data):
    y, yhat = data
    pairs = PairedSample(y=y, yhat=yhat)
    dr = willmott_dr(pairs)
    if dr is not None:
        assert -1.0 <= dr <= 1.0


@settings(max_examples=150, deadline=None)
@given(paired)
# Spreads about 1e162 apart: the line's slope or its inverse is not a finite
# nonzero float.
@example(([0.0, 7.458472914357855e-159], [0.0, 4746.0]))
@example(([0.0, 1.0], [0.0, 7.458472914357855e-159]))
def test_ac_identity_and_bound(data):
    y, yhat = data
    pairs = PairedSample(y=y, yhat=yhat)
    try:
        dec = ac_decompose(pairs)
    except ValueError:
        return  # degenerate variance; out of the decomposition's domain
    assert dec.ac <= 1.0 + 1e-12
    scale = max(1.0, abs(dec.ac))
    assert abs(dec.ac_systematic + dec.ac_unsystematic - 1.0 - dec.ac) <= 1e-12 * scale


scalable = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
        st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
    )
)


def _statistics(y, yhat, ybar_train):
    """Every paired statistic, or the error a function refuses with."""
    pairs = PairedSample(y=y, yhat=yhat)
    out = {}
    for name, fn in (("basic", lambda p: basic_metrics(p, ybar_train=ybar_train)),
                     ("gmfr", gmfr_fit), ("ac", ac_decompose)):
        try:
            out[name] = vars(fn(pairs))
        except ValueError as e:
            out[name] = str(e)
    return out


@settings(max_examples=150, deadline=None)
@given(scalable, st.integers(-600, 600))
# squares that underflow: RMSE 0 beside a nonzero MAE, no line and no AC
@example(([0.0, 1e-200, 3e-201], [1e-201, 9e-201, 0.0]), 664)
# squares that overflow
@example(([1e180, 2e180, 3.5e180], [1.5e180, 2e180, 2.5e180]), -598)
def test_statistics_follow_a_power_of_two_scaling(data, k):
    # scaling y and yhat by 2**k is exact, and so is each statistic: RMSE,
    # MAE, ME and the intercept scale with it, every other one is unchanged
    y, yhat = (np.array(v, dtype=float) for v in data)
    base = _statistics(y, yhat, 1.0)
    scaled = _statistics(np.ldexp(y, k), np.ldexp(yhat, k), np.ldexp(1.0, k))
    equivariant = {"rmse", "mae", "me", "a"}
    for name, got in scaled.items():
        want = base[name]
        if isinstance(want, str):
            assert got == want
            continue
        assert got == {f: (np.ldexp(v, k) if f in equivariant and v is not None else v)
                       for f, v in want.items()}, name
