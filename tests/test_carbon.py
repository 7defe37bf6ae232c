import itertools
import math

import numpy as np
import pytest

from agbmap import carbon
from agbmap.carbon import (
    CRM_CARBON_FRACTION, CarbonFractionRow, StockEstimate, agb_to_agc,
    design_stock, load_carbon_fractions, model_stock, rescale_fit,
    weighted_carbon_fraction,
)
from agbmap.grid import Grid, summarize
from agbmap.inventory import PlotRecord
from agbmap.metrics import PairedSample, error_metrics, least_squares


def grid_100m(values, mask=True):
    # 100 m cells, so each cell is exactly 1 ha; NaN where `mask` is False
    values = np.where(mask, np.asarray(values, dtype=np.float32), np.float32(np.nan))
    return Grid(ncols=values.shape[1], nrows=values.shape[0], x_origin=0.0,
                y_origin=0.0, cellsize=100.0, units="Mg/ha", values=values)


class TestModelStock:
    # the stocks stage takes a map's mean density and valid-cell count from
    # predict's map summary; the model total is the map's own sum
    def test_constant_map_is_c_times_its_valid_area(self):
        # c Mg/ha on 3 valid cells of 1 ha, one masked: 3c Mg, whatever the
        # masked cell's payload
        c = 25.0
        s = summarize(grid_100m([[c, c], [c, 1e6]], mask=[[True, True], [True, False]]))
        est = model_stock(s.mean, s.n_valid * 1.0, year=2019, allometry="CRM")
        assert est.total_mt == c * 3 * 1.0 / 1e6
        assert est.region_area_ha == 3.0
        assert (est.quantity, est.method, est.allometry, est.year) == ("AGB", "model", "CRM", 2019)

    def test_sum_of_valid_cells_hand_computed(self):
        # mean 20 Mg/ha over 3 valid cells of 1 ha = 60 Mg = 6e-5 Mt; the
        # masked cell adds no area
        s = summarize(grid_100m([[10.0, 20.0], [30.0, 40.0]],
                                mask=[[True, True], [True, False]]))
        est = model_stock(s.mean, s.n_valid * 1.0, 2019, "NSVB")
        assert est.total_mt == pytest.approx(60.0 / 1e6, rel=1e-12)

    def test_all_masked_rejected(self):
        # an all-masked map's summary records no mean
        s = summarize(grid_100m([[1.0]], mask=[[False]]))
        assert s.mean is None
        with pytest.raises(ValueError, match="no valid cells"):
            model_stock(s.mean, 0.0, 2019, "CRM")


class TestDesignStock:
    def plots(self, densities):
        return [PlotRecord(plot_id=f"p{i}", x=0.0, y=0.0, inventory_year=2019,
                           panel=1, forested_fraction=1.0, agb_crm=d,
                           agb_nsvb=d * 1.1)
                for i, d in enumerate(densities)]

    def test_mean_times_area(self):
        est = design_stock(self.plots([100.0, 200.0, 300.0]),
                           region_area_ha=1e6, year=2019, allometry="CRM")
        assert est.total_mt == pytest.approx(200.0 * 1e6 / 1e6)
        assert est.method == "design"

    def test_allometry_selects_column(self):
        est = design_stock(self.plots([100.0]), 1e6, 2019, "NSVB")
        assert est.total_mt == pytest.approx(110.0)

    def test_empty_and_bad_area(self):
        with pytest.raises(ValueError):
            design_stock([], 1e6, 2019, "CRM")
        with pytest.raises(ValueError):
            design_stock(self.plots([1.0]), 0.0, 2019, "CRM")


class TestCarbonFractions:
    def test_crm_constant(self):
        assert CRM_CARBON_FRACTION == 0.5

    def test_weighted_fraction_hand_computed(self):
        rows = [CarbonFractionRow("oak", 0.48, 0.6, 2019),
                CarbonFractionRow("pine", 0.51, 0.4, 2019)]
        assert weighted_carbon_fraction(rows) == pytest.approx(0.6 * 0.48 + 0.4 * 0.51)

    def test_weighted_fraction_bits_do_not_depend_on_row_order(self):
        rows = [CarbonFractionRow(f"s{i}", fraction, share, 2019) for i, (fraction, share)
                in enumerate([(0.47, 0.1), (0.49, 0.2), (0.51, 0.3), (0.48, 0.4)])]
        want = weighted_carbon_fraction(rows)
        assert want == math.fsum(r.agb_share * r.fraction for r in rows)
        for order in itertools.permutations(rows):
            assert weighted_carbon_fraction(order) == want

    def test_shares_must_sum_to_one(self):
        rows = [CarbonFractionRow("oak", 0.48, 0.6, 2019),
                CarbonFractionRow("pine", 0.51, 0.3, 2019)]
        with pytest.raises(ValueError, match="sum"):
            weighted_carbon_fraction(rows)

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            weighted_carbon_fraction([CarbonFractionRow("x", 1.2, 1.0, 2019)])
        with pytest.raises(ValueError):
            weighted_carbon_fraction([])

    def test_loader_round_trip(self, tmp_path):
        p = tmp_path / "frac.csv"
        p.write_text("species_code,fraction,agb_share,year\n"
                     "oak,0.48,0.6,2019\npine,0.51,0.4,2019\n")
        rows = load_carbon_fractions(p)
        assert [r.species_code for r in rows] == ["oak", "pine"]
        assert weighted_carbon_fraction(rows) == pytest.approx(0.492)

    def test_loader_missing_column(self, tmp_path):
        p = tmp_path / "frac.csv"
        p.write_text("species_code,fraction\noak,0.48\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_carbon_fractions(p)

    def test_loader_malformed_value(self, tmp_path):
        p = tmp_path / "frac.csv"
        for bad in ("high", "nan", "inf", "-Infinity"):
            p.write_text(f"species_code,fraction,agb_share,year\noak,{bad},0.6,2019\n")
            with pytest.raises(ValueError, match="frac.csv:2"):
                load_carbon_fractions(p)


class TestConversionAndChange:
    def est(self, mt, year=2019, quantity="AGB", method="model", allometry="CRM"):
        return StockEstimate(quantity=quantity, method=method, allometry=allometry,
                             year=year, total_mt=mt, region_area_ha=1e6)

    def test_agb_to_agc_halves_under_crm(self):
        agc = agb_to_agc(self.est(1063.90), CRM_CARBON_FRACTION)
        assert agc.total_mt == pytest.approx(531.95)
        assert agc.quantity == "AGC"
        assert agc.year == 2019

    def test_conversion_requires_agb(self):
        agc = agb_to_agc(self.est(100.0), 0.5)
        with pytest.raises(ValueError):
            agb_to_agc(agc, 0.5)
        with pytest.raises(ValueError):
            agb_to_agc(self.est(100.0), 1.0)


def synthetic_rescale_grids(n=120, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.uniform(0, 300, size=(n, n)).astype(np.float32)
    elev = rng.uniform(0, 1500, size=(n, n)).astype(np.float32)
    tgt = (9.555 + 1.135 * src.astype(np.float64)
           - 0.023 * elev.astype(np.float64)
           + rng.normal(0, noise, size=(n, n)))
    mk = lambda v: Grid(ncols=n, nrows=n, x_origin=0.0, y_origin=0.0,
                        cellsize=30.0, units="", values=v.astype(np.float32))
    return mk(tgt), mk(src), mk(elev)


class TestRescaleFit:
    def test_recovers_linear_coefficients(self, monkeypatch):
        tgt, src, elev = synthetic_rescale_grids(noise=2.0)
        monkeypatch.setattr(carbon, "RESCALE_SAMPLE_CELLS", 10_000)
        fit = rescale_fit(tgt, src, elev, seed=1)
        assert fit.intercept == pytest.approx(9.555, rel=0.05)
        assert fit.coef_source == pytest.approx(1.135, rel=0.01)
        assert fit.coef_elevation == pytest.approx(-0.023, rel=0.05)
        assert fit.test_rmse == pytest.approx(2.0, rel=0.2)
        assert fit.test_r2 > 0.99
        assert fit.n_train + fit.n_test == 10_000

    def test_noiseless_full_train_has_no_test_metrics(self):
        tgt, src, elev = synthetic_rescale_grids(n=20, noise=0.0)
        fit = rescale_fit(tgt, src, elev, train_frac=1.0, seed=0)
        # float32 storage limits exactness; coefficients still pin down tightly
        assert fit.coef_source == pytest.approx(1.135, rel=1e-3)
        assert fit.n_test == 0
        assert fit.test_rmse is None and fit.test_r2 is None

    def test_seeded_sampling_is_deterministic(self, monkeypatch):
        tgt, src, elev = synthetic_rescale_grids(n=40, noise=5.0)
        monkeypatch.setattr(carbon, "RESCALE_SAMPLE_CELLS", 500)
        a = rescale_fit(tgt, src, elev, seed=7)
        b = rescale_fit(tgt, src, elev, seed=7)
        assert (a.intercept, a.coef_source, a.test_rmse) == \
               (b.intercept, b.coef_source, b.test_rmse)

    def test_test_metrics_match_plain_loops_over_held_out_cells(self):
        # a grid smaller than the sample cap: every joint cell is drawn, in the order
        # of one seeded permutation, and the last fifth is held out
        tgt, src, elev = synthetic_rescale_grids(n=12, noise=3.0)
        mask = np.ones((12, 12), dtype=bool)
        mask[2:4, 5:9] = False
        tgt = tgt.with_values(np.where(mask, tgt.values, np.nan))
        fit = rescale_fit(tgt, src, elev, train_frac=0.8, seed=5)
        flat = np.nonzero(mask.ravel())[0]
        chosen = flat[np.random.default_rng(5).permutation(flat.size)]
        n_train = int(round(0.8 * flat.size))
        assert (fit.n_train, fit.n_test) == (n_train, flat.size - n_train)
        ys, yh = [], []
        for cell in chosen[n_train:].tolist():
            ys.append(float(tgt.values.ravel()[cell]))
            yh.append(fit.intercept + fit.coef_source * float(src.values.ravel()[cell])
                      + fit.coef_elevation * float(elev.values.ravel()[cell]))
        e = [a - b for a, b in zip(ys, yh)]
        n = len(e)
        ybar = sum(ys) / n
        ss_res = sum(v * v for v in e)
        assert fit.test_rmse == pytest.approx(math.sqrt(ss_res / n), rel=1e-9)
        assert fit.test_mae == pytest.approx(sum(abs(v) for v in e) / n, rel=1e-9)
        assert fit.test_me == pytest.approx(sum(e) / n, rel=1e-9, abs=1e-9)
        assert fit.test_r2 == pytest.approx(
            1 - ss_res / sum((v - ybar) ** 2 for v in ys), rel=1e-9)

    @pytest.mark.parametrize("cap", [500, 10_000])  # a sample, and every joint cell
    def test_fit_is_least_squares_on_the_seeded_sample_bit_for_bit(self, monkeypatch, cap):
        # the reference formulation on the same seeded sample of joint cells
        tgt, src, elev = synthetic_rescale_grids(n=40, noise=5.0)
        mask = np.ones((40, 40), dtype=bool)
        mask[5:9, 10:30] = False
        tgt = tgt.with_values(np.where(mask, tgt.values, np.nan))
        monkeypatch.setattr(carbon, "RESCALE_SAMPLE_CELLS", cap)
        fit = rescale_fit(tgt, src, elev, train_frac=0.8, seed=3)
        flat = np.nonzero(mask.ravel())[0]
        rng = np.random.default_rng(3)
        chosen = flat[rng.choice(flat.size, size=cap, replace=False) if flat.size > cap
                      else rng.permutation(flat.size)]
        y, x_src, x_elev = (g.values.ravel()[chosen].astype(np.float64) for g in (tgt, src, elev))
        n_train = int(round(0.8 * chosen.size))
        a, (b_src, b_elev), deficient = least_squares([x_src[:n_train], x_elev[:n_train]],
                                                      y[:n_train])
        yhat = [a + b_src * s + b_elev * e  # the intercept, then each term in turn
                for s, e in zip(x_src[n_train:].tolist(), x_elev[n_train:].tolist())]
        test = error_metrics(PairedSample(y=y[n_train:], yhat=yhat))
        assert not deficient
        assert (fit.intercept, fit.coef_source, fit.coef_elevation) == (a, b_src, b_elev)
        assert (fit.n_train, fit.n_test) == (n_train, chosen.size - n_train)
        assert (fit.test_rmse, fit.test_mae, fit.test_me, fit.test_r2) == \
            (test.rmse, test.mae, test.me, test.r2)

    def test_masked_cells_excluded(self):
        tgt, src, elev = synthetic_rescale_grids(n=30, noise=0.0)
        # corrupt a block of the target but mask it out; fit must not notice
        vals = tgt.values.copy()
        vals[:10, :10] = 9999.0
        mask = np.ones((30, 30), dtype=bool)
        mask[:10, :10] = False
        tgt2 = tgt.with_values(np.where(mask, vals, np.nan))
        fit = rescale_fit(tgt2, src, elev, seed=0)
        assert fit.coef_source == pytest.approx(1.135, rel=1e-3)
        assert fit.n_train + fit.n_test == 800

    def test_collinear_design_rejected(self):
        tgt, src, _ = synthetic_rescale_grids(n=20, noise=1.0)
        const = src.with_values(np.full((20, 20), 7.0, dtype=np.float32))
        with pytest.raises(ValueError, match="condition"):
            rescale_fit(tgt, src, const, seed=0)

    def test_misaligned_rejected(self):
        tgt, src, elev = synthetic_rescale_grids(n=20)
        shifted = Grid(ncols=20, nrows=20, x_origin=15.0, y_origin=0.0,
                       cellsize=30.0, units="", values=elev.values.copy())
        with pytest.raises(ValueError, match="aligned"):
            rescale_fit(tgt, src, shifted)

    def test_too_few_cells_rejected(self):
        tgt, src, elev = synthetic_rescale_grids(n=20)
        mask = np.zeros((20, 20), dtype=bool)
        mask[0, :2] = True
        tgt2 = tgt.with_values(np.where(mask, tgt.values, np.nan))
        with pytest.raises(ValueError, match="at least 3"):
            rescale_fit(tgt2, src, elev)
