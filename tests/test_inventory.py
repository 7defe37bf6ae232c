import math

import numpy as np
import pytest

from agbmap.inventory import (
    MIN_DBH_CM, PLOT_AREA_HA, PLOT_AREA_M2, PlotRecord, TreeRecord,
    aggregate_plot_agb, attach_densities, filter_model_dev,
    load_plots, load_trees, select_single_inventory, split_by_panel,
)


def tree(plot_id="p1", dbh=30.0, crm_kg=100.0, nsvb_kg=110.0, year=2019, subplot=1):
    return TreeRecord(plot_id=plot_id, subplot=subplot, species_code="318",
                      dbh_cm=dbh, agb_crm_kg=crm_kg, agb_nsvb_kg=nsvb_kg,
                      inventory_year=year)


def plot(pid="p1", year=2019, panel=1, ff=1.0, height=None, x=0.0, y=0.0):
    return PlotRecord(plot_id=pid, x=x, y=y, inventory_year=year, panel=panel,
                      forested_fraction=ff, max_canopy_height_m=height)


class TestPlotGeometryConstants:
    def test_plot_area_is_four_circles(self):
        assert PLOT_AREA_M2 == pytest.approx(4 * math.pi * 7.32 ** 2, rel=1e-15)
        assert PLOT_AREA_HA == pytest.approx(PLOT_AREA_M2 / 1e4, rel=1e-15)


class TestAggregation:
    def test_kg_equal_to_area_gives_ten_mg_per_ha(self):
        # total kg numerically equal to the plot area in m^2 -> 10 Mg/ha
        trees = [tree(crm_kg=PLOT_AREA_M2 / 2, nsvb_kg=PLOT_AREA_M2 / 2),
                 tree(crm_kg=PLOT_AREA_M2 / 2, nsvb_kg=PLOT_AREA_M2 / 2)]
        out = aggregate_plot_agb(trees, "CRM")
        assert out["p1"] == pytest.approx(10.0, rel=1e-12)

    def test_single_tree_density(self):
        out = aggregate_plot_agb([tree(crm_kg=PLOT_AREA_M2 / 10)], "CRM")
        assert out["p1"] == pytest.approx(1.0, rel=1e-12)

    def test_oracle_direct_sum(self):
        rng = np.random.default_rng(5)
        trees = [tree(plot_id=f"p{i % 3}", crm_kg=float(rng.uniform(1, 500)),
                      nsvb_kg=float(rng.uniform(1, 500)))
                 for i in range(40)]
        for allom, pick in (("CRM", lambda t: t.agb_crm_kg),
                            ("NSVB", lambda t: t.agb_nsvb_kg)):
            got = aggregate_plot_agb(trees, allom)
            for pid in ("p0", "p1", "p2"):
                total = sum(pick(t) for t in trees if t.plot_id == pid)
                assert got[pid] == pytest.approx(total / PLOT_AREA_HA / 1000.0, rel=1e-12)

    def test_treeless_plot_reports_zero(self):
        out = aggregate_plot_agb([], "CRM", plot_ids=["empty"])
        assert out == {"empty": 0.0}

    def test_unknown_allometry_rejected(self):
        with pytest.raises(ValueError):
            aggregate_plot_agb([], "FIA")

    def test_attach_densities(self):
        plots = [plot("a"), plot("b")]
        out = attach_densities(plots, crm={"a": 12.5}, nsvb={"a": 13.0, "b": 1.0})
        assert out[0].agb_crm == 12.5 and out[0].agb_nsvb == 13.0
        assert out[1].agb_crm == 0.0 and out[1].agb_nsvb == 1.0
        assert out[0].agb("CRM") == 12.5 and out[0].agb("NSVB") == 13.0


class TestLoaders:
    def test_load_trees_drops_subthreshold_with_warning(self, tmp_path, caplog):
        p = tmp_path / "trees.csv"
        p.write_text(
            "plot_id,subplot,species_code,dbh_cm,agb_crm_kg,agb_nsvb_kg,inventory_year\n"
            "p1,1,318,12.7,100,105,2019\n"
            "p1,2,318,12.6,90,95,2019\n"
        )
        with caplog.at_level("WARNING"):
            trees = load_trees(p)
        assert len(trees) == 1
        assert trees[0].dbh_cm == MIN_DBH_CM
        assert any("12.7" in r.message for r in caplog.records)

    def test_load_trees_malformed_row(self, tmp_path):
        p = tmp_path / "trees.csv"
        for bad in ("not_a_number", "nan", "inf", "-Infinity"):
            p.write_text(
                "plot_id,subplot,species_code,dbh_cm,agb_crm_kg,agb_nsvb_kg,inventory_year\n"
                "p1,1,318,30,100,105,2019\n"
                f"p1,1,318,30,{bad},105,2019\n"
            )
            with pytest.raises(ValueError, match="malformed tree row at .*trees.csv:3"):
                load_trees(p)

    def test_load_trees_missing_column(self, tmp_path):
        p = tmp_path / "trees.csv"
        p.write_text("plot_id,dbh_cm\np1,30\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_trees(p)

    def test_load_plots_blank_height_is_none(self, tmp_path):
        p = tmp_path / "plots.csv"
        p.write_text(
            "plot_id,x_m,y_m,inventory_year,panel,forested_fraction,max_canopy_height_m\n"
            "p1,100.0,200.0,2019,3,1.0,\n"
            "p2,50.0,60.0,2005,1,0.0,0.5\n"
        )
        plots = load_plots(p)
        assert plots[0].max_canopy_height_m is None
        assert plots[1].max_canopy_height_m == 0.5
        assert plots[0].panel == 3

    def test_load_plots_refuses_a_plot_twice_in_one_year(self, tmp_path):
        p = tmp_path / "plots.csv"
        header = "plot_id,x_m,y_m,inventory_year,panel,forested_fraction,max_canopy_height_m\n"
        p.write_text(header + "p1,0,0,2005,1,1.0,\np1,0,0,2019,1,1.0,\n")
        assert [r.inventory_year for r in load_plots(p)] == [2005, 2019]
        p.write_text(header + "p1,0,0,2019,1,1.0,\np2,0,0,2019,1,1.0,\np1,50,9,2019,2,0.5,\n")
        with pytest.raises(ValueError, match="plots.csv lists plot 'p1' twice in inventory "
                                             "year 2019"):
            load_plots(p)

    def test_load_plots_bad_fraction(self, tmp_path):
        p = tmp_path / "plots.csv"
        p.write_text(
            "plot_id,x_m,y_m,inventory_year,panel,forested_fraction,max_canopy_height_m\n"
            "p1,0,0,2019,1,1.5,\n"
        )
        with pytest.raises(ValueError):
            load_plots(p)

    def test_load_plots_non_finite_coordinate(self, tmp_path):
        p = tmp_path / "plots.csv"
        for bad in ("nan", "inf", "-Infinity"):
            p.write_text(
                "plot_id,x_m,y_m,inventory_year,panel,forested_fraction,max_canopy_height_m\n"
                f"p1,{bad},0,2019,1,1.0,\n"
            )
            with pytest.raises(ValueError, match="plots.csv:2: x_m"):
                load_plots(p)


class TestSingleInventory:
    def test_single_measurement_passes_through(self):
        out = select_single_inventory([plot("a", year=2019)], seed=0)
        assert len(out) == 1 and out[0].inventory_year == 2019

    def test_deterministic_for_a_seed(self):
        plots = [plot("a", year=y) for y in (2005, 2012, 2019)] + [plot("b", year=2019)]
        a = select_single_inventory(plots, seed=42)
        b = select_single_inventory(plots, seed=42)
        assert [(p.plot_id, p.inventory_year) for p in a] == \
               [(p.plot_id, p.inventory_year) for p in b]

    def test_selection_is_roughly_uniform(self):
        plots = [plot("a", year=y) for y in (2005, 2012, 2019)]
        counts = {2005: 0, 2012: 0, 2019: 0}
        for seed in range(9000):
            chosen = select_single_inventory(plots, seed=seed)[0]
            counts[chosen.inventory_year] += 1
        for year, c in counts.items():
            assert abs(c / 9000 - 1 / 3) < 0.03, (year, c)


class TestPanelSplit:
    def test_holdout_panel(self):
        plots = [plot(f"p{i}", panel=1 + i % 5) for i in range(20)]
        part = split_by_panel(plots, holdout_panel=3, seed=0)
        assert part.holdout_panel == 3
        assert all(p.panel == 3 for p in part.assessment)
        assert all(p.panel != 3 for p in part.dev)
        assert len(part.dev) + len(part.assessment) == 20

    def test_random_holdout_is_seeded(self):
        plots = [plot(f"p{i}", panel=1 + i % 5) for i in range(20)]
        a = split_by_panel(plots, "random", seed=7)
        b = split_by_panel(plots, "random", seed=7)
        assert a.holdout_panel == b.holdout_panel

    def test_missing_panel_rejected(self):
        plots = [plot("p1", panel=1)]
        with pytest.raises(ValueError):
            split_by_panel(plots, holdout_panel=9, seed=0)

    def test_single_panel_rejected(self):
        plots = [plot(f"p{i}", panel=2) for i in range(4)]
        with pytest.raises(ValueError):
            split_by_panel(plots, holdout_panel=2, seed=0)


class TestModelDevFilter:
    def test_filter_rules(self, caplog):
        plots = [
            plot("forested", ff=1.0),
            plot("open_short", ff=0.0, height=0.5),
            plot("open_tall", ff=0.0, height=4.0),
            plot("open_unknown", ff=0.0, height=None),
            plot("mixed", ff=0.5, height=None),
        ]
        plots = attach_densities(plots, crm={p.plot_id: 50.0 for p in plots},
                                 nsvb={p.plot_id: 55.0 for p in plots})
        with caplog.at_level("WARNING"):
            kept = filter_model_dev(plots)
        ids = [p.plot_id for p in kept]
        assert ids == ["forested", "open_short"]
        by_id = {p.plot_id: p for p in kept}
        assert by_id["forested"].agb_crm == 50.0
        # a retained nonforested plot carries zero biomass by definition
        assert by_id["open_short"].agb_crm == 0.0
        assert by_id["open_short"].agb_nsvb == 0.0
        assert any("removed 3 plots" in r.message for r in caplog.records)
