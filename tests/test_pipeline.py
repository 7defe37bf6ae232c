"""End-to-end pipeline, configuration, and CLI behavior on a small dataset."""

import csv
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from agbmap import (
    ARTIFACT_VERSION, ASSESSMENT_COLUMNS, ConfigError, EnsembleModel, Grid, PipelineConfig,
    PipelineError, RunManifest, render_report, run, synthesize, validate, write_grid,
)
from agbmap.cli import main
from agbmap.grid import read_grid

SEED = 11
CELLS = 48
PLOTS = 100


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def load_doc(config_path):
    with open(config_path) as f:
        return json.load(f)


def make_config(doc, base_dir, **overrides):
    doc = dict(doc)
    doc.update(overrides)
    return PipelineConfig.from_document(doc, base_dir=base_dir)


@pytest.fixture(scope="session")
def small(tmp_path_factory):
    """One small synthetic dataset with every stage run once."""
    root = tmp_path_factory.mktemp("small")
    cfg_path = Path(synthesize(root, seed=SEED, ncols=CELLS, nrows=CELLS,
                               n_plots=PLOTS))
    config = PipelineConfig.load(cfg_path)
    manifest = run(config)
    return SimpleNamespace(root=root, cfg_path=cfg_path, config=config,
                           manifest=manifest, doc=load_doc(cfg_path))


# -- synthetic dataset ----------------------------------------------------

def test_synth_is_deterministic(tmp_path):
    a = Path(synthesize(tmp_path / "a", seed=5, ncols=32, nrows=32, n_plots=40))
    b = Path(synthesize(tmp_path / "b", seed=5, ncols=32, nrows=32, n_plots=40))
    c = Path(synthesize(tmp_path / "c", seed=6, ncols=32, nrows=32, n_plots=40))
    for rel in ("inputs/plots.csv", "inputs/trees.csv",
                "inputs/landcover_2005.bin"):
        assert (a.parent / rel).read_bytes() == (b.parent / rel).read_bytes()
    assert (a.parent / "inputs/plots.csv").read_bytes() != \
        (c.parent / "inputs/plots.csv").read_bytes()


def test_synth_config_passes_validation(small):
    assert validate(small.config) == []


def test_synth_fraction_shares_sum_to_one(small):
    rows = read_rows(small.root / "inputs" / "carbon_fractions.csv")
    by_year = {}
    for r in rows:
        by_year.setdefault(r["year"], 0.0)
        by_year[r["year"]] += float(r["agb_share"])
    assert by_year
    for total in by_year.values():
        assert abs(total - 1.0) < 1e-9


def test_synth_landcover_covers_forest_and_removed_classes(small):
    lc = read_grid(small.root / "inputs" / "landcover_2005.bin")
    present = set(np.unique(lc.values[lc.mask]).astype(int).tolist())
    assert present <= set(range(1, 9))
    assert present & {3, 6, 7}, "no forest classes"
    assert present & set(int(c) for c in small.config.removed_landcover_classes)


# -- configuration loading and validation ---------------------------------

def test_config_missing_key_rejected(small):
    doc = dict(small.doc)
    del doc["plots"]
    with pytest.raises(ConfigError, match="missing"):
        PipelineConfig.from_document(doc, base_dir=small.root)


def test_config_unknown_key_rejected(small):
    with pytest.raises(ConfigError, match="unknown"):
        make_config(small.doc, small.root, typo_key=1)


def test_config_boolean_seed_rejected(small):
    with pytest.raises(ConfigError, match="seed"):
        make_config(small.doc, small.root, seed=True)


def test_config_hash_tracks_content(small):
    again = PipelineConfig.load(small.cfg_path)
    assert again.config_hash == small.config.config_hash
    other = make_config(small.doc, small.root, seed=SEED + 1)
    assert other.config_hash != small.config.config_hash


def test_validate_reports_missing_file(small):
    config = make_config(small.doc, small.root, plots="no/such/file.csv")
    findings = validate(config)
    assert any("missing file" in f and "plots" in f for f in findings)


def test_validate_reports_misaligned_raster(small, tmp_path):
    ref = read_grid(small.config.elevation)
    off = Grid(ncols=ref.ncols, nrows=ref.nrows, x_origin=ref.x_origin,
               y_origin=ref.y_origin, cellsize=ref.cellsize + 1.0,
               units=ref.units, values=np.asarray(ref.values).copy())
    bad_path = tmp_path / "off.bin"
    write_grid(off, bad_path)
    doc = json.loads(json.dumps(small.doc))
    doc["years"]["2005"]["predictors"]["brightness"] = str(bad_path)
    config = PipelineConfig.from_document(doc, base_dir=small.root)
    findings = validate(config)
    assert any("alignment" in f and "brightness" in f for f in findings)


def test_validate_reports_domain_problems(small):
    config = make_config(small.doc, small.root, holdout_panel=9,
                         train_frac=1.5)
    findings = validate(config)
    assert any("holdout_panel" in f for f in findings)
    assert any("train_frac" in f for f in findings)
    config = make_config(small.doc, small.root, scales_km=[])
    assert any("scales_km" in f for f in validate(config))
    # bool is an int subclass and True == 1, a valid panel
    config = make_config(small.doc, small.root, holdout_panel=True)
    assert any("holdout_panel" in f for f in validate(config))
    # each is a finding, not an exception here or a failure in a late stage
    for key, values in (("train_frac", ["abc", None, True]),
                        ("region_area_ha", ["x", 0, True]),
                        ("rescale_sample", [0, 2, -5, 1.5, 3.0, "abc", True, None]),
                        ("scales_km", [[True, 5], [5, False]]),
                        ("removed_landcover_classes", [[True], [3, False]])):
        for value in values:
            findings = validate(make_config(small.doc, small.root, **{key: value}))
            assert any(key in f for f in findings), (key, value)
    for grids in ({"knn": [{"k": True}]}, {"bagged_trees": [{"trees": True}]},
                  {"knn": 5}, {"knn": [5]}, {"knn": [[1]]}):
        findings = validate(make_config(small.doc, small.root, learner_grids=grids))
        assert any("learner grid" in f for f in findings), grids
    assert validate(make_config(small.doc, small.root, rescale_sample=3)) == []


# -- run orchestration ----------------------------------------------------

def test_run_unknown_stage_rejected(small):
    with pytest.raises(ValueError, match="unknown stages"):
        run(small.config, {"extract", "bogus"})


def test_run_requires_upstream_artifacts(small, tmp_path):
    config = make_config(small.doc, small.root, output_dir=str(tmp_path / "o"))
    with pytest.raises(PipelineError, match="missing upstream artifact"):
        run(config, {"extract"})


def test_run_rejects_stale_upstream_hash(small, tmp_path):
    out = str(tmp_path / "o")
    run(make_config(small.doc, small.root, output_dir=out), {"ingest"})
    reseeded = make_config(small.doc, small.root, output_dir=out,
                           seed=SEED + 1)
    with pytest.raises(PipelineError, match="config hash mismatch"):
        run(reseeded, {"extract"})


def test_run_detects_deleted_upstream_file(small, tmp_path):
    out = tmp_path / "o"
    config = make_config(small.doc, small.root, output_dir=str(out))
    run(config, {"ingest"})
    (out / "ingest" / "model_dev.csv").unlink()
    with pytest.raises(PipelineError, match="absent on disk"):
        run(config, {"extract"})


def test_run_refuses_upstream_from_other_artifact_version(small, tmp_path):
    out = tmp_path / "o"
    config = make_config(small.doc, small.root, output_dir=str(out))
    run(config, {"ingest"})
    manifest_path = out / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["artifact_version"] += 1
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(PipelineError, match="missing upstream artifact"):
        run(config, {"extract"})


def test_report_refuses_manifest_from_other_artifact_version(small, tmp_path):
    out = tmp_path / "o"
    config = make_config(small.doc, small.root, output_dir=str(out))
    run(config, {"ingest"})
    manifest_path = out / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["artifact_version"] = ARTIFACT_VERSION - 1
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(PipelineError, match=f"version {ARTIFACT_VERSION - 1}.*"
                                            f"version {ARTIFACT_VERSION}"):
        render_report(config)


def test_rerun_reproduces_identical_bytes(small):
    plots = small.root / "run" / "ingest" / "plots.csv"
    amap = small.root / "run" / "predict" / "agb_2005_CRM.bin"
    before = (plots.read_bytes(), amap.read_bytes())
    run(small.config, {"ingest", "predict"})
    assert (plots.read_bytes(), amap.read_bytes()) == before


def test_requested_stage_reuses_cached_upstream(small):
    amap = small.root / "run" / "predict" / "agb_2019_NSVB.bin"
    stamp = amap.stat().st_mtime_ns
    manifest = run(small.config, {"diff"})
    assert amap.stat().st_mtime_ns == stamp, "predict should not rerun"
    assert "diff" in manifest.stages
    assert (small.root / "run" / "diff" / "change_diff.bin").is_file()


def copy_of_small(small, root):
    """The dataset and run of `small` under `root`; its paths are relative to
    the configuration, so the copy has the same configuration hash."""
    shutil.copytree(small.root, root)
    config = PipelineConfig.load(root / "config.json")
    assert config.config_hash == small.config.config_hash
    return config


def test_rerun_with_fewer_years_leaves_no_stale_outputs(small, tmp_path):
    root = tmp_path / "d"
    copy_of_small(small, root)
    for name, column in (("plots.csv", "inventory_year"),
                         ("trees.csv", "inventory_year"),
                         ("carbon_fractions.csv", "year")):
        with open(root / "inputs" / name, newline="") as f:
            rows = list(csv.reader(f))
        at = rows[0].index(column)
        with open(root / "inputs" / name, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(
                [rows[0]] + [r for r in rows[1:] if r[at] != "2005"])
    doc = json.loads(json.dumps(small.doc))
    del doc["years"]["2005"]
    config = PipelineConfig.from_document(doc, base_dir=root)

    manifest = run(config)
    for stage, rec in manifest.stages.items():
        on_disk = sorted(p.relative_to(root / "run").as_posix()
                         for p in (root / "run" / stage).rglob("*") if p.is_file())
        assert rec.outputs == on_disk, stage
    assert manifest.stages["agree"].outputs == ["agree/agreement_2019.csv",
                                                "agree/summary.json"]
    assert manifest.stages["diff"].outputs == ["diff/agb_diff_2019.bin",
                                               "diff/pctrank_diff_2019.bin",
                                               "diff/summary.json"]
    text = render_report(config)
    assert "two-map agreement, 2019" in text and "agb_diff_2019" in text
    assert "agreement, 2005" not in text
    assert "_2005" not in text and "change_" not in text


def test_failed_stage_leaves_no_record(small, tmp_path, monkeypatch):
    import agbmap.pipeline

    root = tmp_path / "d"
    config = copy_of_small(small, root)

    def failing(grid):
        raise RuntimeError("percent rank failed")

    monkeypatch.setattr(agbmap.pipeline, "percent_rank", failing)
    with pytest.raises(RuntimeError, match="percent rank failed"):
        run(config, {"predict"})
    assert (root / "run" / "predict" / "agb_2005_CRM.bin").is_file()
    assert "predict" not in RunManifest.load(root / "run").stages
    with pytest.raises(PipelineError, match="missing upstream artifact"):
        run(config, {"diff"})


# -- stage outputs --------------------------------------------------------

def test_ingest_outputs(small):
    rows = read_rows(small.root / "run" / "ingest" / "plots.csv")
    assert set(rows[0]) == {"plot_id", "x_m", "y_m", "inventory_year", "panel",
                            "forested_fraction", "max_canopy_height_m",
                            "agb_crm", "agb_nsvb", "role"}
    roles = {r["role"] for r in rows}
    assert roles == {"development", "assessment"}
    holdout = small.config.holdout_panel
    for r in rows:
        assert (r["role"] == "assessment") == (int(r["panel"]) == holdout)
    dev_rows = read_rows(small.root / "run" / "ingest" / "model_dev.csv")
    summary = json.loads((small.root / "run" / "ingest" / "summary.json").read_text())
    assert summary["n_model_dev"] == len(dev_rows)
    assert summary["n_model_dev"] <= summary["n_development"]
    assert summary["n_assessment"] == sum(r["role"] == "assessment" for r in rows)


def test_extract_outputs(small):
    rows = read_rows(small.root / "run" / "extract" / "features.csv")
    names = small.config.predictor_names()
    assert list(rows[0]) == ["plot_id", "inventory_year", "agb_crm",
                             "agb_nsvb"] + names
    dev_ids = {r["plot_id"] for r in
               read_rows(small.root / "run" / "ingest" / "model_dev.csv")}
    for r in rows:
        assert r["plot_id"] in dev_ids
        for name in names:
            assert np.isfinite(float(r[name]))


def test_fit_outputs(small):
    for allometry in ("CRM", "NSVB"):
        path = small.root / "run" / "fit" / f"model_{allometry}.json"
        model = EnsembleModel.from_json(path.read_text())
        assert model.ybar_train > 0
    rows = read_rows(small.root / "run" / "fit" / "test_metrics.csv")
    assert [r["allometry"] for r in rows] == ["CRM", "NSVB"]
    for r in rows:
        assert int(r["n"]) > 0
        assert float(r["rmse"]) > 0


def test_predict_outputs(small):
    lc = read_grid(small.config.years[2005].landcover)
    removed = np.isin(lc.values, list(small.config.removed_landcover_classes))
    for allometry in ("CRM", "NSVB"):
        agb = read_grid(small.root / "run" / "predict" / f"agb_2005_{allometry}.bin")
        assert agb.units == "Mg/ha"
        assert not np.any(agb.mask & removed), "removed classes must be masked"
        assert float(np.min(agb.values[agb.mask])) >= 0.0
        pr = read_grid(small.root / "run" / "predict" / f"pctrank_2005_{allometry}.bin")
        vals = pr.values[pr.mask]
        assert float(np.min(vals)) >= 0.0 and float(np.max(vals)) <= 100.0
        assert np.array_equal(pr.mask, agb.mask)


def test_assess_outputs(small):
    summary = json.loads((small.root / "run" / "assess" / "summary.json").read_text())
    for allometry in ("CRM", "NSVB"):
        rows = read_rows(small.root / "run" / "assess" / f"assessment_{allometry}.csv")
        assert list(rows[0]) == list(ASSESSMENT_COLUMNS)
        scales = [float(r["scale_km"]) for r in rows]
        assert scales[0] == 1.0
        assert scales == sorted(scales)
        assert int(rows[0]["n"]) >= 2
        pairs = read_rows(small.root / "run" / "assess" / f"pairs_{allometry}.csv")
        assert len(pairs) == summary[allometry]["n_pairs"]
        ks = summary[allometry]["ks_reference_vs_predicted"]
        assert 0.0 <= ks <= 1.0


def test_agree_outputs(small):
    for year in (2005, 2019):
        rows = read_rows(small.root / "run" / "agree" / f"agreement_{year}.csv")
        assert list(rows[0]) == ["scale_km", "n", "ac", "ac_systematic",
                                 "ac_unsystematic", "gmfr_intercept",
                                 "gmfr_slope"]
        assert float(rows[0]["scale_km"]) == 1.0
        for r in rows:
            if r["ac"] != "":
                assert float(r["ac"]) <= 1.0 + 1e-12


def nested_family(kind, hp):
    """Specs that nest: the same kind and arguments besides `trees` and, for
    bagged trees that grow any, `max_depth` (defaults filled in)."""
    hp = dict(hp)
    hp.pop("trees", None)
    if kind == "bagged_trees":
        hp.setdefault("max_features", "sqrt")
        if hp.get("max_depth") != 0:
            hp.pop("max_depth", None)
    if kind == "boosted_trees":
        hp.setdefault("max_depth", 3)
    return kind, json.dumps(hp, sort_keys=True)


def fit_cv_calls(small, tmp_path, monkeypatch, doc):
    """Run fit on `doc`; return its config and the family of each cv_predict call."""
    import agbmap.learners
    import agbmap.pipeline

    config = make_config(doc, small.root, output_dir=str(tmp_path / "o"))
    run(config, ["ingest", "extract"])
    calls = []
    original = agbmap.learners.cv_predict

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(agbmap.learners, "cv_predict", counting)
    monkeypatch.setattr(agbmap.pipeline, "cv_predict", counting, raising=False)
    run(config, ["fit"])
    return config, calls


def test_fit_cross_validates_each_family_once(small, tmp_path, monkeypatch):
    # the winner's out-of-fold column comes from model selection, not from a
    # second cross-validation
    config, calls = fit_cv_calls(small, tmp_path, monkeypatch, small.doc)
    families = {nested_family(s.kind, s.hp) for grid in config.spec_grids().values()
                for s in grid}
    assert len(calls) == 2 * len(families)


def test_fit_cross_validates_every_spec_within_one_family_call(small, tmp_path, monkeypatch):
    grids = {
        "knn": [{"k": 3}, {"k": 5}],
        "bagged_trees": [{"trees": 4, "max_depth": 2}, {"trees": 3, "max_depth": None},
                         {"trees": 5, "max_depth": 0}, {"trees": 2, "max_features": None}],
        "boosted_trees": [{"trees": 6, "learning_rate": 0.1},
                          {"trees": 2, "learning_rate": 0.1, "max_depth": 3},
                          {"trees": 4, "learning_rate": 0.3}],
    }
    config, calls = fit_cv_calls(small, tmp_path, monkeypatch,
                                 {**small.doc, "learner_grids": grids})
    specs = [s for grid in config.spec_grids().values() for s in grid]
    assert len(calls) == 2 * 7
    assert all(len({nested_family(s.kind, s.hp) for s in family}) == 1 for family in calls)
    assert sorted(map(repr, (s for family in calls for s in family))) == \
        sorted(map(repr, 2 * specs))


def test_agree_survives_joint_cells_of_zero_extent(small, tmp_path):
    config = make_config(small.doc, small.root, output_dir=str(tmp_path / "o"))
    run(config, ["ingest", "extract", "fit", "predict"])
    crm_path = tmp_path / "o" / "predict" / "agb_2005_CRM.bin"
    crm = read_grid(crm_path)
    nsvb = read_grid(tmp_path / "o" / "predict" / "agb_2005_NSVB.bin")
    joint = crm.mask & nsvb.mask
    col = int(np.argmax(joint.sum(axis=0)))
    one_column = np.zeros_like(joint)
    one_column[:, col] = True
    one_cell = np.zeros_like(joint)
    one_cell[int(np.flatnonzero(joint[:, col])[0]), col] = True
    metrics = ["ac", "ac_systematic", "ac_unsystematic", "gmfr_intercept", "gmfr_slope"]
    for keep in (one_column, one_cell):
        write_grid(crm.with_values(crm.values, crm.mask & keep, units=crm.units), crm_path)
        run(config, ["agree"])
        rows = read_rows(tmp_path / "o" / "agree" / "agreement_2005.csv")
        assert [float(r["scale_km"]) for r in rows] == [1.0] + [
            float(s) for s in config.scales_km if s != 1]
        n_joint = int((joint & keep).sum())
        assert int(rows[0]["n"]) == n_joint
        n_hexes = [int(r["n"]) for r in rows[1:]]
        assert all(1 <= n <= n_joint for n in n_hexes)
        assert n_hexes == sorted(n_hexes, reverse=True)
        for r in rows:
            if int(r["n"]) < 2:
                assert all(r[m] == "" for m in metrics)
    # the single cell: one hex at every scale, no metric anywhere
    assert n_joint == 1 and n_hexes == [1] * len(n_hexes)


def test_diff_change_invariant(small):
    pred = small.root / "run" / "predict"
    grids = {f"{y}_{a}": read_grid(pred / f"agb_{y}_{a}.bin")
             for y in (2005, 2019) for a in ("CRM", "NSVB")}
    stored = read_grid(small.root / "run" / "diff" / "change_diff.bin")
    joint = np.ones_like(stored.mask)
    for g in grids.values():
        joint &= g.mask
    assert np.array_equal(stored.mask, joint)
    expect = ((grids["2019_NSVB"].values.astype(np.float64)
               - grids["2005_NSVB"].values)
              - (grids["2019_CRM"].values.astype(np.float64)
                 - grids["2005_CRM"].values))
    got = stored.values.astype(np.float64)
    assert np.max(np.abs(got[joint] - expect[joint])) < 1e-3


def test_stocks_outputs(small):
    rows = read_rows(small.root / "run" / "stocks" / "stocks.csv")
    assert {r["quantity"] for r in rows} == {"AGB", "AGC"}
    assert {r["method"] for r in rows} == {"design", "model"}
    model_bases = {r["area_basis"] for r in rows if r["method"] == "model"}
    assert model_bases == {"extent", "valid"}
    assert any(r["year"] == "2019-2005" for r in rows)
    # constant CRM carbon fraction halves the AGB total exactly
    by_key = {(r["quantity"], r["method"], r["allometry"], r["area_basis"],
               r["year"]): float(r["total_mt"]) for r in rows}
    for (q, m, a, basis, y), v in by_key.items():
        if q == "AGB" and a == "CRM":
            assert by_key[("AGC", m, a, basis, y)] == pytest.approx(0.5 * v,
                                                                    rel=1e-12)
    dm = read_rows(small.root / "run" / "stocks" / "design_minus_model.csv")
    for r in dm:
        diff = float(r["design_mt"]) - float(r["model_mt"])
        assert float(r["design_minus_model_mt"]) == pytest.approx(diff, abs=1e-9)
    meta = json.loads((small.root / "run" / "stocks" / "stocks.json").read_text())
    assert meta["model_basis_for_comparison"] == "extent"
    assert "post-stratification" in meta["note"]


def test_rescale_outputs(small):
    rows = read_rows(small.root / "run" / "rescale" / "rescale.csv")
    assert [int(r["year"]) for r in rows] == [2005, 2019]
    for r in rows:
        assert 0.8 < float(r["coef_source"]) < 1.4
        assert float(r["test_r2"]) > 0.8


# -- command line ---------------------------------------------------------

def test_cli_synth_then_ingest(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out), "--seed", "3",
                 "--cells", "32", "--plots", "40"]) == 0
    assert main(["ingest", "--config", str(out / "config.json")]) == 0
    stdout = capsys.readouterr().out
    assert "completed stages: ingest" in stdout
    assert "configuration hash" in stdout


def test_cli_unreadable_raster_is_exit_1(small, tmp_path, capsys):
    # a mistyped header field is a validation finding, not a crash
    shutil.copytree(small.root / "inputs", tmp_path / "inputs")
    elevation = tmp_path / "inputs" / "elevation.bin"
    header, payload = elevation.read_bytes().split(b"\n", 1)
    elevation.write_bytes(json.dumps({**json.loads(header), "x_origin": None}).encode()
                          + b"\n" + payload)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small.doc))
    assert main(["ingest", "--config", str(config)]) == 1
    assert "unreadable raster" in capsys.readouterr().err


def test_cli_validation_failure_is_exit_1(small, tmp_path, capsys):
    doc = dict(small.doc)
    doc["plots"] = "missing.csv"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["ingest", "--config", str(bad)]) == 1
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, reported", [
    ("scales_km", 5, "scales_km"),
    ("removed_landcover_classes", 3, "removed_landcover_classes"),
    ("scales_km", "5", "scales_km"),
    ("scales_km", [True, 5], "scales_km"),
    ("learner_grids", {"knn": 5}, "learner grid"),
])
def test_cli_malformed_value_is_exit_1(small, tmp_path, capsys, key, value, reported):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**small.doc, key: value}))
    assert main(["ingest", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and reported in err


def test_cli_unknown_extra_stage_is_exit_1(small, capsys):
    assert main(["ingest", "--config", str(small.cfg_path),
                 "--stages", "bogus"]) == 1
    assert "unknown stage" in capsys.readouterr().err


def test_cli_missing_upstream_is_exit_2(small, tmp_path, capsys):
    assert main(["fit", "--config", str(small.cfg_path),
                 "--out", str(tmp_path / "fresh")]) == 2
    assert "missing upstream artifact" in capsys.readouterr().err


def test_cli_seed_override_changes_hash(small, tmp_path, capsys):
    assert main(["ingest", "--config", str(small.cfg_path),
                 "--seed", "99", "--out", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    line = [l for l in stdout.splitlines() if "configuration hash" in l][0]
    assert line.split()[-1] != small.config.config_hash


def test_cli_report(small, capsys):
    assert main(["report", "--config", str(small.cfg_path)]) == 0
    stdout = capsys.readouterr().out
    assert "stocks and stock changes" in stdout
    assert "map assessment, CRM" in stdout
    assert small.config.config_hash in stdout


def test_cli_report_cap_is_display_only(small, capsys):
    before = (small.root / "run" / "diff" / "change_diff.bin").read_bytes()
    assert main(["report", "--config", str(small.cfg_path),
                 "--cap", "5"]) == 0
    stdout = capsys.readouterr().out
    assert "display cap +/- 5" in stdout
    after = (small.root / "run" / "diff" / "change_diff.bin").read_bytes()
    assert after == before


def test_cli_report_without_run_is_exit_2(small, tmp_path, capsys):
    assert main(["report", "--config", str(small.cfg_path),
                 "--out", str(tmp_path / "empty")]) == 2
    assert "nothing to report" in capsys.readouterr().err


def test_report_text_matches_manifest(small):
    text = render_report(small.config)
    for stage in small.manifest.stages:
        assert stage in text
