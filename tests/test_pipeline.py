"""End-to-end pipeline, configuration, and CLI behavior on a small dataset."""

import csv
import fnmatch
import functools
import hashlib
import json
import random
import re
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agbmap import (
    ARTIFACT_VERSION, ASSESSMENT_COLUMNS, DEFAULT_GRIDS, STAGE_ORDER, ConfigError, EnsembleModel,
    Grid, PipelineConfig, PipelineError, RunManifest, render_report, run, synthesize, validate,
    write_grid,
)
from agbmap.carbon import load_carbon_fractions, weighted_carbon_fraction
from agbmap.cli import main
from agbmap.grid import GEOMETRY, read_grid

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


def _meshgrid_smooth_field(rng, xx, yy, n_waves=6, wavelengths=(6e3, 45e3)):
    """The plane-wave field evaluated on meshgrid coordinates (xx, yy)."""
    f = np.zeros_like(xx)
    for _ in range(n_waves):
        wl = rng.uniform(*wavelengths)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        k = 2.0 * np.pi / wl
        f += rng.uniform(0.5, 1.0) * np.sin(k * (np.cos(theta) * xx
                                                 + np.sin(theta) * yy) + phase)
    f -= f.mean()
    sd = f.std()
    return f / sd if sd > 0 else f


@pytest.mark.parametrize("n_waves", [3, 6])
def test_smooth_field_from_the_axes_matches_the_meshgrid_form(n_waves):
    from agbmap.synth import _smooth_field

    ncols, nrows, cellsize = 37, 23, 250.0
    xs = (np.arange(ncols) + 0.5) * cellsize
    ys = (nrows - np.arange(nrows) - 0.5) * cellsize
    field = _smooth_field(np.random.default_rng(4), xs, ys, n_waves=n_waves)
    assert field.shape == (nrows, ncols)
    xx, yy = np.meshgrid(xs, ys)
    assert np.array_equal(field, _meshgrid_smooth_field(np.random.default_rng(4), xx, yy,
                                                        n_waves=n_waves))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("band_rows", [1, 2, 7])
def test_smooth_field_is_the_same_in_bands_of_any_rows_on_any_workers(monkeypatch, band_rows,
                                                                       workers):
    from agbmap import grid, synth

    ncols, nrows, cellsize = 37, 23, 250.0
    monkeypatch.setattr(grid, "ROW_BLOCK_CELLS", band_rows * ncols)
    monkeypatch.setattr(grid, "_WORKERS", workers)
    xs = (np.arange(ncols) + 0.5) * cellsize
    ys = (nrows - np.arange(nrows) - 0.5) * cellsize
    xx, yy = np.meshgrid(xs, ys)
    assert np.array_equal(synth._smooth_field(np.random.default_rng(4), xs, ys),
                          _meshgrid_smooth_field(np.random.default_rng(4), xx, yy))


def test_synth_writes_the_same_bytes_in_one_row_bands(tmp_path, monkeypatch):
    from agbmap import grid

    def files(root):
        synthesize(root, seed=2, ncols=37, nrows=23, n_plots=20)
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.is_file()}

    whole = files(tmp_path / "whole")  # 851 cells: one band at the default size
    monkeypatch.setattr(grid, "ROW_BLOCK_CELLS", 1)
    banded = files(tmp_path / "banded")
    assert len(whole) == 19 and banded == whole


@pytest.mark.parametrize("piece", [1, 7, 4096])
def test_normal_draws_in_pieces_continue_one_stream(piece):
    # synth draws each predictor layer's noise band by band and relies on this
    n = 3 * 4096 + 5
    one = np.random.default_rng(9).normal(0.0, 0.3, n)
    rng = np.random.default_rng(9)
    pieces = [rng.normal(0.0, 0.3, min(piece, n - lo)) for lo in range(0, n, piece)]
    assert np.array_equal(np.concatenate(pieces), one)


def vmhwm_growth(setup, measured, *argv):
    """The bytes by which the statement `measured` raises the peak RSS of a
    fresh Python child that ran `setup` first; both see `argv` as sys.argv[1:].
    The child reads VmHWM, the peak of its own address space: ru_maxrss would
    start at this test process's peak, which Linux carries across exec."""
    import os
    import subprocess
    import sys

    import agbmap

    code = (
        "import sys\n"
        f"{setup}\n"
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(line.split()[1]) * 1024 for line in f\n"
        "                    if line.startswith('VmHWM:'))\n"
        "before = peak()\n"
        f"{measured}\n"
        "print(peak() - before)\n"
    )
    src = str(Path(agbmap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM (Linux)")
def test_synth_memory_grows_by_less_than_70_bytes_per_cell(tmp_path):
    # Run in a child, whose peak RSS is that of synthesize and its imports alone.
    # It takes about 56 now, 60 when the modules' bytecode is cached (the
    # imports then leave less freed heap to reuse); 15 float64 layers held at
    # once would take 120.
    ncols, nrows = 800, 700
    grown = vmhwm_growth("from agbmap.synth import synthesize",
                         f"synthesize(sys.argv[1], ncols={ncols}, nrows={nrows})",
                         tmp_path / "d")
    per_cell = grown / (ncols * nrows)
    assert per_cell < 70, f"synthesize grew RSS by {per_cell:.0f} bytes per cell"


def write_random_grid(path, ncols, nrows, seed):
    """A grid of values in [0, 300) with about a fifth of its cells missing."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0, 300, (nrows, ncols))
    write_grid(Grid(ncols=ncols, nrows=nrows, x_origin=0.0, y_origin=0.0, cellsize=30.0,
                    units="Mg/ha", values=np.where(rng.random((nrows, ncols)) < 0.8, values,
                                                   np.nan)), path)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM (Linux)")
def test_read_grid_memory_grows_by_less_than_5_bytes_per_cell(tmp_path):
    # The grid holds 4 bytes per cell, NaN where a cell has no value; read into
    # its final array and checked in row blocks, it takes about 4.2. A whole-grid
    # mask or check temporary takes 5 or more, and a read that also holds the
    # whole payload, or copies it into the grid's array, takes 8.
    ncols, nrows = 1500, 1500
    write_random_grid(tmp_path / "g.bin", ncols, nrows, seed=6)
    grown = vmhwm_growth("from agbmap.grid import read_grid", "grid = read_grid(sys.argv[1])",
                         tmp_path / "g.bin")
    per_cell = grown / (ncols * nrows)
    assert per_cell < 5, f"read_grid grew RSS by {per_cell:.1f} bytes per cell"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM (Linux)")
def test_difference_memory_grows_by_less_than_5_bytes_per_cell(tmp_path):
    # The difference holds 4 bytes per cell, and the grid keeps the fresh array
    # `difference` hands it; a second copy of it, or a mask beside it, takes 8
    # or more (10 with both).
    ncols, nrows = 1500, 1500
    for seed, name in enumerate(("a.bin", "b.bin")):
        write_random_grid(tmp_path / name, ncols, nrows, seed)
    grown = vmhwm_growth("from agbmap.grid import difference, read_grid\n"
                         "a, b = read_grid(sys.argv[1]), read_grid(sys.argv[2])",
                         "d = difference(a, b)", tmp_path / "a.bin", tmp_path / "b.bin")
    per_cell = grown / (ncols * nrows)
    assert per_cell < 5, f"difference grew RSS by {per_cell:.1f} bytes per cell"


RASTER_COLS, RASTER_ROWS = 800, 700


@pytest.fixture(scope="module")
def raster_cache(tmp_path_factory):
    """The configuration of an 800 x 700 synth whose stages up to predict ran
    once; tiny learner grids keep fit and predict quick."""
    root = tmp_path_factory.mktemp("raster")
    cfg_path = Path(synthesize(root, seed=3, ncols=RASTER_COLS, nrows=RASTER_ROWS,
                               n_plots=80))
    doc = load_doc(cfg_path)
    doc["learner_grids"] = {
        "knn": [{"k": 3}], "bagged_trees": [{"trees": 2, "max_depth": 3}],
        "boosted_trees": [{"trees": 2, "learning_rate": 0.1, "max_depth": 2}]}
    cfg_path.write_text(json.dumps(doc))
    run(PipelineConfig.load(cfg_path), ["ingest", "extract", "fit", "predict"])
    return cfg_path


# Peak RSS growth per cell of one layer that each raster stage may cause, run
# alone on `raster_cache`: a little above what it takes now (extract 31, predict
# 62, assess 15, agree 57, diff 40, rescale 48), with grids of 4 bytes per cell
# read into their final arrays. A stage that needs less lowers its ceiling.
STAGE_BYTES_PER_CELL = {"extract": 35, "predict": 72, "assess": 18, "agree": 61,
                        "diff": 45, "rescale": 52}


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM (Linux)")
@pytest.mark.parametrize("stage", list(STAGE_BYTES_PER_CELL))
def test_raster_stage_memory_per_cell_stays_under_its_ceiling(raster_cache, stage):
    grown = vmhwm_growth("from agbmap.pipeline import PipelineConfig, run\n"
                         "config = PipelineConfig.load(sys.argv[1])",
                         "run(config, [sys.argv[2]])", raster_cache, stage)
    per_cell = grown / (RASTER_COLS * RASTER_ROWS)
    assert per_cell < STAGE_BYTES_PER_CELL[stage], \
        f"{stage} grew RSS by {per_cell:.1f} bytes per cell"


@pytest.mark.parametrize("cellsize", [0.0, -30.0, float("nan"), float("inf")])
def test_synth_refuses_a_cellsize_that_is_not_positive(tmp_path, cellsize):
    with pytest.raises(ValueError, match="cellsize must be positive"):
        synthesize(tmp_path / "d", cellsize=cellsize)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kwargs, reported", [
    ({"ncols": 8, "nrows": 8, "cellsize": 1e308}, "ncols x cellsize must be finite"),
    ({"ncols": 8, "nrows": 10**300, "cellsize": 1e10}, "nrows x cellsize must be finite"),
    ({"ncols": 10**400}, "ncols x cellsize must be finite"),
    ({"ncols": 10.5}, "ncols must be an integer, got 10.5"),
    ({"nrows": 10.0}, "nrows must be an integer, got 10.0"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"n_plots": 2.5}, "n_plots must be an integer, got 2.5"),
    ({"cellsize": True}, "cellsize must be positive and finite, got True"),
], ids=["infinite width", "infinite height", "width beyond a float", "fractional ncols",
        "float nrows", "fractional seed", "bool seed", "fractional n_plots", "bool cellsize"])
def test_synth_refuses_a_bad_argument_before_creating_anything(tmp_path, kwargs, reported):
    with pytest.raises(ValueError, match=reported):
        synthesize(tmp_path / "d", **kwargs)
    assert list(tmp_path.iterdir()) == []


def test_synth_takes_numpy_integer_sizes(tmp_path):
    # they pass its check as integers; each grid must take them as ints
    config = PipelineConfig.load(synthesize(tmp_path / "d", ncols=np.int64(20), nrows=20,
                                            n_plots=5))
    assert validate(config) == []
    assert read_grid(tmp_path / "d" / "inputs" / "elevation.bin").values.shape == (20, 20)


def test_synth_builds_the_smallest_grid_it_allows(tmp_path):
    # plots keep two cells from each edge, so 4 cells a side leave them one line
    config = PipelineConfig.load(synthesize(tmp_path / "d", ncols=4, nrows=6, n_plots=5))
    assert validate(config) == []
    assert read_grid(tmp_path / "d" / "inputs" / "elevation.bin").values.shape == (6, 4)


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


@pytest.mark.parametrize("other, reported", [
    ("2005", "configuration repeats the key '2005' in one object"),
    (" 2005", "year keys '2005' and ' 2005' both name 2005"),
    ("02005", "year keys '2005' and '02005' both name 2005"),
], ids=["repeated key", "leading space", "leading zero"])
def test_cli_two_year_keys_of_one_year_is_exit_1(small, tmp_path, capsys, other, reported):
    # int() reads each as 2005, and json keeps the last of two equal keys: the
    # document would otherwise map 2005 to the 2019 inputs
    text = json.dumps(small.doc)
    assert text.count('"2019": ') == 1
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"2019": ', f'"{other}": '))
    assert main(["ingest", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert reported in capsys.readouterr().err


def test_config_hash_tracks_content(small):
    again = PipelineConfig.load(small.cfg_path)
    assert again.config_hash == small.config.config_hash
    other = make_config(small.doc, small.root, seed=SEED + 1)
    assert other.config_hash != small.config.config_hash


def test_validate_reports_missing_file(small):
    config = make_config(small.doc, small.root, plots="no/such/file.csv")
    findings = validate(config)
    assert any("missing file" in f and "plots" in f for f in findings)


def misaligned_copy(path, out):
    """Write the grid at `path` to `out` with a cellsize one metre larger."""
    ref = read_grid(path)
    write_grid(Grid(ncols=ref.ncols, nrows=ref.nrows, x_origin=ref.x_origin,
                    y_origin=ref.y_origin, cellsize=ref.cellsize + 1.0,
                    units=ref.units, values=ref.values), out)
    return str(out)


def test_validate_reports_misaligned_raster(small, tmp_path):
    doc = json.loads(json.dumps(small.doc))
    doc["years"]["2005"]["predictors"]["brightness"] = misaligned_copy(
        small.config.elevation, tmp_path / "off.bin")
    config = PipelineConfig.from_document(doc, base_dir=small.root)
    findings = validate(config)
    assert any("alignment" in f and "brightness" in f for f in findings)


def test_validate_reports_misaligned_landcover(small, tmp_path):
    doc = json.loads(json.dumps(small.doc))
    doc["years"]["2019"]["landcover"] = misaligned_copy(
        small.config.years[2019].landcover, tmp_path / "off.bin")
    findings = validate(PipelineConfig.from_document(doc, base_dir=small.root))
    assert findings == ["alignment: landcover for 2019 does not match the elevation grid"]


def test_validate_checks_every_raster_past_an_unreadable_one(small, tmp_path):
    # each header is read on its own: an unreadable layer is named with its
    # path, and neither it nor an unreadable elevation hides another finding
    doc = json.loads(json.dumps(small.doc))
    truncated = tmp_path / "short.bin"
    truncated.write_bytes(Path(small.config.years[2005].predictors["brightness"])
                          .read_bytes()[:-1])
    doc["years"]["2005"]["predictors"]["brightness"] = str(truncated)
    doc["years"]["2019"]["landcover"] = misaligned_copy(
        small.config.years[2019].landcover, tmp_path / "off.bin")
    findings = validate(PipelineConfig.from_document(doc, base_dir=small.root))
    assert len(findings) == 2
    assert findings[0].startswith(
        f"unreadable raster: predictor 'brightness' for 2005 at {truncated}: payload holds")
    assert findings[1] == "alignment: landcover for 2019 does not match the elevation grid"

    doc["elevation"] = str(truncated)
    findings = validate(PipelineConfig.from_document(doc, base_dir=small.root))
    assert [f.split(" at ")[0] for f in findings] == [
        "unreadable raster: elevation", "unreadable raster: predictor 'brightness' for 2005"]


# not finite as floats; `math.isfinite` would raise on the integer
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("key", ["scales_km", "removed_landcover_classes", "region_area_ha"])
def test_validate_rejects_non_finite_numbers(small, key, value):
    # refused where the configuration is read, so neither validate nor run sees it
    if key in ("scales_km", "removed_landcover_classes"):
        value = [5, value]
    with pytest.raises(ConfigError, match=key):
        make_config(small.doc, small.root, **{key: value})


@pytest.mark.parametrize("scales", [[2, 5, 2.0], [1, 1], [5, 2, 5.0, 1]])
def test_load_refuses_a_scale_named_twice(small, tmp_path, scales):
    # assess and agree would compute and write its rows twice; scales compare
    # as numbers, so 2 and 2.0 are one scale
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**small.doc, "scales_km": scales}))
    with pytest.raises(ConfigError, match=r"scales_km must not name a scale twice, got \["):
        PipelineConfig.load(path)


def test_validate_reports_domain_problems(small):
    # each is refused where the configuration is read, naming its key, not
    # found by validate or by a late stage; bool is an int subclass and True
    # == 1, a valid panel; a landcover class float32 cannot hold would overflow
    # in predict's cast (1e300, -1e39) or become class 0 (1e-50)
    for key, values in (("holdout_panel", [9, 0, True, 1.0, "3", None]),
                        ("scales_km", [[], [True, 5], [5, False], [2, 0], [2, -1], 5]),
                        ("removed_landcover_classes", [[True], [3, False], ["1"], 3, [1e300],
                                                       [5, -1e39], [1e-50]]),
                        ("region_area_ha", ["x", 0, -1.0, True])):
        for value in values:
            with pytest.raises(ConfigError, match=key):
                make_config(small.doc, small.root, **{key: value})
    for grids in ({"knn": [{"k": True}]}, {"bagged_trees": [{"trees": True}]},
                  {"knn": 5}, {"knn": [5]}, {"knn": [[1]]}, {"knn": []}, {"svm": [{}]}, {}):
        with pytest.raises(ConfigError, match="learner_grids"):
            make_config(small.doc, small.root, learner_grids=grids)


def test_removed_classes_at_float32s_limits_load_and_predict(small, tmp_path):
    # 0 and float32's largest value load, and predict casts the largest
    # without an overflow warning (an error in this suite)
    import agbmap.pipeline

    largest = float(np.finfo(np.float32).max)
    assert largest == 3.4028234663852886e38
    assert make_config(small.doc, small.root, removed_landcover_classes=[0, largest])
    copy_of_small(small, tmp_path / "d")
    config = make_config(small.doc, tmp_path / "d", removed_landcover_classes=[
        *small.config.removed_landcover_classes, largest])
    out = Path(config.output_dir) / "predict"
    shutil.rmtree(out)
    out.mkdir()
    agbmap.pipeline._STAGES["predict"](config, out)
    for path in (small.root / "run" / "predict").iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("key", ["learner_grids", "region_area_ha"])
def test_config_null_optional_key_is_not_given(small, key):
    # `null` takes the default: the built-in grids, and the extent as the design's area
    doc = {k: v for k, v in small.doc.items() if k != key}
    null, absent = make_config(doc, small.root, **{key: None}), make_config(doc, small.root)
    assert getattr(null, key) == getattr(absent, key)
    if key == "learner_grids":
        assert {kind: [s.hp for s in specs] for kind, specs in null.learner_grids.items()} \
            == DEFAULT_GRIDS


def test_config_refuses_predictor_names_that_differ_between_years(small):
    doc = json.loads(json.dumps(small.doc))
    predictors = doc["years"]["2019"]["predictors"]
    predictors["renamed"] = predictors.pop(sorted(predictors)[0])
    with pytest.raises(ConfigError, match="predictor layer names differ between years"):
        PipelineConfig.from_document(doc, base_dir=small.root)


# values the stages would otherwise run with: panel 1 held out, nothing removed
# from the domain, and a refusal only in assess, after predict; a "random" panel
# would fail only in ingest, after its directory was emptied
REFUSED_AT_LOAD = [("holdout_panel", True), ("holdout_panel", 1.0),
                   ("removed_landcover_classes", [float("nan")]), ("scales_km", [2, 0]),
                   ("holdout_panel", "random")]


@pytest.mark.parametrize("key, value", REFUSED_AT_LOAD)
def test_config_load_refuses_a_value_before_run_starts(small, tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**small.doc, key: value}))
    with pytest.raises(ConfigError, match=key):
        PipelineConfig.load(path)


@pytest.mark.parametrize("key, value", REFUSED_AT_LOAD)
def test_cli_value_refused_at_load_is_exit_1_before_any_stage_runs(small, tmp_path, capsys,
                                                                   key, value):
    root = tmp_path / "d"
    copy_of_small(small, root)
    before = (root / "run" / "ingest" / "plots.csv").read_bytes()
    path = root / "bad.json"
    path.write_text(json.dumps({**small.doc, key: value}))
    assert main(["ingest", "--config", str(path), "--stages", "extract"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ") and key in err
    assert (root / "run" / "ingest" / "plots.csv").read_bytes() == before


# -- run orchestration ----------------------------------------------------

def test_run_unknown_stage_rejected(small):
    with pytest.raises(ValueError, match="unknown stages"):
        run(small.config, {"extract", "bogus"})


def test_run_refuses_a_year_on_another_grid_before_it_creates_the_output(small, tmp_path):
    # with every 2005 layer 5 km east of 2019's, agree would bin 2005 on 2019's
    # cell centers and stocks take the cell area from one header
    root = tmp_path / "d"
    shutil.copytree(small.root / "inputs", root / "inputs")
    (root / "config.json").write_text(json.dumps(small.doc))
    config = PipelineConfig.load(root / "config.json")
    inputs = config.years[2005]
    for path in [*inputs.predictors.values(), inputs.landcover]:
        grid = read_grid(path)
        grid.x_origin += 5000.0
        write_grid(grid, path)
    with pytest.raises(ConfigError) as refused:
        run(config)
    findings = str(refused.value).split("; ")
    assert len(findings) == len(inputs.predictors) + 1
    assert all(f.startswith("alignment: ") and "for 2005 does not match" in f for f in findings)
    assert not (root / "run").exists()


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


def manifest_of_another_shape(out):
    """Rewrite the manifest under `out` as one from another artifact version
    whose stage records carry a field this code does not know."""
    manifest_path = out / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["artifact_version"] = ARTIFACT_VERSION + 1
    for rec in doc["stages"].values():
        rec["input_sha256"] = {}
    manifest_path.write_text(json.dumps(doc))


def test_run_discards_manifest_of_another_shape(small, tmp_path, caplog):
    out = tmp_path / "o"
    config = make_config(small.doc, small.root, output_dir=str(out))
    run(config, {"ingest"})
    manifest_of_another_shape(out)
    assert RunManifest.load(out).stages == {}
    with pytest.raises(PipelineError, match="missing upstream artifact"):
        run(config, {"extract"})
    assert f"artifact version {ARTIFACT_VERSION + 1}" in caplog.text
    manifest = run(config, {"ingest"})
    assert manifest.artifact_version == ARTIFACT_VERSION
    assert list(RunManifest.load(out).stages) == ["ingest"]


def test_report_refuses_manifest_of_another_shape(small, tmp_path, capsys):
    out = tmp_path / "o"
    config = make_config(small.doc, small.root, output_dir=str(out))
    run(config, {"ingest"})
    manifest_of_another_shape(out)
    with pytest.raises(PipelineError, match=f"version {ARTIFACT_VERSION + 1}.*"
                                            f"version {ARTIFACT_VERSION}"):
        render_report(config)
    assert main(["report", "--config", str(small.cfg_path), "--out", str(out)]) == 2
    assert f"artifact version {ARTIFACT_VERSION + 1}" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt, reason", [
    (lambda raw: raw[:30], "it is not UTF-8 JSON"),
    (lambda raw: b"\xff" + raw, "it is not UTF-8 JSON"),
    (lambda raw: b"[5]", "it is not a JSON object naming its artifact version"),
    (lambda raw: b'{"stages": {}}', "it is not a JSON object naming its artifact version"),
    (lambda raw: json.dumps({"artifact_version": ARTIFACT_VERSION}).encode(),
     f"its body does not fit artifact version {ARTIFACT_VERSION}"),
    (lambda raw: json.dumps({"artifact_version": ARTIFACT_VERSION, "config_hash": "",
                             "stages": {"ingest": {}}}).encode(),
     f"its body does not fit artifact version {ARTIFACT_VERSION}"),
    (lambda raw: json.dumps({"artifact_version": ARTIFACT_VERSION, "config_hash": "",
                             "stages": []}).encode(),
     f"its body does not fit artifact version {ARTIFACT_VERSION}"),
], ids=["cut to 30 bytes", "not UTF-8", "not an object", "no artifact version",
        "no body", "stage record without fields", "stages not an object"])
def test_unreadable_manifest_is_discarded_by_run_and_refused_by_report(
        small, tmp_path, capsys, caplog, corrupt, reason):
    out = (tmp_path / "o").resolve()
    cli = ["--config", str(small.cfg_path), "--out", str(out)]
    assert main(["ingest", *cli]) == 0
    manifest_path = out / "manifest.json"
    manifest_path.write_bytes(corrupt(manifest_path.read_bytes()))
    assert RunManifest.load(out).artifact_version is None
    assert RunManifest.load(out).unusable == reason
    capsys.readouterr()
    assert main(["report", *cli]) == 2
    assert f"run manifest {manifest_path} cannot be used: {reason};" in capsys.readouterr().err
    assert main(["ingest", *cli]) == 0
    assert f"discarding {manifest_path}: {reason}" in caplog.text
    assert "version None" not in caplog.text
    assert list(RunManifest.load(out).stages) == ["ingest"]


def test_interrupted_manifest_write_keeps_the_previous_manifest(small, tmp_path,
                                                                monkeypatch):
    out = tmp_path / "o"
    config = make_config(small.doc, small.root, output_dir=str(out))
    run(config, {"ingest"})
    before = (out / "manifest.json").read_bytes()

    def interrupted(obj, f, **kwargs):
        f.write('{"artifact_version": ')
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(json, "dump", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(config, {"extract"})
    assert (out / "manifest.json").read_bytes() == before
    assert list(RunManifest.load(out).stages) == ["ingest"]
    manifest = run(config, {"extract"})
    assert list(manifest.stages) == ["ingest", "extract"]
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == ["manifest.json"]


def output_digests(out):
    """The sha256 of every file under `out` but the manifest, which holds timings."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def test_rerun_reproduces_identical_bytes(small):
    before = output_digests(small.root / "run")
    assert "ingest/plots.csv" in before and "predict/agb_2005_CRM.bin" in before
    run(small.config)
    assert output_digests(small.root / "run") == before


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


def drop_year(path, column, year):
    """Delete the rows of the CSV table at `path` whose `column` is `year`."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    at = rows[0].index(column)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(
            [rows[0]] + [r for r in rows[1:] if r[at] != year])


def test_rerun_with_fewer_years_leaves_no_stale_outputs(small, tmp_path):
    root = tmp_path / "d"
    copy_of_small(small, root)
    for name, column in (("plots.csv", "inventory_year"),
                         ("trees.csv", "inventory_year"),
                         ("carbon_fractions.csv", "year")):
        drop_year(root / "inputs" / name, column, "2005")
    doc = json.loads(json.dumps(small.doc))
    del doc["years"]["2005"]
    config = PipelineConfig.from_document(doc, base_dir=root)

    manifest = run(config)
    for stage, rec in manifest.stages.items():
        on_disk = sorted(p.relative_to(root / "run").as_posix()
                         for p in (root / "run" / stage).rglob("*") if p.is_file())
        assert rec.outputs == on_disk, stage
    assert manifest.stages["agree"].outputs == ["agree/agreement_2019.csv"]
    assert manifest.stages["diff"].outputs == ["diff/agb_diff_2019.bin",
                                               "diff/pctrank_diff_2019.bin",
                                               "diff/summary.json"]
    text = render_report(config)
    assert "two-map agreement, 2019" in text and "agb_diff_2019" in text
    assert "agreement, 2005" not in text
    assert "_2005" not in text and "change_" not in text


def test_each_stage_reads_each_raster_once(small, tmp_path, monkeypatch):
    import agbmap.pipeline

    config = make_config(small.doc, small.root, output_dir=str(tmp_path / "o"))
    reads, reader = [], ["validate"]
    read_grid = agbmap.pipeline.read_grid
    monkeypatch.setattr(agbmap.pipeline, "read_grid",
                        lambda path: reads.append((reader[0], Path(path))) or read_grid(path))
    for name, fn in list(agbmap.pipeline._STAGES.items()):
        @functools.wraps(fn)
        def staged(config, out, name=name, fn=fn):
            reader[0] = name
            return fn(config, out)
        monkeypatch.setitem(agbmap.pipeline._STAGES, name, staged)
    assert validate(config) == []
    run(config)
    reader[0] = "report"
    render_report(config)

    assert len(set(reads)) == len(reads), "a stage read one raster twice"
    assert not [r for r in reads if r[0] in ("validate", "report")]
    # extract and predict read the predictors of every year, predict the
    # landcover too; assess and agree read 2 maps a year, diff 4 and rescale 2
    # plus the elevation; stocks takes the map means from predict's summary
    # and reads none
    years, predictors = len(config.years), len(config.predictor_names())
    assert len(reads) == 2 * years * predictors + 11 * years + 1
    assert not [r for r in reads if r[0] == "stocks"]


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
    fitted = json.loads((small.root / "run" / "fit" / "summary.json").read_text())["models"]
    for allometry in ("CRM", "NSVB"):
        path = small.root / "run" / "fit" / f"model_{allometry}.json"
        model = EnsembleModel.from_json(path.read_text())
        assert model.feature_names == small.config.predictor_names()
        assert fitted[allometry]["ybar_train"] > 0
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


def test_predict_maps_only_the_landcover_domain(small, tmp_path):
    # each case of the former grid-level landcover mask, through the stage
    root = tmp_path / "d"
    config = copy_of_small(small, root)
    path = config.years[2005].landcover
    lc = read_grid(path)
    rows, cols = np.indices(lc.values.shape)
    values = np.choose((rows + cols) % 4, [3.0, 1.0, 6.0, 4.0])  # 1 and 4 are removed
    # masked cells read back as 0.0, a class that is not removed
    mask = ~((rows < lc.nrows // 3) & (values == 3.0))
    write_grid(lc.with_values(np.where(mask, values, np.nan)), path)
    run(config, ["predict"])

    layers = [read_grid(p) for p in config.years[2005].predictors.values()]
    predictable = np.logical_and.reduce([g.mask for g in layers])
    removed = np.isin(values, small.config.removed_landcover_classes)
    retained = predictable & mask & ~removed
    for allometry in ("CRM", "NSVB"):
        agb = read_grid(root / "run" / "predict" / f"agb_2005_{allometry}.bin")
        assert np.array_equal(agb.mask, retained)
        assert np.any(agb.mask), "a retained class is mapped"
        assert np.any(predictable & removed), "a removed class is masked"
        assert np.any(predictable & ~mask), "a masked landcover cell is masked"


@pytest.mark.parametrize("layer, stage, reported", [
    ("pred_2005_greenness.bin", "extract", "predictor 'greenness' for 2005"),
    ("landcover_2005.bin", "predict", "landcover for 2005"),
])
def test_stage_refuses_a_shifted_layer(small, tmp_path, layer, stage, reported):
    # run() validates before any stage, so the stage that reads the layer never
    # runs and the earlier stages' outputs and the manifest keep their bytes
    root = tmp_path / "d"
    config = copy_of_small(small, root)
    path = root / "inputs" / layer
    grid = read_grid(path)
    grid.x_origin += grid.cellsize / 2
    write_grid(grid, path)
    before = {p: p.read_bytes() for p in (root / "run").rglob("*") if p.is_file()}
    with pytest.raises(ConfigError, match=re.escape(f"alignment: {reported} does not match")):
        run(config, [stage])
    assert {p: p.read_bytes() for p in (root / "run").rglob("*") if p.is_file()} == before


def test_predict_runs_the_models_on_mapped_cells_only(small, tmp_path, monkeypatch):
    config = copy_of_small(small, tmp_path / "d")
    rows, predict = [], EnsembleModel.predict

    def counting(self, X):
        rows.append(len(X))
        return predict(self, X)

    monkeypatch.setattr(EnsembleModel, "predict", counting)
    run(config, ["predict"])
    summary = json.loads((tmp_path / "d" / "run" / "predict" / "summary.json").read_text())
    assert len(rows) == len(summary["maps"])
    assert sum(rows) == sum(m["n_valid"] for m in summary["maps"].values())


def test_overlap_weights_once_per_plot_across_extract_and_assess(small, tmp_path,
                                                                  monkeypatch):
    import agbmap.pipeline

    config = copy_of_small(small, tmp_path / "d")
    footprints, weights = [], agbmap.pipeline.pixel_overlap_weights
    monkeypatch.setattr(agbmap.pipeline, "pixel_overlap_weights",
                        lambda fp, grid: footprints.append(fp) or weights(fp, grid))
    run(config, ["extract", "assess"])
    ingest = json.loads((tmp_path / "d" / "run" / "ingest" / "summary.json").read_text())
    assert len(footprints) == ingest["n_model_dev"] + ingest["n_assessment"]
    assert len(set(footprints)) == len(footprints)


def test_sample_footprints_takes_each_plot_on_its_own_years_layers(small):
    from agbmap import PlotFootprint, pixel_overlap_weights, weighted_mean
    from agbmap.pipeline import _read_plots, _sample_footprints

    plots = _read_plots(small.config, "plots.csv")
    early, late = ([p for p in plots if p.inventory_year == year] for year in (2005, 2019))
    assert early and late
    interleaved = [p for pair in zip(late, early) for p in pair]
    names = small.config.predictor_names()
    layers = {year: [inputs.predictors[name] for name in names]
              for year, inputs in small.config.years.items()}

    want = []
    for p in interleaved:
        grids = [read_grid(path) for path in layers[p.inventory_year]]
        weights = pixel_overlap_weights(PlotFootprint(p.x, p.y), grids[0])
        want.append([weighted_mean(grid, weights) for grid in grids])
    want = np.array(want, dtype=float)  # None, a footprint over no valid cell, reads nan
    got = _sample_footprints(interleaved, layers)
    assert np.array_equal(got, want, equal_nan=True)


def test_plot_over_no_mapped_cell_is_outside_for_both_allometries(small, tmp_path):
    from agbmap import PlotFootprint, pixel_overlap_weights

    root = tmp_path / "d"
    config = copy_of_small(small, root)

    def n_pairs(allometry):  # row 1 of the assessment table, plot to pixel
        return int(read_rows(root / "run" / "assess" / f"assessment_{allometry}.csv")[0]["n"])

    before = json.loads((root / "run" / "assess" / "summary.json").read_text())
    before_n = {allometry: n_pairs(allometry) for allometry in ("CRM", "NSVB")}
    plot = read_rows(root / "run" / "assess" / "pairs_CRM.csv")[0]
    for allometry in ("CRM", "NSVB"):
        path = root / "run" / "predict" / f"agb_{plot['inventory_year']}_{allometry}.bin"
        agb = read_grid(path)
        w = pixel_overlap_weights(PlotFootprint(float(plot["x_m"]), float(plot["y_m"])), agb)
        mask = agb.mask.copy()
        mask[w.rows, w.cols] = False
        write_grid(agb.with_values(np.where(mask, agb.values, np.nan)), path)
    run(config, ["assess"])

    after = json.loads((root / "run" / "assess" / "summary.json").read_text())
    for allometry in ("CRM", "NSVB"):
        assert (after[allometry]["n_outside_mapped_area"]
                == before[allometry]["n_outside_mapped_area"] + 1)
        assert n_pairs(allometry) == before_n[allometry] - 1
        pairs = read_rows(root / "run" / "assess" / f"pairs_{allometry}.csv")
        assert plot["plot_id"] not in {r["plot_id"] for r in pairs}


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
        assert len(pairs) == int(rows[0]["n"])
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
    bagged trees, `max_depth` (defaults filled in)."""
    hp = dict(hp)
    hp.pop("trees", None)
    if kind == "bagged_trees":
        hp.setdefault("max_features", "sqrt")
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
    # second cross-validation, and one call serves both allometries
    config, calls = fit_cv_calls(small, tmp_path, monkeypatch, small.doc)
    families = {nested_family(s.kind, s.hp) for grid in config.learner_grids.values()
                for s in grid}
    assert len(calls) == len(families)


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
    specs = [s for grid in config.learner_grids.values() for s in grid]
    assert len(calls) == 6  # knn 2, bagged 2 (depth 0 nests too), boosted 2
    assert all(len({nested_family(s.kind, s.hp) for s in family}) == 1 for family in calls)
    assert sorted(map(repr, (s for family in calls for s in family))) == \
        sorted(map(repr, specs))


def test_fit_models_equal_a_search_and_refit_per_allometry(small, tmp_path, monkeypatch):
    # one grid_search per kind serves both allometries, and each family grows
    # the final fits with the folds; every model file still holds what
    # searching its allometry alone and growing the winner again gives
    import agbmap.pipeline
    from agbmap.learners import grid_search, train_base

    config = make_config(small.doc, small.root, output_dir=str(tmp_path / "o"))
    run(config, ["ingest", "extract"])
    searches, original = [], agbmap.pipeline.grid_search
    monkeypatch.setattr(agbmap.pipeline, "grid_search", lambda specs, X, Y, *args: searches.append(
        (list(specs), X, Y, args)) or original(specs, X, Y, *args))
    run(config, ["fit"])
    monkeypatch.undo()
    assert [specs[0].kind for specs, *_ in searches] == sorted(config.learner_grids)
    for a, allometry in enumerate(["CRM", "NSVB"]):
        doc = json.loads((tmp_path / "o" / "fit" / f"model_{allometry}.json").read_text())
        model = EnsembleModel.from_json(json.dumps(doc))
        for (specs, X, Y, (k, seeds, finals)), base, m in zip(searches, doc["base"],
                                                              model.models, strict=True):
            assert Y.shape == (2, X.shape[0])
            [(best, *_)] = grid_search(specs, X, Y[a:a + 1], k, seeds[a:a + 1], finals[a:a + 1])
            assert best == m.spec
            assert best.to_dict() == base["spec"]
            alone = train_base(best, X, Y[a], finals[a])
            assert json.dumps(alone.to_dict(), sort_keys=True) == \
                json.dumps(base["model"], sort_keys=True)


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
        write_grid(crm.with_values(np.where(keep, crm.values, np.nan)), crm_path)
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


def agreement_by_point(config, year, path):
    """Write to `path` the agreement table of `year` built with per-point
    `assign` of the joint cells' centers to each scale's tessellation covering
    every cell center of the grid."""
    from agbmap.hexgrid import aggregate_pairs, assign, covering_hexgrid
    from agbmap.metrics import PairedSample
    from agbmap.pipeline import AGREEMENT_COLUMNS, _agreement_row
    from agbmap.tables import write_table

    crm, nsvb = (read_grid(Path(config.output_dir) / "predict" / f"agb_{year}_{a}.bin")
                 for a in ("CRM", "NSVB"))
    joint = crm.mask & nsvb.mask
    centers = np.stack(np.meshgrid(*crm.cell_centers()), axis=-1)  # (rows, cols, 2)
    pairs = PairedSample(y=crm.values[joint].astype(np.float64),
                         yhat=nsvb.values[joint].astype(np.float64))
    rows = [_agreement_row(1.0, pairs.y, pairs.yhat)]
    for s_km in (s for s in config.scales_km if s != 1):
        hexgrid = covering_hexgrid(centers.reshape(-1, 2), float(s_km) * 1000.0)
        means = aggregate_pairs(pairs, assign(centers[joint], hexgrid), hexgrid)
        rows.append(_agreement_row(float(s_km), means[:, 0], means[:, 1]))
    write_table(path, AGREEMENT_COLUMNS, rows)
    return path.read_bytes()


def joint_window(config, year):
    """First and last row, then column, holding a cell valid in both maps."""
    crm, nsvb = (read_grid(Path(config.output_dir) / "predict" / f"agb_{year}_{a}.bin")
                 for a in ("CRM", "NSVB"))
    joint = crm.mask & nsvb.mask
    return [(int(i[0]), int(i[-1])) for i in map(np.flatnonzero, (joint.any(1), joint.any(0)))]


def test_a_1_km_scale_is_the_unaggregated_row_and_never_hexagons(small, tmp_path, monkeypatch):
    # both tables start with the plot- or cell-level row, labelled 1 km; a
    # configured 1 is that row, so [1, 2] writes the tables [2] writes
    import agbmap.metrics
    import agbmap.pipeline

    spacings = []
    for module in (agbmap.metrics, agbmap.pipeline):
        original = module.covering_hexgrid
        monkeypatch.setattr(module, "covering_hexgrid", lambda points, spacing, original=original:
                            spacings.append(spacing) or original(points, spacing))
    tables = {}
    for scales in ([1, 2], [2]):
        config = make_config(small.doc, small.root, scales_km=scales)
        for stage in ("assess", "agree"):
            out = tmp_path / str(scales[0]) / stage
            out.mkdir(parents=True)
            agbmap.pipeline._STAGES[stage](config, out)
        tables[scales[0]] = {p.relative_to(tmp_path / str(scales[0])): p.read_bytes()
                             for p in (tmp_path / str(scales[0])).rglob("*.csv")}
    assert tables[1] == tables[2]
    assert spacings and set(spacings) == {2000.0}
    for name in ("assessment_CRM.csv", "assessment_NSVB.csv",
                 *(f"agreement_{year}.csv" for year in sorted(small.config.years))):
        [path] = (tmp_path / "1").rglob(name)
        assert [r["scale_km"] for r in read_rows(path)] == ["1.0", "2.0"]


def test_agree_assigns_each_scale_once_for_every_year(small, tmp_path, monkeypatch):
    # each scale is one tessellation covering the grid's cell centers, its
    # lattice assigned once and shared by every year, whatever cells a year's
    # maps hold
    import agbmap.pipeline

    config = copy_of_small(small, tmp_path / "d")
    years = sorted(config.years)
    scales = [s for s in config.scales_km if s != 1]
    calls = []
    original = agbmap.pipeline.assign_lattice

    def counting(xs, ys, hexgrid):
        calls.append(hexgrid.spacing)
        return original(xs, ys, hexgrid)

    def tables_equal_per_point_reference():
        for year in years:
            table = Path(config.output_dir) / "agree" / f"agreement_{year}.csv"
            assert table.read_bytes() == agreement_by_point(config, year, tmp_path / "ref.csv")

    monkeypatch.setattr(agbmap.pipeline, "assign_lattice", counting)
    run(config, ["agree"])
    assert calls == [s * 1000.0 for s in scales]
    tables_equal_per_point_reference()

    # one year's joint cells cut to a sub-window: still one lattice per scale,
    # and that year's hexagons are the grid's, not the sub-window's
    crm_path = Path(config.output_dir) / "predict" / f"agb_{years[0]}_CRM.bin"
    crm = read_grid(crm_path)
    keep = np.zeros_like(crm.mask)
    keep[5:30, 3:40] = True
    write_grid(crm.with_values(np.where(keep, crm.values, np.nan)), crm_path)
    assert joint_window(config, years[0]) != joint_window(config, years[1])
    calls.clear()
    run(config, ["agree"])
    assert calls == [s * 1000.0 for s in scales]
    tables_equal_per_point_reference()


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


def check_stocks(run_dir, config):
    """Every stock row of `run_dir` against predict's map summaries, the maps
    read back, the carbon fractions and the plot table; returns the rows keyed
    by their columns."""
    rows = read_rows(run_dir / "stocks" / "stocks.csv")
    meta = json.loads((run_dir / "stocks" / "summary.json").read_text())
    assert "area_basis" not in rows[0]
    by_key = {(r["quantity"], r["method"], r["allometry"], r["year"]): float(r["total_mt"])
              for r in rows}
    assert len(by_key) == len(rows)
    areas = {(r["method"], r["year"]): float(r["region_area_ha"]) for r in rows}
    maps = json.loads((run_dir / "predict" / "summary.json").read_text())["maps"]
    for year in config.years:
        for allometry in ("CRM", "NSVB"):
            g = read_grid(run_dir / "predict" / f"agb_{year}_{allometry}.bin")
            cell_ha = g.cellsize * g.cellsize / 1e4
            extent_ha = g.ncols * g.nrows * cell_ha
            s = maps[f"{year}_{allometry}"]
            assert s["n_valid"] == int(g.mask.sum())
            # one model total per map: its sum over its valid cells, bit for bit
            # the mean times the valid area, as the summary records them
            got = by_key[("AGB", "model", allometry, str(year))]
            assert got == s["mean"] * (s["n_valid"] * cell_ha) / 1e6
            assert got == pytest.approx(
                g.values[g.mask].astype(np.float64).sum() * cell_ha / 1e6, rel=1e-9)
            assert areas[("model", str(year))] == s["n_valid"] * cell_ha
    design_area = config.region_area_ha or extent_ha
    assert {a for (m, _), a in areas.items() if m == "design"} == {design_area}
    plot_years = {r["inventory_year"] for r in read_rows(run_dir / "ingest" / "plots.csv")}
    assert {k[3] for k in by_key if k[1] == "design" and "-" not in k[3]} == plot_years
    for (q, m, a, y), v in by_key.items():
        if q == "AGC" and y in meta["carbon_fractions"]:  # a year, not a change
            agb = by_key[("AGB", m, a, y)]
            assert v == pytest.approx(meta["carbon_fractions"][y][a] * agb, rel=1e-12)
    # a change is the last year's entry minus the first year's of the same key
    years = sorted(config.years)
    span = f"{years[-1]}-{years[0]}"
    changes = {k: v for k, v in by_key.items() if k[3] == span}
    assert changes == {
        (*k[:3], span): by_key[k] - by_key[(*k[:3], str(years[0]))]
        for k in by_key if k[3] == str(years[-1]) and (*k[:3], str(years[0])) in by_key}
    # each design total is compared with its map's one model total
    dm = read_rows(run_dir / "stocks" / "design_minus_model.csv")
    assert {(r["quantity"], r["allometry"], r["year"]) for r in dm} == {
        (k[0], k[2], k[3]) for k in by_key if k[1] == "design" and "-" not in k[3]}
    for r in dm:
        q, a, y = r["quantity"], r["allometry"], r["year"]
        assert float(r["design_mt"]) == by_key[(q, "design", a, y)]
        assert float(r["model_mt"]) == by_key[(q, "model", a, y)]
        diff = float(r["design_mt"]) - float(r["model_mt"])
        assert float(r["design_minus_model_mt"]) == pytest.approx(diff, abs=1e-9)
    assert set(meta) == {"note", "carbon_fractions"}
    assert "post-stratification" in meta["note"]
    return by_key, meta


def test_stocks_outputs(small):
    by_key, meta = check_stocks(small.root / "run", small.config)
    assert {k[0] for k in by_key} == {"AGB", "AGC"}
    assert {k[1] for k in by_key} == {"design", "model"}
    # one model row per quantity, allometry and year or change
    assert sorted(k for k in by_key if k[1] == "model") == sorted(
        (q, "model", a, y) for q in ("AGB", "AGC") for a in ("CRM", "NSVB")
        for y in ("2005", "2019", "2019-2005"))
    # constant CRM carbon fraction halves the AGB total exactly
    for (q, m, a, y), v in by_key.items():
        if q == "AGB" and a == "CRM":
            assert by_key[("AGC", m, a, y)] == pytest.approx(0.5 * v, rel=1e-12)


def test_stocks_with_a_given_region_area(small, tmp_path):
    # the region area is the design's alone: the model rows and every model
    # total keep their bytes, and only the design rows move
    config = make_config(small.doc, small.root, output_dir=str(tmp_path / "o"),
                         region_area_ha=14_129_700.0)
    run(config)
    check_stocks(tmp_path / "o", config)
    base, given = (read_rows(d / "stocks" / "stocks.csv") for d in (small.root / "run", tmp_path / "o"))
    assert [r for r in given if r["method"] == "model"] == [r for r in base if r["method"] == "model"]
    design = [r for r in given if r["method"] == "design"]
    assert len(design) == len([r for r in base if r["method"] == "design"]) > 0
    assert {float(r["region_area_ha"]) for r in design} == {14_129_700.0}
    base_dm, given_dm = (read_rows(d / "stocks" / "design_minus_model.csv")
                         for d in (small.root / "run", tmp_path / "o"))
    assert [r["model_mt"] for r in given_dm] == [r["model_mt"] for r in base_dm]
    assert all(g["design_mt"] != b["design_mt"] for g, b in zip(given_dm, base_dm))


def test_stocks_of_a_year_mapped_without_plots(small, tmp_path):
    # a year with rasters but no plots is mapped by the model fitted on the
    # other years; it gets model totals and no design totals
    root = tmp_path / "d"
    config = copy_of_small(small, root)
    drop_year(root / "inputs" / "plots.csv", "inventory_year", "2019")
    run(config)
    by_key, meta = check_stocks(root / "run", config)
    assert {k[3] for k in by_key if k[1] == "design"} == {"2005"}
    assert {k[3] for k in by_key if k[1] == "model"} == {"2005", "2019", "2019-2005"}
    dm = read_rows(root / "run" / "stocks" / "design_minus_model.csv")
    assert dm and {r["year"] for r in dm} == {"2005"}


def test_rescale_outputs(small):
    rows = read_rows(small.root / "run" / "rescale" / "rescale.csv")
    assert [int(r["year"]) for r in rows] == [2005, 2019]
    for r in rows:
        assert 0.8 < float(r["coef_source"]) < 1.4
        assert float(r["test_r2"]) > 0.8


def test_model_files_hold_each_hyperparameter_once(small):
    # a base's spec is its only record of its kind and hyperparameters: its
    # fitted model repeats none of them, and no training mean rides along
    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)
        elif isinstance(node, list):
            for value in node:
                yield from keys(value)

    every = {name for grid in DEFAULT_GRIDS.values() for hp in grid for name in hp}
    for allometry in ("CRM", "NSVB"):
        doc = json.loads((small.root / "run" / "fit" / f"model_{allometry}.json").read_text())
        assert "ybar_train" not in set(keys(doc))
        assert len(doc["base"]) == len(small.config.learner_grids)
        for base in doc["base"]:
            hp, names = base["spec"]["hyperparameters"], list(keys(base))
            assert hp and set(hp) <= every
            assert {name: names.count(name) for name in every | {"kind"}} == \
                {name: int(name in hp or name == "kind") for name in every | {"kind"}}


def test_summaries_hold_only_numbers_no_table_or_model_file_holds(small):
    run_dir = small.root / "run"

    def summary(stage):
        return json.loads((run_dir / stage / "summary.json").read_text())

    maps = [f"{y}_{a}" for y in (2005, 2019) for a in ("CRM", "NSVB")]
    assert set(summary("ingest")) == {"n_plot_rows", "n_selected", "n_development",
                                      "n_model_dev", "n_assessment", "holdout_panel",
                                      "per_year"}
    # the predictor names are the header of features.csv and each model file's
    # feature_names, the test-row count is test_metrics.csv's n, and the
    # learner kinds are the keys of each allometry's cv_rmse
    assert set(summary("extract")) == {"n_rows", "n_dropped_no_coverage"}
    names = small.config.predictor_names()
    with open(run_dir / "extract" / "features.csv", newline="") as f:
        assert next(csv.reader(f))[4:] == names
    fit = summary("fit")
    assert set(fit) == {"n_rows", "n_train", "models"}
    assert [int(r["n"]) for r in read_rows(run_dir / "fit" / "test_metrics.csv")] == \
        [fit["n_rows"] - fit["n_train"]] * 2
    assert set(fit["models"]) == {"CRM", "NSVB"}
    for allometry, entry in fit["models"].items():
        assert set(entry) == {"cv_rmse", "ybar_train"}
        model = json.loads((run_dir / "fit" / f"model_{allometry}.json").read_text())
        assert model["feature_names"] == names
        assert list(entry["cv_rmse"]) == [base["spec"]["kind"] for base in model["base"]]
    predict = summary("predict")
    assert set(predict) == {"maps"} and sorted(predict["maps"]) == sorted(maps)
    for entry in predict["maps"].values():
        assert set(entry) == {"n_valid", "mean", "min", "max"}
    assess = summary("assess")
    assert set(assess) == {"CRM", "NSVB"}
    for entry in assess.values():
        # plot_to_pixel stays while the benchmark reads it there
        assert set(entry) == {"n_outside_mapped_area", "ks_reference_vs_predicted",
                              "plot_to_pixel"}

    def joint_cells(year):
        crm, nsvb = (read_grid(run_dir / "predict" / f"agb_{year}_{a}.bin")
                     for a in ("CRM", "NSVB"))
        return int(np.count_nonzero(crm.mask & nsvb.mask))

    # agree writes no summary: a year's joint cell count is its 1 km row's n
    assert not (run_dir / "agree" / "summary.json").exists()
    for year in ("2005", "2019"):
        first = read_rows(run_dir / "agree" / f"agreement_{year}.csv")[0]
        assert float(first["scale_km"]) == 1 and int(first["n"]) == joint_cells(year)
    assert set(summary("diff")) == {
        "agb_diff_2005", "pctrank_diff_2005", "agb_diff_2019", "pctrank_diff_2019",
        "change_CRM", "change_NSVB", "change_diff"}
    for entry in summary("diff").values():
        assert set(entry) == {"n_valid", "mean", "min", "max"}
    assert set(summary("stocks")) == {"note", "carbon_fractions"}
    # stocks.json copied stocks.csv and design_minus_model.csv, and rescale's
    # summary copied rescale.csv, row for row
    assert small.manifest.stages["stocks"].outputs == [
        "stocks/design_minus_model.csv", "stocks/stocks.csv", "stocks/summary.json"]
    assert small.manifest.stages["rescale"].outputs == ["rescale/rescale.csv"]
    assert not (run_dir / "stocks" / "stocks.json").exists()
    assert not (run_dir / "rescale" / "summary.json").exists()


# -- command line ---------------------------------------------------------

def test_cli_synth_then_ingest(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out), "--seed", "3",
                 "--cells", "32", "--plots", "40"]) == 0
    assert main(["ingest", "--config", str(out / "config.json")]) == 0
    stdout = capsys.readouterr().out
    assert "completed stages: ingest" in stdout
    assert "configuration hash" in stdout


@pytest.mark.parametrize("given", ["option", "file"])
def test_cli_negative_seed_is_exit_1_and_keeps_cached_work(small, tmp_path, capsys, given):
    root = tmp_path / "d"
    copy_of_small(small, root)
    cli = ["ingest", "--config", str(root / "config.json")]
    if given == "option":
        cli += ["--seed", "-1"]
    else:
        (root / "config.json").write_text(json.dumps({**small.doc, "seed": -1}))
    ingest = root / "run" / "ingest"
    files = {p.name: p.read_bytes() for p in ingest.iterdir()}
    record = RunManifest.load(root / "run").stages["ingest"]
    assert main(cli) == 1
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in ingest.iterdir()} == files
    assert RunManifest.load(root / "run").stages["ingest"] == record


def test_cli_synth_negative_seed_creates_nothing(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "-1"]) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, reported", [
    (["--cells", "0"], "ncols must be at least 4, got 0"),
    (["--cells", "-3"], "ncols must be at least 4, got -3"),
    (["--cells", "3"], "ncols must be at least 4, got 3"),
    (["--plots", "-1"], "n_plots must be non-negative, got -1"),
], ids=["zero cells", "negative cells", "too few cells for the plot margin", "negative plots"])
def test_cli_synth_size_it_cannot_build_creates_nothing(tmp_path, capsys, args, reported):
    assert main(["synth", "--out", str(tmp_path / "d"), *args]) == 2
    assert f"error: {reported}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["report", "ingest"])
def test_cli_stdout_closed_by_its_reader_is_exit_0(small, tmp_path, command):
    import os
    import subprocess
    import sys

    import agbmap

    root = tmp_path / "d"
    copy_of_small(small, root)
    src = str(Path(agbmap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        done = subprocess.run(
            [sys.executable, "-m", "agbmap.cli", command, "--config", str(root / "config.json")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, check=False)
    finally:
        os.close(write_end)
    assert done.returncode == 0, done.stderr
    assert "error:" not in done.stderr and "Exception ignored" not in done.stderr


def test_cli_predict_refuses_a_malformed_model_file_naming_it(small, tmp_path, capsys):
    # a split on a feature past the last one the model file names
    root = tmp_path / "d"
    copy_of_small(small, root)
    path = root / "run" / "fit" / "model_CRM.json"
    doc = json.loads(path.read_text())
    base = next(b for b in doc["base"] if b["model"].get("fitted_trees"))
    table = base["model"]["fitted_trees"]
    table["feature"][next(i for i, f in enumerate(table["feature"]) if f >= 0)] = len(
        doc["feature_names"])
    path.write_text(json.dumps(doc))
    assert main(["predict", "--config", str(root / "config.json")]) == 2
    err = capsys.readouterr().err
    assert f"model file {path}" in err and f"malformed {base['spec']['kind']} model" in err


@pytest.mark.parametrize("column, value", [("threshold", "x"), ("feature", 2**40)],
                         ids=["a threshold that is not a number", "a feature beyond int32"])
def test_cli_predict_refuses_a_tree_table_numpy_cannot_read(small, tmp_path, capsys, column,
                                                           value):
    root = tmp_path / "d"
    copy_of_small(small, root)
    path = root / "run" / "fit" / "model_CRM.json"
    doc = json.loads(path.read_text())
    i, base = next((i, b) for i, b in enumerate(doc["base"]) if b["model"].get("fitted_trees"))
    table = base["model"]["fitted_trees"]
    table[column][next(node for node, f in enumerate(table["feature"]) if f >= 0)] = value
    path.write_text(json.dumps(doc))
    assert main(["predict", "--config", str(root / "config.json")]) == 2
    err = capsys.readouterr().err
    assert f"model file {path}" in err
    assert f"malformed {base['spec']['kind']} model: base {i}" in err


def test_cli_predict_refuses_a_format_4_model_file(small, tmp_path, capsys):
    # format 4 stored each node table's children in `left` and `right` columns
    root = tmp_path / "d"
    copy_of_small(small, root)
    path = root / "run" / "fit" / "model_CRM.json"
    doc = json.loads(path.read_text())
    doc["format_version"] = 4
    for base in doc["base"]:
        if "fitted_trees" in base["model"]:
            table = base["model"]["fitted_trees"]
            inner = np.array(table["feature"]) >= 0
            left = np.where(inner, inner.size - 2 * inner.sum() + 2 * np.cumsum(inner) - 2, -1)
            table["left"], table["right"] = left.tolist(), np.where(inner, left + 1, -1).tolist()
    path.write_text(json.dumps(doc))
    assert main(["predict", "--config", str(root / "config.json")]) == 2
    err = capsys.readouterr().err
    assert f"model file {path}" in err and "unsupported model format version 4" in err
    assert "run fit again" in err


def test_cli_predict_refuses_a_model_file_with_no_base_model(small, tmp_path, capsys):
    root = tmp_path / "d"
    copy_of_small(small, root)
    path = root / "run" / "fit" / "model_CRM.json"
    doc = json.loads(path.read_text())
    doc["base"], doc["stack"]["coefficients"] = [], []
    path.write_text(json.dumps(doc))
    assert main(["predict", "--config", str(root / "config.json")]) == 2
    err = capsys.readouterr().err
    assert f"model file {path}" in err and "malformed stack" in err and "(>= 1)" in err


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


@pytest.mark.parametrize("key, literal, reported", [
    ("scales_km", "[5, NaN]", "scales_km"),
    ("removed_landcover_classes", "[Infinity]", "removed_landcover_classes"),
    ("region_area_ha", "-Infinity", "region_area_ha"),
    ("learner_grids", '{"boosted_trees": [{"trees": 3, "learning_rate": NaN}]}',
     "learning_rate"),
])
def test_cli_non_finite_literal_is_exit_1(small, tmp_path, capsys, key, literal, reported):
    shutil.copytree(small.root / "inputs", tmp_path / "inputs")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**small.doc, key: "@"}).replace('"@"', literal))
    assert main(["ingest", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and reported in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("change", ["truncate", "pad"])
def test_cli_raster_of_wrong_size_is_exit_1(small, tmp_path, capsys, change):
    # validate reads headers only, and compares the file size with them
    shutil.copytree(small.root / "inputs", tmp_path / "inputs")
    layer = tmp_path / "inputs" / "landcover_2019.bin"
    raw = layer.read_bytes()
    layer.write_bytes(raw[:-1] if change == "truncate" else raw + b"\x00")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small.doc))
    assert main(["ingest", "--config", str(config)]) == 1
    assert "unreadable raster" in capsys.readouterr().err


def test_cli_bad_cell_is_found_by_the_stage_that_reads_it(small, tmp_path, capsys):
    # an infinity passes validate's header check; extract reads the layer
    shutil.copytree(small.root / "inputs", tmp_path / "inputs")
    layer = tmp_path / "inputs" / "pred_2005_greenness.bin"
    raw = bytearray(layer.read_bytes())
    raw[-4:] = np.array([np.inf], "<f4").tobytes()
    layer.write_bytes(bytes(raw))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small.doc))
    assert validate(PipelineConfig.load(config)) == []
    assert main(["ingest", "--config", str(config), "--stages", "extract"]) == 2
    assert "cells must not hold an infinity" in capsys.readouterr().err


def test_cli_raster_of_the_old_format_is_exit_1(small, tmp_path, capsys):
    # float32 values and then a mask byte per cell, under a header that names
    # no format: refused by validate before any stage, naming the format
    shutil.copytree(small.root / "inputs", tmp_path / "inputs")
    layer = tmp_path / "inputs" / "pred_2019_wetness.bin"
    grid = read_grid(layer)
    header = {key: getattr(grid, key) for key in ("ncols", "nrows", "x_origin", "y_origin",
                                                   "cellsize", "units")}
    layer.write_bytes(json.dumps({**header, "byte_order": "little"}, sort_keys=True).encode()
                      + b"\n" + grid.values.astype("<f4").tobytes() + grid.mask.tobytes())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small.doc))
    assert main(["ingest", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "unreadable raster: predictor 'wetness' for 2019" in err
    assert "old format of float32 values and a mask byte per cell" in err
    assert not (tmp_path / "run").exists()


def test_cli_non_finite_tree_biomass_is_exit_2(small, tmp_path, capsys):
    # ingest reads the tree table; a nan biomass must stop it, not a later fit
    root = tmp_path / "d"
    copy_of_small(small, root)
    trees = root / "inputs" / "trees.csv"
    with open(trees, newline="") as f:
        rows = list(csv.reader(f))
    rows[3][rows[0].index("agb_crm_kg")] = "nan"
    with open(trees, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    assert main(["ingest", "--config", str(root / "config.json")]) == 2
    assert "trees.csv:4" in capsys.readouterr().err


def test_cli_plot_listed_twice_in_one_year_is_exit_2(small, tmp_path, capsys):
    # ingest would otherwise keep one of the two rows at random
    root = tmp_path / "d"
    copy_of_small(small, root)
    plots = root / "inputs" / "plots.csv"
    with open(plots, newline="") as f:
        rows = list(csv.reader(f))
    again = list(rows[1])
    again[rows[0].index("x_m")] = str(float(again[rows[0].index("x_m")]) + 300.0)
    with open(plots, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows + [again])
    assert main(["ingest", "--config", str(root / "config.json")]) == 2
    pid, year = again[rows[0].index("plot_id")], again[rows[0].index("inventory_year")]
    assert f"plots.csv lists plot '{pid}' twice in inventory year {year}" in capsys.readouterr().err


def rename_tree_plots(trees, keep):
    """Prefix the plot id of every row of the tree table `trees` for which
    `keep(plot_id)` is false with "X"; returns how many of the renamed trees
    ingest keeps (those at or above the diameter threshold)."""
    from agbmap.inventory import MIN_DBH_CM

    with open(trees, newline="") as f:
        rows = list(csv.reader(f))
    at, dbh = rows[0].index("plot_id"), rows[0].index("dbh_cm")
    renamed = [r for r in rows[1:] if not keep(r[at])]
    for r in renamed:
        r[at] = "X" + r[at]
    with open(trees, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    return sum(float(r[dbh]) >= MIN_DBH_CM for r in renamed)


def test_ingest_warns_of_trees_that_match_no_plot(small, tmp_path, caplog):
    root = tmp_path / "d"
    config = copy_of_small(small, root)
    first = next(r for r in read_rows(root / "inputs" / "trees.csv") if float(r["dbh_cm"]) >= 12.7)
    n = rename_tree_plots(root / "inputs" / "trees.csv", lambda pid: pid != first["plot_id"])
    assert n > 0
    run(config, ["ingest"])
    assert (f"{n} trees match no plot id and inventory year of the plot table; "
            f"the first is plot 'X{first['plot_id']}' in {first['inventory_year']}"
            in caplog.text)


def test_ingest_of_trees_from_another_survey_is_exit_2(small, tmp_path, capsys):
    # every plot would otherwise get zero densities, found only by assess
    root = tmp_path / "d"
    copy_of_small(small, root)
    n = rename_tree_plots(root / "inputs" / "trees.csv", lambda pid: False)
    assert main(["ingest", "--config", str(root / "config.json")]) == 2
    err = capsys.readouterr().err
    assert f"none of the {n} trees in {root / 'inputs' / 'trees.csv'} matches" in err
    assert str(root / "inputs" / "plots.csv") in err


def test_cli_map_without_valid_cells_is_exit_2_naming_it(small, tmp_path, capsys):
    # a percent rank needs two valid cells; predict says which map has fewer
    root = tmp_path / "d"
    config = copy_of_small(small, root)
    lc = read_grid(config.years[2005].landcover)
    removed = float(small.config.removed_landcover_classes[0])
    write_grid(lc.with_values(np.where(lc.mask, removed, np.nan)),
               config.years[2005].landcover)
    assert main(["predict", "--config", str(root / "config.json")]) == 2
    err = capsys.readouterr().err
    assert "the CRM map of 2005 has 0 valid cells" in err
    assert "removed_landcover_classes" in err
    assert not (root / "run" / "predict" / "agb_2005_CRM.bin").exists()


INPUT_TABLES = ("plots.csv", "trees.csv", "carbon_fractions.csv")


def shuffle_rows(path, shuffle):
    """Reorder the data rows of the CSV table at `path` with `shuffle`, in
    place, keeping its header first."""
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    shuffle(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([header, *rows])


def files_under(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """A small synth whose ingest ran once on its tables as written."""
    root = tmp_path_factory.mktemp("ingested")
    run(PipelineConfig.load(synthesize(root, seed=4, ncols=32, nrows=32, n_plots=60)),
        ["ingest"])
    return root


@settings(max_examples=25, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_ingest_follows_the_tables_not_their_row_order(ingested, rnd):
    # a plot's year draw, its densities and the carbon fractions read the
    # rows each table holds, whatever their order
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "d"
        shutil.copytree(ingested, root, ignore=shutil.ignore_patterns("run"))
        for name in INPUT_TABLES:
            shuffle_rows(root / "inputs" / name, rnd.shuffle)
        run(PipelineConfig.load(root / "config.json"), ["ingest"])
        assert files_under(root / "run" / "ingest") == files_under(ingested / "run" / "ingest")
        fractions = [load_carbon_fractions(r / "inputs" / "carbon_fractions.csv")
                     for r in (ingested, root)]
        for year in {row.year for row in fractions[0]}:
            assert len({weighted_carbon_fraction([row for row in rows if row.year == year])
                        for rows in fractions}) == 1


def test_every_output_follows_the_tables_not_their_row_order(small, tmp_path):
    root = tmp_path / "d"
    config = copy_of_small(small, root)
    for name in INPUT_TABLES:
        shuffle_rows(root / "inputs" / name, random.Random(19).shuffle)
    run(config)
    assert files_under(root / "run") == files_under(small.root / "run")


# the model-file keys that hold feature-space values: split thresholds, and
# knn's feature means and scales (its training rows are stored standardized)
FEATURE_SPACE_KEYS = {"threshold", "mu", "sigma"}


def doubled_in_feature_space(before, after, key=None) -> bool:
    """Whether the JSON value `after` is `before` with every number under a
    `FEATURE_SPACE_KEYS` key exactly doubled and every other value equal."""
    if isinstance(before, dict):
        return before.keys() == after.keys() and all(
            doubled_in_feature_space(before[k], after[k], k) for k in before)
    if isinstance(before, list):
        return len(before) == len(after) and all(
            doubled_in_feature_space(b, a, key) for b, a in zip(before, after))
    want = 2 * before if key in FEATURE_SPACE_KEYS else before
    return type(after) is type(before) and after == want


def test_doubling_every_predictor_changes_no_output(tmp_path):
    # A predictor enters only through comparisons and standardization, which
    # doubling commutes with exactly, so every output of all nine stages keeps
    # its bytes; only the feature-space values of the model files and of
    # features.csv double, exactly.
    runs = {}
    for name in ("original", "doubled"):
        config = PipelineConfig.load(synthesize(tmp_path / name, seed=5, ncols=48, nrows=48,
                                                n_plots=120))
        if name == "doubled":
            for inputs in config.years.values():
                for path in inputs.predictors.values():
                    grid = read_grid(path)
                    write_grid(grid.with_values(grid.values * 2), path)
        run(config)
        runs[name] = files_under(Path(config.output_dir))
    original, doubled = runs["original"], runs["doubled"]
    assert original.keys() == doubled.keys()
    assert {name.split("/")[0] for name in original} == set(STAGE_ORDER)
    names = PipelineConfig.load(tmp_path / "original" / "config.json").predictor_names()
    for name, before in original.items():
        after = doubled[name]
        if name.startswith("fit/model_"):
            assert before != after and doubled_in_feature_space(json.loads(before),
                                                                json.loads(after)), name
        elif name == "extract/features.csv":
            rows = [list(csv.DictReader(text.decode().splitlines())) for text in (before, after)]
            assert len(rows[0]) == len(rows[1]) > 50
            for b, a in zip(*rows):
                assert a.keys() == b.keys()
                assert all(float(a[k]) == 2 * float(b[k]) if k in names else a[k] == b[k]
                           for k in b), b["plot_id"]
        else:
            assert before == after, name


# Which values of each output scale with the tree masses: a file's fields are
# CSV columns, JSON leaves (keys and list indices joined by "/") or, in a grid,
# "values"; fnmatch patterns. Every field of every output not listed here is
# unchanged when every mass is scaled.
MASS_SCALED = {
    "ingest/plots.csv": {"agb_crm", "agb_nsvb"},
    "ingest/model_dev.csv": {"agb_crm", "agb_nsvb"},
    "extract/features.csv": {"agb_crm", "agb_nsvb"},
    "fit/model_*.json": {"stack/intercept", "base/*/model/init_value", "base/*/model/y/*",
                         "base/*/model/fitted_trees/value/*"},
    "fit/summary.json": {"models/*/cv_rmse/*", "models/*/ybar_train"},
    "fit/test_metrics.csv": {"mae", "rmse", "me"},
    "predict/agb_*.bin": {"values"},
    "predict/summary.json": {"maps/*/max", "maps/*/mean", "maps/*/min"},
    "assess/assessment_*.csv": {"mae", "rmse", "me"},
    "assess/pairs_*.csv": {"y", "yhat"},
    "assess/summary.json": {"*/plot_to_pixel/mae", "*/plot_to_pixel/rmse",
                            "*/plot_to_pixel/me"},
    "agree/agreement_*.csv": {"gmfr_intercept"},
    "diff/agb_diff_*.bin": {"values"},
    "diff/change_*.bin": {"values"},
    "diff/summary.json": {"agb_diff_*/m*", "change_*/m*"},
    "stocks/stocks.csv": {"total_mt"},
    "stocks/design_minus_model.csv": {"design_mt", "model_mt", "design_minus_model_mt"},
    "rescale/rescale.csv": {"intercept", "coef_elevation", "test_rmse", "test_mae", "test_me"},
}


def output_fields(path: Path) -> list:
    """(field, value) of every value of an output file, in file order."""
    if path.suffix == ".bin":
        grid = read_grid(path)
        return [(key, getattr(grid, key)) for key in (*GEOMETRY, "units")] + [
            ("values", grid.values)]
    if path.suffix == ".csv":
        return [(column, cell) for row in read_rows(path) for column, cell in row.items()]

    def leaves(value, at):
        if not isinstance(value, (dict, list)):
            return [(at, value)]
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for k, v in items for leaf in leaves(v, f"{at}/{k}" if at else str(k))]
    return leaves(json.loads(path.read_text()), "")


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_scaling_every_tree_mass_scales_every_agb_output_exactly(tmp_path, factor):
    # Every AGB number is linear in the tree masses, and a power of two scales
    # every sum, mean and least-squares fit over them exactly; so each value
    # MASS_SCALED lists is scaled by exactly `factor`, and every other value of
    # all nine stages keeps its bits.
    roots = {}
    for name in ("original", "scaled"):
        roots[name] = tmp_path / name
        config = PipelineConfig.load(synthesize(roots[name], seed=5, ncols=48, nrows=48,
                                                n_plots=120))
        if name == "scaled":
            trees = roots[name] / "inputs" / "trees.csv"
            rows = read_rows(trees)
            for row in rows:
                for column in ("agb_crm_kg", "agb_nsvb_kg"):
                    row[column] = repr(float(row[column]) * factor)
            with open(trees, "w", newline="") as f:
                writer = csv.DictWriter(f, list(rows[0]), lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
        run(config)
    names = sorted(files_under(roots["original"] / "run"))
    assert names == sorted(files_under(roots["scaled"] / "run"))
    assert {name.split("/")[0] for name in names} == set(STAGE_ORDER)
    for pattern in MASS_SCALED:
        assert any(fnmatch.fnmatchcase(name, pattern) for name in names), pattern
    for name in names:
        before, after = (output_fields(roots[r] / "run" / name) for r in ("original", "scaled"))
        assert [f for f, _ in after] == [f for f, _ in before], name
        scaled = [pattern for file, fields in MASS_SCALED.items()
                  if fnmatch.fnmatchcase(name, file) for pattern in fields]
        moved = 0
        for (field, b), (_, a) in zip(before, after):
            if not any(fnmatch.fnmatchcase(field, pattern) for pattern in scaled):
                same = np.array_equal(a, b, equal_nan=True) if field == "values" else a == b
                assert same, (name, field)
            elif field == "values":
                assert np.array_equal(a, b * np.float32(factor), equal_nan=True), name
                moved += int(np.any(b[~np.isnan(b)]))
            elif b in ("", None):
                assert a == b, (name, field)
            else:  # a number, or a CSV cell that holds one
                assert type(a) is type(b) and float(a) == factor * float(b), (name, field, b, a)
                moved += float(b) != 0
        assert moved or not scaled, f"{name}: no value listed as scaled is nonzero"


def with_keys_reversed(value):
    """`value` with the keys of every JSON object in it in reverse order;
    arrays keep their order."""
    if isinstance(value, dict):
        return {key: with_keys_reversed(v) for key, v in reversed(value.items())}
    if isinstance(value, list):
        return [with_keys_reversed(v) for v in value]
    return value


def test_every_output_follows_the_configuration_not_its_key_order(small, tmp_path):
    root = tmp_path / "d"
    copy_of_small(small, root)
    doc = load_doc(root / "config.json")
    flipped = with_keys_reversed(doc)
    year = next(iter(doc["years"]))
    spec = doc["learner_grids"]["bagged_trees"][0]
    for before, after in ((doc, flipped), (doc["years"], flipped["years"]),
                          (doc["years"][year]["predictors"], flipped["years"][year]["predictors"]),
                          (doc["learner_grids"], flipped["learner_grids"]),
                          (spec, flipped["learner_grids"]["bagged_trees"][0])):
        assert len(before) > 1 and list(after) == list(before)[::-1]
    (root / "config.json").write_text(json.dumps(flipped, indent=2))
    config = PipelineConfig.load(root / "config.json")
    assert config.config_hash == small.config.config_hash
    run(config)
    assert files_under(root / "run") == files_under(small.root / "run")


def test_plot_id_with_comma_and_quote_survives_ingest_through_assess(small, tmp_path):
    root = tmp_path / "d"
    config = copy_of_small(small, root)
    old, new = read_rows(root / "run" / "extract" / "features.csv")[0]["plot_id"], 'P,"0'
    for name in ("plots.csv", "trees.csv"):
        path = root / "inputs" / name
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        at = rows[0].index("plot_id")
        with open(path, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(
                [rows[0]] + [[new if i == at and cell == old else cell
                              for i, cell in enumerate(r)] for r in rows[1:]])
    run(config, ["ingest", "extract", "fit", "predict", "assess"])
    for table in ("ingest/plots.csv", "ingest/model_dev.csv", "extract/features.csv"):
        ids = {r["plot_id"] for r in read_rows(root / "run" / table)}
        assert new in ids and old not in ids, table


def test_fit_names_the_features_table_missing_a_column(small, tmp_path):
    root = tmp_path / "d"
    config = copy_of_small(small, root)
    features = root / "run" / "extract" / "features.csv"
    rows = read_rows(features)
    with open(features, "w", newline="") as f:
        writer = csv.DictWriter(f, [c for c in rows[0] if c != "dist_age"],
                                extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    with pytest.raises(ValueError, match=r"extract/features\.csv is missing columns: "
                                         r"\['dist_age'\]"):
        run(config, {"fit"})


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
    ("learner_grids", {"knn": [{"kind": 3}]}, "unknown hyperparameters for knn: ['kind']"),
    ("scales_km", [2, 5, 2.0, 1, 1], "scales_km must not name a scale twice"),
])
def test_cli_malformed_value_is_exit_1(small, tmp_path, capsys, key, value, reported):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**small.doc, key: value}))
    assert main(["ingest", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and reported in err


@pytest.mark.parametrize("key, value", [("cv_folds", 5), ("train_frac", 0.8),
                                        ("rescale_sample", 1_000_000)])
def test_cli_fixed_method_number_is_an_unknown_key(small, tmp_path, capsys, key, value):
    # the folds, the fit/test split and the rescaling sample are the method's, not options
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**small.doc, key: value}))
    assert main(["ingest", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "unknown configuration keys" in err and repr(key) in err
    assert not (tmp_path / "run").exists()


def test_cli_knn_k_above_a_folds_training_rows_is_exit_1(tmp_path, capsys):
    # a fold fit keeps fewer rows than the training set, known only after extract;
    # fit refuses the grid before any tree grows
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out), "--cells", "60", "--plots", "40"]) == 0
    config = out / "config.json"
    doc = load_doc(config)
    config.write_text(json.dumps({**doc, "learner_grids": {
        **doc["learner_grids"], "knn": [{"k": 3}, {"k": 25}]}}))
    assert main(["ingest", "--config", str(config), "--stages", "extract"]) == 0
    n = len(read_rows(out / "run" / "extract" / "features.csv"))
    n_train = int(round(0.8 * n))  # fit's fixed share of training rows
    smallest = n_train - -(-n_train // 5)
    assert 3 <= smallest < 25
    assert main(["fit", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert (f"learner_grids.knn k 25 exceeds the {smallest} training rows of a fold "
            f"(5 folds of {n_train} training rows)") in err
    assert not (out / "run" / "fit" / "model_CRM.json").exists()


def test_cli_unknown_extra_stage_is_exit_1(small, capsys):
    assert main(["ingest", "--config", str(small.cfg_path),
                 "--stages", "bogus"]) == 1
    assert "unknown stage" in capsys.readouterr().err


def test_cli_missing_upstream_is_exit_2(small, tmp_path, capsys):
    assert main(["fit", "--config", str(small.cfg_path),
                 "--out", str(tmp_path / "fresh")]) == 2
    assert "missing upstream artifact" in capsys.readouterr().err


def test_cli_assess_needs_fit(small, tmp_path, capsys):
    # assess takes ybar_train from fit's summary, so a failed fit stops it
    root = tmp_path / "d"
    copy_of_small(small, root)
    features = root / "run" / "extract" / "features.csv"
    features.write_text(features.read_text().splitlines(keepends=True)[0])
    cli = ["--config", str(root / "config.json")]
    assert main(["fit", *cli]) == 2
    assert main(["assess", *cli]) == 2
    err = capsys.readouterr().err
    assert "missing upstream artifact: stage 'assess' needs 'fit'" in err


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
    assert f"configuration hash: {small.config.config_hash}" in stdout
    assert "another configuration" not in stdout


def test_cli_report_shows_only_stages_of_the_current_configuration(tmp_path, capsys):
    data = tmp_path / "d"
    cli = ["--config", str(data / "config.json")]
    assert main(["synth", "--out", str(data), "--seed", "3", "--cells", "60",
                 "--plots", "40"]) == 0
    assert main(["rescale", *cli, "--stages",
                 "ingest,extract,fit,predict,assess,agree,diff,stocks"]) == 0
    capsys.readouterr()
    assert main(["ingest", *cli, "--seed", "99"]) == 0
    assert main(["report", *cli, "--seed", "99"]) == 0
    lines = capsys.readouterr().out.splitlines()
    reseeded = PipelineConfig.load(data / "config.json", {"seed": 99}).config_hash
    manifest = RunManifest.load(data / "run")
    assert {s for s, rec in manifest.stages.items() if rec.config_hash != reseeded} == \
        {"extract", "fit", "predict", "assess", "agree", "diff", "stocks", "rescale"}
    assert f"configuration hash: {reseeded}" in lines
    assert "stages completed: ingest" in lines
    assert ("stages built from another configuration, not shown: extract, fit, predict, "
            "assess, agree, diff, stocks, rescale") in lines
    text = "\n".join(lines)
    for title in ("model test-set metrics", "map assessment", "KS distance",
                  "two-map agreement", "difference layers", "stocks and stock changes",
                  "allometry rescaling"):
        assert title not in text
    # the seed-3 configuration sees its own eight stages, and not the seed-99 ingest
    assert main(["report", *cli]) == 0
    text = capsys.readouterr().out
    assert "stages completed: extract, fit, predict, assess, agree, diff, stocks, rescale" in text
    assert "not shown: ingest\n" in text
    assert "plots:" not in text and "allometry rescaling" in text


def test_agreement_row_leaves_undefined_statistics_empty():
    from agbmap.pipeline import AGREEMENT_COLUMNS, _agreement_row

    def row(y, yhat):
        out = _agreement_row(5.0, np.array(y, dtype=float), np.array(yhat, dtype=float))
        assert list(out) == list(AGREEMENT_COLUMNS)
        assert (out["scale_km"], out["n"]) == (5.0, len(y))
        return out

    statistics = AGREEMENT_COLUMNS[2:]
    for y, yhat in (([], []), ([4.0], [5.0])):  # fewer than two pairs
        assert all(row(y, yhat)[k] is None for k in statistics)
    # a reference without variance: no line, no AC
    assert all(row([3.0, 3.0, 3.0], [1.0, 2.0, 4.0])[k] is None for k in statistics)
    # d = 0 with variance in both: the line exists, AC does not
    out = row([0.0, 2.0, 1.0, 1.0], [1.0, 1.0, 0.0, 2.0])
    assert (out["gmfr_intercept"], out["gmfr_slope"]) == (0.0, 1.0)
    assert out["ac"] is out["ac_systematic"] is out["ac_unsystematic"] is None
    # the ordinary case fills every statistic
    assert all(row([1.0, 2.0, 4.0], [1.5, 2.5, 3.0])[k] is not None for k in statistics)


def test_cli_report_without_run_is_exit_2(small, tmp_path, capsys):
    assert main(["report", "--config", str(small.cfg_path),
                 "--out", str(tmp_path / "empty")]) == 2
    assert "nothing to report" in capsys.readouterr().err


def test_report_text_matches_manifest(small):
    text = render_report(small.config)
    for stage in small.manifest.stages:
        assert stage in text


def test_report_prints_its_sections_in_order(small):
    # each section is a block after a blank line; its first line up to a colon
    blocks = render_report(small.config).split("\n\n")[1:]
    assert [b.splitlines()[0].split(":")[0] for b in blocks if b] == [
        "plots",
        "model test-set metrics",
        "map assessment, CRM (scale 1 = plot to pixel)",
        "map assessment, NSVB (scale 1 = plot to pixel)",
        "KS distance, reference vs predicted (CRM)",
        "two-map agreement, 2005 (CRM vs NSVB)",
        "two-map agreement, 2019 (CRM vs NSVB)",
        "difference layers",
        "stocks and stock changes (Mt)",
        "design minus model (Mt)",
        "note",
        "allometry rescaling (NSVB from CRM and elevation)",
    ]
