"""Stage orchestration: configuration, validation, caching, and the stage
functions tying ingestion, extraction, modeling, mapping, assessment, and
accounting together.

Every stage is a pure function of (configuration, input files), seeded from
the configured seed, so reruns produce byte-identical data outputs. The run
manifest records what was built from which configuration hash; timings in the
manifest are the one thing excluded from the byte-identity guarantee.

Every rule on a configured value is checked where the configuration is read,
by `PipelineConfig.from_document` (`null` is "not given" for `learner_grids` and
`region_area_ha`); `validate` checks only the files and raster headers it names,
and `run` calls it before any stage, so the library and the CLI refuse the same
files. The stages trust that the input rasters share one grid.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import time
from collections import Counter
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import carbon as carbon_mod
from .footprint import PlotFootprint, pixel_overlap_weights, weighted_mean
from .grid import (
    GEOMETRY, Grid, difference, finite_number, percent_rank, read_grid,
    read_header, summarize, write_grid,
)
from .hexgrid import aggregate_pairs, assign_lattice, covering_hexgrid
from .inventory import (
    ALLOMETRIES, PLOT_COLUMNS, PlotRecord, attach_densities, filter_model_dev,
    load_plots, load_trees, select_single_inventory, split_by_panel,
)
from .learners import (
    DEFAULT_GRIDS, EnsembleModel, LearnerSpec, fit_stack, grid_search, of_type, predict_grid,
)
from .metrics import (
    PairedSample, ac_decompose, basic_metrics, gmfr_fit, ks_statistic,
    multiscale_assessment,
)
from .tables import number, read_table, write_table

LOGGER = logging.getLogger(__name__)

ARTIFACT_VERSION = 17

# the method's fixed numbers: fit's cross-validation folds, and the share of
# rows (plots in fit, sampled cells in rescale) fitted rather than tested
CV_FOLDS = 5
TRAIN_FRAC = 0.8

ASSESSMENT_COLUMNS = ("scale_km", "n", "pph", "mae", "pct_mae", "rmse",
                      "pct_rmse", "me", "r2", "dr")
TEST_METRIC_COLUMNS = ("allometry", "n", "mae", "pct_mae", "rmse", "pct_rmse",
                       "me", "r2", "dr")
AGREEMENT_COLUMNS = ("scale_km", "n", "ac", "ac_systematic", "ac_unsystematic",
                     "gmfr_intercept", "gmfr_slope")
STOCK_COLUMNS = ("quantity", "method", "allometry", "year", "total_mt", "region_area_ha")
DESIGN_MINUS_MODEL_COLUMNS = ("quantity", "allometry", "year", "design_mt", "model_mt",
                              "design_minus_model_mt")
# ingest's plot tables: the input plot columns, then the attached densities, in
# PlotRecord field order; plots.csv adds each plot's role
INGEST_PLOT_COLUMNS = {**PLOT_COLUMNS, "agb_crm": number, "agb_nsvb": number}


class ConfigError(ValueError):
    """A configuration document, one of its values, or a file it names, that
    breaks its rule; or a stage name that `run` does not know."""


def _unique_keys(pairs) -> dict:
    """A JSON object of the configuration; a key it gives twice raises (json keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"configuration repeats the key {key!r} in one object")
        obj[key] = value
    return obj


class PipelineError(RuntimeError):
    """Stage execution failure (missing artifacts, stale cache, bad data)."""


# -- configuration --------------------------------------------------------

@dataclass
class YearInputs:
    predictors: dict[str, Path]
    landcover: Path


@dataclass
class PipelineConfig:
    seed: int
    output_dir: Path
    holdout_panel: int             # 1..5, the inventory panel held out for assessment
    scales_km: list[float]
    removed_landcover_classes: list[float]
    trees: Path
    plots: Path
    carbon_fractions: Path
    elevation: Path
    years: dict[int, YearInputs]
    # optional keys; `null` means "not given": DEFAULT_GRIDS, and the extent's area
    learner_grids: dict[str, list[LearnerSpec]] | None = None
    region_area_ha: float | None = None
    config_hash: str = ""

    @classmethod
    def load(cls, path, overrides=None) -> "PipelineConfig":
        """Read a configuration file; `overrides` replace top-level keys of
        the document before it is checked, so they feed the hash too."""
        path = Path(path)
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f, object_pairs_hook=_unique_keys)
        except OSError as e:
            raise ConfigError(f"cannot read configuration {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"configuration {path} is not valid JSON: {e}") from e
        if overrides and isinstance(raw, dict):
            raw = {**raw, **overrides}
        return cls.from_document(raw, base_dir=path.parent)

    @classmethod
    def from_document(cls, raw, base_dir) -> "PipelineConfig":
        """The configuration a JSON document gives. Every rule on a configured
        value is checked here, and a value that breaks one raises ConfigError
        naming its key; `validate` checks only the files the paths name."""
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        missing = sorted(_REQUIRED_KEYS - set(raw))
        if missing:
            raise ConfigError(f"configuration is missing keys: {missing}")
        unknown = sorted(set(raw) - _REQUIRED_KEYS - _OPTIONAL_KEYS)
        if unknown:
            raise ConfigError(f"unknown configuration keys: {unknown}")
        if not of_type(raw["seed"], int):
            raise ConfigError("seed must be an integer")
        if raw["seed"] < 0:  # numpy seeds no generator from it
            raise ConfigError(f"seed must be non-negative, got {raw['seed']}")
        panel = raw["holdout_panel"]
        if not (of_type(panel, int) and 1 <= panel <= 5):
            raise ConfigError(f"holdout_panel must be an integer 1..5, got {panel!r}")
        scales, removed = raw["scales_km"], raw["removed_landcover_classes"]
        if not (isinstance(scales, list) and scales
                and all(finite_number(s) and s > 0 for s in scales)):
            raise ConfigError("scales_km must be a non-empty array of positive finite numbers")
        if len(set(scales)) < len(scales):  # as numbers: 2 and 2.0 are one scale
            raise ConfigError(f"scales_km must not name a scale twice, got {scales}")
        tiny, top = float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max)
        if not (isinstance(removed, list) and all(  # predict compares them in float32
                finite_number(c) and (c == 0 or tiny <= abs(c) <= top) for c in removed)):
            raise ConfigError("removed_landcover_classes must be an array of finite numbers, each "
                              f"0 or of a magnitude float32 holds ({tiny:g} to {top:g})")
        area = raw.get("region_area_ha")
        if area is not None and not (finite_number(area) and area > 0):
            raise ConfigError(f"region_area_ha must be a positive finite number, got {area!r}")
        if not isinstance(raw["years"], dict) or not raw["years"]:
            raise ConfigError("years must be a non-empty object")

        base = Path(base_dir)

        def path_of(v, label):
            if not isinstance(v, str) or not v:
                raise ConfigError(f"{label} must be a path string")
            p = Path(v)
            return p if p.is_absolute() else base / p

        years: dict[int, YearInputs] = {}
        keys: dict[int, str] = {}
        for year_key, entry in raw["years"].items():
            try:
                year = int(year_key)
            except (TypeError, ValueError):
                raise ConfigError(f"year key {year_key!r} is not an integer") from None
            if year in keys:
                raise ConfigError(f"year keys {keys[year]!r} and {year_key!r} both name {year}")
            keys[year] = year_key
            if not isinstance(entry, dict) or set(entry) != {"predictors", "landcover"}:
                raise ConfigError(
                    f"year {year} must define exactly 'predictors' and 'landcover'")
            preds = entry["predictors"]
            if not isinstance(preds, dict) or not preds:
                raise ConfigError(f"year {year} needs at least one predictor layer")
            years[year] = YearInputs(
                predictors={name: path_of(p, f"predictor {name!r}")
                            for name, p in preds.items()},
                landcover=path_of(entry["landcover"], f"landcover for {year}"),
            )
        if len({frozenset(inputs.predictors) for inputs in years.values()}) > 1:
            raise ConfigError("predictor layer names differ between years; one model "
                              "must apply to every year")

        grids = raw.get("learner_grids")
        grids = DEFAULT_GRIDS if grids is None else grids
        if not isinstance(grids, dict) or not grids:
            raise ConfigError("learner_grids must be a non-empty object when given")
        specs = {}
        for kind, grid in grids.items():
            if not (isinstance(grid, list) and grid and all(isinstance(hp, dict) for hp in grid)):
                raise ConfigError(f"learner_grids: the learner grid for {kind!r} must be a "
                                  "non-empty array of objects")
            try:
                specs[kind] = [LearnerSpec.make(kind, **hp) for hp in grid]
            except ValueError as e:
                raise ConfigError(f"learner_grids: the learner grid for {kind!r}: {e}") from None

        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        return cls(
            seed=raw["seed"],
            output_dir=path_of(raw["output_dir"], "output_dir"),
            holdout_panel=panel,
            scales_km=list(scales),
            removed_landcover_classes=list(removed),
            trees=path_of(raw["trees"], "trees"),
            plots=path_of(raw["plots"], "plots"),
            carbon_fractions=path_of(raw["carbon_fractions"], "carbon_fractions"),
            elevation=path_of(raw["elevation"], "elevation"),
            years=dict(sorted(years.items())),
            learner_grids=specs,
            region_area_ha=area,
            config_hash=hashlib.sha256(canonical.encode()).hexdigest(),
        )

    def predictor_names(self) -> list[str]:
        first = next(iter(self.years.values()))
        return sorted(first.predictors)


# one document key per field; a field without a default is a required key
_KEYS = {f.name: f.default for f in fields(PipelineConfig) if f.name != "config_hash"}
_REQUIRED_KEYS = {key for key, default in _KEYS.items() if default is MISSING}
_OPTIONAL_KEYS = _KEYS.keys() - _REQUIRED_KEYS


def validate(config: PipelineConfig) -> list[str]:
    """Check the files a configuration names: each must exist, and each
    raster's header must be readable, fit its file's size and match the
    elevation grid. Every raster is checked on its own, so one unreadable
    header hides no other finding. Every configured value was checked when the
    configuration was read (`PipelineConfig.from_document`); `run` calls this
    before any stage and refuses a configuration with any finding. Empty list
    means valid."""
    rasters = [("elevation", config.elevation)]  # the first is the reference grid
    for year, inputs in config.years.items():
        rasters += [(f"predictor {name!r} for {year}", p)
                    for name, p in sorted(inputs.predictors.items())]
        rasters.append((f"landcover for {year}", inputs.landcover))
    findings = [f"missing file: {label} at {p}" for label, p in [
        ("trees", config.trees), ("plots", config.plots),
        ("carbon_fractions", config.carbon_fractions), *rasters] if not Path(p).is_file()]
    if findings:
        return findings

    # headers and file sizes only: a stage checks the cells of a layer it reads
    geometries = {}
    for label, p in rasters:
        try:
            header = read_header(p)
        except (OSError, ValueError) as e:
            findings.append(f"unreadable raster: {label} at {p}: {e}")
        else:
            geometries[label] = [header[key] for key in GEOMETRY]
    ref = geometries.pop("elevation", None)
    findings += [f"alignment: {label} does not match the elevation grid"
                 for label, geometry in geometries.items() if ref is not None and geometry != ref]
    return findings


# -- manifest -------------------------------------------------------------

@dataclass
class StageRecord:
    outputs: list[str]
    config_hash: str
    elapsed_s: float

    @staticmethod
    def fits(doc) -> bool:
        """Whether `doc`, as read from JSON, is the body of a stage record."""
        return (isinstance(doc, dict) and doc.keys() == {"outputs", "config_hash", "elapsed_s"}
                and isinstance(doc["outputs"], list)
                and all(isinstance(p, str) for p in doc["outputs"])
                and isinstance(doc["config_hash"], str) and finite_number(doc["elapsed_s"]))


@dataclass
class RunManifest:
    artifact_version: int | None
    config_hash: str
    stages: dict[str, StageRecord] = field(default_factory=dict)
    unusable: str | None = None  # why the manifest read from disk cannot be used

    @staticmethod
    def path_in(output_dir) -> Path:
        return Path(output_dir) / "manifest.json"

    @classmethod
    def load(cls, output_dir) -> "RunManifest | None":
        """The manifest under `output_dir`, None if there is none. One that is
        not UTF-8 JSON, not an object, of another artifact version or with a
        body that does not fit the current one loads without stages, and
        `unusable` says which; all but the other version load as version None."""
        p = cls.path_in(output_dir)
        if not p.is_file():
            return None
        try:
            with open(p, encoding="utf-8") as f:
                doc = json.load(f)
        except ValueError:  # not JSON, or not UTF-8
            return cls(None, "", unusable="it is not UTF-8 JSON")
        if not (isinstance(doc, dict) and "artifact_version" in doc):
            return cls(None, "", unusable="it is not a JSON object naming its artifact version")
        version = doc["artifact_version"]
        if version != ARTIFACT_VERSION:  # its records may not fit StageRecord
            return cls(version, "", unusable=f"it is from artifact version {version}, "
                                             f"and this code writes version {ARTIFACT_VERSION}")
        stages = doc.get("stages")
        if not (isinstance(doc.get("config_hash"), str) and isinstance(stages, dict)
                and all(StageRecord.fits(rec) for rec in stages.values())):
            return cls(None, "", unusable=f"its body does not fit artifact version {version}")
        return cls(
            artifact_version=doc["artifact_version"],
            config_hash=doc["config_hash"],
            stages={name: StageRecord(**rec) for name, rec in doc["stages"].items()},
        )

    def save(self, output_dir) -> None:
        doc = {
            "artifact_version": self.artifact_version,
            "config_hash": self.config_hash,
            "stages": {name: asdict(rec) for name, rec in self.stages.items()},
        }
        # swapped in whole: an interrupted write leaves the old manifest and a stray .tmp
        path = self.path_in(output_dir)
        tmp = path.with_name(path.name + ".tmp")
        _write_json(tmp, doc)
        os.replace(tmp, path)


# -- small output helpers -------------------------------------------------

def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# -- stages ---------------------------------------------------------------

# stage name -> stage function, in run order. `run()` looks each function up
# here when it calls it, so a wrapper bound into this table sees every call.
_STAGES: dict = {}


def _stage(*needs):
    """Register `_stage_<name>` as the next stage; it reads the outputs of
    the stages named in `needs`. A stage function takes the configuration and
    its own, empty, output directory."""
    def register(fn):
        fn.needs = needs
        _STAGES[fn.__name__.removeprefix("_stage_")] = fn
        return fn
    return register


@_stage()
def _stage_ingest(config: PipelineConfig, out: Path) -> None:
    trees = load_trees(config.trees)
    plot_rows = load_plots(config.plots)
    known_years = set(config.years)
    stray = sorted({p.inventory_year for p in plot_rows} - known_years)
    if stray:
        raise PipelineError(f"plots reference inventory years with no rasters: {stray}")
    # a tree under no (plot id, inventory year) of the plot table adds to no density
    measured = {(p.plot_id, p.inventory_year) for p in plot_rows}
    orphans = [t for t in trees if (t.plot_id, t.inventory_year) not in measured]
    if trees and len(orphans) == len(trees):
        raise PipelineError(f"none of the {len(trees)} trees in {config.trees} matches the "
                            f"plot id and inventory year of a plot in {config.plots}")
    if orphans:
        LOGGER.warning("%d trees match no plot id and inventory year of the plot table; "
                       "the first is plot %r in %d", len(orphans), orphans[0].plot_id,
                       orphans[0].inventory_year)

    selected = select_single_inventory(attach_densities(plot_rows, trees),
                                       seed=[config.seed, 101])
    partition = split_by_panel(selected, config.holdout_panel)
    model_dev = filter_model_dev(partition.dev)

    def row(p: PlotRecord) -> dict:
        return dict(zip(INGEST_PLOT_COLUMNS, astuple(p)))

    # both tables in plot-id order, the order of `selected`
    write_table(out / "plots.csv", [*INGEST_PLOT_COLUMNS, "role"],
                [{**row(p), "role": "assessment" if p.panel == config.holdout_panel
                  else "development"} for p in selected])
    write_table(out / "model_dev.csv", INGEST_PLOT_COLUMNS, map(row, model_dev))

    per_year = Counter(p.inventory_year for p in selected)
    _write_json(out / "summary.json", {
        "n_plot_rows": len(plot_rows),
        "n_selected": len(selected),
        "n_development": len(partition.dev),
        "n_model_dev": len(model_dev),
        "n_assessment": len(partition.assessment),
        "holdout_panel": config.holdout_panel,
        "per_year": {str(y): n for y, n in sorted(per_year.items())},
    })


def _read_plots(config: PipelineConfig, name: str, role=None) -> list[PlotRecord]:
    """The records of ingest's plot table `name`; given a `role`, only its plots."""
    columns = {**INGEST_PLOT_COLUMNS, "role": str} if role else INGEST_PLOT_COLUMNS
    rows = read_table(Path(config.output_dir) / "ingest" / name, "ingest plot", columns)
    return [PlotRecord(*row.values()) for row in rows if row.pop("role", role) == role]


def _sample_footprints(plots, layers: dict[int, list[Path]]) -> np.ndarray:
    """The area-weighted mean of each layer of a plot's inventory year under its
    footprint, as a (plots, layers) array in plot order; nan where a layer has
    no valid cell under it. `layers` maps each year to its layer paths, equally
    many for every year, and each year's are read once. They share one
    geometry (`run` checked the input layers, and a year's maps come from one
    predict on that grid), so each plot's overlap weights are computed once."""
    means = np.full((len(plots), len(next(iter(layers.values())))), np.nan)
    for year, paths in layers.items():
        grids = [read_grid(path) for path in paths]
        for i, p in enumerate(plots):
            if p.inventory_year == year:
                weights = pixel_overlap_weights(PlotFootprint(p.x, p.y), grids[0])
                for j, grid in enumerate(grids):
                    v = weighted_mean(grid, weights)
                    means[i, j] = np.nan if v is None else v
        del grids  # released before the next year's layers are read
    return means


@_stage("ingest")
def _stage_extract(config: PipelineConfig, out: Path) -> None:
    dev = _read_plots(config, "model_dev.csv")
    names = config.predictor_names()

    feats = _sample_footprints(dev, {year: [inputs.predictors[name] for name in names]
                                     for year, inputs in config.years.items()})
    covered = ~np.isnan(feats).any(axis=1)
    n_dropped = int(np.count_nonzero(~covered))
    rows = [{"plot_id": p.plot_id, "inventory_year": p.inventory_year,
             "agb_crm": p.agb_crm, "agb_nsvb": p.agb_nsvb, **dict(zip(names, values))}
            for p, values, ok in zip(dev, feats.tolist(), covered) if ok]
    if n_dropped:
        LOGGER.warning("extraction dropped %d plots with no overlapping valid cells",
                       n_dropped)

    write_table(out / "features.csv",
                ["plot_id", "inventory_year", "agb_crm", "agb_nsvb", *names], rows)
    _write_json(out / "summary.json", {
        "n_rows": len(rows),
        "n_dropped_no_coverage": n_dropped,
    })


@_stage("extract")
def _stage_fit(config: PipelineConfig, out: Path) -> None:
    names = config.predictor_names()
    rows = list(read_table(Path(config.output_dir) / "extract" / "features.csv", "features",
                           dict.fromkeys(["agb_crm", "agb_nsvb", *names], number)))
    if len(rows) < 10:
        raise PipelineError(f"only {len(rows)} feature rows; too few to fit models")
    X = np.array([[r[name] for name in names] for r in rows], dtype=np.float64)
    Y = np.array([[r["agb_crm"] for r in rows], [r["agb_nsvb"] for r in rows]])  # as ALLOMETRIES

    n = len(rows)
    rng = np.random.default_rng([config.seed, 301])
    perm = rng.permutation(n)
    n_train = int(round(TRAIN_FRAC * n))  # 8 <= n_train <= n - 2 for n >= 10
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    smallest = n_train - -(-n_train // CV_FOLDS)  # a fold's fewest training rows
    grids = config.learner_grids
    for spec in grids.get("knn", []):
        if spec.hp["k"] > smallest:
            raise ConfigError(f"learner_grids.knn k {spec.hp['k']} exceeds the {smallest} "
                              f"training rows of a fold ({CV_FOLDS} folds of {n_train} "
                              "training rows)")
    kinds = sorted(grids)
    summary: dict = {"n_rows": n, "n_train": int(n_train), "models": {}}
    # one search per kind: each family grows both allometries' folds and final fits together
    Xtr, Xte, Ytr = X[train_idx], X[test_idx], Y[:, train_idx]
    searched = [grid_search(grids[kind], Xtr, Ytr, CV_FOLDS,
                            [[config.seed, 310, a, k_idx] for a in range(len(Y))],
                            [[config.seed, 320, a, k_idx] for a in range(len(Y))])
                for k_idx, kind in enumerate(kinds)]
    test_rows = []
    for a_idx, allometry in enumerate(ALLOMETRIES):
        ytr, yte = Ytr[a_idx], Y[a_idx, test_idx]
        _, oof_cols, scores, models = zip(*(results[a_idx] for results in searched))
        stack = fit_stack(np.column_stack(oof_cols), ytr)
        if stack.rank_deficient:
            LOGGER.warning("stacking design for %s is rank deficient; "
                           "minimal-norm coefficients used", allometry)
        ens = EnsembleModel(models=list(models), stack=stack, feature_names=names)
        with open(out / f"model_{allometry}.json", "w", encoding="utf-8") as f:
            f.write(ens.to_json())

        pairs = PairedSample(y=yte, yhat=ens.predict(Xte))
        row = asdict(basic_metrics(pairs, ybar_train=float(ytr.mean())))
        test_rows.append({"allometry": allometry, **row})
        summary["models"][allometry] = {
            "cv_rmse": {kind: {json.dumps(s.to_dict(), sort_keys=True): r for s, r in kind_scores}
                        for kind, kind_scores in zip(kinds, scores)},
            "ybar_train": float(ytr.mean()),
        }

    write_table(out / "test_metrics.csv", TEST_METRIC_COLUMNS, test_rows)
    _write_json(out / "summary.json", summary)


def _load_model(config: PipelineConfig, allometry: str) -> EnsembleModel:
    p = Path(config.output_dir) / "fit" / f"model_{allometry}.json"
    with open(p, encoding="utf-8") as f:
        try:
            return EnsembleModel.from_json(f.read())
        except (KeyError, TypeError, ValueError) as e:  # a malformed model is a ValueError
            raise ValueError(f"model file {p}: {type(e).__name__}: {e}") from e


def _map_path(config: PipelineConfig, kind: str, year: int, allometry: str) -> Path:
    return Path(config.output_dir) / "predict" / f"{kind}_{year}_{allometry}.bin"


@_stage("fit")
def _stage_predict(config: PipelineConfig, out: Path) -> None:
    models = {allometry: _load_model(config, allometry) for allometry in ALLOMETRIES}
    removed = np.array([float(c) for c in config.removed_landcover_classes], dtype=np.float32)
    map_summaries = {}
    for year in sorted(config.years):
        inputs = config.years[year]
        layers = {name: read_grid(p) for name, p in sorted(inputs.predictors.items())}
        lc = read_grid(inputs.landcover)
        # the mapped domain: cells of a known landcover class that is not removed
        domain = lc.mask & ~np.isin(lc.values, removed)
        del lc
        for allometry, model in models.items():
            agb = predict_grid(model, layers, domain)
            summary = summarize(agb)
            if summary.n_valid < 2:  # too few to rank
                raise PipelineError(
                    f"the {allometry} map of {year} has {summary.n_valid} valid cells, fewer than "
                    "the 2 it needs; check removed_landcover_classes against the landcover classes")
            write_grid(agb, _map_path(config, "agb", year, allometry))
            write_grid(percent_rank(agb), _map_path(config, "pctrank", year, allometry))
            del agb  # before the next map is predicted
            map_summaries[f"{year}_{allometry}"] = asdict(summary)
        del layers, domain  # before the next year's rasters are read
    _write_json(out / "summary.json", {"maps": map_summaries})


def _compared_scales(config: PipelineConfig) -> list[float]:
    """The plot- or cell-level comparison (1 km) first, then every other
    configured hexagon scale in configured order."""
    return [1] + [s for s in config.scales_km if s != 1]


@_stage("ingest", "fit", "predict")
def _stage_assess(config: PipelineConfig, out: Path) -> None:
    assessment = _read_plots(config, "plots.csv", "assessment")
    with open(Path(config.output_dir) / "fit" / "summary.json", encoding="utf-8") as f:
        fitted = json.load(f)["models"]

    # (plot, allometry) map means; a year's two maps are sampled under its plots together
    sampled = _sample_footprints(assessment, {
        year: [_map_path(config, "agb", year, a) for a in ALLOMETRIES] for year in config.years})

    summary: dict = {}
    for allometry, column in zip(ALLOMETRIES, sampled.T.tolist()):
        inside = [(p, yhat) for p, yhat in zip(assessment, column) if not np.isnan(yhat)]
        if len(inside) < 2:
            raise PipelineError(
                f"only {len(inside)} assessment plots fall inside the mapped area")
        ys = np.array([p.agb(allometry) for p, _ in inside])
        yhats = np.array([yhat for _, yhat in inside])
        pair_rows = [{"plot_id": p.plot_id, "x_m": p.x, "y_m": p.y,
                      "inventory_year": p.inventory_year, "y": p.agb(allometry), "yhat": yhat}
                     for p, yhat in inside]
        reports = multiscale_assessment(PairedSample(y=ys, yhat=yhats),
                                        np.array([(p.x, p.y) for p, _ in inside]),
                                        spacings_km=_compared_scales(config),
                                        ybar_train=fitted[allometry]["ybar_train"])
        write_table(out / f"assessment_{allometry}.csv", ASSESSMENT_COLUMNS,
                    [asdict(rep) for rep in reports])
        write_table(out / f"pairs_{allometry}.csv",
                    ["plot_id", "x_m", "y_m", "inventory_year", "y", "yhat"], pair_rows)
        summary[allometry] = {
            "n_outside_mapped_area": len(assessment) - len(inside),
            "ks_reference_vs_predicted": ks_statistic(ys, yhats),
            "plot_to_pixel": asdict(reports[0]),
        }
    _write_json(out / "summary.json", summary)


def _agreement_row(scale_km, y, yhat) -> dict:
    """One agreement row, None where undefined: AC needs the GMFR line and d != 0."""
    row = dict.fromkeys(AGREEMENT_COLUMNS)
    row.update(scale_km=scale_km, n=int(y.size))
    if y.size < 2:
        return row
    pairs = PairedSample(y=y, yhat=yhat)
    try:
        line = gmfr_fit(pairs)
        row.update(gmfr_intercept=line.a, gmfr_slope=line.b)
        dec = ac_decompose(pairs)
        row.update(ac=dec.ac, ac_systematic=dec.ac_systematic,
                   ac_unsystematic=dec.ac_unsystematic)
    except ValueError:
        pass
    return row


@_stage("predict")
def _stage_agree(config: PipelineConfig, out: Path) -> None:
    # per year: the values of the cells valid in both maps, and where those
    # cells are; no map outlives its year
    years = {}
    for year in sorted(config.years):
        crm, nsvb = (read_grid(_map_path(config, "agb", year, a)) for a in ALLOMETRIES)
        joint = crm.mask & nsvb.mask
        xs, ys = crm.cell_centers()  # the maps share one grid
        years[year] = (crm.values[joint].astype(np.float64),
                       nsvb.values[joint].astype(np.float64), joint)
        del crm, nsvb
    rows = {year: [_agreement_row(1.0, y, yhat)] for year, (y, yhat, _) in years.items()}
    for s_km in _compared_scales(config)[1:]:
        # one tessellation covering the grid's cell centers, shared by every
        # year: xs run west to east, ys north to south
        hexgrid = covering_hexgrid([[xs[0], ys[-1]], [xs[-1], ys[0]]], float(s_km) * 1000.0)
        ids = assign_lattice(xs, ys, hexgrid)
        for year, (y, yhat, joint) in years.items():
            means = aggregate_pairs(PairedSample(y=y, yhat=yhat), ids[joint], hexgrid)
            rows[year].append(_agreement_row(float(s_km), *means.T))
        del ids  # before the next scale's lattice

    for year in years:
        write_table(out / f"agreement_{year}.csv", AGREEMENT_COLUMNS, rows[year])


@_stage("predict")
def _stage_diff(config: PipelineConfig, out: Path) -> None:
    summaries = {}

    def emit(name: str, grid: Grid) -> None:
        write_grid(grid, out / f"{name}.bin")
        summaries[name] = asdict(summarize(grid))

    years = sorted(config.years)
    agb = {}  # year -> allometry -> map
    for year in years:
        agb[year] = {a: read_grid(_map_path(config, "agb", year, a)) for a in ALLOMETRIES}
        emit(f"agb_diff_{year}", difference(agb[year]["NSVB"], agb[year]["CRM"]))
        # the rank maps live only while they are differenced
        emit(f"pctrank_diff_{year}", difference(
            *(read_grid(_map_path(config, "pctrank", year, a)) for a in ("NSVB", "CRM"))))

    if len(years) >= 2:
        changes = {a: difference(agb[years[-1]][a], agb[years[0]][a]) for a in ALLOMETRIES}
        for allometry, change in changes.items():
            emit(f"change_{allometry}", change)
        emit("change_diff", difference(changes["NSVB"], changes["CRM"]))

    _write_json(out / "summary.json", summaries)


@_stage("ingest", "predict")
def _stage_stocks(config: PipelineConfig, out: Path) -> None:
    # reads no raster: map means come from predict's summary, geometry from one header
    plots = _read_plots(config, "plots.csv")
    fraction_rows = carbon_mod.load_carbon_fractions(config.carbon_fractions)
    with open(Path(config.output_dir) / "predict" / "summary.json", encoding="utf-8") as f:
        maps = json.load(f)["maps"]

    years = sorted(config.years)
    fractions = {}
    for year in years:
        year_rows = [r for r in fraction_rows if r.year == year]
        if not year_rows:
            raise PipelineError(f"no carbon fractions for year {year}")
        fractions[year] = {"CRM": carbon_mod.CRM_CARBON_FRACTION,
                           "NSVB": carbon_mod.weighted_carbon_fraction(year_rows)}

    header = read_header(_map_path(config, "agb", years[0], ALLOMETRIES[0]))
    cell_ha = header["cellsize"] * header["cellsize"] / 1e4
    design_area = config.region_area_ha or header["ncols"] * header["nrows"] * cell_ha

    # (quantity, method, allometry, year) -> estimate
    table: dict[tuple, carbon_mod.StockEstimate] = {}
    for year in years:
        year_plots = [p for p in plots if p.inventory_year == year]
        for allometry in ALLOMETRIES:
            summary = maps[f"{year}_{allometry}"]  # a map's total is its own sum
            found = [carbon_mod.model_stock(summary["mean"], summary["n_valid"] * cell_ha,
                                            year, allometry)]
            if year_plots:  # a year mapped without plots has model totals only
                found.append(carbon_mod.design_stock(year_plots, design_area, year, allometry))
            for est in found:
                for e in (est, carbon_mod.agb_to_agc(est, fractions[year][allometry])):
                    table[(e.quantity, e.method, e.allometry, e.year)] = e
    keys = sorted(table)

    stock_rows = [asdict(table[key]) for key in keys]
    first, last = years[0], years[-1]
    change_rows = [{**asdict(table[key]), "year": f"{last}-{first}",
                    "total_mt": table[key].total_mt - table[(*key[:3], first)].total_mt}
                   for key in keys
                   if first != last and key[3] == last and (*key[:3], first) in table]
    write_table(out / "stocks.csv", STOCK_COLUMNS, stock_rows + change_rows)

    # design minus model, the sign convention used for comparison columns
    diff_rows = []
    for quantity, method, allometry, year in keys:
        if method == "design":
            d = table[(quantity, method, allometry, year)].total_mt
            m = table[(quantity, "model", allometry, year)].total_mt
            diff_rows.append({"quantity": quantity, "allometry": allometry, "year": year,
                              "design_mt": d, "model_mt": m, "design_minus_model_mt": d - m})
    write_table(out / "design_minus_model.csv", DESIGN_MINUS_MODEL_COLUMNS, diff_rows)

    _write_json(out / "summary.json", {
        "note": carbon_mod.DESIGN_ESTIMATOR_NOTE,
        "carbon_fractions": {str(y): fractions[y] for y in years},
    })


@_stage("predict")
def _stage_rescale(config: PipelineConfig, out: Path) -> None:
    elevation = read_grid(config.elevation)
    rows = []
    for y_idx, year in enumerate(sorted(config.years)):
        nsvb = read_grid(_map_path(config, "agb", year, "NSVB"))
        crm = read_grid(_map_path(config, "agb", year, "CRM"))
        fit = carbon_mod.rescale_fit(nsvb, crm, elevation, train_frac=TRAIN_FRAC,
                                     seed=[config.seed, 701, y_idx])
        rows.append({"year": year, **asdict(fit)})
    write_table(out / "rescale.csv", rows[0], rows)


STAGE_ORDER = tuple(_STAGES)


def run(config: PipelineConfig, stages=None) -> RunManifest:
    """Execute the requested stages in dependency order.

    An unknown stage name, or any `validate` finding (all of them are listed),
    is a ConfigError raised before the output directory is touched. Stages
    not requested are reused from cache: their manifest entries must
    exist, come from a manifest of the current artifact version, match the
    current configuration hash, and still have their files on disk.
    Requested stages always re-execute (outputs are deterministic). Their
    records are dropped before the first one runs; each stage then runs in
    its emptied directory, and its record lists the files the directory holds
    afterwards, so a stage that raises leaves no record and no stale file.
    """
    requested = set(STAGE_ORDER if stages is None else stages)
    unknown = sorted(requested - set(STAGE_ORDER))
    if unknown:
        raise ConfigError(f"unknown stages: {unknown}")
    findings = validate(config)
    if findings:
        raise ConfigError("; ".join(findings))
    ordered = [s for s in STAGE_ORDER if s in requested]

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.load(out_dir)
    if manifest is not None and manifest.unusable:
        LOGGER.warning("discarding %s: %s", RunManifest.path_in(out_dir), manifest.unusable)
        manifest = None
    if manifest is None:
        manifest = RunManifest(artifact_version=ARTIFACT_VERSION,
                               config_hash=config.config_hash)

    for stage in ordered:
        for dep in _STAGES[stage].needs:
            if dep in requested:
                continue  # runs earlier in this invocation
            rec = manifest.stages.get(dep)
            if rec is None:
                raise PipelineError(
                    f"missing upstream artifact: stage {stage!r} needs {dep!r}, "
                    f"which has not been run")
            if rec.config_hash != config.config_hash:
                raise PipelineError(
                    f"config hash mismatch: cached {dep!r} outputs were built "
                    f"from a different configuration; rerun it")
            gone = [p for p in rec.outputs if not (out_dir / p).exists()]
            if gone:
                raise PipelineError(
                    f"missing upstream artifact: {dep!r} output {gone[0]!r} "
                    f"is recorded in the manifest but absent on disk")

    for stage in ordered:
        manifest.stages.pop(stage, None)
    manifest.config_hash = config.config_hash
    manifest.save(out_dir)

    for stage in ordered:
        LOGGER.info("running stage %s", stage)
        stage_dir = out_dir / stage
        if stage_dir.exists():
            shutil.rmtree(stage_dir)
        stage_dir.mkdir()
        start = time.perf_counter()
        _STAGES[stage](config, stage_dir)
        elapsed = time.perf_counter() - start
        outputs = sorted(p.relative_to(out_dir).as_posix()
                         for p in stage_dir.rglob("*") if p.is_file())
        manifest.stages[stage] = StageRecord(outputs=outputs,
                                             config_hash=config.config_hash,
                                             elapsed_s=elapsed)
        manifest.save(out_dir)
    return manifest


# -- report rendering -----------------------------------------------------

def _cell_text(v, name="", places=2) -> str:
    if v is None or v == "":
        return "-"
    if isinstance(v, str):
        try:
            v = float(v)
        except ValueError:
            return v  # textual label, e.g. a year span or an allometry name
    if name in ("n", "year", "n_train", "n_test", "scale_km") and v == int(v):
        return str(int(v))
    return f"{float(v):.{places}f}"


def _render_table(title, fieldnames, rows, places=2) -> list[str]:
    lines = [title]
    cells = [[name for name in fieldnames]]
    for row in rows:
        cells.append([_cell_text(row.get(name), name, places)
                      for name in fieldnames])
    widths = [max(len(r[i]) for r in cells) for i in range(len(fieldnames))]
    for i, r in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def _table_section(title, columns, places=2, note=None):
    """The section of a recorded table: its `columns` under `title`, each cell
    formatted from its text, then `note` if given. `{}` in the title takes the
    last `_` part of the file name."""
    def render(path) -> list[str]:
        rows = read_table(path, path.stem, dict.fromkeys(columns, str))
        lines = _render_table(title.format(path.stem.split("_")[-1]), columns, rows, places)
        return lines + (["", f"note: {note}"] if note else [])
    return render


# (stage, file pattern, section) in print order. A section renders one
# recorded file: a table from its path, a `.json` summary from its content.
_REPORT_SECTIONS = [
    ("ingest", "summary.json", lambda s: [
        f"plots: {s['n_selected']} selected ({s['n_model_dev']} model development after "
        f"filtering, {s['n_assessment']} assessment, holdout panel {s['holdout_panel']})"]),
    ("fit", "test_metrics.csv", _table_section("model test-set metrics", TEST_METRIC_COLUMNS)),
    ("assess", "assessment_*.csv", _table_section(
        "map assessment, {} (scale 1 = plot to pixel)", ASSESSMENT_COLUMNS)),
    ("assess", "summary.json", lambda s: [
        f"KS distance, reference vs predicted ({a}): "
        f"{_cell_text(s[a]['ks_reference_vs_predicted'])}" for a in ALLOMETRIES if a in s]),
    ("agree", "agreement_*.csv", _table_section(
        "two-map agreement, {} (CRM vs NSVB)", AGREEMENT_COLUMNS, places=4)),
    ("diff", "summary.json", lambda s: _render_table(  # keyed by layer name, in file order
        "difference layers", ["layer", "n", "mean", "min", "max"],
        [{"layer": layer, "n": v["n_valid"], **v} for layer, v in s.items()])),
    ("stocks", "stocks.csv", _table_section("stocks and stock changes (Mt)", STOCK_COLUMNS[:-1])),
    ("stocks", "design_minus_model.csv", _table_section(
        "design minus model (Mt)", DESIGN_MINUS_MODEL_COLUMNS,
        note=carbon_mod.DESIGN_ESTIMATOR_NOTE)),
    ("rescale", "rescale.csv", _table_section(
        "allometry rescaling (NSVB from CRM and elevation)",
        ["year", "intercept", "coef_source", "coef_elevation", "n_train", "n_test",
         "test_rmse", "test_r2"], places=4)),
]


def render_report(config: PipelineConfig) -> str:
    """Human-readable summary of everything the run produced so far from the
    current configuration, from the tables and summaries the stages recorded;
    it reads no raster."""
    out_dir = Path(config.output_dir)
    manifest = RunManifest.load(out_dir)
    if manifest is None:
        raise PipelineError(f"no run manifest under {out_dir}; nothing to report")
    if manifest.unusable:
        raise PipelineError(f"run manifest {RunManifest.path_in(out_dir)} cannot be used: "
                            f"{manifest.unusable}; rerun the stages before reporting")

    # a stage built from another configuration is named, never shown as current
    current = {s: rec for s, rec in manifest.stages.items()
               if rec.config_hash == config.config_hash}
    others = [s for s in STAGE_ORDER if s in manifest.stages and s not in current]
    lines = ["run report", "==========",
             f"output directory: {out_dir}",
             f"configuration hash: {config.config_hash}",
             f"stages completed: {', '.join(s for s in STAGE_ORDER if s in current)}"]
    if others:
        lines.append(f"stages built from another configuration, not shown: {', '.join(others)}")
    lines.append("")

    for stage, pattern, section in _REPORT_SECTIONS:
        rec = current.get(stage)
        for p in [out_dir / name for name in rec.outputs] if rec else []:
            if p.match(pattern) and p.is_file():
                lines += section(json.loads(p.read_text(encoding="utf-8"))
                                 if p.suffix == ".json" else p) + [""]
    return "\n".join(lines)
