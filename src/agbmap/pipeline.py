"""Stage orchestration: configuration, validation, caching, and the stage
functions tying ingestion, extraction, modeling, mapping, assessment, and
accounting together.

Every stage is a pure function of (configuration, input files), seeded from
the configured seed, so reruns produce byte-identical data outputs. The run
manifest records what was built from which configuration hash; timings in the
manifest are the one thing excluded from the byte-identity guarantee.
"""

from __future__ import annotations

import hashlib
import json
import logging
import shutil
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import carbon as carbon_mod
from .footprint import PlotFootprint, pixel_overlap_weights, weighted_mean
from .grid import Grid, difference, mask_landcover, percent_rank, read_grid, summarize, write_grid
from .inventory import (
    ALLOMETRIES, PlotRecord, aggregate_plot_agb, attach_densities, filter_model_dev,
    load_plots, load_trees, select_single_inventory, split_by_panel,
)
from .learners import (
    DEFAULT_GRIDS, EnsembleModel, LearnerSpec, fit_stack, grid_search, of_type,
    predict_grid, train_base,
)
from .metrics import (
    PairedSample, ac_decompose, basic_metrics, gmfr_fit, ks_statistic,
    multiscale_assessment, multiscale_pairs, willmott_dr,
)

LOGGER = logging.getLogger(__name__)

ARTIFACT_VERSION = 5

ASSESSMENT_COLUMNS = ("scale_km", "n", "pph", "mae", "pct_mae", "rmse",
                      "pct_rmse", "me", "r2", "dr")
TEST_METRIC_COLUMNS = ("allometry", "n", "mae", "pct_mae", "rmse", "pct_rmse",
                       "me", "r2", "dr")
AGREEMENT_COLUMNS = ("scale_km", "n", "ac", "ac_systematic", "ac_unsystematic",
                     "gmfr_intercept", "gmfr_slope")


class ConfigError(ValueError):
    """Structurally invalid configuration document."""


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
    holdout_panel: object          # 1..5 or "random"
    scales_km: list[float]
    removed_landcover_classes: list[float]
    trees: Path
    plots: Path
    carbon_fractions: Path
    elevation: Path
    years: dict[int, YearInputs]
    learner_grids: dict[str, list[dict]] | None = None
    region_area_ha: float | None = None
    cv_folds: int = 5
    train_frac: float = 0.8
    rescale_sample: int = 1_000_000
    config_hash: str = ""

    @classmethod
    def load(cls, path, overrides=None) -> "PipelineConfig":
        """Read a configuration file; `overrides` replace top-level keys of
        the document before validation, so they feed the hash too."""
        path = Path(path)
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read configuration {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"configuration {path} is not valid JSON: {e}") from e
        if overrides and isinstance(raw, dict):
            raw = {**raw, **overrides}
        return cls.from_document(raw, base_dir=path.parent)

    @classmethod
    def from_document(cls, raw, base_dir) -> "PipelineConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        missing = sorted(_REQUIRED_KEYS - set(raw))
        if missing:
            raise ConfigError(f"configuration is missing keys: {missing}")
        unknown = sorted(set(raw) - _REQUIRED_KEYS - _OPTIONAL_KEYS)
        if unknown:
            raise ConfigError(f"unknown configuration keys: {unknown}")
        if not isinstance(raw["seed"], int) or isinstance(raw["seed"], bool):
            raise ConfigError("seed must be an integer")
        if not isinstance(raw["years"], dict) or not raw["years"]:
            raise ConfigError("years must be a non-empty object")

        base = Path(base_dir)

        def path_of(v, label):
            if not isinstance(v, str) or not v:
                raise ConfigError(f"{label} must be a path string")
            p = Path(v)
            return p if p.is_absolute() else base / p

        years: dict[int, YearInputs] = {}
        for year_key, entry in raw["years"].items():
            try:
                year = int(year_key)
            except (TypeError, ValueError):
                raise ConfigError(f"year key {year_key!r} is not an integer") from None
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

        grids = raw.get("learner_grids")
        if grids is not None and (not isinstance(grids, dict) or not grids):
            raise ConfigError("learner_grids must be a non-empty object when given")
        for key in ("scales_km", "removed_landcover_classes"):
            if not isinstance(raw[key], list):
                raise ConfigError(f"{key} must be an array")

        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        cfg = cls(
            seed=raw["seed"],
            output_dir=path_of(raw["output_dir"], "output_dir"),
            holdout_panel=raw["holdout_panel"],
            scales_km=list(raw["scales_km"]),
            removed_landcover_classes=list(raw["removed_landcover_classes"]),
            trees=path_of(raw["trees"], "trees"),
            plots=path_of(raw["plots"], "plots"),
            carbon_fractions=path_of(raw["carbon_fractions"], "carbon_fractions"),
            elevation=path_of(raw["elevation"], "elevation"),
            years=dict(sorted(years.items())),
            **{key: raw[key] for key in _OPTIONAL_KEYS if key in raw},
            config_hash=hashlib.sha256(canonical.encode()).hexdigest(),
        )
        return cfg

    def predictor_names(self) -> list[str]:
        first = next(iter(self.years.values()))
        return sorted(first.predictors)

    def spec_grids(self) -> dict[str, list[LearnerSpec]]:
        raw = self.learner_grids if self.learner_grids is not None else DEFAULT_GRIDS
        out = {}
        for kind, grid in raw.items():
            if not (isinstance(grid, list) and all(isinstance(hp, dict) for hp in grid)):
                raise ConfigError(f"grid for {kind!r} must be an array of objects")
            out[kind] = [LearnerSpec.make(kind, **hp) for hp in grid]
            if not out[kind]:
                raise ConfigError(f"empty hyperparameter grid for {kind!r}")
        return out


# one document key per field; a field without a default is a required key
_KEYS = {f.name: f.default for f in fields(PipelineConfig) if f.name != "config_hash"}
_REQUIRED_KEYS = {key for key, default in _KEYS.items() if default is MISSING}
_OPTIONAL_KEYS = _KEYS.keys() - _REQUIRED_KEYS


def validate(config: PipelineConfig) -> list[str]:
    """Check paths, domains, and raster alignment. Empty list means valid."""
    findings: list[str] = []

    for label, p in [("trees", config.trees), ("plots", config.plots),
                     ("carbon_fractions", config.carbon_fractions),
                     ("elevation", config.elevation)]:
        if not Path(p).is_file():
            findings.append(f"missing file: {label} at {p}")
    for year, inputs in config.years.items():
        if not Path(inputs.landcover).is_file():
            findings.append(f"missing file: landcover for {year} at {inputs.landcover}")
        for name, p in sorted(inputs.predictors.items()):
            if not Path(p).is_file():
                findings.append(f"missing file: predictor {name!r} for {year} at {p}")

    if config.holdout_panel != "random" and not (of_type(config.holdout_panel, int)
                                                 and 1 <= config.holdout_panel <= 5):
        findings.append(f"holdout_panel must be 1..5 or 'random', got {config.holdout_panel!r}")
    if not config.scales_km:
        findings.append("scales_km is empty")
    elif any(not of_type(s, (int, float)) or s <= 0 for s in config.scales_km):
        findings.append("scales_km entries must be positive numbers")
    if any(not of_type(c, (int, float)) for c in config.removed_landcover_classes):
        findings.append("removed_landcover_classes entries must be numeric")
    if not (of_type(config.train_frac, (int, float)) and 0.0 < config.train_frac < 1.0):
        findings.append(f"train_frac must be a number in (0, 1), got {config.train_frac!r}")
    if not (of_type(config.cv_folds, int) and config.cv_folds >= 2):
        findings.append("cv_folds must be an integer >= 2")
    if config.region_area_ha is not None and not (of_type(config.region_area_ha, (int, float))
                                                  and config.region_area_ha > 0):
        findings.append(f"region_area_ha must be a positive number, got {config.region_area_ha!r}")
    # rescale_fit needs at least 3 sampled cells, one per coefficient
    if not (of_type(config.rescale_sample, int) and config.rescale_sample >= 3):
        findings.append(f"rescale_sample must be an integer >= 3, got {config.rescale_sample!r}")

    try:
        grids = config.spec_grids()
        if not grids:
            findings.append("no learner kinds configured")
    except (ConfigError, ValueError) as e:
        findings.append(f"learner grid: {e}")

    name_sets = {year: set(inputs.predictors) for year, inputs in config.years.items()}
    reference = None
    for year in sorted(name_sets):
        if reference is None:
            reference = name_sets[year]
        elif name_sets[year] != reference:
            findings.append("predictor layer names differ between years; one model "
                            "must apply to every year")
            break

    if not findings:
        try:
            ref = read_grid(config.elevation)
            for year, inputs in config.years.items():
                for name, p in sorted(inputs.predictors.items()):
                    g = read_grid(p)
                    if not g.aligned_with(ref):
                        findings.append(f"alignment: predictor {name!r} for {year} "
                                        f"does not match the elevation grid")
                lc = read_grid(inputs.landcover)
                if not lc.aligned_with(ref):
                    findings.append(f"alignment: landcover for {year} does not "
                                    f"match the elevation grid")
        except (OSError, ValueError) as e:
            findings.append(f"unreadable raster: {e}")
    return findings


# -- manifest -------------------------------------------------------------

@dataclass
class StageRecord:
    outputs: list[str]
    config_hash: str
    elapsed_s: float


@dataclass
class RunManifest:
    artifact_version: int
    config_hash: str
    stages: dict[str, StageRecord] = field(default_factory=dict)

    @staticmethod
    def path_in(output_dir) -> Path:
        return Path(output_dir) / "manifest.json"

    @classmethod
    def load(cls, output_dir) -> "RunManifest | None":
        p = cls.path_in(output_dir)
        if not p.is_file():
            return None
        with open(p, encoding="utf-8") as f:
            doc = json.load(f)
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
        _write_json(self.path_in(output_dir), doc)


# -- small output helpers -------------------------------------------------

def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(fieldnames) + "\n")
        for row in rows:
            f.write(",".join(_fmt_cell(row[k]) for k in fieldnames) + "\n")


def _read_csv(path) -> list[dict]:
    import csv

    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _report_row(rep) -> dict:
    row = asdict(rep)
    return {k: row[k] for k in ASSESSMENT_COLUMNS}


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

    selected = select_single_inventory(plot_rows, seed=[config.seed, 101])
    by_year: dict[int, list[PlotRecord]] = {}
    for p in selected:
        by_year.setdefault(p.inventory_year, []).append(p)
    attached: list[PlotRecord] = []
    for year in sorted(by_year):
        year_trees = [t for t in trees if t.inventory_year == year]
        ids = [p.plot_id for p in by_year[year]]
        crm = aggregate_plot_agb(year_trees, "CRM", plot_ids=ids)
        nsvb = aggregate_plot_agb(year_trees, "NSVB", plot_ids=ids)
        attached.extend(attach_densities(by_year[year], crm, nsvb))
    attached.sort(key=lambda p: p.plot_id)

    partition = split_by_panel(attached, config.holdout_panel, seed=[config.seed, 102])
    model_dev = filter_model_dev(partition.dev)

    def plot_dict(p: PlotRecord, role=None) -> dict:
        d = {
            "plot_id": p.plot_id, "x_m": p.x, "y_m": p.y,
            "inventory_year": p.inventory_year, "panel": p.panel,
            "forested_fraction": p.forested_fraction,
            "max_canopy_height_m": p.max_canopy_height_m,
            "agb_crm": p.agb_crm, "agb_nsvb": p.agb_nsvb,
        }
        if role is not None:
            d["role"] = role
        return d

    all_rows = ([plot_dict(p, "development") for p in partition.dev]
                + [plot_dict(p, "assessment") for p in partition.assessment])
    all_rows.sort(key=lambda r: r["plot_id"])
    _write_csv(out / "plots.csv",
               ["plot_id", "x_m", "y_m", "inventory_year", "panel",
                "forested_fraction", "max_canopy_height_m", "agb_crm",
                "agb_nsvb", "role"], all_rows)

    dev_rows = sorted((plot_dict(p) for p in model_dev), key=lambda r: r["plot_id"])
    _write_csv(out / "model_dev.csv",
               ["plot_id", "x_m", "y_m", "inventory_year", "panel",
                "forested_fraction", "max_canopy_height_m", "agb_crm",
                "agb_nsvb"], dev_rows)

    _write_json(out / "summary.json", {
        "n_plot_rows": len(plot_rows),
        "n_selected": len(selected),
        "n_development": len(partition.dev),
        "n_model_dev": len(model_dev),
        "n_assessment": len(partition.assessment),
        "holdout_panel": partition.holdout_panel,
        "per_year": {str(y): len(v) for y, v in sorted(by_year.items())},
    })


def _plots_from_rows(rows) -> list[PlotRecord]:
    out = []
    for r in rows:
        height = r["max_canopy_height_m"]
        out.append(PlotRecord(
            plot_id=r["plot_id"], x=float(r["x_m"]), y=float(r["y_m"]),
            inventory_year=int(r["inventory_year"]), panel=int(r["panel"]),
            forested_fraction=float(r["forested_fraction"]),
            max_canopy_height_m=float(height) if height not in ("", "None") else None,
            agb_crm=float(r["agb_crm"]), agb_nsvb=float(r["agb_nsvb"]),
        ))
    return out


@_stage("ingest")
def _stage_extract(config: PipelineConfig, out: Path) -> None:
    dev = _plots_from_rows(_read_csv(Path(config.output_dir) / "ingest" / "model_dev.csv"))
    names = config.predictor_names()

    rows = []
    n_dropped = 0
    for year in sorted(config.years):
        layers = {name: read_grid(p)
                  for name, p in sorted(config.years[year].predictors.items())}
        for p in [q for q in dev if q.inventory_year == year]:
            # overlap weights depend only on geometry, shared by all layers
            weights = pixel_overlap_weights(PlotFootprint(p.x, p.y),
                                            next(iter(layers.values())))
            feats = {}
            usable = True
            for name in names:
                v = weighted_mean(layers[name], weights)
                if v is None:
                    usable = False
                    break
                feats[name] = v
            if not usable:
                n_dropped += 1
                continue
            row = {"plot_id": p.plot_id, "inventory_year": p.inventory_year,
                   "agb_crm": p.agb_crm, "agb_nsvb": p.agb_nsvb}
            row.update(feats)
            rows.append(row)
    rows.sort(key=lambda r: r["plot_id"])
    if n_dropped:
        LOGGER.warning("extraction dropped %d plots with no overlapping valid cells",
                       n_dropped)

    _write_csv(out / "features.csv",
               ["plot_id", "inventory_year", "agb_crm", "agb_nsvb"] + names, rows)
    _write_json(out / "summary.json", {
        "n_rows": len(rows),
        "n_dropped_no_coverage": n_dropped,
        "predictors": names,
    })


@_stage("extract")
def _stage_fit(config: PipelineConfig, out: Path) -> None:
    rows = _read_csv(Path(config.output_dir) / "extract" / "features.csv")
    if len(rows) < 10:
        raise PipelineError(f"only {len(rows)} feature rows; too few to fit models")
    names = config.predictor_names()
    X = np.array([[float(r[name]) for name in names] for r in rows], dtype=np.float64)
    y_by_allom = {
        "CRM": np.array([float(r["agb_crm"]) for r in rows]),
        "NSVB": np.array([float(r["agb_nsvb"]) for r in rows]),
    }

    n = len(rows)
    rng = np.random.default_rng([config.seed, 301])
    perm = rng.permutation(n)
    n_train = int(round(config.train_frac * n))
    n_train = min(max(n_train, config.cv_folds), n - 1)
    train_idx, test_idx = perm[:n_train], perm[n_train:]

    grids = config.spec_grids()
    kinds = sorted(grids)
    summary: dict = {
        "n_rows": n, "n_train": int(n_train), "n_test": int(n - n_train),
        "kinds": kinds, "models": {},
    }
    test_rows = []
    for a_idx, allometry in enumerate(ALLOMETRIES):
        y = y_by_allom[allometry]
        Xtr, ytr = X[train_idx], y[train_idx]
        Xte, yte = X[test_idx], y[test_idx]

        chosen: list[LearnerSpec] = []
        oof_cols = []
        model_info = {}
        for k_idx, kind in enumerate(kinds):
            best, oof, scores = grid_search(grids[kind], Xtr, ytr, k=config.cv_folds,
                                            seed=[config.seed, 310, a_idx, k_idx])
            chosen.append(best)
            oof_cols.append(oof)
            model_info[kind] = {
                "chosen": best.to_dict(),
                "cv_rmse": {json.dumps(s.to_dict(), sort_keys=True): r
                            for s, r in scores},
            }
        stack = fit_stack(np.column_stack(oof_cols), ytr)
        if stack.rank_deficient:
            LOGGER.warning("stacking design for %s is rank deficient; "
                           "minimal-norm coefficients used", allometry)
        models = [train_base(spec, Xtr, ytr, seed=[config.seed, 320, a_idx, k_idx])
                  for k_idx, spec in enumerate(chosen)]
        ens = EnsembleModel(specs=chosen, models=models, stack=stack,
                            feature_names=names, ybar_train=float(ytr.mean()))
        with open(out / f"model_{allometry}.json", "w", encoding="utf-8") as f:
            f.write(ens.to_json())

        pairs = PairedSample(y=yte, yhat=ens.predict(Xte))
        row = _report_row(basic_metrics(pairs, ybar_train=float(ytr.mean())))
        row["dr"] = willmott_dr(pairs)
        test_metrics = {k: row[k] for k in TEST_METRIC_COLUMNS[1:]}
        test_rows.append({"allometry": allometry, **test_metrics})
        summary["models"][allometry] = {
            "base": model_info,
            "stack_intercept": stack.intercept,
            "stack_coefficients": list(stack.coefficients),
            "rank_deficient": bool(stack.rank_deficient),
            "ybar_train": float(ytr.mean()),
            "test_metrics": test_metrics,
        }

    _write_csv(out / "test_metrics.csv", TEST_METRIC_COLUMNS, test_rows)
    _write_json(out / "summary.json", summary)


def _load_model(config: PipelineConfig, allometry: str) -> EnsembleModel:
    p = Path(config.output_dir) / "fit" / f"model_{allometry}.json"
    with open(p, encoding="utf-8") as f:
        return EnsembleModel.from_json(f.read())


def _map_path(config: PipelineConfig, kind: str, year: int, allometry: str) -> Path:
    return Path(config.output_dir) / "predict" / f"{kind}_{year}_{allometry}.bin"


@_stage("fit")
def _stage_predict(config: PipelineConfig, out: Path) -> None:
    map_summaries = {}
    for allometry in ALLOMETRIES:
        model = _load_model(config, allometry)
        for year in sorted(config.years):
            layers = {name: read_grid(p)
                      for name, p in sorted(config.years[year].predictors.items())}
            pred = predict_grid(model, layers)
            lc = read_grid(config.years[year].landcover)
            masked = mask_landcover(pred, lc, config.removed_landcover_classes)
            write_grid(masked, _map_path(config, "agb", year, allometry))
            write_grid(percent_rank(masked), _map_path(config, "pctrank", year, allometry))
            map_summaries[f"{year}_{allometry}"] = asdict(summarize(masked))
    _write_json(out / "summary.json", {"maps": map_summaries})


def _compared_scales(config: PipelineConfig) -> list[float]:
    """The plot- or cell-level comparison (1 km) first, then every other
    configured hexagon scale in configured order."""
    return [1] + [s for s in config.scales_km if s != 1]


@_stage("ingest", "predict")
def _stage_assess(config: PipelineConfig, out: Path) -> None:
    rows = _read_csv(Path(config.output_dir) / "ingest" / "plots.csv")
    assessment = _plots_from_rows([r for r in rows if r["role"] == "assessment"])
    assessment.sort(key=lambda p: p.plot_id)

    summary: dict = {}
    plot_weights = {}  # shared across allometries; maps share one geometry
    for allometry in ALLOMETRIES:
        model = _load_model(config, allometry)
        maps = {year: read_grid(_map_path(config, "agb", year, allometry))
                for year in sorted(config.years)}
        if not plot_weights:
            geom = next(iter(maps.values()))
            plot_weights = {
                p.plot_id: pixel_overlap_weights(PlotFootprint(p.x, p.y), geom)
                for p in assessment}
        ys, yhats, locs, pair_rows = [], [], [], []
        n_outside = 0
        for p in assessment:
            yhat = weighted_mean(maps[p.inventory_year], plot_weights[p.plot_id])
            if yhat is None:
                n_outside += 1
                continue
            ys.append(p.agb(allometry))
            yhats.append(yhat)
            locs.append((p.x, p.y))
            pair_rows.append({"plot_id": p.plot_id, "x_m": p.x, "y_m": p.y,
                              "inventory_year": p.inventory_year,
                              "y": p.agb(allometry), "yhat": yhat})
        if len(ys) < 2:
            raise PipelineError(
                f"only {len(ys)} assessment plots fall inside the mapped area")
        pairs = PairedSample(y=np.array(ys), yhat=np.array(yhats))
        reports = multiscale_assessment(pairs, np.array(locs),
                                        spacings_km=_compared_scales(config),
                                        ybar_train=model.ybar_train)
        _write_csv(out / f"assessment_{allometry}.csv", ASSESSMENT_COLUMNS,
                   [_report_row(rep) for rep in reports])
        _write_csv(out / f"pairs_{allometry}.csv",
                   ["plot_id", "x_m", "y_m", "inventory_year", "y", "yhat"], pair_rows)
        plot_level = _report_row(reports[0])
        summary[allometry] = {
            "n_pairs": len(ys),
            "n_outside_mapped_area": n_outside,
            "ybar_train": model.ybar_train,
            "ks_reference_vs_predicted": ks_statistic(np.array(ys), np.array(yhats)),
            "plot_to_pixel": plot_level,
        }
    _write_json(out / "summary.json", summary)


def _agreement_row(scale_km, y, yhat) -> dict:
    row = {"scale_km": scale_km, "n": int(y.size), "ac": None,
           "ac_systematic": None, "ac_unsystematic": None,
           "gmfr_intercept": None, "gmfr_slope": None}
    if y.size < 2:
        return row
    pairs = PairedSample(y=y, yhat=yhat)
    try:
        dec = ac_decompose(pairs)
        row.update(ac=dec.ac, ac_systematic=dec.ac_systematic,
                   ac_unsystematic=dec.ac_unsystematic)
    except ValueError:
        pass
    try:
        line = gmfr_fit(pairs)
        row.update(gmfr_intercept=line.a, gmfr_slope=line.b)
    except ValueError:
        pass
    return row


@_stage("predict")
def _stage_agree(config: PipelineConfig, out: Path) -> None:
    summary = {}
    for year in sorted(config.years):
        crm = read_grid(_map_path(config, "agb", year, "CRM"))
        nsvb = read_grid(_map_path(config, "agb", year, "NSVB"))
        joint = crm.mask & nsvb.mask
        y = crm.values[joint].astype(np.float64)
        yhat = nsvb.values[joint].astype(np.float64)
        xs, ys_axis = crm.cell_centers()
        rows_at, cols_at = np.nonzero(joint)  # row-major, as `crm.values[joint]`
        locs = np.column_stack([xs[cols_at], ys_axis[rows_at]])

        rows = [_agreement_row(*scale)
                for scale in multiscale_pairs(y, yhat, locs, _compared_scales(config))]
        _write_csv(out / f"agreement_{year}.csv", AGREEMENT_COLUMNS, rows)
        summary[str(year)] = {"n_joint_cells": int(y.size), "cell_level": rows[0]}
    _write_json(out / "summary.json", summary)


@_stage("predict")
def _stage_diff(config: PipelineConfig, out: Path) -> None:
    summaries = {}

    def emit(name: str, grid: Grid) -> None:
        write_grid(grid, out / f"{name}.bin")
        summaries[name] = asdict(summarize(grid))

    for year in sorted(config.years):
        crm = read_grid(_map_path(config, "agb", year, "CRM"))
        nsvb = read_grid(_map_path(config, "agb", year, "NSVB"))
        emit(f"agb_diff_{year}", difference(nsvb, crm))
        crm_r = read_grid(_map_path(config, "pctrank", year, "CRM"))
        nsvb_r = read_grid(_map_path(config, "pctrank", year, "NSVB"))
        emit(f"pctrank_diff_{year}", difference(nsvb_r, crm_r))

    years = sorted(config.years)
    if len(years) >= 2:
        first, last = years[0], years[-1]
        changes = {}
        for allometry in ALLOMETRIES:
            early = read_grid(_map_path(config, "agb", first, allometry))
            late = read_grid(_map_path(config, "agb", last, allometry))
            changes[allometry] = difference(late, early)
            emit(f"change_{allometry}", changes[allometry])
        emit("change_diff", difference(changes["NSVB"], changes["CRM"]))

    _write_json(out / "summary.json", summaries)


@_stage("ingest", "predict")
def _stage_stocks(config: PipelineConfig, out: Path) -> None:
    rows = _read_csv(Path(config.output_dir) / "ingest" / "plots.csv")
    plots = _plots_from_rows(rows)
    fraction_rows = carbon_mod.load_carbon_fractions(config.carbon_fractions)

    years = sorted(config.years)
    fractions = {}
    for year in years:
        year_rows = [r for r in fraction_rows if r.year == year]
        if not year_rows:
            raise PipelineError(f"no carbon fractions for year {year}")
        fractions[year] = {"CRM": carbon_mod.CRM_CARBON_FRACTION,
                           "NSVB": carbon_mod.weighted_carbon_fraction(year_rows)}

    estimates: list[carbon_mod.StockEstimate] = []
    for year in years:
        year_plots = [p for p in plots if p.inventory_year == year]
        for allometry in ALLOMETRIES:
            grid = read_grid(_map_path(config, "agb", year, allometry))
            design_area = (config.region_area_ha if config.region_area_ha is not None
                           else grid.ncols * grid.nrows * grid.cell_area_ha())
            model_variants = [
                carbon_mod.model_stock(grid, year, allometry, area_basis="extent"),
                carbon_mod.model_stock(grid, year, allometry, area_basis="valid"),
            ]
            if config.region_area_ha is not None:
                model_variants.append(carbon_mod.model_stock(
                    grid, year, allometry, region_area_ha=config.region_area_ha))
            design = carbon_mod.design_stock(year_plots, design_area, year, allometry)
            for est in model_variants + [design]:
                estimates.append(est)
                estimates.append(carbon_mod.agb_to_agc(est, fractions[year][allometry]))

    def sort_key(e: carbon_mod.StockEstimate):
        return (e.quantity, e.method, e.allometry, e.area_basis or "", e.year)

    estimates.sort(key=sort_key)
    stock_rows = [{
        "quantity": e.quantity, "method": e.method, "allometry": e.allometry,
        "area_basis": e.area_basis, "year": e.year, "total_mt": e.total_mt,
        "region_area_ha": e.region_area_ha,
    } for e in estimates]

    change_rows = []
    if len(years) >= 2:
        first, last = years[0], years[-1]
        groups: dict[tuple, dict[int, carbon_mod.StockEstimate]] = {}
        for e in estimates:
            groups.setdefault((e.quantity, e.method, e.allometry, e.area_basis),
                              {})[e.year] = e
        for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
            pair = groups[key]
            if first in pair and last in pair:
                delta = carbon_mod.stock_change(pair[last], pair[first])
                change_rows.append({
                    "quantity": key[0], "method": key[1], "allometry": key[2],
                    "area_basis": key[3], "year": f"{last}-{first}",
                    "total_mt": delta, "region_area_ha": pair[last].region_area_ha,
                })

    _write_csv(out / "stocks.csv",
               ["quantity", "method", "allometry", "area_basis", "year",
                "total_mt", "region_area_ha"], stock_rows + change_rows)

    # design minus model, the sign convention used for comparison columns
    model_basis = "given" if config.region_area_ha is not None else "extent"
    by_key = {(e.quantity, e.method, e.allometry, e.area_basis, e.year): e
              for e in estimates}
    diff_rows = []
    for e in estimates:
        if e.method != "design":
            continue
        m = by_key.get((e.quantity, "model", e.allometry, model_basis, e.year))
        if m is not None:
            diff_rows.append({
                "quantity": e.quantity, "allometry": e.allometry, "year": e.year,
                "design_mt": e.total_mt, "model_mt": m.total_mt,
                "design_minus_model_mt": e.total_mt - m.total_mt,
            })
    diff_rows.sort(key=lambda r: (r["quantity"], r["allometry"], r["year"]))
    _write_csv(out / "design_minus_model.csv",
               ["quantity", "allometry", "year", "design_mt", "model_mt",
                "design_minus_model_mt"], diff_rows)

    _write_json(out / "stocks.json", {
        "note": carbon_mod.DESIGN_ESTIMATOR_NOTE,
        "carbon_fractions": {str(y): fractions[y] for y in years},
        "stocks": stock_rows + change_rows,
        "design_minus_model": diff_rows,
        "model_basis_for_comparison": model_basis,
    })


@_stage("predict")
def _stage_rescale(config: PipelineConfig, out: Path) -> None:
    elevation = read_grid(config.elevation)
    rows = []
    for y_idx, year in enumerate(sorted(config.years)):
        nsvb = read_grid(_map_path(config, "agb", year, "NSVB"))
        crm = read_grid(_map_path(config, "agb", year, "CRM"))
        fit = carbon_mod.rescale_fit(nsvb, crm, elevation,
                                     n_sample=config.rescale_sample,
                                     train_frac=config.train_frac,
                                     seed=[config.seed, 701, y_idx])
        rows.append({"year": year, "intercept": fit.intercept,
                     "coef_source": fit.coef_source,
                     "coef_elevation": fit.coef_elevation,
                     "n_train": fit.n_train, "n_test": fit.n_test,
                     "test_rmse": fit.test_rmse, "test_mae": fit.test_mae,
                     "test_me": fit.test_me, "test_r2": fit.test_r2})
    _write_csv(out / "rescale.csv",
               ["year", "intercept", "coef_source", "coef_elevation", "n_train",
                "n_test", "test_rmse", "test_mae", "test_me", "test_r2"], rows)
    _write_json(out / "summary.json", {str(r["year"]): r for r in rows})


STAGE_ORDER = tuple(_STAGES)


def run(config: PipelineConfig, stages=None) -> RunManifest:
    """Execute the requested stages in dependency order.

    Stages not requested are reused from cache: their manifest entries must
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
        raise ValueError(f"unknown stages: {unknown}")
    ordered = [s for s in STAGE_ORDER if s in requested]

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.load(out_dir)
    if manifest is not None and manifest.artifact_version != ARTIFACT_VERSION:
        LOGGER.warning("discarding cached stages built under artifact version %s",
                       manifest.artifact_version)
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

def _fmt_num(v, places=2) -> str:
    if v is None or v == "":
        return "-"
    return f"{float(v):.{places}f}"


def _cell_text(v, name, places) -> str:
    if v is None or v == "":
        return "-"
    if isinstance(v, str):
        try:
            v = float(v)
        except ValueError:
            return v  # textual label, e.g. a year span or a basis name
    if name in ("n", "year", "n_train", "n_test", "scale_km") and v == int(v):
        return str(int(v))
    return _fmt_num(v, places)


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


def render_report(config: PipelineConfig, cap: float | None = None) -> str:
    """Human-readable summary of everything the run produced so far.

    `cap` clamps difference-map values to [-cap, +cap] in the rendered
    summaries only; stored grids are never modified.
    """
    out_dir = Path(config.output_dir)
    manifest = RunManifest.load(out_dir)
    if manifest is None:
        raise PipelineError(f"no run manifest under {out_dir}; nothing to report")
    if manifest.artifact_version != ARTIFACT_VERSION:
        raise PipelineError(
            f"run manifest under {out_dir} is from artifact version "
            f"{manifest.artifact_version}, this code writes version {ARTIFACT_VERSION}; "
            "rerun the stages before reporting")

    lines = ["run report", "==========",
             f"output directory: {out_dir}",
             f"configuration hash: {manifest.config_hash}",
             f"stages completed: {', '.join(s for s in STAGE_ORDER if s in manifest.stages)}",
             ""]

    def recorded(stage, pattern):
        """The files the manifest records for `stage` that match `pattern`."""
        rec = manifest.stages.get(stage)
        paths = [out_dir / p for p in rec.outputs] if rec else []
        return [p for p in paths if p.match(pattern) and p.is_file()]

    def stage_file(stage, name):
        found = recorded(stage, name)
        return found[0] if found else None

    p = stage_file("ingest", "summary.json")
    if p:
        with open(p, encoding="utf-8") as f:
            s = json.load(f)
        lines += [f"plots: {s['n_selected']} selected "
                  f"({s['n_model_dev']} model development after filtering, "
                  f"{s['n_assessment']} assessment, holdout panel "
                  f"{s['holdout_panel']})", ""]

    p = stage_file("fit", "test_metrics.csv")
    if p:
        lines += _render_table("model test-set metrics", TEST_METRIC_COLUMNS,
                               _read_csv(p))
        lines.append("")

    for allometry in ALLOMETRIES:
        p = stage_file("assess", f"assessment_{allometry}.csv")
        if p:
            lines += _render_table(
                f"map assessment, {allometry} (scale 1 = plot to pixel)",
                ASSESSMENT_COLUMNS, _read_csv(p))
            lines.append("")

    p = stage_file("assess", "summary.json")
    if p:
        with open(p, encoding="utf-8") as f:
            s = json.load(f)
        for allometry in ALLOMETRIES:
            if allometry in s:
                lines.append(f"KS distance, reference vs predicted ({allometry}): "
                             f"{_fmt_num(s[allometry]['ks_reference_vs_predicted'])}")
        lines.append("")

    for p in recorded("agree", "agreement_*.csv"):
        year = p.stem.split("_")[-1]
        lines += _render_table(f"two-map agreement, {year} (CRM vs NSVB)",
                               AGREEMENT_COLUMNS, _read_csv(p), places=4)
        lines.append("")

    if "diff" in manifest.stages:
        rows = []
        for p in recorded("diff", "*.bin"):
            g = read_grid(p)
            if cap is not None:
                vals = np.clip(g.values, -abs(cap), abs(cap))
                g = g.with_values(vals, g.mask.copy())
            s = summarize(g)
            rows.append({"layer": p.stem, "n": s.n_valid, "mean": s.mean,
                         "min": s.min, "max": s.max})
        title = "difference layers" + (f" (display cap +/- {abs(cap):g})"
                                       if cap is not None else "")
        lines += _render_table(title, ["layer", "n", "mean", "min", "max"], rows)
        lines.append("")

    p = stage_file("stocks", "stocks.json")
    if p:
        with open(p, encoding="utf-8") as f:
            s = json.load(f)
        lines += _render_table("stocks and stock changes (Mt)",
                               ["quantity", "method", "allometry", "area_basis",
                                "year", "total_mt"], s["stocks"])
        lines.append("")
        lines += _render_table("design minus model (Mt)",
                               ["quantity", "allometry", "year", "design_mt",
                                "model_mt", "design_minus_model_mt"],
                               s["design_minus_model"])
        lines += ["", f"note: {s['note']}", ""]

    p = stage_file("rescale", "rescale.csv")
    if p:
        lines += _render_table("allometry rescaling (NSVB from CRM and elevation)",
                               ["year", "intercept", "coef_source", "coef_elevation",
                                "n_train", "n_test", "test_rmse", "test_r2"],
                               _read_csv(p), places=4)
        lines.append("")
    return "\n".join(lines)
