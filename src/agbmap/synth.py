"""Deterministic synthetic demo dataset.

Generates a small landscape (rasters), a plot inventory with tree lists,
species carbon-fraction tables, and a ready-to-run pipeline configuration.
The world is sized for tests but exercises every stage: two map years,
removable landcover classes, plots measured in one or both years, a mix of
forested and nonforested plots, and predictor layers carrying a learnable
biomass signal. The two reference allometries are tied by a fixed linear
relationship through elevation so the rescaling stage has something to find.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from .carbon import CARBON_FRACTION_COLUMNS
from .grid import Grid, block_rows, finite_number, map_chunks, row_blocks, write_grid
from .inventory import PLOT_AREA_HA, PLOT_COLUMNS, TREE_COLUMNS
from .tables import write_table

YEARS = (2005, 2019)
# classes 1, 2, 4, 5 stand in for developed, cropland, water, and barren
REMOVED_CLASSES = (1, 2, 4, 5)
SPECIES = ("ABBA", "ACRU", "PIST", "QURU", "TSCA")
PREDICTOR_NAMES = ("brightness", "greenness", "wetness", "ratio_a",
                   "ratio_b", "dist_age")

# linear tie between the two allometries used when generating reference data
RESCALE_INTERCEPT = 9.555
RESCALE_SLOPE_SOURCE = 1.135
RESCALE_SLOPE_ELEV = -0.023


def _smooth_field(rng, xs, ys, n_waves=6):
    """Sum of random plane waves over the cell centers (xs west to east, ys
    north to south), standardized to zero mean and unit spread. The waves are
    drawn first, then summed in row blocks spread over the worker threads; each
    value is computed per cell, so a cell gets the same bits in any block."""
    waves = []
    for _ in range(n_waves):
        wl = rng.uniform(6e3, 45e3)  # wavelength, m
        theta = rng.uniform(0.0, 2.0 * np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        waves.append((2.0 * np.pi / wl, np.cos(theta), np.sin(theta), phase,
                      rng.uniform(0.5, 1.0)))
    ncols = len(xs)

    def band(lo, hi, _):
        y = ys[lo // ncols:hi // ncols, None]
        f = np.zeros((len(y), ncols))
        for k, cos, sin, phase, amplitude in waves:
            f += amplitude * np.sin(k * (cos * xs + sin * y) + phase)
        return f.ravel()

    f = map_chunks(len(ys) * ncols, block_rows(ncols) * ncols, band, {}).reshape(len(ys), ncols)
    f -= f.mean()
    sd = f.std()
    if sd > 0:
        f /= sd
    return f


def _standardized(a):
    """Rows of `a` standardized by the whole array's mean and spread."""
    mean, sd = a.mean(), a.std()
    return lambda rows: (a[rows] - mean) / (sd if sd > 0 else 1.0)


def _landcover(rng, xs, ys, elev, forest_potential):
    lc = np.full(elev.shape, 3.0, dtype=np.float32)
    wet = _smooth_field(rng, xs, ys, n_waves=4)
    wetter, wettest = (wet < np.quantile(wet, q) for q in (0.06, 0.02))
    del wet  # marked before `use` is drawn: one field at a time
    use = _smooth_field(rng, xs, ys, n_waves=4)
    lc[forest_potential > 0.4] = 6.0
    lc[(forest_potential > -0.3) & (forest_potential <= 0.4)] = 7.0
    lc[wetter] = 8.0
    lc[use > np.quantile(use, 0.92)] = 1.0
    band = (use > np.quantile(use, 0.84)) & (use <= np.quantile(use, 0.92))
    lc[band] = 2.0
    lc[wettest] = 4.0
    lc[elev > np.quantile(elev, 0.985)] = 5.0
    return lc


def _predictors(rng, agb, elev, xs, ys):
    """The six layers in PREDICTOR_NAMES order, one at a time, as float32: three
    informative, one weakly informative, two nuisance. Each layer's noise is
    drawn band by band, which continues the generator's stream as one draw would."""
    def noisy(signal, sd):
        layer = np.empty(agb.shape, dtype=np.float32)
        for rows in row_blocks(len(ys), len(xs)):
            layer[rows] = signal(rows) + rng.normal(0.0, sd, layer[rows].shape)
        return layer

    z, elev_z = _standardized(agb), _standardized(elev)
    field = _smooth_field(rng, xs, ys)
    yield noisy(lambda rows: -0.6 * z(rows) + 0.3 * field[rows], 0.25)
    del field
    yield noisy(lambda rows: agb[rows] / (agb[rows] + 120.0), 0.03)
    yield noisy(lambda rows: 0.8 * z(rows), 0.35)
    yield noisy(lambda rows: 0.25 * z(rows) + 0.5 * elev_z(rows), 0.3)
    for n_waves in (6, 3):
        yield noisy(_smooth_field(rng, xs, ys, n_waves=n_waves).__getitem__, 0.2)


def _tree_rows(rng, plot_id, year, crm_density, nsvb_density):
    """Tree list whose kept trees aggregate back to the plot densities."""
    rows = []
    if crm_density > 0.0:
        total_kg = crm_density * PLOT_AREA_HA * 1000.0
        m = max(1, int(rng.poisson(crm_density / 8.0)))
        w = rng.gamma(1.5, size=m)
        w /= w.sum()
        ratio = nsvb_density / crm_density
        for kg in total_kg * w:
            rows.append({
                "plot_id": plot_id,
                "subplot": int(rng.integers(1, 5)),
                "species_code": SPECIES[int(rng.integers(0, len(SPECIES)))],
                "dbh_cm": round(12.7 + 47.0 * rng.beta(1.2, 3.0), 1),
                "agb_crm_kg": repr(round(float(kg), 6)),
                "agb_nsvb_kg": repr(round(float(kg * ratio), 6)),
                "inventory_year": year,
            })
    # occasional sub-threshold stem; ingest drops these with a warning
    if rng.random() < 0.02:
        rows.append({
            "plot_id": plot_id,
            "subplot": int(rng.integers(1, 5)),
            "species_code": SPECIES[int(rng.integers(0, len(SPECIES)))],
            "dbh_cm": round(rng.uniform(3.0, 12.0), 1),
            "agb_crm_kg": repr(round(float(rng.uniform(0.5, 8.0)), 6)),
            "agb_nsvb_kg": repr(round(float(rng.uniform(0.5, 8.0)), 6)),
            "inventory_year": year,
        })
    return rows


def synthesize(out_dir, seed: int = 0, ncols: int = 200, nrows: int = 200,
               cellsize: float = 300.0, n_plots: int = 300) -> Path:
    """Write the dataset plus a pipeline configuration; return the config path.

    Layout under out_dir: inputs/ holds rasters and tables, config.json points
    at them with relative paths, and the configured output directory is run/.
    Each argument is checked before anything is created, and a bad one raises
    ValueError naming it: seed, ncols, nrows and n_plots must be integers (not
    bools), seed and n_plots non-negative, ncols and nrows at least 4, and the
    cellsize positive and finite, with a finite extent ncols x cellsize and
    nrows x cellsize.
    """
    for name, value in (("seed", seed), ("ncols", ncols), ("nrows", nrows),
                        ("n_plots", n_plots)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if seed < 0:  # numpy seeds no generator from it
        raise ValueError(f"seed must be non-negative, got {seed}")
    for name, cells in (("ncols", ncols), ("nrows", nrows)):
        if cells < 4:  # plots keep two cells from each edge
            raise ValueError(f"{name} must be at least 4, got {cells}")
    if n_plots < 0:
        raise ValueError(f"n_plots must be non-negative, got {n_plots}")
    if not (finite_number(cellsize) and cellsize > 0):
        raise ValueError(f"cellsize must be positive and finite, got {cellsize!r}")
    for name, cells in (("ncols", ncols), ("nrows", nrows)):
        # compared, not multiplied, so an int too large for a float is refused too
        if not cells <= sys.float_info.max / cellsize:
            raise ValueError(f"{name} x cellsize must be finite, got {cells} x {cellsize!r}")
    out = Path(out_dir)
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)

    def write(values, units, name):
        write_grid(Grid(ncols=ncols, nrows=nrows, x_origin=0.0, y_origin=0.0,
                        cellsize=cellsize, units=units,
                        values=np.asarray(values, dtype=np.float32)),
                   inputs / f"{name}.bin")
        return f"inputs/{name}.bin"

    xs = (np.arange(ncols) + 0.5) * cellsize
    ys = (nrows - np.arange(nrows) - 0.5) * cellsize

    rng_land = np.random.default_rng([seed, 1])
    elev = np.clip(600.0 + 260.0 * _smooth_field(rng_land, xs, ys, n_waves=5), 0.0, None)
    forest_potential = _smooth_field(rng_land, xs, ys, n_waves=5)
    elevation_path = write(elev, "m", "elevation")

    lc05 = _landcover(np.random.default_rng([seed, 2]), xs, ys, elev, forest_potential)
    rng_agb = np.random.default_rng([seed, 4])
    agb05 = np.clip(150.0 / (1.0 + np.exp(-1.3 * forest_potential))
                    + 35.0 * _smooth_field(rng_agb, xs, ys)
                    + 0.03 * (800.0 - elev), 0.0, 350.0)
    del forest_potential
    agb05[np.isin(lc05, REMOVED_CLASSES)] = 0.0

    # one compact conversion blob so the later year loses mapped area; each
    # field draws from its own stream, so the order of the fields is free
    blob = _smooth_field(np.random.default_rng([seed, 3]), xs, ys, n_waves=3)
    lc19 = lc05.copy()
    lc19[(blob > np.quantile(blob, 0.97)) & ~np.isin(lc05, REMOVED_CLASSES)] = 1.0
    del blob
    agb19 = np.clip(agb05 * (1.10 + 0.04 * _smooth_field(rng_agb, xs, ys, n_waves=4)) + 6.0,
                    0.0, 380.0)
    agb19[agb05 == 0.0] = 0.0
    agb19[np.isin(lc19, REMOVED_CLASSES)] = 0.0
    landcover = dict(zip(YEARS, (lc05, lc19)))
    agb_true = dict(zip(YEARS, (agb05, agb19)))
    del lc05, lc19, agb05, agb19
    year_paths = {str(year): {"landcover": write(landcover[year], "class", f"landcover_{year}")}
                  for year in YEARS}

    # -- plots and trees --------------------------------------------------
    rng_plot = np.random.default_rng([seed, 6])
    margin = 2.0 * cellsize
    plot_rows = []
    tree_rows = []
    for i in range(n_plots):
        pid = f"P{i:04d}"
        x = float(rng_plot.uniform(margin, ncols * cellsize - margin))
        y = float(rng_plot.uniform(margin, nrows * cellsize - margin))
        panel = int(rng_plot.integers(1, 6))
        u = rng_plot.random()
        years = YEARS if u < 0.3 else (YEARS[int(rng_plot.integers(0, 2))],)
        row, col = math.floor((nrows * cellsize - y) / cellsize), math.floor(x / cellsize)
        for year in years:
            on_removed = landcover[year][row, col] in REMOVED_CLASSES
            crm_true = float(agb_true[year][row, col])
            nsvb_true = 0.0 if crm_true == 0.0 else max(
                0.0, RESCALE_INTERCEPT + RESCALE_SLOPE_SOURCE * crm_true
                + RESCALE_SLOPE_ELEV * float(elev[row, col]))
            u2 = rng_plot.random()
            if on_removed or crm_true == 0.0 or u2 < 0.05:
                forested, crm_d, nsvb_d = 0.0, 0.0, 0.0
                height = (round(rng_plot.uniform(1.5, 8.0), 1)
                          if rng_plot.random() < 0.25
                          else round(rng_plot.uniform(0.0, 1.0), 1))
            else:
                # partially forested below 0.13: measured but unusable for model fitting
                forested = round(rng_plot.uniform(0.1, 0.9), 2) if u2 < 0.13 else 1.0
                frac_noise = rng_plot.normal(1.0, 0.08)
                crm_d = max(0.0, crm_true * forested * frac_noise)
                nsvb_d = max(0.0, nsvb_true * forested * frac_noise)
                height = ""
            plot_rows.append({
                "plot_id": pid,
                "x_m": repr(round(x, 2)),
                "y_m": repr(round(y, 2)),
                "inventory_year": year,
                "panel": panel,
                "forested_fraction": forested,
                "max_canopy_height_m": height,
            })
            tree_rows.extend(_tree_rows(rng_plot, pid, year, crm_d, nsvb_d))

    write_table(inputs / "plots.csv", PLOT_COLUMNS, plot_rows)
    write_table(inputs / "trees.csv", TREE_COLUMNS, tree_rows)
    del landcover

    # the predictors last, each year's from its own stream: a year's AGB is
    # dropped once its layers are written, and each layer once it is written
    for year in YEARS:
        layers = _predictors(np.random.default_rng([seed, 5, year]),
                             agb_true.pop(year), elev, xs, ys)
        year_paths[str(year)]["predictors"] = {
            name: write(next(layers), "", f"pred_{year}_{name}") for name in PREDICTOR_NAMES}

    rng_frac = np.random.default_rng([seed, 7])
    frac_rows = []
    for year in YEARS:
        shares = rng_frac.dirichlet(np.full(len(SPECIES), 5.0))
        shares = np.round(shares, 6)
        shares[-1] = 1.0 - shares[:-1].sum()  # exact unit sum
        for sp, share in zip(SPECIES, shares):
            frac_rows.append({
                "species_code": sp,
                "fraction": round(float(rng_frac.uniform(0.46, 0.52)), 4),
                "agb_share": repr(float(share)),
                "year": year,
            })
    write_table(inputs / "carbon_fractions.csv", CARBON_FRACTION_COLUMNS, frac_rows)

    config = {
        "seed": seed,
        "output_dir": "run",
        "holdout_panel": 3,
        "scales_km": [2, 5, 10, 20, 50],
        "removed_landcover_classes": list(REMOVED_CLASSES),
        "trees": "inputs/trees.csv",
        "plots": "inputs/plots.csv",
        "carbon_fractions": "inputs/carbon_fractions.csv",
        "elevation": elevation_path,
        "years": year_paths,
        "learner_grids": {
            "knn": [{"k": 3}, {"k": 10}],
            "bagged_trees": [
                {"trees": 30, "max_depth": 8, "max_features": "sqrt"},
                {"trees": 30, "max_depth": 16, "max_features": "sqrt"},
            ],
            "boosted_trees": [
                {"trees": 60, "learning_rate": 0.1, "max_depth": 3},
            ],
        },
    }
    config_path = out / "config.json"
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(config, f, indent=2, sort_keys=True)
        f.write("\n")
    return config_path
