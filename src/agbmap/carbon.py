"""Biomass and carbon stock accounting, and the linear rescaling between
allometry variants.

Stocks are in million metric tons (Mt). A model total is a map's sum over its
valid cells. A design total is the mean plot density times `region_area_ha`,
which defaults to the extent; it is a plain expansion without
post-stratification, and outputs that carry it must say so. The two compare
like for like when the raster covers the design's region and masks what lies
outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid
from .metrics import MetricsReport, PairedSample, error_metrics, least_squares
from .tables import number, read_table


# fixed carbon fraction of aboveground biomass under the component-ratio method
CRM_CARBON_FRACTION = 0.5

# the most jointly valid cells rescale_fit samples
RESCALE_SAMPLE_CELLS = 1_000_000

DESIGN_ESTIMATOR_NOTE = (
    "design-based totals are simple expansions (mean plot density times region "
    "area) without post-stratification"
)


@dataclass(frozen=True)
class StockEstimate:
    quantity: str        # "AGB" or "AGC"
    method: str          # "model" or "design"
    allometry: str       # "CRM" or "NSVB"
    year: int
    total_mt: float      # million metric tons
    region_area_ha: float  # model: the map's valid area; design: the region's


@dataclass(frozen=True)
class CarbonFractionRow:
    species_code: str
    fraction: float      # carbon fraction of aboveground biomass
    agb_share: float     # species share of total AGB
    year: int


# the carbon fraction table's columns, in CarbonFractionRow field order
CARBON_FRACTION_COLUMNS = {"species_code": str, "fraction": number, "agb_share": number,
                           "year": int}


def load_carbon_fractions(path) -> list[CarbonFractionRow]:
    return [CarbonFractionRow(*row.values())
            for row in read_table(path, "carbon fraction", CARBON_FRACTION_COLUMNS)]


def weighted_carbon_fraction(rows) -> float:
    """AGB-share-weighted mean carbon fraction; shares must sum to one."""
    rows = list(rows)
    if not rows:
        raise ValueError("no carbon fraction rows")
    share_sum = math.fsum(r.agb_share for r in rows)  # exactly rounded: in any row order
    if abs(share_sum - 1.0) > 1e-9:
        raise ValueError(f"AGB shares sum to {share_sum!r}, not 1")
    for r in rows:
        if not 0.0 < r.fraction < 1.0:
            raise ValueError(f"carbon fraction {r.fraction!r} outside (0, 1)")
        if r.agb_share < 0.0:
            raise ValueError("negative AGB share")
    return math.fsum(r.agb_share * r.fraction for r in rows)


def model_stock(mean_density: float | None, valid_area_ha: float, year: int,
                allometry: str) -> StockEstimate:
    """Map-based stock, the map's sum: its mean valid-cell density (None if no
    cell is valid) times the area of its valid cells."""
    if mean_density is None:
        raise ValueError("no valid cells to estimate a stock from")
    return StockEstimate(
        quantity="AGB", method="model", allometry=allometry, year=year,
        total_mt=mean_density * valid_area_ha / 1e6, region_area_ha=valid_area_ha,
    )


def design_stock(plots, region_area_ha: float, year: int, allometry: str) -> StockEstimate:
    """Plot-based stock: mean plot density times the region area."""
    densities = [p.agb(allometry) for p in plots]
    if not densities:
        raise ValueError("no plots to estimate a stock from")
    if not region_area_ha > 0:
        raise ValueError("region area must be positive")
    mean_density = float(np.mean(densities))
    return StockEstimate(
        quantity="AGB", method="design", allometry=allometry, year=year,
        total_mt=mean_density * region_area_ha / 1e6, region_area_ha=float(region_area_ha),
    )


def agb_to_agc(stock: StockEstimate, fraction: float) -> StockEstimate:
    """Convert a biomass stock to a carbon stock by a fraction in (0, 1)."""
    if stock.quantity != "AGB":
        raise ValueError(f"cannot convert quantity {stock.quantity!r} to carbon")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"carbon fraction {fraction!r} outside (0, 1)")
    return replace(stock, quantity="AGC", total_mt=stock.total_mt * fraction)


@dataclass
class RescaleFit:
    """Linear map from one allometry's predictions (plus elevation) to the
    other's, with held-out test error."""

    intercept: float
    coef_source: float
    coef_elevation: float
    n_train: int
    n_test: int
    test_rmse: float | None
    test_mae: float | None
    test_me: float | None
    test_r2: float | None


def rescale_fit(target_grid: Grid, source_grid: Grid, elevation_grid: Grid,
                train_frac: float = 0.8, seed=0) -> RescaleFit:
    """OLS fit target ~ intercept + source + elevation on sampled cells.

    Draws up to RESCALE_SAMPLE_CELLS jointly valid cells without replacement
    (all of them when fewer exist), splits train/test by train_frac, and
    fits the training cells with `least_squares`; a design it flags rank
    deficient (after centring, as from a constant or collinear column) raises.
    train_frac=1 leaves the test metrics absent.
    """
    if not (target_grid.aligned_with(source_grid) and target_grid.aligned_with(elevation_grid)):
        raise ValueError("grids are not aligned")
    if not 0.0 < train_frac <= 1.0:
        raise ValueError("train_frac must be in (0, 1]")
    joint = target_grid.mask & source_grid.mask & elevation_grid.mask
    flat = np.nonzero(joint.ravel())[0]
    if flat.size < 3:
        raise ValueError("need at least 3 jointly valid cells")
    rng = np.random.default_rng(seed)
    if flat.size > RESCALE_SAMPLE_CELLS:
        take = rng.choice(flat.size, size=RESCALE_SAMPLE_CELLS, replace=False)
    else:
        take = rng.permutation(flat.size)
    chosen = flat[take]
    del flat, take
    n = chosen.size
    n_train = int(round(train_frac * n))
    n_train = min(max(n_train, 3), n)

    # float32 samples; least_squares and the test predictions work in float64
    tgt, src, elev = (g.values.ravel()[chosen] for g in (target_grid, source_grid, elevation_grid))
    del chosen
    intercept, (c_source, c_elevation), rank_deficient = least_squares(
        [src[:n_train], elev[:n_train]], tgt[:n_train])
    if rank_deficient:
        raise ValueError("collinear rescale design (condition estimate too small)")

    n_test = n - n_train
    yhat = (intercept + c_source * src[n_train:].astype(np.float64)
            + c_elevation * elev[n_train:].astype(np.float64))
    test = error_metrics(PairedSample(y=tgt[n_train:], yhat=yhat)) if n_test else MetricsReport(n=0)
    return RescaleFit(
        intercept=intercept,
        coef_source=float(c_source),
        coef_elevation=float(c_elevation),
        n_train=n_train,
        n_test=n_test,
        test_rmse=test.rmse,
        test_mae=test.mae,
        test_me=test.me,
        test_r2=test.r2,
    )
