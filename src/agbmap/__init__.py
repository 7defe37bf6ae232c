"""Forest aboveground-biomass mapping: reference data, models, maps, and
accuracy assessment."""

from .grid import (
    Grid, GridFormatError, GridSummary,
    difference, percent_rank, read_grid, summarize, write_grid,
)
from .inventory import (
    ALLOMETRIES, MIN_DBH_CM, PLOT_AREA_HA, PLOT_AREA_M2,
    PlotPartition, PlotRecord, TreeRecord,
    attach_densities, filter_model_dev, load_plots, load_trees,
    select_single_inventory, split_by_panel,
)
from .footprint import OverlapWeights, PlotFootprint, pixel_overlap_weights, weighted_mean
from .hexgrid import HexGrid, aggregate_pairs, assign, make_hexgrid
from .metrics import (
    AcDecomposition, GmfrFit, MetricsReport, PairedSample,
    ac_decompose, basic_metrics, error_metrics, gmfr_fit, ks_statistic,
    multiscale_assessment, willmott_dr,
)
from .learners import (
    DEFAULT_GRIDS, EnsembleModel, LearnerSpec, StackFit,
    cv_predict, fit_stack, grid_search, kfold_indices, predict_grid, train_base,
)
from .carbon import (
    CRM_CARBON_FRACTION, CarbonFractionRow, RescaleFit, StockEstimate,
    agb_to_agc, design_stock, load_carbon_fractions, model_stock,
    rescale_fit, weighted_carbon_fraction,
)
from .pipeline import (
    ARTIFACT_VERSION, ASSESSMENT_COLUMNS, STAGE_ORDER,
    ConfigError, PipelineConfig, PipelineError, RunManifest, render_report,
    run, validate,
)
from .synth import synthesize

__version__ = "0.1.0"
