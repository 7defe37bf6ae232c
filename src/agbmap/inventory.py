"""Field-plot reference data: tree tables, plot tables, and the filters that
turn them into model-development and assessment sets.

A plot is four circular subplots of radius 7.32 m: one at the plot center and
three at 36.6 m, at azimuths 120, 240 and 360 degrees clockwise from north.
Densities always normalize by the full four-subplot area regardless of the
forested fraction of the plot.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .tables import number, optional_number, read_table

LOGGER = logging.getLogger(__name__)

SUBPLOT_RADIUS_M = 7.32
SUBPLOT_COUNT = 4
SUBPLOT_OFFSET_M = 36.6
SUBPLOT_AZIMUTHS_DEG = (120.0, 240.0, 360.0)
# 4 * pi * 7.32^2
PLOT_AREA_M2 = SUBPLOT_COUNT * math.pi * SUBPLOT_RADIUS_M ** 2
PLOT_AREA_HA = PLOT_AREA_M2 / 1e4

MIN_DBH_CM = 12.7

ALLOMETRIES = ("CRM", "NSVB")


@dataclass(frozen=True)
class TreeRecord:
    plot_id: str
    subplot: int
    species_code: str
    dbh_cm: float
    agb_crm_kg: float
    agb_nsvb_kg: float
    inventory_year: int


@dataclass(frozen=True)
class PlotRecord:
    plot_id: str
    x: float
    y: float
    inventory_year: int
    panel: int
    forested_fraction: float
    max_canopy_height_m: float | None = None
    agb_crm: float = 0.0   # Mg/ha
    agb_nsvb: float = 0.0  # Mg/ha

    def agb(self, allometry: str) -> float:
        if allometry == "CRM":
            return self.agb_crm
        if allometry == "NSVB":
            return self.agb_nsvb
        raise ValueError(f"unknown allometry {allometry!r}")


@dataclass
class PlotPartition:
    dev: list[PlotRecord]
    assessment: list[PlotRecord]
    holdout_panel: int


def _number_where(ok, why: str):
    """The `number` parser, rejecting a value where `ok(value)` is false."""
    def parse(text: str) -> float:
        value = number(text)
        if not ok(value):
            raise ValueError(f"{value!r} {why}")
        return value
    return parse


_non_negative = _number_where(lambda v: v >= 0, "is negative")

# each table's columns, in the field order of its record, with their cell parsers
TREE_COLUMNS = {
    "plot_id": str, "subplot": int, "species_code": str,
    "dbh_cm": _number_where(lambda v: v > 0, "is not positive"),
    "agb_crm_kg": _non_negative, "agb_nsvb_kg": _non_negative, "inventory_year": int,
}
PLOT_COLUMNS = {
    "plot_id": str, "x_m": number, "y_m": number, "inventory_year": int, "panel": int,
    "forested_fraction": _number_where(lambda v: 0 <= v <= 1, "is outside [0, 1]"),
    "max_canopy_height_m": optional_number,
}


def load_trees(path) -> list[TreeRecord]:
    """Read a tree table, dropping records below the 12.7 cm diameter threshold.

    Sub-threshold trees are counted and reported as a warning; malformed rows
    raise.
    """
    records = [TreeRecord(*row.values()) for row in read_table(path, "tree", TREE_COLUMNS)]
    kept = [rec for rec in records if rec.dbh_cm >= MIN_DBH_CM]
    if len(kept) < len(records):
        LOGGER.warning("dropped %d trees below the %.1f cm diameter threshold",
                       len(records) - len(kept), MIN_DBH_CM)
    return kept


def load_plots(path) -> list[PlotRecord]:
    """Read a plot table. AGB densities start at zero; attach them with
    :func:`aggregate_plot_agb`. A blank max_canopy_height_m becomes None. A plot
    id listed twice in one inventory year raises."""
    plots, seen = [], set()
    for row in read_table(path, "plot", PLOT_COLUMNS):
        plots.append(PlotRecord(*row.values()))
        key = (plots[-1].plot_id, plots[-1].inventory_year)
        if key in seen:
            raise ValueError(f"plot table {path} lists plot {key[0]!r} twice "
                             f"in inventory year {key[1]}")
        seen.add(key)
    return plots


def aggregate_plot_agb(trees: Iterable[TreeRecord], allometry: str,
                       plot_ids: Iterable[str] | None = None) -> dict[str, float]:
    """Plot-level AGB density in Mg/ha: sum of tree kg over the full plot area.

    density = sum(kg) / 0.0673336 ha / 1000. Pass `plot_ids` to guarantee an
    entry (possibly 0.0 for a treeless plot) for every listed plot.
    """
    if allometry not in ALLOMETRIES:
        raise ValueError(f"unknown allometry {allometry!r}")
    totals: dict[str, float] = {}
    if plot_ids is not None:
        for pid in plot_ids:
            totals[pid] = 0.0
    for t in trees:
        kg = t.agb_crm_kg if allometry == "CRM" else t.agb_nsvb_kg
        totals[t.plot_id] = totals.get(t.plot_id, 0.0) + kg
    return {pid: kg / PLOT_AREA_HA / 1000.0 for pid, kg in totals.items()}


def attach_densities(plots: Sequence[PlotRecord], crm: dict[str, float],
                     nsvb: dict[str, float]) -> list[PlotRecord]:
    """Copy plot records with AGB densities filled in (0.0 where absent)."""
    return [
        replace(p, agb_crm=crm.get(p.plot_id, 0.0), agb_nsvb=nsvb.get(p.plot_id, 0.0))
        for p in plots
    ]


def select_single_inventory(plots: Sequence[PlotRecord], seed: int) -> list[PlotRecord]:
    """Keep one uniformly random inventory record per plot id.

    Plots measured once pass through unchanged. The draw is seeded and plots
    are visited in sorted-id order, so the selection is reproducible. Output is
    ordered by plot id.
    """
    groups: dict[str, list[PlotRecord]] = {}
    for p in plots:
        groups.setdefault(p.plot_id, []).append(p)
    rng = np.random.default_rng(seed)
    chosen = []
    for pid in sorted(groups):
        group = groups[pid]
        if len(group) == 1:
            chosen.append(group[0])
        else:
            chosen.append(group[int(rng.integers(0, len(group)))])
    return chosen


def split_by_panel(plots: Sequence[PlotRecord], holdout_panel, seed: int) -> PlotPartition:
    """Hold out one inventory panel for assessment; the rest is development.

    `holdout_panel` is a panel number or the string "random", which draws one
    of the panels present (seeded). Either side coming up empty is an error.
    """
    panels = sorted({p.panel for p in plots})
    if not panels:
        raise ValueError("no plots to split")
    if holdout_panel == "random":
        rng = np.random.default_rng(seed)
        holdout = panels[int(rng.integers(0, len(panels)))]
    else:
        holdout = int(holdout_panel)
        if holdout not in panels:
            raise ValueError(f"holdout panel {holdout} has no plots")
    assessment = [p for p in plots if p.panel == holdout]
    dev = [p for p in plots if p.panel != holdout]
    if not assessment:
        raise ValueError(f"holdout panel {holdout} has no plots")
    if not dev:
        raise ValueError("holdout panel leaves no development plots")
    return PlotPartition(dev=dev, assessment=assessment, holdout_panel=holdout)


def filter_model_dev(plots: Sequence[PlotRecord]) -> list[PlotRecord]:
    """Model-development filter.

    Keeps fully forested plots as they are, and nonforested plots only when
    the recorded canopy height rules out missed tall vegetation (max canopy
    height <= 1 m), forcing their AGB to zero. Partially forested plots and
    nonforested plots with no height observation are excluded; exclusions are
    reported as a warning.
    """
    kept: list[PlotRecord] = []
    n_partial = 0
    n_no_height = 0
    n_tall = 0
    for p in plots:
        if p.forested_fraction == 1.0:
            kept.append(p)
        elif p.forested_fraction == 0.0:
            if p.max_canopy_height_m is None:
                n_no_height += 1
            elif p.max_canopy_height_m <= 1.0:
                kept.append(replace(p, agb_crm=0.0, agb_nsvb=0.0))
            else:
                n_tall += 1
        else:
            n_partial += 1
    dropped = n_partial + n_no_height + n_tall
    if dropped:
        LOGGER.warning(
            "model-development filter removed %d plots "
            "(%d partially forested, %d nonforested without height, %d nonforested tall)",
            dropped, n_partial, n_no_height, n_tall)
    return kept
