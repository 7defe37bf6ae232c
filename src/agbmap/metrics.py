"""Map accuracy and agreement statistics for paired reference/prediction data.

Error conventions: the residual is reference minus prediction (positive mean
error means underprediction). Percent metrics rescale by the mean of the
model-training reference values so they stay comparable across aggregation
scales. R-squared is computed against the reference mean of the compared
sample and may be negative; no clamping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hexgrid import aggregate_pairs, covering_hexgrid


@dataclass
class PairedSample:
    """Reference values y and predictions yhat, matched by position."""

    y: np.ndarray
    yhat: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.yhat = np.asarray(self.yhat, dtype=np.float64)
        if self.y.ndim != 1 or self.y.shape != self.yhat.shape:
            raise ValueError("y and yhat must be 1-d arrays of equal length")
        if self.y.size == 0:
            raise ValueError("a paired sample cannot be empty")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.yhat))):
            raise ValueError("paired values must be finite")

    @property
    def n(self) -> int:
        return int(self.y.size)


@dataclass
class MetricsReport:
    """One assessment row; metric fields are None where undefined (for
    example a scale with a single occupied cell)."""

    n: int
    rmse: float | None
    mae: float | None
    me: float | None
    pct_rmse: float | None
    pct_mae: float | None
    r2: float | None
    dr: float | None = None
    pph: float | None = None
    scale_km: float | None = None


@dataclass
class GmfrFit:
    """Geometric mean functional relationship y' = a + b*yhat.

    The symmetric line: slope magnitude sqrt(var(y)/var(yhat)), signed by the
    correlation, intercept through the means.
    """

    a: float
    b: float


@dataclass
class AcDecomposition:
    ac: float
    ac_systematic: float
    ac_unsystematic: float
    ssd: float
    spd_u: float
    d: float


def basic_metrics(pairs: PairedSample, ybar_train: float) -> MetricsReport:
    """RMSE, MAE, ME, R2 and percent variants against a fixed normalizer.

    pct_rmse = 100*RMSE/ybar_train and likewise for MAE; ybar_train must be
    positive. R2 is None when the reference has no variance.
    """
    if not ybar_train > 0:
        raise ValueError("ybar_train must be positive for percent metrics")
    e = pairs.y - pairs.yhat
    n = pairs.n
    rmse = float(np.sqrt(np.mean(e ** 2)))
    mae = float(np.mean(np.abs(e)))
    me = float(np.mean(e))
    ss_tot = float(np.sum((pairs.y - pairs.y.mean()) ** 2))
    if n < 2 or ss_tot == 0.0:
        r2 = None
    else:
        r2 = float(1.0 - np.sum(e ** 2) / ss_tot)
    return MetricsReport(
        n=n,
        rmse=rmse,
        mae=mae,
        me=me,
        pct_rmse=100.0 * rmse / ybar_train,
        pct_mae=100.0 * mae / ybar_train,
        r2=r2,
    )


def willmott_dr(pairs: PairedSample) -> float | None:
    """Refined index of agreement in [-1, 1]; None for a constant reference.

    With A = sum|yhat - y| and B = 2 * sum|y - ybar|:
    dr = 1 - A/B when A <= B, else B/A - 1.
    """
    a = float(np.sum(np.abs(pairs.yhat - pairs.y)))
    spread = float(np.sum(np.abs(pairs.y - pairs.y.mean())))
    if spread == 0.0:
        return None
    b = 2.0 * spread
    if a <= b:
        return 1.0 - a / b
    return b / a - 1.0


def gmfr_fit(pairs: PairedSample) -> GmfrFit:
    """Fit the symmetric functional line; both variables need variance."""
    y = pairs.y
    yhat = pairs.yhat
    ybar = y.mean()
    yhbar = yhat.mean()
    ss_y = float(np.sum((y - ybar) ** 2))
    ss_yh = float(np.sum((yhat - yhbar) ** 2))
    if ss_y == 0.0 or ss_yh == 0.0:
        raise ValueError("functional-line fit needs variance in both variables")
    cov = float(np.sum((y - ybar) * (yhat - yhbar)))
    sign = -1.0 if cov < 0 else 1.0
    b = sign * float(np.sqrt(ss_y / ss_yh))
    a = float(ybar - b * yhbar)
    return GmfrFit(a=a, b=b)


def ac_decompose(pairs: PairedSample) -> AcDecomposition:
    """Agreement coefficient and its systematic/unsystematic split.

    AC = 1 - SSD/D with SSD the sum of squared differences and D the sum of
    potential-difference terms. The unsystematic sum SPDu measures scatter
    around the symmetric functional line; ACs = 1 - (SSD - SPDu)/D and
    ACu = 1 - SPDu/D, so ACs + ACu - 1 = AC exactly.
    """
    y = pairs.y
    yhat = pairs.yhat
    ybar = y.mean()
    yhbar = yhat.mean()
    m = abs(yhbar - ybar)
    d = float(np.sum((m + np.abs(yhat - yhbar)) * (m + np.abs(y - ybar))))
    if d == 0.0:
        raise ValueError("degenerate agreement denominator: all values equal")
    ssd = float(np.sum((yhat - y) ** 2))
    fit = gmfr_fit(pairs)
    y_fit = fit.a + fit.b * yhat
    yhat_fit = -fit.a / fit.b + y / fit.b
    spd_u = float(np.sum(np.abs(yhat - yhat_fit) * np.abs(y - y_fit)))
    return AcDecomposition(
        ac=1.0 - ssd / d,
        ac_systematic=1.0 - (ssd - spd_u) / d,
        ac_unsystematic=1.0 - spd_u / d,
        ssd=ssd,
        spd_u=spd_u,
        d=d,
    )


@dataclass
class Ecdf:
    """Right-continuous empirical distribution: F(q) = fraction of values <= q."""

    xs: np.ndarray
    fs: np.ndarray
    n: int

    def __call__(self, q):
        q = np.asarray(q, dtype=np.float64)
        idx = np.searchsorted(self.xs, q, side="right")
        out = np.where(idx > 0, self.fs[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if out.ndim == 0 else out


def ecdf(values) -> Ecdf:
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("empirical distribution of an empty sample")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    xs, counts = np.unique(vals, return_counts=True)
    fs = np.cumsum(counts) / vals.size
    return Ecdf(xs=xs, fs=fs, n=int(vals.size))


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance: sup |F_a - F_b|.

    For right-continuous step functions the supremum is attained at a pooled
    sample point, so it is evaluated there exactly.
    """
    fa = ecdf(a)
    fb = ecdf(b)
    pooled = np.union1d(fa.xs, fb.xs)
    return float(np.max(np.abs(fa(pooled) - fb(pooled))))


def multiscale_pairs(y, yhat, locations,
                     spacings_km) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """The (scale_km, y, yhat) arrays compared at each scale of `spacings_km`.

    The 1 km entry is the input itself (no aggregation). Every other scale
    holds the unweighted per-hexagon means of y and yhat over a tessellation
    covering the locations, one entry per occupied hexagon in cell-id order.
    Zero points give empty arrays at every scale.
    """
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    locs = np.asarray(locations, dtype=np.float64)
    if locs.shape != (y.size, 2):
        raise ValueError("locations must be an (n, 2) array matching the pairs")
    if y.shape == yhat.shape == (0,):
        return [(float(s_km), y, yhat) for s_km in spacings_km]
    pairs = PairedSample(y=y, yhat=yhat)
    out = []
    for s_km in spacings_km:
        if s_km == 1:
            out.append((float(s_km), pairs.y, pairs.yhat))
            continue
        means = aggregate_pairs(pairs, locs, covering_hexgrid(locs, float(s_km) * 1000.0))
        out.append((float(s_km), means[:, 0], means[:, 1]))
    return out


def multiscale_assessment(pairs: PairedSample, locations, spacings_km, *,
                          ybar_train: float) -> list[MetricsReport]:
    """Accuracy metrics across hexagonal aggregation scales.

    The 1 km entry is the plot-to-pixel comparison (no aggregation). Larger
    scales compare unweighted hexagon means of reference and prediction;
    plots-per-hexagon (pph) is the sample count over the occupied-cell count.
    A scale with fewer than two occupied cells reports its n with all metrics
    absent.
    """
    out = []
    for s_km, y, yhat in multiscale_pairs(pairs.y, pairs.yhat, locations, spacings_km):
        pph = None if s_km == 1 else pairs.n / y.size
        if s_km != 1 and y.size < 2:
            out.append(MetricsReport(
                n=y.size, rmse=None, mae=None, me=None, pct_rmse=None,
                pct_mae=None, r2=None, dr=None, pph=pph, scale_km=s_km))
            continue
        sample = PairedSample(y=y, yhat=yhat)
        rep = basic_metrics(sample, ybar_train)
        out.append(replace(rep, dr=willmott_dr(sample), pph=pph, scale_km=s_km))
    return out
