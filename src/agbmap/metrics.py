"""Map accuracy and agreement statistics for paired reference/prediction data.

Error conventions: the residual is reference minus prediction (positive mean
error means underprediction). Percent metrics rescale by the mean of the
model-training reference values so they stay comparable across aggregation
scales. R-squared is computed against the reference mean of the compared
sample and may be negative; no clamping. Before any square, deviations are
scaled by a power of two to below 2 in magnitude, and results are scaled back:
exact for normal values, and no square overflows. `least_squares`, the solve of
both the stack and the rescale bridge, scales its centred columns the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hexgrid import aggregate_pairs, assign, covering_hexgrid


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
    rmse: float | None = None
    mae: float | None = None
    me: float | None = None
    pct_rmse: float | None = None
    pct_mae: float | None = None
    r2: float | None = None
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


def _exponent(*arrays) -> int:
    """The least k with every |value| of `arrays` below 2**k; 0 when all are 0."""
    return int(np.frexp(max(max(a.max(), -a.min()) for a in arrays))[1])


def _scaled(a: np.ndarray, k: int) -> np.ndarray:
    """`a` times 2**-k, in place; exact while its values stay normal."""
    return np.ldexp(a, -k, out=a)


def least_squares(columns, y) -> tuple[float, np.ndarray, bool]:
    """OLS fit of y on feature-major `columns` and an intercept: (intercept,
    coefficients, rank_deficient). Each column and y is centred in float64 and
    scaled by a power of two to below 1, so scaling any of them by 2**k scales
    the fit exactly. `lstsq` solves the normal equations of that design with
    rcond 1e-10; a rank below the column count (collinear or constant columns)
    takes the minimal-norm solution and is flagged."""
    z = np.empty((len(columns) + 1, np.shape(y)[0]))  # the columns, then y
    means, ks = [], []
    for row, a in zip(z, [*columns, y]):
        row[:] = a
        means.append(float(row.mean()))
        row -= means[-1]
        ks.append(_exponent(row))
        _scaled(row, ks[-1])
    x, t = z[:-1], z[-1]
    sol, _res, rank, _sv = np.linalg.lstsq(x @ x.T, x @ t, rcond=1e-10)
    coefficients = np.ldexp(sol, ks[-1] - np.array(ks[:-1]))
    intercept = means[-1] - sum(c * m for c, m in zip(coefficients.tolist(), means))
    return intercept, coefficients, bool(rank < len(columns))


def error_metrics(pairs: PairedSample) -> MetricsReport:
    """n, RMSE, MAE, ME and R2; R2 is None when the reference has no variance,
    or so little beside the errors that R2 lies below the float range."""
    e = pairs.y - pairs.yhat
    mae, me = float(np.mean(np.abs(e))), float(np.mean(e))
    k_e = _exponent(e)
    ss_res = float(np.sum(_scaled(e, k_e) ** 2))  # times 2**(-2 * k_e)
    dy = pairs.y - pairs.y.mean()
    k_y = _exponent(dy)
    ss_tot = float(np.sum(_scaled(dy, k_y) ** 2))  # times 2**(-2 * k_y)
    with np.errstate(over="ignore"):  # an R2 below the float range overflows to -inf
        r2 = float(1.0 - np.ldexp(ss_res / ss_tot, 2 * (k_e - k_y))) if ss_tot else None
    return MetricsReport(
        n=pairs.n,
        rmse=float(np.ldexp(np.sqrt(ss_res / pairs.n), k_e)),
        mae=mae,
        me=me,
        r2=None if r2 == -np.inf else r2,
    )


def basic_metrics(pairs: PairedSample, ybar_train: float) -> MetricsReport:
    """The error metrics, their percent variants against a fixed normalizer,
    and Willmott's dr.

    pct_rmse = 100*RMSE/ybar_train and likewise for MAE; ybar_train must be
    positive.
    """
    if not ybar_train > 0:
        raise ValueError("ybar_train must be positive for percent metrics")
    rep = error_metrics(pairs)
    return replace(rep, pct_rmse=100.0 * rep.rmse / ybar_train,
                   pct_mae=100.0 * rep.mae / ybar_train, dr=willmott_dr(pairs))


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


def _line_terms(pairs: PairedSample):
    """Deviations from the means, each scaled by its own 2**-k, the two k, the
    scaled sums of squares and the sign of the covariance: (dy, dyh, k_y, k_yh,
    ss_y, ss_yh, sign). Both variables need variance."""
    dy = pairs.y - pairs.y.mean()
    dyh = pairs.yhat - pairs.yhat.mean()
    k_y, k_yh = _exponent(dy), _exponent(dyh)
    ss_y = float(np.sum(_scaled(dy, k_y) ** 2))
    ss_yh = float(np.sum(_scaled(dyh, k_yh) ** 2))
    if ss_y == 0.0 or ss_yh == 0.0:
        raise ValueError("functional-line fit needs variance in both variables")
    sign = -1.0 if float(np.sum(dy * dyh)) < 0 else 1.0
    return dy, dyh, k_y, k_yh, ss_y, ss_yh, sign


def gmfr_fit(pairs: PairedSample) -> GmfrFit:
    """Fit the symmetric functional line; both variables need variance."""
    _, _, k_y, k_yh, ss_y, ss_yh, sign = _line_terms(pairs)
    b = sign * float(np.ldexp(np.sqrt(ss_y / ss_yh), k_y - k_yh))
    a = float(pairs.y.mean() - b * pairs.yhat.mean())
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
    # D, SSD and SPDu are summed times 2**(-2 * k), every value below 2**k
    k = _exponent(y, yhat)
    m = np.ldexp(abs(yhbar - ybar), -k)
    d = float(np.sum((m + _scaled(np.abs(yhat - yhbar), k))
                     * (m + _scaled(np.abs(y - ybar), k))))
    if d == 0.0:
        raise ValueError("degenerate agreement denominator: all values equal")
    ssd = float(np.sum(_scaled(yhat - y, k) ** 2))
    # With the line's slope b = sign * sd_y / sd_yh, each term
    # |yhat - yhat_fit| * |y - y_fit| equals (dy - b * dyh)**2 / |b|. It is
    # summed in deviations scaled to unit norm, so neither b nor 1/b is formed:
    # either can underflow or overflow when the two spreads differ enough.
    dy, dyh, k_y, k_yh, ss_y, ss_yh, sign = _line_terms(pairs)
    sd_y, sd_yh = float(np.sqrt(ss_y)), float(np.sqrt(ss_yh))
    spd_u = float(np.ldexp(sd_y * sd_yh * np.sum((dy / sd_y - sign * dyh / sd_yh) ** 2),
                           k_y + k_yh - 2 * k))
    return AcDecomposition(
        ac=1.0 - ssd / d,
        ac_systematic=1.0 - (ssd - spd_u) / d,
        ac_unsystematic=1.0 - spd_u / d,
    )


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance: sup |F_a - F_b|.

    F(q) is the fraction of a sample's values <= q. For these right-continuous
    step functions the supremum is attained at a pooled sample point, so it is
    evaluated there exactly. Empty and non-finite samples raise.
    """
    samples = [np.sort(np.asarray(v, dtype=np.float64).ravel()) for v in (a, b)]
    for v in samples:
        if v.size == 0:
            raise ValueError("empirical distribution of an empty sample")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
    pooled = np.union1d(*samples)
    fa, fb = (np.searchsorted(v, pooled, side="right") / v.size for v in samples)
    return float(np.max(np.abs(fa - fb)))


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
        hexgrid = covering_hexgrid(locs, float(s_km) * 1000.0)
        means = aggregate_pairs(pairs, assign(locs, hexgrid), hexgrid)
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
            rep = MetricsReport(n=y.size)
        else:
            rep = basic_metrics(PairedSample(y=y, yhat=yhat), ybar_train)
        out.append(replace(rep, pph=pph, scale_km=s_km))
    return out
