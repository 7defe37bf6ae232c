"""Release gate: ten independent checks on the published behavior.

Each check is one test so `pytest -v tests/test_acceptance.py` prints one
pass/fail line per check. Oracles here are written as plain loops sharing no
code with the library.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from agbmap import carbon
from agbmap import (
    Grid, PairedSample, PipelineConfig, StockEstimate, ac_decompose,
    agb_to_agc, assign, basic_metrics, fit_stack, ks_statistic, make_hexgrid,
    multiscale_assessment, pixel_overlap_weights, rescale_fit, run, synthesize,
    weighted_mean, willmott_dr, PlotFootprint,
)


# -- plain-loop oracles ---------------------------------------------------

def oracle_basic(y, yhat, ybar_train):
    n = len(y)
    se = sae = sme = 0.0
    for a, b in zip(y, yhat):
        e = a - b  # reference minus prediction
        se += e * e
        sae += abs(e)
        sme += e
    rmse = math.sqrt(se / n)
    mae = sae / n
    me = sme / n
    ybar = sum(y) / n
    sst = sum((a - ybar) ** 2 for a in y)
    r2 = None if sst == 0.0 else 1.0 - se / sst
    return {"rmse": rmse, "mae": mae, "me": me, "r2": r2,
            "pct_rmse": 100.0 * rmse / ybar_train,
            "pct_mae": 100.0 * mae / ybar_train}


def oracle_dr(y, yhat, c=2.0):
    n = len(y)
    ybar = sum(y) / n
    num = sum(abs(b - a) for a, b in zip(y, yhat))
    den = c * sum(abs(a - ybar) for a in y)
    if den == 0.0:
        return None
    if num <= den:
        return 1.0 - num / den
    return den / num - 1.0


def oracle_ac(x, y):
    n = len(x)
    xbar = sum(x) / n
    ybar = sum(y) / n
    ssd = sum((b - a) ** 2 for a, b in zip(x, y))
    spod = sum((abs(xbar - ybar) + abs(a - xbar))
               * (abs(xbar - ybar) + abs(b - ybar)) for a, b in zip(x, y))
    ssx = sum((a - xbar) ** 2 for a in x)
    ssy = sum((b - ybar) ** 2 for b in y)
    sxy = sum((a - xbar) * (b - ybar) for a, b in zip(x, y))
    slope = math.sqrt(ssy / ssx)
    if sxy < 0:
        slope = -slope
    intercept = ybar - slope * xbar
    spd_u = sum(abs(a - (b - intercept) / slope) * abs(b - (intercept + slope * a))
                for a, b in zip(x, y))
    ac = 1.0 - ssd / spod
    ac_u = 1.0 - spd_u / spod
    ac_s = 1.0 - (ssd - spd_u) / spod
    return ac, ac_s, ac_u


def oracle_ks(a, b):
    best = 0.0
    for t in list(a) + list(b):
        fa = sum(1 for v in a if v <= t) / len(a)
        fb = sum(1 for v in b if v <= t) / len(b)
        best = max(best, abs(fa - fb))
    return best


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-30)


def random_suite(n_samples=1000, seed=2026):
    """Seeded paired samples, n in [2, 500], conditioned away from the
    degenerate cases where a relative comparison is meaningless."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_samples):
        n = int(rng.integers(2, 501))
        y = rng.uniform(0.0, 300.0, n)
        shift = rng.uniform(5.0, 25.0) * (1.0 if rng.random() < 0.5 else -1.0)
        yhat = y + rng.normal(shift, 20.0, n)
        out.append((y, yhat))
    return out


def check_suite():
    if not hasattr(check_suite, "cache"):
        check_suite.cache = random_suite()
    return check_suite.cache


# -- the ten checks -------------------------------------------------------

def test_01_error_metrics_match_direct_summation():
    start = time.perf_counter()
    worst = 0.0
    for y, yhat in check_suite():
        ybar_train = float(np.mean(y)) * 1.1 + 1.0
        pairs = PairedSample(y=y, yhat=yhat)
        rep = basic_metrics(pairs, ybar_train)
        want = oracle_basic(y.tolist(), yhat.tolist(), ybar_train)
        for name in ("rmse", "mae", "me", "r2", "pct_rmse", "pct_mae"):
            worst = max(worst, rel_err(getattr(rep, name), want[name]))
        worst = max(worst, rel_err(willmott_dr(pairs),
                                   oracle_dr(y.tolist(), yhat.tolist())))
        dec = ac_decompose(pairs)
        ac, ac_s, ac_u = oracle_ac(y.tolist(), yhat.tolist())
        worst = max(worst, rel_err(dec.ac, ac), rel_err(dec.ac_systematic, ac_s),
                    rel_err(dec.ac_unsystematic, ac_u))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst relative deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_02_agreement_decomposition_identity_and_symmetry():
    for y, yhat in check_suite():
        pairs = PairedSample(y=y, yhat=yhat)
        dec = ac_decompose(pairs)
        resid = (dec.ac_systematic + dec.ac_unsystematic - 1.0) - dec.ac
        assert abs(resid) <= 1e-12 * max(1.0, abs(dec.ac))
        swapped = ac_decompose(PairedSample(y=yhat, yhat=y))
        assert abs(dec.ac - swapped.ac) <= 1e-12 * max(1.0, abs(dec.ac))


def test_03_refined_agreement_anchors_and_bounds():
    y = np.array([4.0, 9.0, 1.5])
    same = PairedSample(y=y, yhat=y.copy())
    assert willmott_dr(same) == 1.0
    low_error = PairedSample(y=[1.0, 3.0], yhat=[2.0, 2.0])
    assert willmott_dr(low_error) == 0.5
    high_error = PairedSample(y=[1.0, 3.0], yhat=[11.0, 13.0])
    assert willmott_dr(high_error) == -0.8
    for yy, yhat in check_suite():
        pairs = PairedSample(y=yy, yhat=yhat)
        dr = willmott_dr(pairs)
        assert -1.0 <= dr <= 1.0


def test_04_reported_figures_are_internally_consistent():
    # percent error normalization and plots-per-hexagon back-checks
    two_points = PairedSample(y=[100.0, 100.0],
                              yhat=[100.0 + 60.33, 100.0 - 60.33])
    rep = basic_metrics(two_points, 131.24)
    assert round(rep.pct_rmse, 2) == 45.97
    pph = 545 / 74
    assert round(pph, 2) == 7.36
    assert abs(pph - 7.38) < 0.03  # published rounding disagrees by one cent
    # carbon at exactly half of biomass reproduces every paired total
    # (biomass, carbon) in millions of tons at two-decimal precision
    published = [
        (910.29, 455.14), (943.01, 471.50), (-32.72, -16.36),
        (1038.87, 519.44), (1063.90, 531.95), (-25.03, -12.51),
        (128.58, 64.29), (120.90, 60.45), (7.68, 3.84),
    ]
    for agb_mt, agc_mt in published:
        stock = StockEstimate(quantity="AGB", method="design", allometry="CRM",
                              year=2019, total_mt=agb_mt,
                              region_area_ha=14_129_700.0)
        got = agb_to_agc(stock, 0.5).total_mt
        assert abs(got - agc_mt) <= 0.005 + 1e-12, (agb_mt, got, agc_mt)


def test_05_footprint_extraction_matches_monte_carlo():
    start = time.perf_counter()
    cs = 30.0
    ncols = nrows = 100
    xs = (np.arange(ncols) + 0.5) * cs
    ys_north = (nrows - np.arange(nrows) - 0.5) * cs
    xg, yg = np.meshgrid(xs, ys_north)
    values = 80.0 + 40.0 * np.sin(xg / 300.0) + 25.0 * np.cos(yg / 430.0)
    grid = Grid(ncols=ncols, nrows=nrows, x_origin=0.0, y_origin=0.0,
                cellsize=cs, units="Mg/ha", values=values.astype(np.float32))
    y_max = nrows * cs

    rng = np.random.default_rng(55)
    radius = 7.32
    offset = 36.6
    margin = offset + radius + 2 * cs
    n_points = 1_000_000
    for _ in range(50):
        fx = rng.uniform(margin, ncols * cs - margin)
        fy = rng.uniform(margin, nrows * cs - margin)
        fp = PlotFootprint(fx, fy)
        w = pixel_overlap_weights(fp, grid)
        got = weighted_mean(grid, w)
        assert abs(w.weights.sum() - 673.36) <= 0.001 * 673.36

        centers = np.array(fp.subplot_centers())
        pick = rng.integers(0, 4, n_points)
        r = radius * np.sqrt(rng.random(n_points))
        theta = rng.uniform(0.0, 2.0 * math.pi, n_points)
        px = centers[pick, 0] + r * np.cos(theta)
        py = centers[pick, 1] + r * np.sin(theta)
        col = np.floor(px / cs).astype(np.intp)
        row = np.floor((y_max - py) / cs).astype(np.intp)
        mc = float(np.mean(values[row, col]))
        assert abs(got - mc) / abs(mc) <= 0.005
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_06_hex_assignment_matches_brute_force():
    rng = np.random.default_rng(31)
    side = 400_000.0
    points = rng.uniform(0.0, side, (10_000, 2))
    counts = {}
    for spacing in (5_000.0, 10_000.0, 20_000.0):
        hg = make_hexgrid((0.0, 0.0, side, side), spacing)
        counts[spacing] = hg.n_cells
        got = assign(points, hg)
        # cell ids unpack to (row, col) with divmod
        rows, cols = np.divmod(np.arange(hg.n_cells), hg.col_max - hg.col_min + 1)
        centers = np.column_stack(hg.center(rows + hg.row_min, cols + hg.col_min))
        # nearest centroid over every cell, chunked to bound memory
        for lo in range(0, points.shape[0], 1000):
            chunk = points[lo:lo + 1000]
            d2 = ((chunk[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argmin(d2, axis=1)
            assert np.array_equal(got[lo:lo + 1000], nearest)
    # cell count follows inverse-square spacing on a fixed region
    norms = [counts[s] * s * s for s in (5_000.0, 10_000.0, 20_000.0)]
    for a in norms:
        for b in norms:
            assert abs(a / b - 1.0) <= 0.2


def test_07_rescale_regression_recovers_known_coefficients(monkeypatch):
    monkeypatch.setattr(carbon, "RESCALE_SAMPLE_CELLS", 100_000)
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    nrows = ncols = 400
    src = rng.uniform(0.0, 250.0, (nrows, ncols))
    elev = rng.uniform(0.0, 1400.0, (nrows, ncols))
    sigma = 14.0
    tgt = 9.555 + 1.135 * src - 0.023 * elev + rng.normal(0.0, sigma,
                                                          (nrows, ncols))

    def as_grid(v, units):
        return Grid(ncols=ncols, nrows=nrows, x_origin=0.0, y_origin=0.0,
                    cellsize=30.0, units=units,
                    values=v.astype(np.float32))

    fit = rescale_fit(as_grid(tgt, "Mg/ha"), as_grid(src, "Mg/ha"),
                      as_grid(elev, "m"), train_frac=0.8, seed=4)
    elapsed = time.perf_counter() - start
    assert rel_err(fit.intercept, 9.555) <= 0.02
    assert rel_err(fit.coef_source, 1.135) <= 0.02
    assert rel_err(fit.coef_elevation, -0.023) <= 0.02
    assert abs(fit.test_rmse - sigma) <= 0.05 * sigma
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_08_end_to_end_runs_are_deterministic(tmp_path):
    # two independent dataset generations and full runs, byte for byte
    outputs = {}
    for label in ("a", "b"):
        root = tmp_path / label
        cfg_path = Path(synthesize(root, seed=21, ncols=40, nrows=40,
                                   n_plots=80))
        doc = json.loads(cfg_path.read_text())
        doc["output_dir"] = str(root / "run")
        config = PipelineConfig.from_document(doc, base_dir=root)
        manifest = run(config)
        assert len(manifest.stages) == 9
        outputs[label] = root
    seen = []
    for root in outputs.values():
        files = sorted(p for p in root.rglob("*")
                       if p.is_file() and p.name != "manifest.json")
        seen.append({str(p.relative_to(root)): p.read_bytes() for p in files})
    assert seen[0].keys() == seen[1].keys()
    for rel in seen[0]:
        assert seen[0][rel] == seen[1][rel], f"{rel} differs between runs"
    # manifests agree on structure even though timings differ
    manifests = [json.loads((root / "run" / "manifest.json").read_text())
                 for root in outputs.values()]
    for a, b in zip(manifests[0]["stages"].items(), manifests[1]["stages"].items()):
        assert a[0] == b[0] and a[1]["outputs"] == b[1]["outputs"]

    # the trained ensembles explain held-out variance
    import csv
    with open(outputs["a"] / "run" / "fit" / "test_metrics.csv", newline="") as f:
        for row in csv.DictReader(f):
            assert float(row["r2"]) > 0.0, row

    # averaging to coarser hexagons strictly shrinks the percent error when
    # the disagreement is independent noise
    rng = np.random.default_rng(13)
    n = 300_000
    locs = rng.uniform(0.0, 1_200_000.0, (n, 2))
    y = rng.uniform(30.0, 200.0, n)
    yhat = y + rng.normal(0.0, 35.0, n)
    reports = multiscale_assessment(
        PairedSample(y=y, yhat=yhat), locs,
        spacings_km=[2, 5, 10, 20, 50], ybar_train=float(np.mean(y)))
    curve = [rep.pct_rmse for rep in reports]
    assert all(b < a for a, b in zip(curve, curve[1:])), curve


def test_09_ks_distance_matches_pooled_enumeration():
    rng = np.random.default_rng(77)
    for i in range(200):
        na = int(rng.integers(2, 61))
        nb = int(rng.integers(2, 61))
        if i % 2 == 0:
            a = rng.uniform(0.0, 10.0, na)
            b = rng.uniform(3.0, 13.0, nb)
        else:  # heavy ties
            a = rng.integers(0, 10, na).astype(float)
            b = rng.integers(0, 10, nb).astype(float)
        got = ks_statistic(a, b)
        want = oracle_ks(a.tolist(), b.tolist())
        assert abs(got - want) <= 1e-12, (got, want)
    a = rng.uniform(0.0, 1.0, 30)
    assert ks_statistic(a, a.copy()) == 0.0
    assert ks_statistic(a, a + 5.0) == 1.0


def test_10_stacked_combination_beats_every_base_column():
    def rmse(pred, y):
        return float(np.sqrt(np.mean((pred - y) ** 2)))

    rng = np.random.default_rng(91)
    for trial in range(100):
        n = int(rng.integers(20, 201))
        k = int(rng.integers(2, 6))
        y = rng.uniform(0.0, 200.0, n)
        cols = [y + rng.normal(0.0, rng.uniform(5.0, 60.0), n)
                for _ in range(k)]
        if trial % 7 == 0:
            cols[-1] = cols[0].copy()  # rank-deficient stack
        oof = np.column_stack(cols)
        sf = fit_stack(oof, y)
        stacked = rmse(sf.apply(oof), y)
        for j in range(k):
            assert stacked <= rmse(oof[:, j], y) + 1e-9
