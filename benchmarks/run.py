"""agbmap benchmark: one workload, one seed, every metric by name and unit.

    python3 benchmarks/run.py --workload plots --seed 1 --seconds 20 --trace 0

The program is imported from `src/` next to this directory, and all files are
written under `.bench_work/` at the checkout root, whatever the working
directory.

Set-up builds the workload's inputs from the seed with `agbmap.synth.synthesize`
(then `stratify_panels`), three times before every pass and three times after
the last, and reports the median (`setup_s`). Each measured pass runs in its own process (`worker.py`):
the full run through `agbmap.cli.main` into an empty output directory, then
several reruns of the downstream stages against the cached upstream. Passes
repeat until `--seconds` have elapsed; each metric is the median of its
samples, which the run prints before the result.

`--trace 1` measures the layers instead: an untraced full run, a traced full
run plus rerun, and every stage alone in its own traced process against the
cached upstream (its own peak RSS). The per-stage counts must equal those of
the traced full run.

Every pass checks the outputs; each failed check or CLI call counts in
`failed`. The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from worker import FULL_RUN_STAGES, RERUN_STAGES, digest_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Every run must end well within 180 s; no new pass starts past this point.
RUN_BUDGET_S = 150.0
SETUP_REPEATS = 3  # per pass
RERUNS_PER_PASS = 3
CELLSIZE_M = 300.0

WORKLOADS = {
    # Footprint weights (~0.13 s per plot) and the learner fit dominate; the
    # 100x100 raster keeps prediction and hex aggregation small.
    "plots": {"cells": 100, "plots": 100},
    # Prediction over 160k cells per map (four maps) and hex aggregation of
    # every joint cell dominate; 40 plots keep footprint and fit small while
    # leaving every cross-validation fold more training rows than knn's k.
    "raster": {"cells": 400, "plots": 40},
}

MODEL_KINDS = ("knn", "bagged_trees", "boosted_trees")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def full_run_layer_names() -> list[str]:
    names = [f"pipeline.{s}.s" for s in FULL_RUN_STAGES]
    names += [f"pipeline.{s}.rss_mb" for s in FULL_RUN_STAGES]
    names += ["pipeline.validate.s", "pipeline.run.self_s",
              "pipeline.unexplained_s", "trace_overhead_s"]
    names += ["footprint.pixel_overlap_weights.calls",
              "footprint.pixel_overlap_weights.s",
              "footprint.pixel_overlap_weights.us_per_call",
              "footprint.weighted_mean.calls", "footprint.weighted_mean.s"]
    names += ["learners.grid_search.s", "learners.cv_predict.calls",
              "learners.cv_predict.s"]
    for kind in MODEL_KINDS:
        names += [f"learners.train_base.{kind}.calls", f"learners.train_base.{kind}.s"]
    names += ["learners.trees_grown", "learners.fit_stack.s",
              "learners.predict_grid.cells", "learners.predict_grid.s",
              "learners.predict_grid.us_per_cell"]
    names += [f"learners.predict_grid.{kind}.s" for kind in MODEL_KINDS]
    names += ["grid.read_grid.calls", "grid.read_grid.mb", "grid.read_grid.s",
              "grid.write_grid.calls", "grid.write_grid.mb", "grid.write_grid.s",
              "grid.percent_rank.cells", "grid.percent_rank.s",
              "grid.mask_landcover.s", "grid.difference.s", "grid.summarize.s"]
    names += ["hexgrid.aggregate_pairs.calls", "hexgrid.aggregate_pairs.points",
              "hexgrid.aggregate_pairs.hexes", "hexgrid.aggregate_pairs.s",
              "hexgrid.assign.points", "hexgrid.assign.s"]
    names += [f"metrics.{f}.s" for f in ("multiscale_assessment", "ac_decompose",
                                         "gmfr_fit", "ks_statistic")]
    names += [f"carbon.{f}.s" for f in ("model_stock", "design_stock", "rescale_fit")]
    names += [f"inventory.{f}.{m}" for f in ("load_trees", "load_plots")
              for m in ("rows", "s")]
    names += [f"{layer}.self_s" for layer in ("pipeline", "footprint", "learners",
                                              "grid", "hexgrid", "metrics",
                                              "carbon", "inventory")]
    names += ["pct_rmse.crm", "pct_rmse.nsvb"]
    return names


def rerun_layer_names() -> list[str]:
    names = [f"pipeline.{s}.s" for s in RERUN_STAGES]
    names += ["pipeline.validate.s", "pipeline.run.self_s",
              "pipeline.render_report.s", "pipeline.unexplained_s"]
    names += ["footprint.pixel_overlap_weights.calls",
              "footprint.pixel_overlap_weights.s",
              "footprint.pixel_overlap_weights.us_per_call",
              "footprint.weighted_mean.calls", "footprint.weighted_mean.s"]
    names += ["grid.read_grid.calls", "grid.read_grid.mb", "grid.read_grid.s",
              "grid.write_grid.calls", "grid.write_grid.mb", "grid.write_grid.s",
              "grid.difference.s", "grid.summarize.s"]
    names += ["hexgrid.aggregate_pairs.calls", "hexgrid.aggregate_pairs.points",
              "hexgrid.aggregate_pairs.hexes", "hexgrid.aggregate_pairs.s",
              "hexgrid.assign.points", "hexgrid.assign.s"]
    names += [f"metrics.{f}.s" for f in ("multiscale_assessment", "ac_decompose",
                                         "gmfr_fit", "ks_statistic")]
    names += [f"carbon.{f}.s" for f in ("model_stock", "design_stock", "rescale_fit")]
    names += [f"{layer}.self_s" for layer in ("pipeline", "footprint", "grid",
                                              "hexgrid", "metrics", "carbon")]
    return [f"rerun.{n}" for n in names]


END_TO_END = ("setup_s", "full_run_s", "rerun_s", "peak_rss_mb")
PER_LAYER = tuple(full_run_layer_names() + rerun_layer_names())


def unit_of(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if name.startswith("pct_rmse."):
        return "%"
    if leaf.endswith("mb"):
        return "MB"
    if leaf.startswith("us_per_"):
        return "us"
    if leaf == "s" or leaf.endswith("_s"):
        return "s"
    return "count"


# -- workload inputs ----------------------------------------------------------

def stratify_panels(plots_csv: Path, seed: int) -> None:
    """Reassign inventory panels so that each holds exactly a fifth of the plots.

    The FIA design interpenetrates five panels of equal size; synthesize draws
    each plot's panel independently, which makes the held-out (assessment)
    share, and with it the assessment cost, swing from seed to seed.
    """
    import numpy as np

    lines = plots_csv.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    id_col, panel_col = header.index("plot_id"), header.index("panel")
    rows = [line.split(",") for line in lines[1:]]
    ids = sorted({r[id_col] for r in rows})
    order = np.random.default_rng([seed, 9001]).permutation(len(ids))
    panel = {ids[j]: 1 + rank % 5 for rank, j in enumerate(order)}
    for r in rows:
        r[panel_col] = str(panel[r[id_col]])
    plots_csv.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n",
                         encoding="utf-8")


def build_inputs(workload: str, seed: int, directory: Path) -> Path:
    from agbmap.synth import synthesize

    shape = WORKLOADS[workload]
    config = synthesize(directory, seed=seed, ncols=shape["cells"],
                        nrows=shape["cells"], cellsize=CELLSIZE_M,
                        n_plots=shape["plots"])
    stratify_panels(directory / "inputs" / "plots.csv", seed)
    return config


def pass_config(base_config: Path, name: str) -> Path:
    """Copy of the workload configuration whose outputs go to `name`/."""
    doc = json.loads(base_config.read_text(encoding="utf-8"))
    doc["output_dir"] = name
    path = base_config.parent / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# -- bookkeeping of operations and checks ------------------------------------

class Ledger:
    """Operations attempted and failed: CLI calls, stage runs and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok

    def check(self, what: str, fn) -> bool:
        try:
            ok, detail = fn()
        except Exception as e:  # noqa: BLE001 - a crashing check is a failed check
            ok, detail = False, f"{type(e).__name__}: {e}"
        return self.record(what, ok, detail)


def check_outputs(ledger: Ledger, config_path: Path) -> None:
    """The output checks of one pass: validation, manifest, maps, agreement."""
    import numpy as np

    from agbmap.grid import read_grid
    from agbmap.pipeline import (ALLOMETRIES, STAGE_ORDER, PipelineConfig,
                                 RunManifest, validate)

    config = PipelineConfig.load(config_path)
    out = Path(config.output_dir)

    def validated():
        findings = validate(config)
        return not findings, "; ".join(findings)

    def manifest_complete():
        m = RunManifest.load(out)
        if m is None:
            return False, "no manifest"
        stale = [s for s in STAGE_ORDER
                 if s not in m.stages or m.stages[s].config_hash != config.config_hash]
        return (m.config_hash == config.config_hash and not stale,
                f"stages missing or under another hash: {stale}")

    ledger.check(f"{out.name}: validate", validated)
    ledger.check(f"{out.name}: manifest", manifest_complete)

    n_maps = len(config.years) * len(ALLOMETRIES)
    agb = sorted((out / "predict").glob("agb_*.bin"))
    ranks = sorted((out / "predict").glob("pctrank_*.bin"))
    ledger.check(f"{out.name}: map count",
                 lambda: (len(agb) == len(ranks) == n_maps,
                          f"{len(agb)} agb and {len(ranks)} pctrank maps, want {n_maps}"))
    for p in agb:
        def agb_ok(p=p):
            g = read_grid(p)
            v = g.values[g.mask]
            return (v.size > 0 and bool(np.all(np.isfinite(v))) and bool(np.all(v >= 0)),
                    f"{v.size} valid cells, min {v.min() if v.size else None}")
        ledger.check(f"{out.name}: {p.name}", agb_ok)
    for p in ranks:
        def rank_ok(p=p):
            g = read_grid(p)
            v = g.values[g.mask]
            return (v.size > 0 and bool(np.all((v >= 0) & (v <= 100))),
                    f"range [{v.min() if v.size else None}, {v.max() if v.size else None}]")
        ledger.check(f"{out.name}: {p.name}", rank_ok)

    tables = sorted((out / "agree").glob("agreement_*.csv"))
    ledger.check(f"{out.name}: agreement tables",
                 lambda: (len(tables) == len(config.years), f"{len(tables)} tables"))
    for p in tables:
        def identity(p=p):
            import csv
            with open(p, newline="", encoding="utf-8") as f:
                rows = [r for r in csv.DictReader(f) if r["ac"] != ""]
            bad = [r["scale_km"] for r in rows
                   if abs(float(r["ac_systematic"]) + float(r["ac_unsystematic"])
                          - 1.0 - float(r["ac"])) > 1e-9]
            return bool(rows) and not bad, f"{len(rows)} rows, identity broken at {bad}"
        ledger.check(f"{out.name}: {p.name} ac identity", identity)


def check_identical(ledger: Ledger, what: str, before: dict, after: dict) -> None:
    changed = sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))
    ledger.record(what, bool(before) and not changed, f"differs: {changed[:5]}")


# -- worker processes ---------------------------------------------------------

class Workers:
    """Starts worker.py processes and waits for each; one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.n = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    def run(self, **job) -> dict | None:
        self.n += 1
        stem = self.work / f"job{self.n:02d}"
        job["result"] = str(stem.with_suffix(".result.json"))
        stem.with_suffix(".json").write_text(json.dumps(job), encoding="utf-8")
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(stem.with_suffix(".log"), "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(stem.with_suffix(".json"))],
                    cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=timeout, check=False)
            except subprocess.TimeoutExpired:
                print(f"worker {stem.name} timed out after {timeout:.0f} s", file=sys.stderr)
                return None
        if proc.returncode != 0 or not Path(job["result"]).is_file():
            tail = stem.with_suffix(".log").read_text(encoding="utf-8")[-2000:]
            print(f"worker {stem.name} exited with {proc.returncode}:\n{tail}", file=sys.stderr)
            return None
        return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def measured_pass(ledger, workers, config_path, reruns, trace=False) -> dict | None:
    """One pass in a worker plus its checks; None if a CLI call failed."""
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    out = config_path.parent / doc["output_dir"]
    shutil.rmtree(out, ignore_errors=True)
    res = workers.run(mode="pass", config=str(config_path), out_dir=str(out),
                      trace=trace, reruns=reruns)
    codes = (res or {}).get("exit_codes", {})
    if not ledger.record(f"{out.name}: full run", codes.get("full_run") == 0,
                         f"exit code {codes.get('full_run')}"):
        if reruns:
            ledger.record(f"{out.name}: rerun", False, "full run failed")
        return None
    if reruns:
        ledger.record(f"{out.name}: rerun", codes.get("rerun") == 0,
                      f"exit code {codes.get('rerun')}")
        check_identical(ledger, f"{out.name}: rerun outputs byte-identical",
                        res.get("digests_after_full_run", {}),
                        digest_outputs(out, RERUN_STAGES))
    check_outputs(ledger, config_path)
    return res if (not reruns or codes.get("rerun") == 0) else None


# -- the two kinds of run -----------------------------------------------------

def measure_end_to_end(args, ledger, workers, work, start) -> dict:
    setup, passes = [], []

    def set_up():
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            config = build_inputs(args.workload, args.seed, work / "data")
            setup.append(time.perf_counter() - t)
        return config

    # set-up repeats around every pass, so its samples span the run as well
    t0 = time.perf_counter()
    while True:
        base = set_up()
        t = time.perf_counter()
        res = measured_pass(ledger, workers, pass_config(base, "pass"), RERUNS_PER_PASS)
        if res is not None:
            passes.append(res)
        last = time.perf_counter() - t
        now = time.perf_counter()
        if now - t0 >= args.seconds or (now - start) + last > RUN_BUDGET_S:
            break
    set_up()
    if not passes:
        raise SystemExit("no pass completed; no result")

    samples = {
        "setup_s": setup,
        "full_run_s": [p["full_run_s"] for p in passes],
        "rerun_s": [t for p in passes for t in p["rerun_s"]],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    print("samples " + json.dumps({k: [round(v, 4) for v in vs]
                                   for k, vs in samples.items()}))
    return {k: statistics.median(v) for k, v in samples.items()}


def derived(pm: dict) -> dict:
    """Per-layer values of one phase from `tracing.phase_metrics` output."""
    d = dict(pm)
    d["pipeline.unexplained_s"] = pm.get("phase.unexplained_s", 0.0)
    trees = 0
    for key, value in pm.items():
        if key.endswith(".bytes"):
            d[key[:-len(".bytes")] + ".mb"] = value / 1e6  # computed from file sizes
        if key.endswith(".predict.under_predict_grid.s"):
            d[f"learners.predict_grid.{key.split('.')[1]}.s"] = value
        if key.startswith("learners.train_base.") and key.endswith(".trees"):
            trees += value
    d["learners.trees_grown"] = trees

    def per_unit(span, unit, scale=1e6):
        n = pm.get(f"{span}.{unit}", 0)
        return scale * pm.get(f"{span}.s", 0.0) / n if n else 0.0

    d["footprint.pixel_overlap_weights.us_per_call"] = per_unit(
        "footprint.pixel_overlap_weights", "calls")
    d["learners.predict_grid.us_per_cell"] = per_unit("learners.predict_grid", "cells")
    return d


def measure_layers(args, ledger, workers, work) -> dict:
    base = build_inputs(args.workload, args.seed, work / "data")
    config_a = pass_config(base, "untraced")
    config_b = pass_config(base, "traced")
    untraced = measured_pass(ledger, workers, config_a, reruns=0)
    traced = measured_pass(ledger, workers, config_b, reruns=1, trace=True)
    if untraced is None or traced is None:
        raise SystemExit("a measured pass failed; no result")

    values = {}
    full = derived(tracing.phase_metrics(traced["spans"], "bench.full_run"))
    rerun = derived(tracing.phase_metrics(traced["spans"], "bench.rerun"))
    values.update(full)
    values.update({f"rerun.{k}": v for k, v in rerun.items()})
    values["trace_overhead_s"] = traced["full_run_s"] - untraced["full_run_s"]

    # every stage alone, traced, in its own process, against the cached upstream
    out_a = base.parent / "untraced"
    before = digest_outputs(out_a, FULL_RUN_STAGES)
    for stage in FULL_RUN_STAGES:
        res = workers.run(mode="stage", config=str(config_a), stage=stage, trace=True)
        if not ledger.record(f"stage {stage} alone", res is not None, "worker failed"):
            continue
        values[f"pipeline.{stage}.rss_mb"] = res["peak_rss_mb"]
        want = tracing.stage_counts(traced["spans"], stage, "bench.full_run")
        got = tracing.stage_counts(res["spans"], stage, "bench.stage")
        ledger.record(f"stage {stage} alone: counts repeat the full run", want == got,
                      json.dumps({k: (want.get(k), got.get(k)) for k in set(want) | set(got)
                                  if want.get(k) != got.get(k)})[:400])
    check_identical(ledger, "stages run alone reproduce the full run byte for byte",
                    before, digest_outputs(out_a, FULL_RUN_STAGES))
    check_outputs(ledger, config_a)

    summary = json.loads((base.parent / "traced" / "assess" / "summary.json")
                         .read_text(encoding="utf-8"))
    values["pct_rmse.crm"] = summary["CRM"]["plot_to_pixel"]["pct_rmse"]
    values["pct_rmse.nsvb"] = summary["NSVB"]["plot_to_pixel"]["pct_rmse"]

    print("MB values are computed from the sizes of the files read and written")
    print_layer_table("full run", full, traced["full_run_s"])
    print_layer_table("rerun", rerun, traced["rerun_s"][0])
    return values


def print_layer_table(phase: str, d: dict, total: float) -> None:
    print(f"{phase}: traced {total:.3f} s; self time by layer")
    shares = sorted(((d.get(f"{layer}.self_s", 0.0), layer) for layer in tracing.LAYERS),
                    reverse=True)
    for self_s, layer in shares:
        print(f"  {layer:<10} {self_s:9.3f} s  {100 * self_s / total:5.1f} %")
    stages = sum(d.get(f"pipeline.{s}.s", 0.0) for s in FULL_RUN_STAGES)
    print(f"  stages {stages:.3f} + validate {d.get('pipeline.validate.s', 0.0):.3f}"
          f" + run self {d.get('pipeline.run.self_s', 0.0):.3f}"
          f" + report {d.get('pipeline.render_report.s', 0.0):.3f}"
          f" + unexplained {d.get('pipeline.unexplained_s', 0.0):.3f} s")
    predict = d.get("learners.predict_grid.s", 0.0)
    print(f"  learners.predict_grid incl. model predict: {predict:.3f} s"
          f"  {100 * predict / total:5.1f} %")


def metadata(args) -> dict:
    import numpy as np

    rev = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref
        else:
            rev = ref
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = "unknown"
    shape = WORKLOADS[args.workload]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "shape": {"cells": f"{shape['cells']}x{shape['cells']}",
                  "cellsize_m": CELLSIZE_M, "plots": shape["plots"],
                  "learner_grid": "synth"},
        "git_revision": rev, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "agbmap" / "__init__.py").is_file():
        print(f"agbmap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    print("meta " + json.dumps(metadata(args), sort_keys=True))

    ledger = Ledger()
    workers = Workers(work, deadline=start + RUN_BUDGET_S + 20.0)
    if args.trace:
        values = measure_layers(args, ledger, workers, work)
        names = PER_LAYER
    else:
        values = measure_end_to_end(args, ledger, workers, work, start)
        names = END_TO_END
    metrics = {n: {"value": values.get(n, 0), "unit": unit_of(n)} for n in names}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
