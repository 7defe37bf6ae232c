"""One measured pass of the agbmap pipeline, run in its own process.

    python3 benchmarks/worker.py JOB.json

The job file names the mode, the configuration and where to write the result.
Modes:

- `pass`: `agbmap ingest --stages <the other eight>` into an empty output
  directory (the full run), then `reruns` times `agbmap assess --stages
  agree,diff,stocks,rescale` and `agbmap report` in the same directory (the
  rerun). Both go through `agbmap.cli.main`.
- `stage`: `agbmap.pipeline.run(config, [stage])` against the cached upstream.

With `trace` set, spans are recorded for every call into agbmap's layers.
The result holds the phase timings, the CLI exit codes, the peak RSS of this
process, digests of the rerun stages' outputs as the full run left them, and
the spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import tracing

# the first stage is the subcommand, the rest go to --stages
FULL_RUN_STAGES = ("ingest", "extract", "fit", "predict", "assess", "agree",
                   "diff", "stocks", "rescale")
RERUN_STAGES = ("assess", "agree", "diff", "stocks", "rescale")


def digest_outputs(out_dir: Path, stages) -> dict[str, str]:
    """sha256 of every file a stage wrote, keyed by path under `out_dir`."""
    digests = {}
    for stage in stages:
        for p in sorted((out_dir / stage).rglob("*")):
            if p.is_file():
                digests[p.relative_to(out_dir).as_posix()] = hashlib.sha256(
                    p.read_bytes()).hexdigest()
    return digests


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(job, tracer) -> dict:
    from agbmap.cli import main

    config = job["config"]
    phase = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    result = {"exit_codes": {}}
    start = time.perf_counter()
    with phase("bench.full_run"):
        code = main([FULL_RUN_STAGES[0], "--config", config,
                     "--stages", ",".join(FULL_RUN_STAGES[1:])])
    result["full_run_s"] = time.perf_counter() - start
    result["exit_codes"]["full_run"] = code
    if code != 0 or not job["reruns"]:
        return result
    result["digests_after_full_run"] = digest_outputs(Path(job["out_dir"]),
                                                      RERUN_STAGES)
    result["rerun_s"] = []
    for _ in range(job["reruns"]):
        start = time.perf_counter()
        with phase("bench.rerun"):
            code = main([RERUN_STAGES[0], "--config", config,
                         "--stages", ",".join(RERUN_STAGES[1:])])
            if code == 0:
                code = main(["report", "--config", config])
        result["rerun_s"].append(time.perf_counter() - start)
        result["exit_codes"]["rerun"] = code
        if code != 0:
            break
    return result


def run_stage(job, tracer) -> dict:
    from agbmap.pipeline import PipelineConfig, run

    config = PipelineConfig.load(job["config"])
    start = time.perf_counter()
    with tracer.span("bench.stage") if tracer else contextlib.nullcontext():
        run(config, [job["stage"]])
    return {"stage_s": time.perf_counter() - start}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as f:
        job = json.load(f)
    tracer = tracing.Tracer() if job.get("trace") else None
    restore = tracing.install(tracer) if tracer else (lambda: None)
    try:
        result = (run_pass if job["mode"] == "pass" else run_stage)(job, tracer)
    finally:
        restore()
    result["peak_rss_mb"] = peak_rss_mb()
    result["spans"] = tracer.spans if tracer else []
    with open(job["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
