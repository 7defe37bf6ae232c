"""The golden ledger: every file of one nine-stage run keeps its recorded bytes.

The run is `synthesize` on seed 5, 48 x 48 cells and 120 plots, through all
nine stages: 56 files, the inputs and `config.json` included and
`manifest.json` (which holds timings) left out. `tests/data/golden_sha256.json`
holds their sha256 under the numpy major version that made them. A change that
moves bits on purpose regenerates the entry of its numpy with

    PYTHONPATH=src python tests/test_ledger.py

and lists the files that moved in CHANGES.md.

Five files are platform-sensitive (`PLATFORM_SENSITIVE`): `np.arcsin` in
`footprint._strip` rounds differently under numpy's AVX-512 dispatch than
without it, which moves `extract/features.csv` and both model files, and
`metrics.least_squares` rounds differently under another OpenBLAS kernel,
which moves both model files, `fit/test_metrics.csv` and `rescale/rescale.csv`.
They are held exact only where numpy's version and SIMD list match the
recording's; every other file is held exact on any machine with the recording's
numpy major version, and the test re-checks that split on every run.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import agbmap
from agbmap import STAGE_ORDER, PipelineConfig, run, synthesize

TABLE = Path(__file__).parent / "data" / "golden_sha256.json"
DATA = dict(seed=5, ncols=48, nrows=48, n_plots=120)
PLATFORM_SENSITIVE = frozenset({
    "run/extract/features.csv", "run/fit/model_CRM.json", "run/fit/model_NSVB.json",
    "run/fit/test_metrics.csv", "run/rescale/rescale.csv",
})
NUMPY_MAJOR = np.__version__.split(".")[0]


def ledger(root) -> dict[str, str]:
    """sha256 of every file under root but `manifest.json`, by relative path."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def run_ledger(root) -> dict[str, str]:
    """Synthesize the ledger's data under root, run all nine stages in this
    process and return the ledger of root."""
    run(PipelineConfig.load(synthesize(root, **DATA)))
    return ledger(root)


def fresh_ledger(root, **env) -> dict[str, str]:
    """As run_ledger, in a new Python process whose environment adds env."""
    code = ("import sys\n"
            "from agbmap import PipelineConfig, run, synthesize\n"
            f"run(PipelineConfig.load(synthesize(sys.argv[1], **{DATA!r})))\n")
    src = str(Path(agbmap.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, str(root)], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return ledger(root)


def simd_extensions() -> dict[str, list[str]]:
    """numpy's SIMD list as `np.show_runtime()` prints it: the baseline it was
    built for and the dispatched extensions this CPU has."""
    if NUMPY_MAJOR == "1":
        from numpy.core import _multiarray_umath as umath
    else:
        from numpy._core import _multiarray_umath as umath
    return {"baseline": list(umath.__cpu_baseline__),
            "found": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]}


def moved(got: dict, want: dict, names) -> list[str]:
    """The names among `names` whose hashes differ, or that only one ledger has."""
    return sorted(name for name in names if got.get(name) != want.get(name))


def report(moved_names: list[str], what: str) -> str:
    return f"{len(moved_names)} file(s) moved {what}:\n  " + "\n  ".join(moved_names)


@pytest.fixture(scope="module")
def own(tmp_path_factory):
    """The ledger of one unperturbed run in this process."""
    return run_ledger(tmp_path_factory.mktemp("ledger"))


def test_every_file_keeps_its_recorded_bytes(own, tmp_path):
    table = json.loads(TABLE.read_text())
    if NUMPY_MAJOR not in table:
        # no recording for this numpy: two fresh processes must agree instead
        first, second = fresh_ledger(tmp_path / "a"), fresh_ledger(tmp_path / "b")
        stages = {name.split("/")[1] for name in first if name.startswith("run/")}
        assert stages == set(STAGE_ORDER)
        bad = moved(second, first, first.keys() | second.keys())
        assert not bad, report(bad, "between two fresh runs")
        return
    entry = table[NUMPY_MAJOR]
    recorded = entry["sha256"]
    names = own.keys() | recorded.keys()
    exact = entry["numpy"] == np.__version__ and entry["simd"] == simd_extensions()
    bad = moved(own, recorded, names if exact else names - PLATFORM_SENSITIVE)
    assert not bad, report(bad, f"from the recording on numpy {entry['numpy']}")
    if not exact:
        print(f"numpy {np.__version__} with SIMD {simd_extensions()} is not the recording's "
              f"(numpy {entry['numpy']}, SIMD {entry['simd']}); not held exact: "
              + ", ".join(sorted(PLATFORM_SENSITIVE)))


def perturbations() -> dict[str, dict[str, str]]:
    """Environments that change the floating-point kernels a run uses: numpy
    without every AVX-512 extension it dispatches to here, and OpenBLAS on its
    SSE3 (Prescott) kernels, which run on any x86-64."""
    avx512 = [f for f in simd_extensions()["found"] if "AVX512" in f or f == "X86_V4"]
    return {"no_avx512": {"NPY_DISABLE_CPU_FEATURES": ",".join(avx512)},
            "sse3_blas": {"OPENBLAS_CORETYPE": "Prescott"}}


@pytest.mark.parametrize("name", sorted(perturbations()))
def test_platform_stable_files_keep_their_bits_under_other_kernels(own, tmp_path, name):
    perturbed = fresh_ledger(tmp_path, **perturbations()[name])
    bad = moved(perturbed, own, (own.keys() | perturbed.keys()) - PLATFORM_SENSITIVE)
    assert not bad, report(bad, f"under {perturbations()[name]}")


def main() -> None:
    """Record this machine's ledger as the entry of its numpy major version."""
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        sha256 = run_ledger(root)
    table[NUMPY_MAJOR] = {"numpy": np.__version__, "simd": simd_extensions(),
                          "sha256": sha256}
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{TABLE}: {len(sha256)} files on numpy {np.__version__}")


if __name__ == "__main__":
    main()
