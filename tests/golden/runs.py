"""The seeded runs whose outputs tests/test_golden.py pins, run in one process.

    python tests/golden/runs.py OUT_DIR

writes one directory per run under OUT_DIR: the search and run commands'
stdout.txt and results.csv as text, and for the analysis commands their
stdout.txt and a sha256.txt with one digest per file they write. It also
writes versions.txt, the numpy and BLAS versions the set ran under, which
the test reports and does not compare. Rewrite the committed files with

    python tests/golden/runs.py tests/golden

BLAS runs one thread here, in this process and its pool workers, because
the readout's rounding depends on the thread count. Run with src/ on
PYTHONPATH, or with the package installed.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads BLAS

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from deepreservoir import cli, harness, tasks
from deepreservoir.harness import ExperimentConfig, ModelClass

SEARCH = ["--length", "1500", "--budget", "3", "--seeds", "2"]

# name -> the ExperimentConfig fields of a `run --config` on sinmem10
CONFIGS = {
    # 34/33/33 units: groups [34] and [33, 33]
    "run-concat-DeepResESN_C": dict(
        model_class="DeepResESN_C", n_layers=3, concat=True, alpha=0.5, beta=0.5,
        inter_alpha=0.9, inter_beta=0.1, rho=0.9, inter_rho=1.1, omega_x=1.0,
        inter_omega_x=0.1, omega_b=0.1, inter_omega_b=0.01),
    # 5 x 100 units: at 2 seeds the stacked weights split them into groups
    # of 3 and 2 layers
    "run-5x100-DeepResESN_R": dict(
        model_class="DeepResESN_R", n_layers=5, concat=False, alpha=0.9, beta=0.1,
        inter_alpha=0.5, inter_beta=0.5, rho=1.0, inter_rho=0.9, omega_x=0.1,
        inter_omega_x=1.0, omega_b=0.0, inter_omega_b=0.1),
}


def _cli(argv: list[str]) -> str:
    """Run one command and return its stdout; a failure stops the set."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"deepreservoir {' '.join(argv)} exited {code}")
    return out.getvalue()


def _classification(work: Path) -> str:
    """run_config's results.csv for a DeepResESN_C config on sequences of two
    lengths written to ucr-ts files, loaded, merged and split."""
    rng = np.random.default_rng(5)
    parts = []
    for part, count in (("train", 24), ("test", 12)):
        labels = np.arange(count) % 2
        seqs = [np.sin(np.arange(30 + 10 * (i % 2)) * (0.2 + 0.5 * k))
                + rng.normal(0.0, 0.2, 30 + 10 * (i % 2)) for i, k in enumerate(labels)]
        path = work / f"{part}.txt"
        tasks.write_sequence_classification(path, seqs, labels)
        parts.append(tasks.load_sequence_classification(path))
    dataset = tasks.split(tasks.merge_train_test(*parts), 0.75, seed=3)
    config = ExperimentConfig(ModelClass.DEEP_RES_ESN_C, "classify", n_layers=2, concat=True,
                              alpha=0.5, beta=0.5, inter_alpha=0.9, inter_beta=0.1,
                              inter_rho=1.0, inter_omega_x=1.0, inter_omega_b=0.1, lam=0.1,
                              washout=0)
    trials = harness.run_config(config, dataset, [harness.trial_seed(4, 0, j) for j in range(2)])
    return "\n".join(harness.aggregate(trials).to_csv_lines()) + "\n"


def run_set(dest: Path) -> None:
    files: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def command(name: str, argv: list[str], keep: str) -> None:
            out = work / name
            files[f"{name}/stdout.txt"] = _cli(argv + ["--out", str(out)])
            if keep == "results":
                files[f"{name}/results.csv"] = (out / "results.csv").read_text()
            else:
                written = sorted(p for p in out.rglob("*") if p.is_file())
                files[f"{name}/sha256.txt"] = "".join(
                    f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
                    f"{p.relative_to(out).as_posix()}\n" for p in written)

        for model in ("LeakyESN", "DeepResESN_C", "DeepResESN_R"):
            command(f"search-sinmem10-{model}",
                    ["search", "--task", "sinmem10", "--model", model, "--seed", "1"] + SEARCH,
                    "results")
        command("search-narma30-DeepResESN_C-jobs2",
                ["search", "--task", "narma30", "--model", "DeepResESN_C", "--seed", "2",
                 "--length", "2000", "--budget", "2", "--seeds", "2", "--jobs", "2"], "results")
        for name, fields in CONFIGS.items():
            path = work / f"{name}.json"
            path.write_text(json.dumps(dict(fields, task="sinmem10", config_id=7)))
            command(name, ["run", "--config", str(path), "--seeds", "2", "--length", "1500",
                           "--seed", "3"], "results")
        files["classify-run_config/results.csv"] = _classification(work)
        for kind in sorted(cli._KINDS):
            for analysis in ("stability", "eigen", "spectra"):
                command(f"{analysis}-{kind}", [analysis, "--kind", kind, "--seed", "5"], "sha256")

    dest.mkdir(parents=True, exist_ok=True)
    for name in {path.split("/")[0] for path in files}:
        shutil.rmtree(dest / name, ignore_errors=True)
    for path, text in files.items():
        (dest / path).parent.mkdir(parents=True, exist_ok=True)
        (dest / path).write_text(text)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    (dest / "versions.txt").write_text(f"numpy {np.__version__}\n"
                                       f"blas {blas['name']} {blas.get('version', '?')}\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    run_set(Path(sys.argv[1]))
