"""Command-line harness.

Subcommands: generate-data, search, run, stability, spectra, eigen,
report. Failures exit nonzero with a machine-readable JSON error on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, harness, stability, tasks
from .harness import ExperimentConfig, HyperGrid, ModelClass
from .numerics import RngStream
from .reservoir import LayerConfig, ResidualKind, build_deep_reservoir

# --kind names a residual kind by the first word of its value
_KINDS = {kind.value.split("_")[0]: kind for kind in ResidualKind}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def _layer_configs_from_args(args) -> list[LayerConfig]:
    return [LayerConfig(hidden_size=args.units, spectral_radius=args.rho,
                        input_scaling=args.omega_x, bias_scaling=args.omega_b,
                        alpha=args.alpha, beta=args.beta, residual=_KINDS[args.kind])
            for _ in range(args.layers)]


def _add_layer_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=sorted(_KINDS), default="random")
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--units", type=int, default=100)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--omega-x", type=float, default=1.0)
    p.add_argument("--omega-b", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deepreservoir",
                                     description="Residual reservoir benchmarks and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="generate and cache a benchmark dataset")
    p.add_argument("--task", required=True, choices=sorted(harness.TASK_SPECS))
    p.add_argument("--length", type=int, default=None, help="override series length")
    _add_common(p)

    p = sub.add_parser("search", help="random-search model selection on a task")
    p.add_argument("--task", required=True, choices=sorted(harness.TASK_SPECS))
    p.add_argument("--model", required=True, choices=[m.value for m in ModelClass])
    p.add_argument("--budget", type=int, default=100, help="configurations to sample")
    p.add_argument("--seeds", type=int, default=10, help="random initializations per config")
    p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    p.add_argument("--units", type=int, default=ExperimentConfig.total_units)
    p.add_argument("--washout", type=int, default=ExperimentConfig.washout)
    p.add_argument("--length", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("run", help="evaluate one configuration file across seeds")
    p.add_argument("--config", type=Path, required=True, help="ExperimentConfig JSON")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--length", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("stability", help="stability report for a sampled reservoir")
    _add_layer_args(p)
    _add_common(p)

    p = sub.add_parser("spectra", help="layer-wise frequency profile on the multisine probe")
    _add_layer_args(p)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--length", type=int, default=1000)
    _add_common(p)

    p = sub.add_parser("eigen", help="per-layer Jacobian eigenvalues at a random probe point")
    _add_layer_args(p)
    _add_common(p)

    p = sub.add_parser("report", help="rebuild results.md from an emitted results.csv")
    p.add_argument("--results", type=Path, required=True, help="directory with results.csv")
    return parser


def _save_task(args, dataset, task_class: str) -> None:
    """Cache a make_task dataset under OUT/data/<task> with what regenerates it."""
    meta = {"generator": args.task, "seed": args.seed, "task_class": task_class,
            "length": dataset.n_samples}
    tasks.save_dataset(dataset, args.out / "data" / args.task, meta=meta)


def _cmd_generate_data(args) -> None:
    dataset, task_class = harness.make_task(args.task, args.seed, length=args.length)
    _save_task(args, dataset, task_class)
    print(f"cached {args.task} under {args.out / 'data' / args.task}")


def _cmd_search(args) -> None:
    dataset, task_class = harness.make_task(args.task, args.seed, length=args.length)
    best, table = harness.random_search(
        HyperGrid(), ModelClass(args.model), dataset, args.task, task_class,
        budget=args.budget, n_seeds=args.seeds, master_seed=args.seed,
        jobs=args.jobs, total_units=args.units, washout=args.washout)
    # cached only now, so a refused search leaves no files behind
    _save_task(args, dataset, task_class)
    manifest = {
        "task": args.task,
        "model": args.model,
        "budget": args.budget,
        "seeds": args.seeds,
        "master_seed": args.seed,
        "total_units": args.units,
        "washout": args.washout,
        "best_config": best.to_dict(),
    }
    harness.emit_reports(args.out, table=table, manifest=manifest)
    best_row = next(r for r in table.rows if r["config_id"] == best.config_id)
    print(f"best config {best.config_id}: val {best_row['val_mean']:.4g}, "
          f"test {best_row['test_mean']:.4g}")


def _cmd_run(args) -> None:
    try:
        spec = json.loads(args.config.read_text())
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ValueError(f"{args.config} is not JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise ValueError(f"{args.config} holds a {type(spec).__name__}, not a JSON object")
    if "model_class" not in spec:
        raise ValueError(f"{args.config} names no model_class")
    config = ExperimentConfig.from_dict(spec)
    dataset, _ = harness.make_task(config.task, args.seed, length=args.length)
    trials = harness.run_config(config, dataset, [harness.trial_seed(args.seed, config.config_id, j)
                                                  for j in range(args.seeds)])
    table = harness.aggregate(trials)
    harness.emit_reports(args.out, table=table, manifest={"config": config.to_dict(),
                                                          "master_seed": args.seed,
                                                          "seeds": args.seeds})
    row = table.rows[0]
    print(f"val {row['val_mean']:.4g} ± {row['val_std']:.2g}, "
          f"test {row['test_mean']:.4g} ± {row['test_std']:.2g} "
          f"({row['n_failed']}/{row['n_seeds']} failed)")


def _cmd_stability(args) -> None:
    rng = RngStream(args.seed)
    deep = build_deep_reservoir(_layer_configs_from_args(args), 1, rng)
    report = stability.stability_report(deep)
    harness.emit_reports(args.out, stability_reports={"report": report.to_dict()})
    print(json.dumps(report.to_dict(), indent=2))


def _cmd_spectra(args) -> None:
    split_bin = analysis.band_split_bin(args.length)  # rejects a short window before any trial
    signal = analysis.multisine(args.length)
    spectra = analysis.layerwise_spectra(_layer_configs_from_args(args), signal,
                                         trials=args.trials, seed=args.seed)
    harness.emit_reports(args.out, spectra={args.kind: spectra})
    fractions = [analysis.band_energy_ratio(s, split_bin) for s in spectra]
    print("high-band energy fraction per layer: "
          + ", ".join(f"{f:.3f}" for f in fractions))


def _cmd_eigen(args) -> None:
    rng = RngStream(args.seed)
    deep = build_deep_reservoir(_layer_configs_from_args(args), 1, rng)
    h, x = stability.random_probe(deep, rng.child("probe"))
    eigs = stability.eigenspectrum_report(deep, h, x)
    harness.emit_reports(args.out, eigen={args.kind: eigs})
    radii = [float(np.max(np.abs(e))) for e in eigs]
    print("max |eigenvalue| per layer: " + ", ".join(f"{r:.3f}" for r in radii))


def _cmd_report(args) -> None:
    rows = harness.read_results_csv(args.results / "results.csv")
    table = harness.ResultsTable(rows=rows)
    harness.emit_reports(args.results, table=table)
    print(f"rewrote {args.results / 'results.md'} ({len(rows)} configs)")


_COMMANDS = {
    "generate-data": _cmd_generate_data,
    "search": _cmd_search,
    "run": _cmd_run,
    "stability": _cmd_stability,
    "spectra": _cmd_spectra,
    "eigen": _cmd_eigen,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except Exception as exc:  # surface a machine-readable failure
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
