"""Benchmark of the deepreservoir package: search and analysis throughput.

    python3 bench/run.py --workload sinmem10 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-reference

Drives the package in-process through its public functions. --trace 0
measures the end-to-end metrics with tracing off; --trace 1 re-executes
every trial (or analysis command) with spans around each stage and reports
the per-layer metrics. Either way the outputs are checked against
computations made apart from the program, and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A record of
the run (environment, checks, seeded results, and for traced runs the
spans) is written under bench/runs/.
"""

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads: the thread count moves trial
# times by about 10% in either direction.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
REFERENCE = HERE / "reference.json"
# the run length the benchmark's bounds were set on
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
REFERENCE_SEEDS = (1, 2)
# The p90 of trial times needs at least ten samples above it.
P90_MIN_TRIALS = 40

END_TO_END = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "tasks.generate_ms": "ms",
    "tasks.load_ms": "ms",
    "tasks.cache_save_ms": "ms",
    "tasks.cache_load_ms": "ms",
    "reservoir.build_ms_per_layer": "ms",
    "numerics.eigvals_calls_per_layer": "count",
    "numerics.eigvals_ms_per_layer": "ms",
    "reservoir.forward_us_per_layer_step.identity": "us",
    "reservoir.forward_us_per_layer_step.cyclic": "us",
    "reservoir.forward_us_per_layer_step.random": "us",
    "reservoir.forward_ms_per_op": "ms",
    "reservoir.forward_share": "ratio",
    "reservoir.features_ms_per_op": "ms",
    "readout.fit_ms_per_op": "ms",
    "readout.fit_share": "ratio",
    "readout.score_ms_per_op": "ms",
    "harness.self_ms_per_op": "ms",
    "harness.trial_ms_p50": "ms",
    "harness.trial_ms_p90": "ms",
    "harness.pool_efficiency": "ratio",
    "stability.report_ms": "ms",
    "stability.eigen_ms": "ms",
    "analysis.spectra_ms_per_trial": "ms",
    "cli.self_ms_per_op": "ms",
}


def _import_program():
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import deepreservoir
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import deepreservoir from {SRC}: {exc}")
    origin = Path(deepreservoir.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"bench: deepreservoir imported from {origin}, not from {SRC}")


_import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, duration  # noqa: E402
from workloads import NULL_TRACER, SETUP_REPEATS, WORKLOADS, SearchWorkload  # noqa: E402


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, when the library can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision() -> str | None:
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def environment_check(env: dict) -> checks.Check:
    threads = env["blas"]["threads"]
    return checks.Check("BLAS threads pinned to 1", threads in (None, 1),
                        f"BLAS reports {threads} threads" if threads is not None
                        else "BLAS thread count not queryable; variables set")


# ---------------------------------------------------------------------------
# runs


def _setup(wl, seed: int, workdir: Path, tracer=NULL_TRACER):
    started = time.perf_counter()
    state = wl.prepare(workdir, seed, tracer)
    return state, time.perf_counter() - started


def round_medians(rounds) -> tuple[float, float]:
    """Median over rounds of ops per wall second and of CPU seconds per op.

    The host is shared, and its speed drifts: the same forward() call reads
    14 ms or 24 ms, in stretches of seconds to tens of seconds, and CPU time
    moves with it. Medians over a run's rounds, and a run long enough to
    hold several stretches, keep that drift out of the comparison.
    """
    walls = [sum(s[1] for s in r.samples.values()) for r in rounds]
    cpus = [sum(s[2] for s in r.samples.values()) for r in rounds]
    return (statistics.median(r.ops / w for r, w in zip(rounds, walls)),
            statistics.median(c / r.ops for r, c in zip(rounds, cpus)))


def run_untraced(wl, seed: int, seconds: float, workdir: Path) -> dict:
    setups = [_setup(wl, seed, workdir) for _ in range(SETUP_REPEATS)]
    state = setups[0][0]
    setup_times = [t for _, t in setups]
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(wl.run_round(state))
        if time.perf_counter() - started >= seconds:
            break
        # more set-ups between rounds, so their median spans the run's drift
        setup_times.append(_setup(wl, seed, workdir)[1])
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    ops_per_s, cpu_per_op = round_medians(rounds)
    metrics = {
        "ops_per_s": ops_per_s,
        "setup_s": statistics.median(setup_times),
        "cpu_s_per_op": cpu_per_op,
        # children report their largest member
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return {"state": state, "rounds": rounds, "metrics": metrics,
            "detail": {"setup_s": setup_times, "samples": [r.samples for r in rounds]}}


def _per_setup_median(tracer: Tracer, marks: list[int], end: int, name: str) -> float:
    bounds = marks + [end]
    return statistics.median(
        sum(duration(s) for s in tracer.spans[a:b] if s["name"] == name)
        for a, b in zip(bounds, bounds[1:]))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, marks: list[int], since: int, rounds) -> dict:
    """Per-layer metrics from the spans of the traced rounds (and setups).

    A layer that does not run on a workload reads 0.
    """
    def named(name):
        return tracer.named(name, since)

    def total(name):
        return tracer.total(name, since)

    ops = [s for s in tracer.spans[since:]
           if s["name"] == "harness.trial" or s["name"].startswith("cli.")]
    op_time = sum(duration(s) for s in ops)
    builds = named("reservoir.build")
    built_layers = sum(s["attrs"]["layers"] for s in builds)
    eig = [s for s in named("numerics.eigvals")
           if tracer.spans[s["parent"]]["name"] == "reservoir.build"]
    forwards = named("reservoir.forward")
    walls = sorted(w for r in rounds for w in r.trial_walls)
    cli_self = [t for s in ("cli.stability", "cli.eigen", "cli.spectra")
                for t in tracer.self_time(s, since)]
    trial_self = tracer.self_time("harness.trial", since)
    spectra = named("analysis.spectra")

    out = {name: _per_setup_median(tracer, marks, since, name.removesuffix("_ms")) * 1e3
           for name in ("tasks.generate_ms", "tasks.load_ms", "tasks.cache_save_ms",
                        "tasks.cache_load_ms")}
    out["reservoir.build_ms_per_layer"] = _ratio(total("reservoir.build"), built_layers) * 1e3
    out["numerics.eigvals_calls_per_layer"] = _ratio(len(eig), built_layers)
    out["numerics.eigvals_ms_per_layer"] = _ratio(sum(map(duration, eig)), built_layers) * 1e3
    for kind, value in (("identity", "identity"), ("cyclic", "cyclic"),
                        ("random", "random_orthogonal")):
        mine = [s for s in forwards if s["attrs"]["kind"] == value]
        out[f"reservoir.forward_us_per_layer_step.{kind}"] = _ratio(
            sum(map(duration, mine)), sum(s["attrs"]["layer_steps"] for s in mine)) * 1e6
    out["reservoir.forward_ms_per_op"] = _ratio(total("reservoir.forward"), len(ops)) * 1e3
    out["reservoir.forward_share"] = _ratio(total("reservoir.forward"), op_time)
    out["reservoir.features_ms_per_op"] = _ratio(total("reservoir.features"), len(ops)) * 1e3
    out["readout.fit_ms_per_op"] = _ratio(total("readout.fit"), len(ops)) * 1e3
    out["readout.fit_share"] = _ratio(total("readout.fit"), op_time)
    out["readout.score_ms_per_op"] = _ratio(total("readout.score"), len(ops)) * 1e3
    # harness code inside an op: trial glue in a search, report writing in a command
    out["harness.self_ms_per_op"] = _ratio(sum(trial_self) + total("harness.emit_reports"),
                                           len(ops)) * 1e3
    out["harness.trial_ms_p50"] = float(np.percentile(walls, 50)) * 1e3 if walls else 0.0
    out["harness.trial_ms_p90"] = (float(np.percentile(walls, 90)) * 1e3
                                   if len(walls) >= P90_MIN_TRIALS else 0.0)
    out["harness.pool_efficiency"] = _ratio(sum(r.pool_busy for r in rounds),
                                            sum(r.pool_capacity for r in rounds))
    out["stability.report_ms"] = _ratio(total("stability.report"),
                                        len(named("stability.report"))) * 1e3
    out["stability.eigen_ms"] = _ratio(total("stability.eigen"),
                                       len(named("stability.eigen"))) * 1e3
    out["analysis.spectra_ms_per_trial"] = _ratio(
        total("analysis.spectra"), sum(s["attrs"]["trials"] for s in spectra)) * 1e3
    out["cli.self_ms_per_op"] = _ratio(sum(cli_self), len(ops)) * 1e3
    return out


def run_traced(wl, seed: int, seconds: float, workdir: Path) -> dict:
    tracer = Tracer()
    marks, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        marks.append(len(tracer.spans))
        state, took = _setup(wl, seed, workdir, tracer)
        setup_times.append(took)
    since = len(tracer.spans)
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(wl.traced_round(state, tracer))
        trials = sum(len(r.trial_walls) for r in rounds)
        if time.perf_counter() - started >= seconds and (
                trials >= P90_MIN_TRIALS or not isinstance(wl, SearchWorkload)):
            break
    n_ops = sum(r.ops for r in rounds)
    overhead = (sum(r.traced_op_s for r in rounds) - sum(r.untraced_op_s for r in rounds)) / n_ops
    return {"state": state, "rounds": rounds, "tracer": tracer,
            "metrics": layer_metrics(tracer, marks, since, rounds),
            "detail": {"setup_s": setup_times, "trace_overhead_ms_per_op": overhead * 1e3,
                       "spans": len(tracer.spans)}}


# ---------------------------------------------------------------------------
# seeded results and the reference figures


def differences(got, want, path: str = "", rtol: float = 1e-9) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path or "/"]
        return [d for k in want for d in differences(got[k], want[k], f"{path}/{k}", rtol)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}/{i}", rtol)]
    if isinstance(want, float) or isinstance(got, float):
        same = (np.isnan(got) and np.isnan(want)) or abs(got - want) <= rtol * abs(want)
        return [] if same else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def reference_status(workload: str, seed: int, results) -> str:
    if not REFERENCE.is_file():
        return "absent"
    want = json.loads(REFERENCE.read_text())["results"].get(workload, {}).get(str(seed))
    if want is None:
        return "absent"
    diff = differences(json.loads(json.dumps(results)), want)
    return "match" if not diff else "differs: " + "; ".join(diff[:5])


def write_reference() -> int:
    """Run one round of every workload on each reference seed and store the
    seeded results (only when every check passes)."""
    results: dict = {}
    for name, wl in WORKLOADS.items():
        for seed in REFERENCE_SEEDS:
            workdir = RUNS / "work" / f"reference-{name}-seed{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            state = wl.prepare(workdir, seed)
            rnd = wl.run_round(state)
            failed = [c for c in wl.check(state, rnd) if not c.ok]
            if failed or rnd.failed:
                print(f"bench: {name} seed {seed} fails checks: "
                      f"{[c.to_dict() for c in failed]}", file=sys.stderr)
                return 1
            results.setdefault(name, {})[str(seed)] = wl.seeded_results(rnd)
            print(f"bench: {name} seed {seed}: {json.dumps(results[name][str(seed)])}",
                  file=sys.stderr)
    REFERENCE.write_text(json.dumps({"environment": environment(), "results": results},
                                    indent=2) + "\n")
    print(f"bench: wrote {REFERENCE}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate bench/reference.json and exit")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    run = (run_traced if args.trace else run_untraced)(wl, args.seed, args.seconds, workdir)
    rounds = run["rounds"]

    found = [environment_check(env)]
    found.append(checks.Check("rounds repeat their results",
                              all(wl.same_results(rounds[0], r) for r in rounds[1:]),
                              f"{len(rounds)} rounds"))
    found += wl.check(run["state"], rounds[0])
    results = wl.seeded_results(rounds[0])
    reference = reference_status(args.workload, args.seed, results)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(run["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    summary = {"correct": all(c.ok for c in found),
               "attempted": sum(r.ops for r in rounds),
               "failed": sum(r.failed for r in rounds),
               "metrics": metrics}

    RUNS.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "summary": summary,
              "detail": run["detail"], "checks": [c.to_dict() for c in found],
              "results": results, "reference": reference}
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    if args.trace:
        run["tracer"].write(RUNS / f"{tag}.spans.json")

    for c in found:
        print(f"bench: [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}", file=sys.stderr)
    print(f"bench: seeded results vs reference: {reference}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"bench: {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
