"""The benchmark reads package functions by module and name; a deletion that
removes one of them would break `bench/run.py`, traced or not."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = BENCH / "workloads.py"


def _stage_names() -> list[tuple[str, str]]:
    """(module, attribute) of every (module, "attr", ...) tuple in
    bench/workloads.py whose module it imports from deepreservoir."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "deepreservoir"
               for alias in node.names}
    return [(node.elts[0].id, node.elts[1].value) for node in ast.walk(tree)
            if isinstance(node, ast.Tuple) and len(node.elts) >= 2
            and isinstance(node.elts[0], ast.Name) and node.elts[0].id in modules
            and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)]


def test_every_traced_stage_name_resolves():
    names = _stage_names()
    assert ("harness", "fit") in names and ("stability", "eigenspectrum_report") in names
    for module, attr in names:
        assert hasattr(importlib.import_module(f"deepreservoir.{module}"), attr), \
            f"bench/workloads.py wraps deepreservoir.{module}.{attr}, which is gone"


def _package_reads(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every name a bench script reads from deepreservoir:
    each `from deepreservoir[.module] import name`, and each `module.name`
    loaded from a package module the script imports that way."""
    tree = ast.parse(path.read_text())
    reads, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "deepreservoir":
            for alias in node.names:
                reads.append((node.module, alias.name))
                submodule = f"{node.module}.{alias.name}"
                if node.module == "deepreservoir" and importlib.util.find_spec(submodule):
                    modules[alias.asname or alias.name] = submodule
    reads += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules]
    return reads


def test_every_package_name_the_benchmark_reads_resolves():
    reads = {path.name: _package_reads(path) for path in sorted(BENCH.glob("*.py"))}
    for want in [("deepreservoir.harness", "run_trial"), ("deepreservoir.harness", "make_task"),
                 ("deepreservoir.tasks", "write_sequence_classification"),
                 ("deepreservoir.reservoir", "build_deep_reservoir")]:
        assert want in reads["workloads.py"]
    for script, names in reads.items():
        for module, attr in names:
            assert hasattr(importlib.import_module(module), attr), \
                f"bench/{script} reads {module}.{attr}, which is gone"


def _attribute_reads(path: Path, names: set[str]) -> set[tuple[str, str]]:
    """(name, attribute) of every attribute a bench script loads off a
    variable of one of these names."""
    return {(node.value.id, node.attr) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id in names}


def test_every_layer_and_config_attribute_the_benchmark_reads_exists():
    from deepreservoir.harness import HyperGrid, ModelClass, make_task, sample_config
    from deepreservoir.numerics import RngStream
    from deepreservoir.reservoir import build_deep_reservoir

    config = sample_config(HyperGrid(), ModelClass.DEEP_RES_ESN_R, "sinmem10", "memory",
                           RngStream(0))
    built = {"config": config,
             "layer": build_deep_reservoir(config.layer_configs(), 1, RngStream(1)).layers[0],
             "dataset": make_task("sinmem10", 0, length=300)[0]}
    reads = set().union(*(_attribute_reads(path, set(built)) for path in BENCH.rglob("*.py")))
    assert {("layer", "o"), ("layer", "kind"), ("layer", "w_h"), ("config", "layer_configs"),
            ("config", "washout"), ("dataset", "inputs"), ("dataset", "targets"),
            ("dataset", "kind"), ("dataset", "split")} <= reads
    for name, attr in sorted(reads):
        assert hasattr(built[name], attr), \
            f"bench/ reads {name}.{attr}, which a built {type(built[name]).__name__} lacks"
