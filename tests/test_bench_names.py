"""The traced benchmark wraps package functions by module and name; a
deletion that removes one of them would break `bench/run.py --trace 1`."""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


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
