"""Every name a module in src/ or tests/ imports is used in that module. No
linter ships with the package, so this reads each module's syntax tree."""

import ast
from pathlib import Path

from test_bench_names import _stage_names

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def _unused_imports(path: Path) -> list[str]:
    """Names the module binds by an import and never reads, in file order.
    A name listed in __all__ counts as read."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    # the benchmark wraps these package functions under the names their
    # modules import them by, so the import alone is their use
    wrapped = {(f"src/deepreservoir/{module}.py", name) for module, name in _stage_names()}
    unused = [f"{path.relative_to(ROOT)} imports {name}" for path in MODULES
              for name in _unused_imports(path)
              if (str(path.relative_to(ROOT)), name) not in wrapped]
    assert not unused, "\n".join(unused)


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport numpy as np\nfrom json import dumps, loads\n"
                      "__all__ = ['loads']\nprint(np.pi)\n")
    assert _unused_imports(module) == ["os", "dumps"]
