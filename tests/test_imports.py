"""Every name a module in src/ or tests/ imports is used in that module, and
every private top-level function or class in src/ is used by some module in
src/. No linter ships with the package, so this reads each module's syntax
tree."""

import ast
from pathlib import Path

from test_bench_names import _stage_names

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").rglob("*.py")])


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


def _unreferenced_private_names(paths: list[Path]) -> list[str]:
    """The private top-level functions and classes of these modules that no
    module among them reads: by name, as an attribute or in an import."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return [f"{path.name} defines {node.name}" for path, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in read]


def test_every_private_function_and_class_in_src_is_used():
    unused = _unreferenced_private_names(SOURCES)
    assert not unused, "\n".join(unused)


def test_the_check_sees_an_unused_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _called(): pass\ndef _imported(): pass\ndef _read_as_attribute(): pass\n"
        "def _unused(): return _called()\nclass _Unused: pass\n"
        "def public(): pass\ndef __getattr__(name): pass\n")
    (tmp_path / "b.py").write_text("import a\nfrom a import _imported\n"
                                   "a._read_as_attribute()\n")
    assert _unreferenced_private_names([tmp_path / "a.py", tmp_path / "b.py"]) == [
        "a.py defines _unused", "a.py defines _Unused"]
