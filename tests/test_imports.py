"""Every name a module in src/ or tests/ imports is used in that module,
every private top-level function or class in src/ is used by some module in
src/, and every parameter with a default in src/ is set by some call in src/
or bench/. No linter ships with the package, so this reads each module's
syntax tree."""

import ast
from collections import defaultdict
from pathlib import Path

from test_bench_names import _stage_names

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))
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


def _unset_defaults(sources: list[Path], callers: list[Path]) -> list[str]:
    """The parameters with a default, of the functions the sources define,
    that no call in the callers passes by keyword or by position. A call
    names its function by the name or attribute it calls; a call to a class
    counts for its __init__, and a method's first parameter is its instance
    or class."""
    passed = defaultdict(set)  # callee name -> keywords and positions it is given
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed[callee] |= {kw.arg for kw in node.keywords} | set(range(len(node.args)))
    unset = []
    for path in sources:
        tree = ast.parse(path.read_text())
        owners = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for f in ast.walk(tree):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
            skip = id(f) in owners and not static
            callee = owners[id(f)] if f.name == "__init__" else f.name
            params = f.args.posonlyargs + f.args.args
            defaulted = [(i - skip, a.arg) for i, a in enumerate(params)
                         if i >= len(params) - len(f.args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
                          if d is not None]
            unset += [f"{path.name}: {f.name}({name}=)" for position, name in defaulted
                      if not passed[callee] & {name, position}]
    return unset


def test_every_parameter_with_a_default_in_src_is_set_by_a_caller():
    # tests do not count: an option only a test sets is a constant it patches
    unset = _unset_defaults(SOURCES, SOURCES + BENCH)
    assert not unset, "no call in src/ or bench/ sets\n" + "\n".join(unset)


def test_the_check_sees_an_unset_default(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, by_position=1, by_keyword=2, unset=3, *, only_keyword=4): pass\n"
        "class C:\n"
        "    def __init__(self, x, size=1, unset=2): pass\n"
        "    def method(self, depth=1, unset=2): pass\n"
        "    @staticmethod\n"
        "    def static(depth=1, unset=2): pass\n")
    (tmp_path / "b.py").write_text(
        "import a\n"
        "a.f(0, 1, by_keyword=0)\nf(only_keyword=0)\n"
        "c = a.C(0, 1)\nc.method(2)\na.C.static(2)\n")
    assert _unset_defaults([tmp_path / "a.py"], [tmp_path / "b.py"]) == [
        "a.py: f(unset=)", "a.py: __init__(unset=)", "a.py: method(unset=)",
        "a.py: static(unset=)"]
