import importlib
import re
from pathlib import Path

import deepreservoir
from deepreservoir import cli
from deepreservoir.harness import TASK_SPECS, ModelClass

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _section(heading: str) -> str:
    """README text from a '## ' heading up to the next one."""
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _code_block(section: str, lang: str) -> str:
    return re.search(rf"```{lang}\n(.*?)```", _section(section), flags=re.S).group(1)


MODULES = sorted(p.stem for p in (ROOT / "src" / "deepreservoir").glob("*.py")
                 if p.stem != "__init__")


def test_readme_has_one_bullet_per_module():
    bullets = re.findall(r"^- `(\w+)` –", README, flags=re.M)
    assert sorted(bullets) == MODULES


def test_readme_names_only_what_the_package_defines():
    # every backticked identifier in the module bullets is a module, an
    # attribute of one, or module.attribute
    bullets = README.split("The package contains:\n", 1)[1].split("\n## ", 1)[0]
    modules = {name: importlib.import_module(f"deepreservoir.{name}") for name in MODULES}
    names = re.findall(r"`([A-Za-z_][\w.]*)`", bullets)
    assert "run_states" in names
    for name in names:
        head, _, attr = name.rpartition(".")
        owners = [modules[head]] if head else list(modules.values())
        assert name in modules or any(hasattr(m, attr) for m in owners), name


def test_package_exports_resolve_once():
    names = deepreservoir.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(deepreservoir, name), name


def test_readme_library_example_runs(capsys):
    exec(compile(_code_block("Library example", "python"), "README.md", "exec"), {})
    assert float(capsys.readouterr().out) >= 0.0


def test_readme_cli_block_shows_every_command():
    shown = re.findall(r"^deepreservoir ([\w-]+)", _code_block("CLI", "sh"), flags=re.M)
    assert sorted(set(shown)) == sorted(cli._COMMANDS)


def test_readme_lists_every_model_class_and_task():
    text = " ".join(_section("CLI").split())
    classes = text.split("Model classes:", 1)[1].split("(suffix", 1)[0]
    assert re.findall(r"`(\w+)`", classes) == [m.value for m in ModelClass]
    names = text.split("Benchmark tasks:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", names) == list(TASK_SPECS)
