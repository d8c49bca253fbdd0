import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_has_one_bullet_per_module():
    bullets = re.findall(r"^- `(\w+)` –", (ROOT / "README.md").read_text(), flags=re.M)
    modules = [p.stem for p in (ROOT / "src" / "deepreservoir").glob("*.py")
               if p.stem != "__init__"]
    assert sorted(bullets) == sorted(modules)
