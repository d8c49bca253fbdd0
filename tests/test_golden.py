"""Seeded outputs pinned byte for byte: tests/golden/runs.py runs a fixed set
of small searches, runs and analyses in a child process, and each file it
writes must equal the committed one. A change that moves seeded results on
purpose rewrites them with

    PYTHONPATH=src python tests/golden/runs.py tests/golden
"""

import os
import subprocess
import sys
from pathlib import Path

from deepreservoir import reservoir

GOLDEN = Path(__file__).resolve().parent / "golden"


def _first_difference(want: str, got: str) -> str:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for number, (a, b) in enumerate(zip(want_lines, got_lines), start=1):
        if a != b:
            return f"line {number}: expected {a!r}, got {b!r}"
    number = min(len(want_lines), len(got_lines)) + 1
    return f"line {number}: expected {len(want_lines)} lines, got {len(got_lines)}"


def test_seeded_outputs_match_the_golden_files(tmp_path):
    package_root = str(Path(reservoir.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, str(GOLDEN / "runs.py"), str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    versions = (f"golden files written under {(GOLDEN / 'versions.txt').read_text().strip()}; "
                f"this run: {(tmp_path / 'versions.txt').read_text().strip()}").replace("\n", ", ")
    want = {p.relative_to(GOLDEN).as_posix() for p in GOLDEN.glob("*/*")
            if p.parent.name != "__pycache__"}
    got = {p.relative_to(tmp_path).as_posix() for p in tmp_path.glob("*/*")}
    assert want == got, f"missing: {sorted(want - got)}, new: {sorted(got - want)}"
    for name in sorted(want):
        expected, actual = (GOLDEN / name).read_text(), (tmp_path / name).read_text()
        assert expected == actual, f"{name}, {_first_difference(expected, actual)} ({versions})"
