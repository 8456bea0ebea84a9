"""Every demo, and the README's library tour, runs to completion against
the library in ``src``, so a change that removes or renames an API one of
them uses fails here."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    run_python([str(demo)])


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert tour is not None
    run_python(["-c", tour.group(1)])
