"""Smoke runs of the ``examples/`` scripts.

Each script is the library as a reader first meets it, so each must run
to completion as documented: in a fresh interpreter with ``src`` on the
path, from an unrelated working directory, printing what it reports.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert [path.name for path in EXAMPLES] == [
        "custom_warehouse.py", "planner_shootout.py", "quickstart.py",
        "surge_day.py"]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
