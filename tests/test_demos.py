"""The demos and the README's python quickstart run as written.

Each script runs in a fresh interpreter in dev mode, with a
ResourceWarning or a numpy RuntimeWarning (an overflow or invalid value
on its path) an error, and must exit 0.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _quickstart() -> str:
    """The README's python block."""
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def _run(args: list) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-W", "error::RuntimeWarning", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_every_demo_is_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    done = _run([str(demo)])
    assert done.returncode == 0, done.stderr


def test_readme_quickstart_runs():
    done = _run(["-c", _quickstart()])
    assert done.returncode == 0, done.stderr
