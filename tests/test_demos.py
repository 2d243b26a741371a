"""The demos, the README's python quickstart and its quick-mode ``oqw``
commands run as written, and ``oqw -h`` prints the usage.

Each runs in a fresh interpreter in dev mode, with a ResourceWarning or
a numpy RuntimeWarning (an overflow or invalid value on its path) an
error, and must exit 0.
"""

import os
import re
import shlex
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


def _quick_mode() -> list:
    """The ``oqw`` lines of the README's quick-mode block, split."""
    blocks = re.findall(r"^Quick mode skips the config file:\n\n```\n(.*?)^```$",
                        (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    return [shlex.split(line) for line in blocks[0].splitlines() if line.startswith("oqw ")]


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


def test_readme_quick_mode_commands_run(tmp_path):
    commands = _quick_mode()
    assert len(commands) >= 2
    for args in commands:
        # an -o file goes into the temporary directory
        out = None
        if "-o" in args:
            k = args.index("-o") + 1
            out = args[k] = str(tmp_path / Path(args[k]).name)
        done = _run(["-m", "oqwalk.cli", *args[1:]])
        assert done.returncode == 0, (args, done.stderr)
        assert out is None or Path(out).stat().st_size > 0


@pytest.mark.parametrize("argv", [["-h"], ["run", "-h"]])
def test_help_in_a_fresh_process(argv):
    # the CLI builds its parser once per process: -h on it exits 0
    done = _run(["-m", "oqwalk.cli", *argv])
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: oqw")
