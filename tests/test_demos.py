"""Every demo script, and the README's library tour, runs to completion
against the source tree, under `-X dev -W error` as the suite itself does
in CI, so a warning inside a demo fails it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    proc = _run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert DEMOS


def test_readme_library_tour_exits_zero():
    """The README's ```python block, so a signature change cannot leave it stale."""
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    proc = _run_python(["-c", blocks[0].split("```", 1)[0]])
    assert proc.returncode == 0, proc.stderr
