"""Every script under ``examples/`` runs to completion.

``remote_evaluation.py`` asserts that a remote session answers exactly like
a local one, and ``distributed_sweep.py`` that a coordinated sweep folds to
the local result after a server dies; the others print a walkthrough.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script, tmp_path):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    src = ROOT / "src"
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else str(src)
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, (done.stdout[-2000:], done.stderr[-2000:])
