"""NumPy is the only runtime dependency.

A child interpreter blocks ``networkx`` (a ``None`` entry in
``sys.modules`` makes every ``import networkx`` raise ImportError), then
drives the CLI through a full ``optimize`` and a suite-wide ``lint``:
both must succeed without it.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

CHILD = r"""
import sys

sys.modules["networkx"] = None
from repro.cli import main

sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv", [["optimize", "7pt-smoother"], ["lint", "--suite"]]
)
def test_cli_runs_without_networkx(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "networkx" not in proc.stderr
