"""NumPy is the only runtime dependency, and the CLI imports lazily.

A child interpreter blocks ``networkx`` (a ``None`` entry in
``sys.modules`` makes every ``import networkx`` raise ImportError), then
drives the CLI through a full ``optimize`` and a suite-wide ``lint``:
both must succeed without it.  A fresh interpreter importing
``repro.cli`` must not pull in ``http.server``, which only
``--metrics-port`` needs.
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


def _run_child(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )


@pytest.mark.parametrize(
    "argv", [["optimize", "7pt-smoother"], ["lint", "--suite"]]
)
def test_cli_runs_without_networkx(argv):
    proc = _run_child(CHILD, *argv)
    assert proc.returncode == 0, proc.stderr
    assert "networkx" not in proc.stderr


def test_cli_import_defers_http_server():
    proc = _run_child(
        "import sys, repro.cli; print('http.server' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
