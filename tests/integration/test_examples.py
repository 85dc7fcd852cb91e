"""Every script under ``examples/`` runs to completion.

Each example runs in its own interpreter with ``PYTHONPATH=src`` and must
exit 0, so an example that names a removed API fails the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]
_EXAMPLES = sorted((_ROOT / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert {path.name for path in _EXAMPLES} >= {
        "adaptive_trace.py", "large_queries.py", "quickstart.py"}


@pytest.mark.parametrize("script", _EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    completed = subprocess.run([sys.executable, str(script)], cwd=_ROOT,
                               env=env, capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
