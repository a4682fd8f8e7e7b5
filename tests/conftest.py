"""Puts the checkout's ``src`` on the import path after the entries of
``PYTHONPATH``: a tree named there is the one under test, and a bare
``python -m pytest`` from the root tests this checkout."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
_NAMED = {os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
sys.path.insert(
    max((i + 1 for i, p in enumerate(sys.path) if p and os.path.abspath(p) in _NAMED), default=0),
    SRC,
)
