"""Lets the benchmark's own tests import the checkout's ``powerdse``:
``python3 -m pytest bench`` from the repository root."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
