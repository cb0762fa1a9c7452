"""Pytest bootstrap: import caden from this checkout's src/, never from an
installed copy, as perfbench/run.py does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))
