"""The package of this checkout, for every Python process a test spawns.

pyproject's ``pythonpath`` puts ``src/`` on the path of the pytest process
alone; a spawned ``python -m hyperappell`` gets it from `spawn_env`, so the
suite passes from a checkout whether or not the package is installed.
"""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def spawn_env() -> dict:
    """The environment of a spawned process: this one's, with PYTHONPATH=src."""
    return dict(os.environ, PYTHONPATH=str(SRC))
