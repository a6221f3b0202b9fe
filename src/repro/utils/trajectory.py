"""The machine a benchmark record was measured on.

Wall-clock numbers are only comparable within one machine, so every record
the repo benchmark (``perfbench/``) writes carries this platform
fingerprint.
"""

from __future__ import annotations

import platform
from typing import Dict

import numpy as np

__all__ = ["machine_fingerprint"]


def machine_fingerprint() -> Dict[str, str]:
    """Coarse platform identity attached to every entry (wall-clock numbers
    are only comparable within one machine)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
