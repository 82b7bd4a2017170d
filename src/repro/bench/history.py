"""Host identity for wall-clock measurements.

``benchmarks/e2e`` attaches :func:`host_fingerprint` to every result it
writes: timings are only comparable between runs on similar hosts.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict


def host_fingerprint() -> Dict[str, Any]:
    """Python, NumPy, platform, machine and CPU count of this host."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }
