"""Shared machine-readable emission for the ``repro.obs`` CLI.

Every subcommand's ``--json FILE`` mode funnels through
:func:`write_json` so the artifacts agree on formatting: one JSON
document, ``indent=1``, trailing newline.
"""

from __future__ import annotations

import json
from typing import Any


def write_json(path, payload: Any) -> None:
    """Write one JSON document to ``path`` (the CLI ``--json`` sink)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
