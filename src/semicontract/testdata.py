"""Access to bundled example configurations."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

BUNDLED_EXAMPLES = ("saddle2d", "saddle4d")


def bundled_config_path(name: str = "saddle2d") -> Path:
    """Filesystem path of a bundled example configuration."""
    if name not in BUNDLED_EXAMPLES:
        raise KeyError(f"unknown bundled example {name!r}; available: {BUNDLED_EXAMPLES}")
    with resources.as_file(resources.files("semicontract") / "data" / f"{name}.json") as path:
        return Path(path)
