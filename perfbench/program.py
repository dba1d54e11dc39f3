"""Loading twistlab from source, in fresh module state.

The benchmark imports the package from ``src/`` of the checkout it runs in;
nothing is installed.  ``load`` drops every ``twistlab`` module from
``sys.modules`` first, so each call re-executes the package and starts with
empty module-level caches, as a new CLI process would.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The layers the benchmark drives and traces; fields is reached through them.
MODULES = ("braid", "fields", "zigzag", "complexes", "linalg", "twists", "reconstruct", "acceptance")


def unload() -> None:
    """Drop the loaded twistlab modules and free what they hold."""
    for name in [m for m in sys.modules if m == "twistlab" or m.startswith("twistlab.")]:
        # typing's caches keep classes of a dropped load alive, and with them
        # their modules' globals: empty those so their caches go too
        vars(sys.modules.pop(name)).clear()
    gc.collect()


def load() -> SimpleNamespace:
    """Import twistlab afresh and return its modules by short name."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    unload()
    pkg = importlib.import_module("twistlab")
    mods = {name: importlib.import_module(f"twistlab.{name}") for name in MODULES}
    return SimpleNamespace(package=pkg, **mods)
