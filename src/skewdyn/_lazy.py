"""numpy, imported at its first attribute access.

Point queries (every scalar estimator, bottcher, classify_point) run in
pure Python; numpy serves only the lane kernels behind fiber_sample,
renders and verify.  So `np` is bound to a module whose import runs at
the first `np.` lookup, and a process that makes point queries alone
never pays for it.  Nor does it compile the lane kernels: they live in
skewdyn.fiber, which `import skewdyn` does not import (README, "Point
queries", gives the peak memory saved).
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _lazy_import(name: str) -> ModuleType:
    """The module `name`, loaded on first attribute access; a loaded one as it is.

    Raises ModuleNotFoundError at once where the module is not installed.
    Python 3.11's LazyLoader is not thread-safe on the first access;
    skewdyn starts no threads.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")
