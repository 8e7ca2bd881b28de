"""Numba on/off switch for the hot kernels.

Every numeric kernel in :mod:`nozzleflow._kernels` is written as plain
scalar/NumPy Python and decorated with :func:`njit` from this module.  When
numba (the optional ``jit`` extra) is installed the decorator is numba's
``njit(cache=True)``; without it, or with the environment variable
``NOZZLEFLOW_NUMBA=0``, the very same functions run as ordinary Python.
Both paths are supported; ``NOZZLEFLOW_NUMBA=1`` makes a missing numba an
error.  ``perfbench/run.py`` measures whichever path is active.
"""

import os

_flag = os.environ.get("NOZZLEFLOW_NUMBA", "auto").strip().lower()

NUMBA_ENABLED = False
if _flag not in ("0", "false", "off", "no"):
    try:
        from numba import njit as _numba_njit

        NUMBA_ENABLED = True
    except ImportError:
        if _flag in ("1", "true", "on", "yes"):
            raise


def njit(*args, **kwargs):
    """``numba.njit`` or an identity decorator, per ``NOZZLEFLOW_NUMBA``."""
    if NUMBA_ENABLED:
        kwargs.setdefault("cache", True)
        return _numba_njit(*args, **kwargs)
    if args and callable(args[0]):
        return args[0]
    return lambda f: f
