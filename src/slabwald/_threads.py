"""SLABWALD_THREADS: a cap on the BLAS/OpenMP thread pools (0 = automatic).

Standard library only, so that `slabwald/__init__.py` can apply the cap before
numpy, and the BLAS library it loads, size their pools.  The cap fills only the
pool variables that are unset, so an explicit OPENBLAS_NUM_THREADS and the like
still win.
"""

from __future__ import annotations

import os

POOL_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS")


def thread_cap() -> int:
    """SLABWALD_THREADS as an integer, 0 when unset or empty.

    Raises ValueError when it is not an integer.
    """
    cap = os.environ.get("SLABWALD_THREADS")
    return int(cap) if cap else 0


def apply_thread_cap() -> None:
    """Set every unset pool variable to a positive cap; a malformed one sets nothing."""
    try:
        n = thread_cap()
    except ValueError:
        return  # the CLI reports it as a usage error; the library ignores it
    if n > 0:
        for var in POOL_VARIABLES:
            os.environ.setdefault(var, str(n))
