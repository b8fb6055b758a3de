"""Physics-attention point-cloud surrogate for aerodynamic prediction.

The modules are the import surface (``from aerosurrogate import model``);
the package root only sets glibc malloc's thresholds and ``__version__``."""

import ctypes

__version__ = "0.1.0"


# glibc malloc hands freed memory back to the OS (it trims the heap top and
# unmaps arrays of 128 KiB or more), so each prediction or train step faults
# the same pages in again: ~5000 minor faults per 8192+4096-point desk
# prediction, 400-600 per desk train step. Fixed thresholds keep it for
# reuse: arrays up to 32 MiB (the 64-bit maximum) come from the heap, and at
# most 64 MiB of free heap is kept. Without glibc's mallopt only speed differs.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


def _keep_freed_memory() -> bool:
    """Set both thresholds; True if mallopt exists and accepted both."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)])


_MALLOC_THRESHOLDS_SET = _keep_freed_memory()
