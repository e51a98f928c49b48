"""The glibc allocator policy of a training process.

A training step frees and reallocates the same patch matrices and
activations (up to 19 MB each) every step.  Under glibc's defaults the
large ones are fresh mappings and a freed heap top is trimmed, so each step
faults their pages in again: about 250K minor faults and a second of system
time per DQ unit.  :func:`keep_freed_memory_mapped` raises both thresholds,
so freed blocks stay in the heap for the next step; ``run`` calls it at
start-up and its fork pool workers inherit it, while ``serve``, a
long-lived process, keeps the defaults.  Kept blocks fragment the heap as
allocation sizes change, so :func:`release_freed_memory` hands the free
memory back once a model has trained: the next unit in the process starts
from the memory it needs, not from the last unit's peak.

Both are no-ops where the C library has no such call.
"""

from __future__ import annotations

import ctypes

#: glibc ``mallopt`` parameters (``<malloc.h>``)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
#: ``run``'s malloc thresholds (``mallopt`` takes a C ``int``).  32 MiB is
#: the highest mmap threshold glibc's own adaptation reaches; every training
#: temporary is smaller, while larger blocks are still returned on free
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def _libc(name: str):
    try:
        return getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return None


def keep_freed_memory_mapped() -> None:
    """Have glibc reuse freed blocks instead of handing them back to the kernel."""
    mallopt = _libc("mallopt")
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def release_freed_memory() -> None:
    """Hand the heap's free memory back to the kernel (``malloc_trim``)."""
    malloc_trim = _libc("malloc_trim")
    if malloc_trim is not None:
        malloc_trim(0)
