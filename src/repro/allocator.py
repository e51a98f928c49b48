"""The glibc allocator policy and the BLAS thread count of a training process.

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

A training step's GEMMs round differently on more BLAS threads, and pool
workers that each run a multi-threaded BLAS oversubscribe the cores, so
:func:`use_one_blas_thread` runs the loaded OpenBLAS on one thread.  Each
process calls it where it resolves its compute backend
(:class:`repro.nn.native.NativeBackend`), before its first convolution and
before the engine forks a pool, whose workers inherit the setting.
"""

from __future__ import annotations

import ctypes
import warnings
from typing import Callable, Optional, Tuple

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


#: OpenBLAS's ``(set, get)`` thread-count calls: the symbol-suffixed build
#: numpy's wheels bundle, then a plain one
_BLAS_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_BLAS_WARNED = False


def _openblas() -> Optional[Tuple[Callable[[int], None], Callable[[], int]]]:
    """The thread-count calls of the OpenBLAS this process has loaded, if any."""
    libraries = [None]  # the global namespace, then every mapped BLAS library
    try:
        with open("/proc/self/maps") as maps:
            libraries += sorted({line.split()[-1] for line in maps if "blas" in line})
    except OSError:
        pass
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except (OSError, TypeError):
            continue
        for setter, getter in _BLAS_CALLS:
            if hasattr(handle, setter) and hasattr(handle, getter):
                set_threads, get_threads = getattr(handle, setter), getattr(handle, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


def use_one_blas_thread() -> None:
    """Run the loaded OpenBLAS on one thread; warn once if none is found."""
    global _BLAS_WARNED
    calls = _openblas()
    if calls is not None:
        calls[0](1)
    elif not _BLAS_WARNED:
        _BLAS_WARNED = True
        warnings.warn(
            "found no OpenBLAS to run on one thread: trained parameters may depend "
            "on the BLAS's thread count",
            RuntimeWarning,
            stacklevel=2,
        )


def blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's thread count, or ``None`` without one."""
    calls = _openblas()
    return None if calls is None else calls[1]()
