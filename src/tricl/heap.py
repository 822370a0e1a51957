"""The allocator policy: freed arrays stay in the process for the next step.

A training step frees its whole tape, tens of MB of patch matrices and
activations, and the next step allocates the same shapes again. Under glibc's
defaults an array of 128 kB or more (a threshold that glibc raises as large
blocks are freed) gets its own mmap, returned to the OS when freed, and a
free heap top past 128 kB is trimmed back to the OS as well. Either way the
next step faults the same pages in again, one minor fault per page. The
policy keeps them: arrays below `MMAP_THRESHOLD` come from the heap, and the
heap top is trimmed only past `TRIM_THRESHOLD`.

malloc has one policy per process, so this one is process-wide: `tricl`
sets it once, when it is imported, for every caller in the process. It is
set through glibc's ``mallopt``; where the C library has no ``mallopt``
(macOS, for one) nothing changes.
"""

from __future__ import annotations

import ctypes

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# The largest value glibc accepts on 64-bit (HEAP_MAX_SIZE / 2), far above
# the arrays of a preset contrastive step (6 MB at most), so all of them are reused.
MMAP_THRESHOLD = 32 * 1024 * 1024
# Far above a preset step's tape (about 35 MB), so the heap top is kept from
# step to step; a process that frees more than this still returns it.
TRIM_THRESHOLD = 1024 * 1024 * 1024


def keep_freed_arrays() -> None:
    """Set the policy above; return quietly where there is no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # the loaded C library; find_library would start a subprocess
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
