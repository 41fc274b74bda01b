"""The `tracemalloc` peak of one call, for the tests that bound memory.

numpy reports its array buffers to `tracemalloc`, so the peak counts them
and does not depend on the allocator or the machine.
"""

import tracemalloc


def traced_peak(fn):
    """(fn(), the peak in bytes of memory traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
