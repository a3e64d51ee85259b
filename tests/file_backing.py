"""Assert that an array reads straight from a file mapping.

Store matrices and trace chunk arrays are plain ``ndarray`` views of a
read-only ``mmap.mmap`` rather than ``np.memmap`` instances, so "is it
still on disk?" is answered by walking the ``.base`` chain: a view of a
mapping ends at the ``mmap.mmap``; a heap array (a gathered engine, a
copied slice) ends at ``None`` or a ``bytes`` object.
"""

from __future__ import annotations

import mmap


def is_file_backed(array) -> bool:
    """Whether *array*'s memory is a file mapping, not a resident copy."""
    base = array
    while base is not None:
        if isinstance(base, mmap.mmap):
            return True
        base = getattr(base, "base", None)
    return False
