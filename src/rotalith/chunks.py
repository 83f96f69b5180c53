"""The one chunk policy: per-row work split under one of two byte budgets.

A pass that would build a large temporary for all its rows runs in row
chunks from :func:`_point_chunks`, a row sized by the bytes of the largest
per-row temporaries a chunk holds at once.  The budgets are read at call
time:

* ``_CHUNK_BYTES`` (1 MiB): the dense read-out, the matcher, the kNN
  distance rows and the sparse center blocks; at this size malloc reuses
  their temporaries, and a chunk's few arrays stay within a 2 MiB per-core
  L2 cache.
* ``_LOOP_CHUNK_BYTES`` (4 MiB): loops with a long Python body per chunk
  (the voxelizer, ``sh_eval``, ``svc_bruteforce``); smaller chunks there
  only add per-chunk overhead.

This module imports nothing from the package, so every module can use it.
"""

from __future__ import annotations

_CHUNK_BYTES = 1 << 20
_LOOP_CHUNK_BYTES = 4 << 20


def _point_chunks(n: int, row_bytes: int, budget: int | None = None) -> list[slice]:
    """Split ``n`` rows into near-equal chunks of at most ``budget`` bytes
    (default ``_CHUNK_BYTES``).

    Every chunk holds at least one row, and no rows give no chunks.
    Near-equal sizes keep each chunk large when ``n`` barely exceeds one
    chunk; a sliver of a few rows would take a small-matrix BLAS kernel that
    rounds differently.
    """
    rows = max(1, (_CHUNK_BYTES if budget is None else budget) // row_bytes)
    count = -(-n // rows)
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]
