"""The columnar storage tier: numpy-backed per-document columns.

The feature indexes in :mod:`repro.features.index` answer
``Verify``/``Refine`` from sorted position tables.  This package owns
the *storage* of those tables: every document's token offsets,
word/capitalised-run tables, number-token positions, and region
interval arrays live as ``int64`` numpy columns
(:class:`~repro.columnar.arrays.DocColumns`), built lazily in memory
the first time an index over the document is needed.  The batch
``verify_batch``/``refine_batch`` kernels operate directly on the
columns with ``np.searchsorted``.

It also holds the persistent partition-result cache
(:mod:`repro.columnar.results`).
"""

from repro.columnar.arrays import DocColumns, build_doc_columns
from repro.columnar.results import (
    ResultStore,
    load_result,
    prune_cache_dir,
    save_result,
)

__all__ = [
    "DocColumns",
    "build_doc_columns",
    "ResultStore",
    "load_result",
    "prune_cache_dir",
    "save_result",
]
