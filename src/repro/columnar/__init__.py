"""The persistent partition-result cache.

Evaluated partition results are stored as ``int64`` numpy buffers with
a JSON sidecar, keyed by (plan fingerprint, corpus content digest); see
:mod:`repro.columnar.results`.
"""

from repro.columnar.results import (
    ResultStore,
    load_result,
    prune_cache_dir,
    save_result,
)

__all__ = [
    "ResultStore",
    "load_result",
    "prune_cache_dir",
    "save_result",
]
