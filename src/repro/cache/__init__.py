"""Content-addressed caching of alignment results (``repro.cache``).

The serving-stack layer: :mod:`repro.cache.key` derives canonical request
digests (sequences + scheme + mode + method, plus a permutation-invariant
secondary key), and :mod:`repro.cache.store` holds results in a bounded
in-memory LRU tier over an optional persistent JSONL tier. ``align3``
accepts a cache via its ``cache=`` argument; :mod:`repro.batch` uses one
to deduplicate whole request batches. See ``docs/batching.md``.
"""

from repro.cache.key import (
    EXACT_METHODS,
    MODES,
    VOLATILE_META_KEYS,
    canonical_order,
    chain_engines_fit,
    chain_key_class,
    comparable_meta,
    derive_for_order,
    method_key_class,
    permutation_key,
    permute_rows,
    request_key,
    scheme_fingerprint,
)
from repro.cache.store import (
    CacheStats,
    ResultCache,
    decode_alignment,
    encode_alignment,
    jsonable,
)

__all__ = [
    "EXACT_METHODS",
    "MODES",
    "VOLATILE_META_KEYS",
    "CacheStats",
    "ResultCache",
    "canonical_order",
    "chain_engines_fit",
    "chain_key_class",
    "comparable_meta",
    "decode_alignment",
    "derive_for_order",
    "encode_alignment",
    "jsonable",
    "method_key_class",
    "permutation_key",
    "permute_rows",
    "request_key",
    "scheme_fingerprint",
]
