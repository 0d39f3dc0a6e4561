"""Persistent content-addressed artifact store for pools and realizations.

``PoolStore`` caches the repro's hottest regenerated artifacts — (m)RR
pools, CRN realization batches, shared harness worlds, service warm pools
— on disk, keyed so precisely (graph fingerprint x model x generation
params x exact randomness recipe x format version) that a hit is
bit-identical by construction to regenerating.  See DESIGN.md "Pool
store" for the key schema and invalidation rules.
"""

from repro.store.disk import DEFAULT_STORE_BYTES, PoolStore
from repro.store.keys import (
    ARTIFACT_FORMAT_VERSION,
    artifact_key,
    canonical_json,
    generator_state,
    graph_fingerprint,
    model_key,
    restore_generator_state,
    rng_state_token,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "DEFAULT_STORE_BYTES",
    "PoolStore",
    "artifact_key",
    "canonical_json",
    "generator_state",
    "graph_fingerprint",
    "model_key",
    "restore_generator_state",
    "rng_state_token",
]
