"""Content-addressed keys for the persistent artifact store.

A store hit must be **bit-identical by construction** to regenerating the
artifact, so every key captures the *exact generation recipe*:

* a **graph fingerprint** — SHA-256 over the six CSR arrays' raw bytes,
  their dtypes, the storage policy, and ``(n, m)``.  Any change to the
  graph (weights included) changes the fingerprint, so stale artifacts can
  never be served for a mutated graph;
* a **model key** — the diffusion model's class, public ``name``, and any
  item parameters (the topic-aware mixture weights);
* the **generation parameters** — counts, batch sizes, root-drawer
  configuration — supplied by the caller as plain JSON-able fields;
* the **randomness recipe** — either a digest of the caller Generator's
  exact bit-generator state (single-stream path) or the chunk-root
  ``SeedSequence`` entropy plus its spawn offset (sharded path);
* the :data:`ARTIFACT_FORMAT_VERSION`, so a layout change invalidates
  every existing artifact instead of misreading it.

Keys are rendered as ``<kind>-<sha256 of the canonical JSON>`` — stable
across processes and platforms because the JSON is serialized with sorted
keys and no whitespace.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from repro.graph.digraph import DiGraph

#: Bumped whenever the payload layout or key schema changes; part of every
#: key, so old artifacts become unreachable (and eventually evicted) rather
#: than misread.
ARTIFACT_FORMAT_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays so ``json.dumps`` succeeds.

    Bit-generator state dicts mix plain ints (PCG64) with ndarrays
    (Philox, MT19937); both must serialize canonically.
    """
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def canonical_json(fields: Any) -> str:
    """Deterministic JSON rendering (sorted keys, compact separators)."""
    return json.dumps(_jsonable(fields), sort_keys=True, separators=(",", ":"))


def graph_fingerprint(graph: DiGraph) -> str:
    """SHA-256 over the six CSR arrays + dtypes + storage policy + (n, m).

    Hashed once per graph and kept in the graph's derived-value cache.
    """
    return graph.cached("fingerprint", _hash_csr)


def _hash_csr(graph: DiGraph) -> str:
    digest = hashlib.sha256()
    digest.update(f"n={graph.n};m={graph.m};storage={graph.storage}".encode())
    for indptr, indices, probs in (graph.out_csr, graph.in_csr):
        for array in (indptr, indices, probs):
            digest.update(str(array.dtype).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def model_key(model: Any) -> str:
    """Identity of a diffusion model: class, public name, item parameters."""
    parts = [type(model).__name__, str(getattr(model, "name", ""))]
    mixture = getattr(model, "mixture", None)
    if mixture is not None:
        weights = getattr(mixture, "weights", mixture)
        parts.append(canonical_json(list(weights)))
    return "/".join(parts)


def rng_state_token(rng: np.random.Generator) -> str:
    """Digest of a Generator's exact bit-generator state.

    Two Generators produce identical draw sequences iff their states match,
    so keying on this token makes a hit bit-identical by construction —
    provided the stored post-generation state is restored on load (see
    :func:`restore_generator_state`).
    """
    state = rng.bit_generator.state
    return hashlib.sha256(canonical_json(state).encode()).hexdigest()


def generator_state(rng: np.random.Generator) -> dict[str, Any]:
    """The Generator's state as a JSON-able dict (for manifest metadata)."""
    state = _jsonable(rng.bit_generator.state)
    if not isinstance(state, dict):  # pragma: no cover - defensive
        raise TypeError(f"unexpected bit-generator state type: {type(state)}")
    return state


def restore_generator_state(rng: np.random.Generator, state: Any) -> bool:
    """Restore a previously captured state onto ``rng``; False on mismatch.

    A False return means the hit cannot guarantee downstream bit-identity
    (e.g. the manifest was produced by a different bit-generator family),
    so the caller must fall back to regeneration.
    """
    if not isinstance(state, dict):
        return False
    if state.get("bit_generator") != type(rng.bit_generator).__name__:
        return False
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError):
        return False
    return True


def artifact_key(kind: str, fields: dict[str, Any]) -> str:
    """Render a content-addressed key: ``<kind>-<sha256(recipe JSON)>``.

    The :data:`ARTIFACT_FORMAT_VERSION` is folded into every digest, so a
    format bump invalidates the whole store without touching it.
    """
    recipe = dict(fields)
    recipe["__kind__"] = kind
    recipe["__version__"] = ARTIFACT_FORMAT_VERSION
    digest = hashlib.sha256(canonical_json(recipe).encode()).hexdigest()
    return f"{kind}-{digest}"
