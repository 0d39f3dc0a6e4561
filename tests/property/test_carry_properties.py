"""Property: the in-place pool carry equals the reference rebuild.

Over random small graphs, both models, and random multi-round activation
sequences, :meth:`CarriedMRRPool.revalidate` (residual-local ids, dead-set
lookup, incremental counts) must keep exactly the sets the original-id
rebuild in :mod:`repro.testing.carry` keeps, in the same order and ids,
and its coverage counts must equal a full ``bincount`` every round.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.diffusion.ic import IndependentCascade
from repro.diffusion.lt import LinearThreshold
from repro.graph import generators, weighting
from repro.graph.residual import initial_residual, shrink_residual
from repro.sampling.mrr import MRRCollection
from repro.testing.carry import rebuild_carried_pool


def _assert_counts_exact(index):
    members, _ = index.packed()
    expected = np.bincount(members, minlength=index.n)
    assert np.array_equal(index.coverage_counts(), expected)


@given(
    n=st.integers(min_value=6, max_value=40),
    graph_seed=st.integers(min_value=0, max_value=2**16),
    model=st.sampled_from([IndependentCascade(), LinearThreshold()]),
    eta_share=st.floats(min_value=0.05, max_value=1.0),
    theta=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_revalidate_matches_reference_rebuild(
    n, graph_seed, model, eta_share, theta, seed, data
):
    graph = weighting.weighted_cascade(
        generators.preferential_attachment(n, 2, seed=graph_seed, directed=False)
    )
    eta = max(1, int(eta_share * n))
    residual = initial_residual(graph, eta)
    pool = MRRCollection(graph, model, eta, seed=seed)
    pool.grow_to(theta)  # theta == 0 offers an empty pool
    carry = pool.export_carry(residual)
    rng = np.random.default_rng(seed)

    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        # Activate 1..n_i/2 nodes; large draws shift the root-count
        # regime and exercise the from-scratch fallback.
        count = data.draw(st.integers(min_value=1, max_value=max(1, residual.n // 2)))
        activated = rng.choice(residual.n, size=min(count, residual.n), replace=False)
        shrunk = shrink_residual(residual, activated)
        if shrunk.n == 0:
            break
        expected = rebuild_carried_pool(carry, shrunk)
        kept, diagnostics = carry.revalidate(shrunk)
        assert (kept is None) == (expected is None)
        assert (diagnostics.fallback is None) == (kept is not None)
        if kept is None:
            break
        index, root_counts = kept
        members, indptr = index.packed()
        assert np.array_equal(members, expected[0])
        assert np.array_equal(indptr, expected[1])
        assert np.array_equal(root_counts, expected[2])
        assert diagnostics.sets_carried == len(root_counts)
        _assert_counts_exact(index)

        residual = shrunk
        pool = MRRCollection(
            residual.graph, model, residual.shortfall, seed=rng
        )
        pool.adopt(index, root_counts)
        # Top up past the adopted sets (and through the buffer headroom).
        pool.grow_to(len(pool) + data.draw(st.integers(min_value=0, max_value=40)))
        _assert_counts_exact(pool.index)
        carry = pool.export_carry(residual)
