"""The independent cascade (IC) model (Kempe et al. 2003).

Each edge ``e`` fires independently with its probability ``p(e)``.  Forward
simulation flips each out-edge coin the first time its source activates;
reverse sampling flips each in-edge coin the first time its target is
visited.  Both directions run as batched labeled BFS over every sample's
frontier at once (:func:`repro.diffusion.base.run_labeled_bfs`).
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.base import (
    DiffusionModel,
    expand_labeled_frontier,
    normalize_seeds,
    run_labeled_bfs,
    tile_starts,
)
from repro.diffusion.realization import ICRealization
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.kernels import resolve_backend
from repro.kernels.dispatch import ic_coin_expander
from repro.utils.rng import RandomSource, as_generator


class IndependentCascade(DiffusionModel):
    """Stateless IC model; all per-run state lives in the arguments."""

    name = "IC"

    def sample_realization(
        self, graph: DiGraph, seed: RandomSource = None
    ) -> ICRealization:
        """Flip every edge coin up front: ``live[e] ~ Bernoulli(p(e))``."""
        rng = as_generator(seed)
        _, _, probs = graph.out_csr
        live = rng.random(graph.m) < probs
        return ICRealization(graph, live)

    def simulate_batch(
        self,
        graph: DiGraph,
        seeds,
        n_sims: int,
        seed: RandomSource = None,
        scratch: np.ndarray = None,
        kernel: str = "auto",
    ):
        """One multi-cascade labeled forward BFS sampling ``n_sims`` runs.

        The forward twin of :meth:`reverse_sample_batch`: the shared
        :func:`~repro.diffusion.base.run_labeled_bfs` driver advances every
        simulation's frontier in lockstep, and this model's per-level rule
        flips the out-edge coins of all frontiers in a single vectorized
        draw.  Distributionally identical to ``n_sims`` independent
        one-cascade runs — each ``(simulation, out-edge)`` coin is
        still flipped at most once, when its source first activates within
        that simulation.  ``kernel`` selects the per-level backend (see
        :mod:`repro.kernels`); outputs are bit-identical across backends.
        """
        if n_sims < 0:
            raise ConfigurationError(f"n_sims must be >= 0, got {n_sims}")
        seeds = normalize_seeds(graph, seeds)
        rng = as_generator(seed)
        indptr, targets, probs = graph.out_csr
        n = graph.n
        starts, starts_indptr = tile_starts(seeds, n_sims)

        backend = resolve_backend(kernel, graph)
        if backend.kernels is not None:
            return run_labeled_bfs(
                n,
                starts,
                starts_indptr,
                scratch=scratch,
                expand=ic_coin_expander(
                    backend, "ic_forward", indptr, targets, probs, n, rng
                ),
            )

        def flip_out_edge_coins(frontier_sids, frontier_nodes):
            positions, owners, _ = expand_labeled_frontier(
                indptr, frontier_sids, frontier_nodes
            )
            if len(positions) == 0:
                return positions
            fired = rng.random(len(positions)) < probs[positions]
            return owners[fired] * n + targets[positions[fired]]

        return run_labeled_bfs(
            n, starts, starts_indptr, flip_out_edge_coins, scratch
        )

    def reverse_sample_batch(
        self,
        graph: DiGraph,
        roots: np.ndarray,
        roots_indptr: np.ndarray,
        rng: np.random.Generator,
        scratch: np.ndarray = None,
        kernel: str = "auto",
    ):
        """One multi-source labeled reverse BFS generating a whole batch.

        The shared :func:`~repro.diffusion.base.run_labeled_bfs`
        driver advances all samples in lockstep; this model's per-level
        rule flips the edge coins for every sample's frontier in a single
        vectorized draw.  Distributionally identical to ``batch``
        independent one-sample reverse BFS runs — each
        ``(sample, in-edge)`` coin is still flipped at most once, when its
        target is first expanded within that sample.  ``kernel`` selects
        the per-level backend (see :mod:`repro.kernels`); outputs are
        bit-identical across backends.
        """
        indptr, sources, probs = graph.in_csr
        n = graph.n

        backend = resolve_backend(kernel, graph)
        if backend.kernels is not None:
            return run_labeled_bfs(
                n,
                roots,
                roots_indptr,
                scratch=scratch,
                expand=ic_coin_expander(
                    backend, "ic_reverse", indptr, sources, probs, n, rng
                ),
            )

        def flip_in_edge_coins(frontier_sids, frontier_nodes):
            positions, owners, _ = expand_labeled_frontier(
                indptr, frontier_sids, frontier_nodes
            )
            if len(positions) == 0:
                return positions
            fired = rng.random(len(positions)) < probs[positions]
            return owners[fired] * n + sources[positions[fired]]

        return run_labeled_bfs(
            n, roots, roots_indptr, flip_in_edge_coins, scratch
        )
