"""Gradient-tracking baseline: mixing weights and tracking identity."""

import numpy as np
import pytest

from caden import baselines, graphs
from caden.losses import QuadraticLoss

from helpers import neighbors, tracking_gap


class TestMetropolisWeights:
    def test_two_agents(self):
        w = baselines.metropolis_weights(graphs.complete_graph(2))
        assert np.allclose(w, [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_sum_to_one_and_symmetric(self, seed):
        t = graphs.build_random_graph(9, 0.4, seed=seed)
        w = baselines.metropolis_weights(t)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(w, w.T)

    def test_sparsity_respects_topology(self):
        t = graphs.build_random_graph(8, 0.3, seed=5)
        w = baselines.metropolis_weights(t)
        for i in range(t.m):
            for j in range(t.m):
                if i != j and j not in neighbors(t, i):
                    assert w[i, j] == 0.0

    def test_spectral_contraction_of_disagreement(self):
        for seed in range(3):
            t = graphs.build_random_graph(10, 0.4, seed=seed)
            w = baselines.metropolis_weights(t)
            avg = np.full((t.m, t.m), 1.0 / t.m)
            assert np.linalg.norm(w - avg, ord=2) < 1.0

    def test_consensus_preserved(self):
        t = graphs.build_random_graph(7, 0.5, seed=6)
        w = baselines.metropolis_weights(t)
        x = np.tile(np.array([2.0, -1.0]), (7, 1))
        assert np.allclose(w @ x, x, atol=1e-14)


class TestGtRounds:
    def _problem(self, m=6, seed=0):
        t = graphs.build_random_graph(m, 0.5, seed=seed)
        rng = np.random.default_rng(seed)
        losses = [QuadraticLoss(q=np.ones(2), a=rng.standard_normal(2)) for _ in range(m)]
        return t, losses

    def test_stationary_consensus_is_fixed_point(self):
        t, losses = self._problem()
        x_star = np.mean([loss.a for loss in losses], axis=0)
        x0 = np.tile(x_star, (t.m, 1))
        w = baselines.metropolis_weights(t)
        state = baselines.gt_init(losses, x0, w, step=0.1)
        new = baselines.gt_round(state, losses)
        # g starts at the per-agent gradients which average to zero; the
        # mixing step spreads them but the model stays near consensus.
        assert np.allclose(new.x.mean(axis=0), x_star, atol=1e-12)

    def test_tracking_identity_every_round(self):
        t, losses = self._problem(seed=1)
        rng = np.random.default_rng(1)
        w = baselines.metropolis_weights(t)
        state = baselines.gt_init(losses, rng.standard_normal((t.m, 2)), w, step=0.1)
        for _ in range(40):
            state = baselines.gt_round(state, losses)
            assert tracking_gap(state, losses) <= 1e-10

    def test_k2_converges_to_global_optimum(self):
        t = graphs.complete_graph(2)
        losses = [QuadraticLoss(q=np.ones(1), a=np.array([0.0])),
                  QuadraticLoss(q=np.ones(1), a=np.array([2.0]))]
        w = baselines.metropolis_weights(t)
        state = baselines.gt_init(losses, np.array([[0.0], [2.0]]), w, step=0.2)
        for _ in range(200):
            state = baselines.gt_round(state, losses)
        assert np.abs(state.x - 1.0).max() <= 1e-6
