"""Residual metrics: form equivalence, zero characterization, accuracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caden import engine, graphs, metrics
from caden.datasets import gaussian_blobs
from caden.engine import CadenConfig
from caden.losses import MlpLoss, QuadraticLoss

from helpers import lyapunov_v_midpoint_form


def _random_states(seed, m=8, d=3):
    rng = np.random.default_rng(seed)
    topology = graphs.build_random_graph(m, 0.4, seed=seed)
    losses = [QuadraticLoss(q=rng.uniform(0.5, 2.0, d), a=rng.standard_normal(d))
              for _ in range(m)]
    x, phi, grad = engine.init_states(losses, topology, rng.standard_normal((m, d)))
    for i in range(m):
        phi[i] = rng.standard_normal(d)
    return topology, losses, x, phi, grad


def _consensus_stationary(m=4, d=2):
    """All models equal with duals cancelling each local gradient."""
    topology = graphs.complete_graph(m)
    rng = np.random.default_rng(0)
    losses = [QuadraticLoss(q=np.ones(d), a=rng.standard_normal(d)) for _ in range(m)]
    x_star = np.mean([loss.a for loss in losses], axis=0)
    x, phi, grad = engine.init_states(losses, topology, np.tile(x_star, (m, 1)))
    for i in range(m):
        phi[i] = -losses[i].gradient(x_star)
    return topology, losses, x, phi, grad


def _gradients_at(x, losses):
    """The loss gradients at models ``x``, one agent at a time."""
    return np.array([loss.gradient(x_i) for x_i, loss in zip(x, losses)])


class TestResidualForms:
    @pytest.mark.parametrize("seed", range(50))
    def test_pair_and_midpoint_forms_agree(self, seed):
        topology, losses, x, phi, grad = _random_states(seed)
        a = metrics.lyapunov_v(x, phi, grad, topology)
        b = lyapunov_v_midpoint_form(x, phi, losses, topology)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_zero_exactly_at_consensus_stationary_state(self):
        topology, losses, x, phi, grad = _consensus_stationary()
        assert metrics.lyapunov_v(x, phi, grad, topology) == 0.0

    def test_positive_when_consensus_perturbed(self):
        topology, losses, x, phi, _ = _consensus_stationary()
        x[0] = x[0] + 1e-3
        assert metrics.lyapunov_v(x, phi, _gradients_at(x, losses), topology) > 0.0

    def test_positive_when_stationarity_perturbed(self):
        topology, losses, x, phi, grad = _consensus_stationary()
        phi += 1e-3  # breaks gradient cancellation, keeps consensus
        assert metrics.lyapunov_v(x, phi, grad, topology) > 0.0


class TestRelativeError:
    def test_zero_at_global_consensus_stationary_point(self):
        # Exactly representable optimum: targets -1 and 1 with mean 0.
        topology = graphs.complete_graph(2)
        losses = [QuadraticLoss(q=np.ones(1), a=np.array([-1.0])),
                  QuadraticLoss(q=np.ones(1), a=np.array([1.0]))]
        x, _, _ = engine.init_states(losses, topology, np.zeros((2, 1)))
        assert metrics.relative_error(x, losses) == 0.0

    def test_two_agent_hand_value(self):
        # Gradients vanish at the local targets; only the chain gap remains.
        topology = graphs.complete_graph(2)
        losses = [QuadraticLoss(q=np.ones(1), a=np.array([0.0])),
                  QuadraticLoss(q=np.ones(1), a=np.array([2.0]))]
        x, _, _ = engine.init_states(losses, topology, np.array([[0.0], [2.0]]))
        assert metrics.relative_error(x, losses) == pytest.approx(4.0)

    def test_zero_iff_chain_consensus_and_zero_gradient_sum(self):
        topology, losses, x, _, _ = _consensus_stationary()
        x[1] = x[1] + 1e-3
        assert metrics.relative_error(x, losses) > 0.0

    def test_graph_variant_counts_edges(self):
        topology = graphs.path_graph(3)
        losses = [QuadraticLoss(q=np.ones(1), a=np.zeros(1)) for _ in range(3)]
        x, _, _ = engine.init_states(losses, topology, np.array([[0.0], [1.0], [2.0]]))
        chain = metrics.relative_error(x, losses)
        graph = metrics.relative_error_graph(x, losses, topology)
        assert chain == pytest.approx(graph)  # path graph: same pair set
        ring = graphs.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert metrics.relative_error_graph(x, losses, ring) > graph


class TestAccuracy:
    def _mlp_models(self, params):
        x_data, y_data = gaussian_blobs(60, 5, 10, seed=0)
        topology = graphs.complete_graph(3)
        losses = [MlpLoss(x_data, y_data, hidden=6, classes=10) for _ in range(3)]
        x, _, _ = engine.init_states(losses, topology, np.tile(params(losses[0]), (3, 1)))
        return topology, losses, x

    def test_perfect_classifier_scores_one(self):
        x_eval, y_eval = gaussian_blobs(100, 5, 3, seed=1, spread=0.1)
        topology = graphs.complete_graph(2)
        losses = [MlpLoss(x_eval, y_eval, hidden=16, classes=3) for _ in range(2)]
        params = losses[0].init_params(0)
        from caden.solvers import LocalSubproblem, solve_lbfgs

        problem = LocalSubproblem(loss=losses[0], phi=np.zeros(losses[0].dim),
                                  anchors=np.zeros((0, losses[0].dim)), mu_z=0.0)
        params = solve_lbfgs(problem, params, 200).x_out[0]
        x, _, _ = engine.init_states(losses, topology, np.tile(params, (2, 1)))
        assert metrics.test_accuracy(x, losses, x_eval, y_eval) == 1.0

    def test_zero_weights_predict_one_class(self):
        x_eval, y_eval = gaussian_blobs(400, 5, 10, seed=2)
        topology, losses, x = self._mlp_models(lambda loss: np.zeros(loss.dim))
        acc = metrics.test_accuracy(x, losses, x_eval, y_eval)
        assert abs(acc - 0.1) <= 0.03

    def test_deterministic(self):
        x_eval, y_eval = gaussian_blobs(50, 5, 10, seed=3)
        topology, losses, x = self._mlp_models(lambda loss: loss.init_params(4))
        a = metrics.test_accuracy(x, losses, x_eval, y_eval)
        b = metrics.test_accuracy(x, losses, x_eval, y_eval)
        assert a == b

    def test_omitted_for_non_classification(self):
        topology, losses, x, _, _ = _consensus_stationary()
        assert metrics.test_accuracy(x, losses, np.zeros((2, 2)), np.zeros(2)) is None


class TestPhiDrift:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 9),
        d=st.integers(1, 5),
        edge_prob=st.floats(0.2, 1.0),
        solver=st.sampled_from(["lbfgs", "gd", "exact"]),
        mu_z=st.floats(0.1, 5.0),
        mu_y_share=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_zero_under_full_participation(
        self, m, d, edge_prob, solver, mu_z, mu_y_share, seed
    ):
        # Each edge adds opposite terms to its endpoints' duals, so their sum
        # stays at zero from zero duals.  mu_y <= mu_z keeps the iterates, and
        # with them the rounding of that sum, bounded.
        topology = graphs.build_random_graph(m, edge_prob, seed=seed)
        rng = np.random.default_rng(seed)
        losses = [QuadraticLoss(q=rng.uniform(0.5, 2.0, d), a=rng.standard_normal(d))
                  for _ in range(m)]
        x, phi, grad = engine.init_states(losses, topology, rng.standard_normal((m, d)))
        config = CadenConfig(mu_z=mu_z, mu_y=mu_y_share * mu_z, solver=solver)
        for t in range(10):
            engine.run_round(x, phi, grad, losses, topology, config, t)
        assert metrics.phi_drift(phi) <= 1e-10

    def test_nonzero_reported_under_partial_participation(self):
        topology, losses, x, phi, grad = _random_states(1)
        phi[:] = 0.0
        config = CadenConfig(mu_z=2.0, mu_y=2.0, participation=0.5, seed=7)
        drifts = []
        for t in range(20):
            engine.run_round(x, phi, grad, losses, topology, config, t)
            drifts.append(metrics.phi_drift(phi))
        assert max(drifts) > 0.0
