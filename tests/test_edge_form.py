"""Edge-variable reference form: step formulas, antisymmetry, equivalence."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caden import edge_form, engine, graphs, verify
from caden.engine import CadenConfig
from caden.losses import LogisticLoss, LossStack, QuadraticLoss
from caden.solvers import solve_exact, solve_gd, solve_lbfgs
from caden.verify import EQUIVALENCE_TOL, verify_equivalence

from helpers import (
    Row,
    augmented_lagrangian_value,
    batch_of,
    dense_augmented_lagrangian,
    incident,
    random_psd,
)


def _k2_state(x_vals, z_vals, y_vals):
    topology = graphs.complete_graph(2)
    state = edge_form.EdgeState(
        x=np.asarray(x_vals, dtype=float).reshape(2, 1),
        z=np.asarray(z_vals, dtype=float).reshape(1, 1),
        y=np.asarray(y_vals, dtype=float).reshape(1, 2, 1),
    )
    return topology, state


class TestLocalObjective:
    def test_gradient_matches_agent_form_identity(self):
        # The subproblem built from the aggregated duals and the edge anchors
        # has the gradient of the explicit per-edge x-step objective, and its
        # value up to the constant -sum_k y_k,i . z_k.
        rng = np.random.default_rng(0)
        topology = graphs.build_random_graph(6, 0.5, seed=1)
        losses = [QuadraticLoss(q=rng.uniform(0.5, 2.0, 3), a=rng.standard_normal(3))
                  for _ in range(6)]
        x = rng.standard_normal((6, 3))
        state = edge_form.init_edge_state(topology, x)
        state.y = rng.standard_normal(state.y.shape)
        mu_z = 2.5
        phi = edge_form.dual_aggregates(state, topology)
        for i in range(6):
            edges = incident(topology, i)
            anchors = state.z[[k for k, _, _ in edges]]
            batch = batch_of([Row(losses[i], phi[i], anchors, mu_z)])
            point = rng.standard_normal(3)
            value = losses[i].value(point)
            gradient = losses[i].gradient(point)
            constant = 0.0
            for k, _, side in edges:
                diff = point - state.z[k]
                value += float(state.y[k, side] @ diff) + 0.5 * mu_z * float(diff @ diff)
                gradient = gradient + state.y[k, side] + mu_z * diff
                constant -= float(state.y[k, side] @ state.z[k])
            assert np.allclose(gradient, batch.gradients(point[None])[0], atol=1e-12)
            assert value == pytest.approx(batch.values(point[None])[0] + constant,
                                          rel=1e-12, abs=1e-12)

    def test_zero_losses_zero_duals_minimizer_is_anchor(self):
        topology, state = _k2_state([1.0, -1.0], [0.0], [0.0, 0.0])
        loss = QuadraticLoss(q=np.zeros(1), a=np.zeros(1))
        config = CadenConfig(mu_z=2.0, mu_y=2.0, tau=30)
        new_x = edge_form.edge_x_step(state, LossStack([loss, loss]), topology, config, 0)
        assert np.allclose(new_x, 0.0, atol=1e-10)


class TestZStep:
    def test_antisymmetric_duals_give_midpoints(self):
        topology, state = _k2_state([0.0, 2.0], [5.0], [0.7, -0.7])
        z = edge_form.edge_z_step(state, topology, mu_z=3.0)
        assert z[0, 0] == pytest.approx(1.0)

    def test_consensus_gives_common_value(self):
        topology, state = _k2_state([1.5, 1.5], [0.0], [0.0, 0.0])
        z = edge_form.edge_z_step(state, topology, mu_z=3.0)
        assert z[0, 0] == pytest.approx(1.5)

    def test_hand_value_with_symmetric_duals(self):
        mu_z = 4.0
        topology, state = _k2_state([0.0, 2.0], [0.0], [mu_z, mu_z])
        z = edge_form.edge_z_step(state, topology, mu_z=mu_z)
        assert z[0, 0] == pytest.approx(2.0)


class TestYStep:
    def test_consensus_leaves_duals_unchanged(self):
        topology, state = _k2_state([1.0, 1.0], [1.0], [0.3, -0.3])
        y = edge_form.edge_y_step(state, topology, mu_y=2.0)
        assert np.array_equal(y, state.y)

    def test_antisymmetry_preserved_at_midpoints(self):
        rng = np.random.default_rng(1)
        topology = graphs.build_random_graph(7, 0.4, seed=2)
        x = rng.standard_normal((7, 2))
        state = edge_form.init_edge_state(topology, x)
        for _ in range(5):
            state.z = edge_form.edge_z_step(state, topology, mu_z=3.0)
            state.y = edge_form.edge_y_step(state, topology, mu_y=2.0)
            assert edge_form.antisymmetry_gap(state) <= 1e-12

    def test_dual_aggregates_match_engine_duals(self):
        topology = graphs.build_random_graph(5, 0.6, seed=3)
        rng = np.random.default_rng(2)
        losses = LossStack([QuadraticLoss(q=np.ones(2), a=rng.standard_normal(2))
                            for _ in range(5)])
        x0 = rng.standard_normal((5, 2))
        config = CadenConfig(mu_z=3.0, mu_y=2.0, tau=4)
        x, phi, grad, value = engine.init_states(losses, topology, x0)
        edge_state = edge_form.init_edge_state(topology, x0)
        for t in range(20):
            engine.run_round(x, phi, grad, value, losses, topology, config, t)
            edge_state = edge_form.run_edge_round(edge_state, losses, topology, config, t)
            rebuilt = edge_form.dual_aggregates(edge_state, topology)
            assert np.abs(phi - rebuilt).max() <= 1e-10


class TestAugmentedObjective:
    def test_consensus_with_midpoints_reduces_to_loss_sum(self):
        topology = graphs.build_random_graph(6, 0.5, seed=4)
        rng = np.random.default_rng(3)
        losses = [QuadraticLoss(q=np.ones(2), a=rng.standard_normal(2)) for _ in range(6)]
        x = np.tile(rng.standard_normal(2), (6, 1))
        state = edge_form.init_edge_state(topology, x)
        value = augmented_lagrangian_value(state, losses, topology, mu_z=3.0)
        expected = sum(loss.value(x[i]) for i, loss in enumerate(losses))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_hand_value_cancels_to_zero(self):
        # f = 0, x = (0, 2), z = 1, duals (1, -1), mu_z = 2: the linear and
        # penalty terms cancel exactly.
        topology, state = _k2_state([0.0, 2.0], [1.0], [1.0, -1.0])
        zero = QuadraticLoss(q=np.zeros(1), a=np.zeros(1))
        value = augmented_lagrangian_value(state, [zero, zero], topology, mu_z=2.0)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            topology = graphs.build_random_graph(5, 0.6, seed=seed)
            losses = [QuadraticLoss(q=rng.uniform(0.5, 2.0, 3), a=rng.standard_normal(3))
                      for _ in range(5)]
            state = edge_form.EdgeState(
                x=rng.standard_normal((5, 3)),
                z=rng.standard_normal((topology.n, 3)),
                y=rng.standard_normal((topology.n, 2, 3)),
            )
            mu_z = 2.0
            value = augmented_lagrangian_value(state, losses, topology, mu_z)
            loss_sum = sum(loss.value(state.x[i]) for i, loss in enumerate(losses))
            oracle = dense_augmented_lagrangian(
                topology, state.x, state.z, state.y, mu_z, loss_sum
            )
            assert value == pytest.approx(oracle, rel=1e-10)


class TestAugmentedObjectiveTrend:
    def test_decreases_on_well_conditioned_convex_instance(self):
        # Diagnostic descent check; meaningful on convex instances only.
        rng = np.random.default_rng(5)
        topology = graphs.build_random_graph(5, 0.6, seed=5)
        losses = LossStack([QuadraticLoss(q=np.ones(2), a=rng.standard_normal(2))
                            for _ in range(5)])
        state = edge_form.init_edge_state(topology, rng.standard_normal((5, 2)))
        config = CadenConfig(mu_z=3.0, mu_y=2.0, tau=5)
        values = [augmented_lagrangian_value(state, losses, topology, mu_z=3.0)]
        for t in range(30):
            state = edge_form.run_edge_round(state, losses, topology, config, t)
            values.append(
                augmented_lagrangian_value(state, losses, topology, mu_z=3.0)
            )
        assert values[-1] < values[0]


class TestPairedEquivalence:
    def test_k2_first_round_matches_engine_closed_form(self):
        topology = graphs.complete_graph(2)
        losses = LossStack([QuadraticLoss(q=np.ones(1), a=np.array([0.0])),
                            QuadraticLoss(q=np.ones(1), a=np.array([2.0]))])
        state = edge_form.init_edge_state(topology, np.array([[0.0], [2.0]]))
        config = CadenConfig(mu_z=3.0, mu_y=3.0, solver="exact")
        new_x = edge_form.edge_x_step(state, losses, topology, config, 0)
        assert new_x[0, 0] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trajectories_match_over_fifty_rounds(self, seed):
        result = verify_equivalence(seed=seed)
        assert result.passed, result.details
        assert result.details["max_trajectory_gap"] <= 1e-10
        assert result.details["max_antisymmetry"] <= 1e-12

    def test_partial_participation_refused(self):
        topology, state = _k2_state([0.0, 2.0], [1.0], [0.0, 0.0])
        loss = QuadraticLoss(q=np.ones(1), a=np.zeros(1))
        config = CadenConfig(mu_z=3.0, mu_y=3.0, participation=0.5)
        with pytest.raises(ValueError, match="full participation"):
            edge_form.run_edge_round(state, [loss, loss], topology, config, 0)

    def test_dual_gap_fails_the_suite(self, monkeypatch):
        # The edge form runs unchanged, but the suite reads its duals back
        # shifted: the trajectories agree and the dual gap alone must fail it.
        def shifted(state, topology):
            return edge_form.dual_aggregates(state, topology) + 1e-6

        view = types.SimpleNamespace(**vars(edge_form))
        view.dual_aggregates = shifted
        monkeypatch.setattr(verify, "edge_form", view)
        result = verify_equivalence(seed=0, rounds=5)
        assert result.details["max_trajectory_gap"] <= EQUIVALENCE_TOL
        assert result.details["max_dual_gap"] > EQUIVALENCE_TOL
        assert not result.passed


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 9),
    d=st.integers(1, 5),
    edge_prob=st.floats(0.2, 1.0),
    tau=st.integers(1, 7),
    solver=st.sampled_from(["lbfgs", "gd", "exact"]),
    mu_z=st.floats(0.1, 5.0),
    mu_y_share=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**16),
)
def test_forms_agree_on_random_graphs_and_budgets(
    m, d, edge_prob, tau, solver, mu_z, mu_y_share, seed
):
    # mu_y <= mu_z: with mu_y far above mu_z the iteration diverges and the
    # absolute gaps grow with the iterates.
    topology = graphs.build_random_graph(m, edge_prob, seed=seed)
    rng = np.random.default_rng(seed)
    losses = LossStack([QuadraticLoss(q=random_psd(d, 10.0, rng), a=rng.standard_normal(d))
                        for _ in range(m)])
    x0 = rng.standard_normal((m, d))
    config = CadenConfig(mu_z=mu_z, mu_y=mu_y_share * mu_z, tau=tau, solver=solver)
    x, phi, grad, value = engine.init_states(losses, topology, x0)
    edge_state = edge_form.init_edge_state(topology, x0)
    for t in range(15):
        engine.run_round(x, phi, grad, value, losses, topology, config, t)
        edge_state = edge_form.run_edge_round(edge_state, losses, topology, config, t)
        assert np.abs(x - edge_state.x).max() <= 1e-10
        assert np.abs(phi - edge_form.dual_aggregates(edge_state, topology)).max() <= 1e-10
        assert edge_form.antisymmetry_gap(edge_state) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 9),
    d=st.integers(1, 5),
    edge_prob=st.floats(0.2, 1.0),
    tau=st.integers(0, 7),
    solver=st.sampled_from(["lbfgs", "gd", "exact"]),
    memory=st.integers(1, 10),
    logistic=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_x_step_equals_lone_solves_of_explicit_edge_subproblems(
    m, d, edge_prob, tau, solver, memory, logistic, seed
):
    # The x-step solves all agents in lockstep; each row must be the lone
    # solve of that agent's edge subproblem: its endpoint duals summed in
    # edge order, and one anchor z_k per incident edge.
    topology = graphs.build_random_graph(m, edge_prob, seed=seed)
    rng = np.random.default_rng(seed)
    if logistic and solver != "exact":
        losses = LossStack([LogisticLoss(rng.standard_normal((6, d)), rng.integers(0, 2, 6),
                                         classes=2) for _ in range(m)])
        d = losses.dim
    else:
        losses = LossStack([QuadraticLoss(q=random_psd(d, 10.0, rng), a=rng.standard_normal(d))
                            for _ in range(m)])
    state = edge_form.EdgeState(
        x=rng.standard_normal((m, d)),
        z=rng.standard_normal((topology.n, d)),
        y=rng.standard_normal((topology.n, 2, d)),
    )
    config = CadenConfig(mu_z=2.0, mu_y=1.0, tau=max(tau, 1), solver=solver,
                         lbfgs_memory=memory, lipschitz=1.0 if logistic else None)
    if tau:
        new_x = edge_form.edge_x_step(state, losses, topology, config, 0)
    else:
        # CadenConfig refuses a budget of 0; the solve takes it as an argument.
        phi = edge_form.dual_aggregates(state, topology)
        new_x = engine.solve_subproblems(
            np.arange(m), state.x, None, phi, state.z, losses, topology, config, 0
        ).x_out
    for i in range(m):
        edges = incident(topology, i)
        phi_i = np.zeros(d)
        for k, _, side in edges:
            phi_i += state.y[k, side]
        problem = Row(losses[i], phi_i, state.z[[k for k, _, _ in edges]], 2.0)
        if solver == "lbfgs":
            want = solve_lbfgs(batch_of([problem]), state.x[i][None], tau, memory,
                               lipschitz=config.lipschitz)
        elif solver == "gd":
            want = solve_gd(batch_of([problem]), state.x[i][None], tau,
                            lipschitz=config.lipschitz)
        else:
            want = solve_exact(batch_of([problem]))
        assert np.array_equal(new_x[i], want.x_out[0])
