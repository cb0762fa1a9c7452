"""Round engine: state initialization, participation, updates, checkpoints."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caden import engine, graphs
from caden.engine import CadenConfig, TauSchedule
from caden.losses import QuadraticLoss


def _k2_quadratics():
    return [
        QuadraticLoss(q=np.ones(1), a=np.array([0.0])),
        QuadraticLoss(q=np.ones(1), a=np.array([2.0])),
    ]


def _k2_setup(mu_z=3.0, mu_y=3.0, solver="exact", **kwargs):
    topology = graphs.complete_graph(2)
    losses = _k2_quadratics()
    config = CadenConfig(mu_z=mu_z, mu_y=mu_y, solver=solver, **kwargs)
    x, phi = engine.init_states(losses, topology, np.array([[0.0], [2.0]]))
    return topology, losses, config, x, phi


class TestInitStates:
    def test_duals_start_at_zero(self):
        topology = graphs.build_random_graph(6, 0.5, seed=0)
        losses = [QuadraticLoss(q=np.ones(3), a=np.zeros(3)) for _ in range(6)]
        _, phi = engine.init_states(losses, topology, np.zeros((6, 3)))
        total = phi.sum()
        assert total == 0.0

    def test_dimension_mismatch(self):
        topology = graphs.complete_graph(2)
        with pytest.raises(ValueError):
            engine.init_states(_k2_quadratics(), topology, np.zeros((3, 1)))


class TestParticipation:
    def test_full_participation_all_active(self):
        config = CadenConfig(mu_z=1.0, mu_y=1.0, participation=1.0)
        flags = engine.sample_participation(config, 0, 10)
        assert flags.all()

    def test_deterministic_per_seed_round(self):
        config = CadenConfig(mu_z=1.0, mu_y=1.0, participation=0.4, seed=5)
        a = engine.sample_participation(config, 3, 12)
        b = engine.sample_participation(config, 3, 12)
        assert np.array_equal(a, b)
        c = engine.sample_participation(config, 4, 12)
        assert not np.array_equal(a, c)  # astronomically unlikely to match

    def test_empirical_rate(self):
        config = CadenConfig(mu_z=1.0, mu_y=1.0, participation=0.5, seed=0)
        hits = sum(
            engine.sample_participation(config, t, 10).sum() for t in range(10_000)
        )
        rate = hits / 100_000
        assert abs(rate - 0.5) < 0.02

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            CadenConfig(mu_z=1.0, mu_y=1.0, participation=0.0)


class TestPrimalUpdate:
    def test_k2_closed_form(self):
        # argmin of x^2/2 + (3/2)(x - 1)^2 is 3/4.
        topology, losses, config, x, phi = _k2_setup()
        x_new = engine.primal_update(0, x, phi, losses, topology, config, 0)
        assert x_new[0] == pytest.approx(0.75, abs=1e-12)

    def test_consensus_stationary_point_is_fixed(self):
        topology = graphs.build_random_graph(5, 0.6, seed=2)
        losses = [QuadraticLoss(q=np.ones(2), a=np.full(2, float(i))) for i in range(5)]
        x_star = np.full(2, 2.0)  # mean of the targets 0..4
        x, phi = engine.init_states(losses, topology, np.tile(x_star, (5, 1)))
        config = CadenConfig(mu_z=3.0, mu_y=3.0, solver="exact")
        for i in range(5):
            phi[i] = -losses[i].gradient(x_star)
        for i in range(5):
            x_new = engine.primal_update(i, x, phi, losses, topology, config, 0)
            assert np.allclose(x_new, x_star, atol=1e-12)

    def test_updates_commute(self):
        # Each solve reads only round-start snapshots, so evaluation order
        # cannot change the results.
        topology = graphs.build_random_graph(6, 0.5, seed=3)
        rng = np.random.default_rng(0)
        losses = [QuadraticLoss(q=np.ones(3), a=rng.standard_normal(3)) for _ in range(6)]
        x, phi = engine.init_states(losses, topology, rng.standard_normal((6, 3)))
        config = CadenConfig(mu_z=2.0, mu_y=2.0, solver="lbfgs")
        forward = [engine.primal_update(i, x, phi, losses, topology, config, 0)
                   for i in range(6)]
        backward = [engine.primal_update(i, x, phi, losses, topology, config, 0)
                    for i in reversed(range(6))]
        for i in range(6):
            assert np.array_equal(forward[i], backward[5 - i])


class TestSubproblemBuilder:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 12),
        edge_prob=st.floats(0.2, 1.0),
        seed=st.integers(0, 10_000),
        d=st.integers(1, 5),
        log_scale=st.floats(-5.0, 4.0),
        data=st.data(),
    )
    def test_agent_form_anchors_are_neighbor_midpoints(
        self, m, edge_prob, seed, d, log_scale, data
    ):
        # At z = edge midpoints, every built subproblem has one anchor
        # 0.5 (x_i + x_j) per neighbor j in ascending order, bit for bit.
        topology = graphs.build_random_graph(m, edge_prob, seed)
        rng = np.random.default_rng(seed)
        x = 10.0**log_scale * rng.standard_normal((m, d))
        phi = rng.standard_normal((m, d))
        losses = [QuadraticLoss(q=np.ones(d), a=np.zeros(d)) for _ in range(m)]
        agents = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
        z = graphs.edge_midpoints(topology, x)
        batch = engine.subproblems(agents, phi, z, losses, topology, mu_z=2.0)
        assert len(batch.problems) == len(agents)
        for i, problem in zip(agents, batch.problems):
            neighbors = sorted(b if a == i else a for a, b in topology.edges if i in (a, b))
            want = np.array([0.5 * (x[i] + x[j]) for j in neighbors])
            assert np.array_equal(problem.anchors, want)
            assert np.array_equal(problem.anchor_sum, want.sum(axis=0))
            assert np.array_equal(problem.phi, phi[i])
            assert problem.loss is losses[i]
            assert problem.mu_z == 2.0


class TestBroadcastAndDual:
    def test_inactive_broadcast_is_noop(self):
        _, _, _, x, _ = _k2_setup()
        before = x.copy()
        assert engine.broadcast(x, [], []) == 0
        assert np.array_equal(x, before)

    def test_one_unit_per_broadcast_regardless_of_degree(self):
        topology = graphs.complete_graph(4)  # every agent has 3 neighbors
        losses = [QuadraticLoss(q=np.ones(1), a=np.zeros(1)) for _ in range(4)]
        x, _ = engine.init_states(losses, topology, np.zeros((4, 1)))
        assert engine.broadcast(x, [0], [np.array([0.75])]) == 1
        assert x[0, 0] == 0.75

    def test_k2_dual_update_hand_values(self):
        topology, losses, _, x, phi = _k2_setup()
        config = CadenConfig(mu_z=3.0, mu_y=2.0)
        engine.broadcast(x, [0, 1], [np.array([1.0]), np.array([0.0])])
        phi0 = engine.dual_update(0, x, phi, topology, config)
        phi1 = engine.dual_update(1, x, phi, topology, config)
        assert phi0[0] == pytest.approx(1.0)
        assert phi1[0] == pytest.approx(-1.0)
        assert phi0[0] + phi1[0] == pytest.approx(0.0, abs=1e-15)

    def test_consensus_leaves_duals_unchanged(self):
        topology, losses, config, x, phi = _k2_setup()
        engine.broadcast(x, [0, 1], [np.array([1.0]), np.array([1.0])])
        assert engine.dual_update(0, x, phi, topology, config)[0] == 0.0


class TestRunRound:
    def test_dual_sum_stays_zero_under_full_participation(self):
        topology = graphs.build_random_graph(7, 0.4, seed=4)
        rng = np.random.default_rng(1)
        losses = [QuadraticLoss(q=np.ones(2), a=rng.standard_normal(2)) for _ in range(7)]
        x, phi = engine.init_states(losses, topology, rng.standard_normal((7, 2)))
        config = CadenConfig(mu_z=3.0, mu_y=2.0, tau_schedule=TauSchedule(base=5))
        rounds = 50
        for t in range(rounds):
            engine.run_round(x, phi, losses, topology, config, t)
            drift = np.abs(phi.sum(axis=0)).max()
            assert drift <= 1e-9 * config.mu_y * (t + 1)

    def test_inactive_agents_frozen_bitwise(self):
        topology = graphs.build_random_graph(8, 0.5, seed=5)
        rng = np.random.default_rng(2)
        losses = [QuadraticLoss(q=np.ones(2), a=rng.standard_normal(2)) for _ in range(8)]
        x, phi = engine.init_states(losses, topology, rng.standard_normal((8, 2)))
        config = CadenConfig(mu_z=3.0, mu_y=3.0, participation=0.5, seed=3)
        for t in range(10):
            x_before, phi_before = x.copy(), phi.copy()
            summary = engine.run_round(x, phi, losses, topology, config, t)
            for i in range(8):
                if not summary.active[i]:
                    assert np.array_equal(x[i], x_before[i])
                    assert np.array_equal(phi[i], phi_before[i])

    def test_all_inactive_round_changes_nothing(self):
        topology, losses, _, x, phi = _k2_setup()
        config = CadenConfig(mu_z=3.0, mu_y=3.0, participation=1e-9, seed=0)
        x_before = x.copy()
        summary = engine.run_round(x, phi, losses, topology, config, 0)
        assert summary.broadcasts == 0
        for i in (0, 1):
            assert np.array_equal(x[i], x_before[i])

    def test_full_participation_communication_count(self):
        topology = graphs.build_random_graph(6, 0.5, seed=6)
        losses = [QuadraticLoss(q=np.ones(1), a=np.zeros(1)) for _ in range(6)]
        x, phi = engine.init_states(losses, topology, np.zeros((6, 1)))
        config = CadenConfig(mu_z=1.0, mu_y=1.0)
        total = sum(
            engine.run_round(x, phi, losses, topology, config, t).broadcasts
            for t in range(9)
        )
        assert total == 6 * 9

    def test_k2_converges_to_global_optimum(self):
        topology, losses, config, x, phi = _k2_setup(solver="lbfgs",
                                                     tau_schedule=TauSchedule(base=5))
        for t in range(300):
            engine.run_round(x, phi, losses, topology, config, t)
        assert abs(x[0, 0] - 1.0) <= 1e-6
        assert abs(x[1, 0] - 1.0) <= 1e-6


class TestTauSchedule:
    def test_reduction_schedule(self):
        sched = TauSchedule(base=5, reduce_round=100, reduced=1)
        assert sched.tau(0) == 5
        assert sched.tau(99) == 5
        assert sched.tau(100) == 1

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            TauSchedule(base=0)
        with pytest.raises(ValueError, match="at least 1"):
            TauSchedule(base=5, reduce_round=10, reduced=0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        topology = graphs.build_random_graph(5, 0.6, seed=7)
        rng = np.random.default_rng(3)
        losses = [QuadraticLoss(q=np.ones(3), a=rng.standard_normal(3)) for _ in range(5)]
        x, phi = engine.init_states(losses, topology, rng.standard_normal((5, 3)))
        config = CadenConfig(mu_z=2.0, mu_y=2.0)
        for t in range(4):
            engine.run_round(x, phi, losses, topology, config, t)
        path = str(tmp_path / "state.bin")
        engine.save_checkpoint(path, x, phi, round_index=4)
        x_loaded, phi_loaded, round_index = engine.load_checkpoint(path)
        assert round_index == 4
        for i in range(5):
            assert np.array_equal(x_loaded[i], x[i])
            assert np.array_equal(phi_loaded[i], phi[i])

    def test_header_layout(self, tmp_path):
        # Little-endian u64 header (m, d, round), then float64 payload.
        topology, losses, _, x, phi = _k2_setup()
        path = str(tmp_path / "s.bin")
        engine.save_checkpoint(path, x, phi, round_index=7)
        raw = open(path, "rb").read()
        assert struct.unpack("<QQQ", raw[:24]) == (2, 1, 7)
        assert len(raw) == 24 + 2 * 2 * 1 * 8
