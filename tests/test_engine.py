"""Round engine: state initialization, participation, updates, checkpoints."""

import hashlib
import os
import pickle
import re
import struct
import tempfile
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caden import engine, graphs
from caden.datasets import gaussian_blobs
from caden.engine import CadenConfig
from caden.errors import CheckpointError, ConfigError
from caden.losses import LogisticLoss, LossStack, MlpLoss, QuadraticLoss

from helpers import AntiGradient, Row, batch_of


def _k2_quadratics():
    return LossStack([
        QuadraticLoss(q=np.ones(1), a=np.array([0.0])),
        QuadraticLoss(q=np.ones(1), a=np.array([2.0])),
    ])


def _k2_setup(mu_z=3.0, mu_y=3.0, solver="exact", **kwargs):
    topology = graphs.complete_graph(2)
    losses = _k2_quadratics()
    config = CadenConfig(mu_z=mu_z, mu_y=mu_y, solver=solver, **kwargs)
    x, phi, grad, value = engine.init_states(losses, topology, np.array([[0.0], [2.0]]))
    return topology, losses, config, x, phi, grad, value


class TestInitStates:
    def test_duals_start_at_zero(self):
        topology = graphs.build_random_graph(6, 0.5, seed=0)
        losses = LossStack([QuadraticLoss(q=np.ones(3), a=np.zeros(3)) for _ in range(6)])
        _, phi, _, _ = engine.init_states(losses, topology, np.zeros((6, 3)))
        total = phi.sum()
        assert total == 0.0

    def test_dimension_mismatch(self):
        # Models must be (m, d) for the topology's m and the stack's dim.
        topology = graphs.complete_graph(2)
        for shape in ((3, 1), (2, 2)):
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}, expected (2, 1)")):
                engine.init_states(_k2_quadratics(), topology, np.zeros(shape))


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

    def test_first_flags_do_not_depend_on_m(self):
        # Agent i's flag is the i-th draw of its round's stream, whatever m is.
        config = CadenConfig(mu_z=1.0, mu_y=1.0, participation=0.5, seed=3)
        for t in range(20):
            wide = engine.sample_participation(config, t, 200)
            for m in (1, 5, 37):
                assert np.array_equal(engine.sample_participation(config, t, m), wide[:m])

    def test_empirical_rate(self):
        config = CadenConfig(mu_z=1.0, mu_y=1.0, participation=0.5, seed=0)
        hits = sum(
            engine.sample_participation(config, t, 10).sum() for t in range(10_000)
        )
        rate = hits / 100_000
        assert abs(rate - 0.5) < 0.02

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigError, match="^caden.participation must"):
            CadenConfig(mu_z=1.0, mu_y=1.0, participation=0.0)


class TestPrimalUpdate:
    def test_k2_closed_form(self):
        # argmin of x^2/2 + (3/2)(x - 1)^2 is 3/4.
        topology, losses, config, x, phi, _, _ = _k2_setup()
        x_new = engine.primal_update(0, x, phi, losses, topology, config, 0)
        assert x_new[0] == pytest.approx(0.75, abs=1e-12)

    def test_consensus_stationary_point_is_fixed(self):
        topology = graphs.build_random_graph(5, 0.6, seed=2)
        losses = LossStack([QuadraticLoss(q=np.ones(2), a=np.full(2, float(i))) for i in range(5)])
        x_star = np.full(2, 2.0)  # mean of the targets 0..4
        x, phi, _, _ = engine.init_states(losses, topology, np.tile(x_star, (5, 1)))
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
        losses = LossStack([QuadraticLoss(q=np.ones(3), a=rng.standard_normal(3))
                            for _ in range(6)])
        x, phi, _, _ = engine.init_states(losses, topology, rng.standard_normal((6, 3)))
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
        # At z = edge midpoints, every row of the built batch is the
        # subproblem with one anchor 0.5 (x_i + x_j) per neighbor j in
        # ascending order: its value and gradient bit for bit.
        topology = graphs.build_random_graph(m, edge_prob, seed)
        rng = np.random.default_rng(seed)
        x = 10.0**log_scale * rng.standard_normal((m, d))
        phi = rng.standard_normal((m, d))
        losses = LossStack([QuadraticLoss(q=rng.uniform(0.5, 2.0, d), a=rng.standard_normal(d))
                            for _ in range(m)])
        agents = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
        z = graphs.edge_midpoints(topology, x)
        batch = engine.subproblems(agents, phi, z, losses, topology, mu_z=2.0)
        assert len(batch.phi) == len(agents)
        for n, i in enumerate(agents):
            neighbors = sorted(b if a == i else a for a, b in topology.edges if i in (a, b))
            want = np.array([0.5 * (x[i] + x[j]) for j in neighbors])
            lone = batch_of([Row(losses[i], phi[i], want, 2.0)])
            assert batch.loss(n) is losses[i]
            assert batch.degree[n] == len(neighbors)
            row = batch.take([n])
            for point in (x[i], x[i] + 10.0**log_scale * rng.standard_normal(d)):
                assert row.values(point[None])[0] == lone.values(point[None])[0]
                assert np.array_equal(row.gradients(point[None])[0],
                                      lone.gradients(point[None])[0])


class TestBroadcastAndDual:
    def test_inactive_broadcast_is_noop(self):
        _, _, _, x, _, _, _ = _k2_setup()
        before = x.copy()
        assert engine.broadcast(x, [], []) == 0
        assert np.array_equal(x, before)

    def test_one_unit_per_broadcast_regardless_of_degree(self):
        topology = graphs.complete_graph(4)  # every agent has 3 neighbors
        losses = LossStack([QuadraticLoss(q=np.ones(1), a=np.zeros(1)) for _ in range(4)])
        x, _, _, _ = engine.init_states(losses, topology, np.zeros((4, 1)))
        assert engine.broadcast(x, [0], [np.array([0.75])]) == 1
        assert x[0, 0] == 0.75

    def test_k2_dual_update_hand_values(self):
        topology, losses, _, x, phi, _, _ = _k2_setup()
        config = CadenConfig(mu_z=3.0, mu_y=2.0)
        engine.broadcast(x, [0, 1], [np.array([1.0]), np.array([0.0])])
        phi0 = engine.dual_update(0, x, phi, topology, config)
        phi1 = engine.dual_update(1, x, phi, topology, config)
        assert phi0[0] == pytest.approx(1.0)
        assert phi1[0] == pytest.approx(-1.0)
        assert phi0[0] + phi1[0] == pytest.approx(0.0, abs=1e-15)

    def test_consensus_leaves_duals_unchanged(self):
        topology, losses, config, x, phi, _, _ = _k2_setup()
        engine.broadcast(x, [0, 1], [np.array([1.0]), np.array([1.0])])
        assert engine.dual_update(0, x, phi, topology, config)[0] == 0.0


class TestRunRound:
    def test_dual_sum_stays_zero_under_full_participation(self):
        topology = graphs.build_random_graph(7, 0.4, seed=4)
        rng = np.random.default_rng(1)
        losses = LossStack([QuadraticLoss(q=np.ones(2), a=rng.standard_normal(2))
                            for _ in range(7)])
        x, phi, grad, value = engine.init_states(losses, topology, rng.standard_normal((7, 2)))
        config = CadenConfig(mu_z=3.0, mu_y=2.0, tau=5)
        rounds = 50
        for t in range(rounds):
            engine.run_round(x, phi, grad, value, losses, topology, config, t)
            drift = np.abs(phi.sum(axis=0)).max()
            assert drift <= 1e-9 * config.mu_y * (t + 1)

    def test_inactive_agents_frozen_bitwise(self):
        topology = graphs.build_random_graph(8, 0.5, seed=5)
        rng = np.random.default_rng(2)
        losses = LossStack([QuadraticLoss(q=np.ones(2), a=rng.standard_normal(2))
                            for _ in range(8)])
        x, phi, grad, value = engine.init_states(losses, topology, rng.standard_normal((8, 2)))
        config = CadenConfig(mu_z=3.0, mu_y=3.0, participation=0.5, seed=3)
        for t in range(10):
            x_before, phi_before = x.copy(), phi.copy()
            summary = engine.run_round(x, phi, grad, value, losses, topology, config, t)
            for i in range(8):
                if not summary.active[i]:
                    assert np.array_equal(x[i], x_before[i])
                    assert np.array_equal(phi[i], phi_before[i])

    @pytest.mark.parametrize("solver", ["lbfgs", "gd", "exact"])
    def test_all_inactive_round_changes_nothing(self, solver):
        # Every solver takes an empty solve: no rows in, none written.
        topology, losses, _, x, phi, grad, value = _k2_setup()
        config = CadenConfig(mu_z=3.0, mu_y=3.0, participation=1e-9, seed=0, solver=solver)
        phi[:] = [[0.5], [-0.5]]
        x_before, phi_before, grad_before = x.copy(), phi.copy(), grad.copy()
        summary = engine.run_round(x, phi, grad, value, losses, topology, config, 0)
        assert summary.broadcasts == 0
        assert not summary.active.any()
        for i in (0, 1):
            assert np.array_equal(x[i], x_before[i])
        assert np.array_equal(phi, phi_before)
        assert np.array_equal(grad, grad_before)

    def test_partial_participation_keeps_nothing_on_the_stack(self):
        # Every round solves another subset of agents, so its row plans
        # are resolved that round; none may be kept on the stack, which must
        # pickle to the same bytes after 5 rounds and after 60.
        topology = graphs.build_random_graph(20, 0.3, seed=7)
        rng = np.random.default_rng(7)
        losses = LossStack([QuadraticLoss(q=rng.uniform(0.5, 2.0, 3), a=rng.standard_normal(3))
                            for _ in range(20)])
        x, phi, grad, value = engine.init_states(losses, topology, rng.standard_normal((20, 3)))
        config = CadenConfig(mu_z=3.0, mu_y=3.0, participation=0.5, seed=7)
        for t in range(5):
            engine.run_round(x, phi, grad, value, losses, topology, config, t)
        snapshot = pickle.dumps(losses)
        for t in range(5, 60):
            engine.run_round(x, phi, grad, value, losses, topology, config, t)
        assert pickle.dumps(losses) == snapshot

    def test_full_participation_communication_count(self):
        topology = graphs.build_random_graph(6, 0.5, seed=6)
        losses = LossStack([QuadraticLoss(q=np.ones(1), a=np.zeros(1)) for _ in range(6)])
        x, phi, grad, value = engine.init_states(losses, topology, np.zeros((6, 1)))
        config = CadenConfig(mu_z=1.0, mu_y=1.0)
        total = sum(
            engine.run_round(x, phi, grad, value, losses, topology, config, t).broadcasts
            for t in range(9)
        )
        assert total == 6 * 9

    def test_k2_converges_to_global_optimum(self):
        topology, losses, config, x, phi, grad, value = _k2_setup(solver="lbfgs", tau=5)
        for t in range(300):
            engine.run_round(x, phi, grad, value, losses, topology, config, t)
        assert abs(x[0, 0] - 1.0) <= 1e-6
        assert abs(x[1, 0] - 1.0) <= 1e-6


def _carried_gradient_run(draw, rng):
    """Random graph, losses, start models and engine config for the
    carried-gradient property."""
    m = draw(st.integers(2, 7))
    topology = graphs.build_random_graph(m, draw(st.floats(0.3, 1.0)), seed=int(rng.integers(1000)))
    solver = draw(st.sampled_from(["lbfgs", "gd", "exact"]))
    # At rest every model and quadratic target is 0: each local gradient is
    # exactly 0 and the solvers return without a step.
    at_rest = draw(st.integers(0, 3)) == 0
    family = "quadratic" if at_rest or solver == "exact" else draw(
        st.sampled_from(["quadratic", "logistic", "mlp", "mixed"])
    )
    features, labels = gaussian_blobs(8 * m, 2, 2, seed=int(rng.integers(1000)))
    # MLP: 2 features, 1 hidden unit, 2 classes; logistic: 2 features and a bias.
    d = 7 if family == "mlp" else 6
    losses = []
    for i in range(m):
        kind = family
        if family == "mixed":
            kind = draw(st.sampled_from(["quadratic", "logistic", "failing"]))
        rows = slice(8 * i, 8 * i + 8)
        if kind == "quadratic":
            target = np.zeros(d) if at_rest else rng.standard_normal(d)
            losses.append(QuadraticLoss(q=rng.uniform(0.5, 2.0, d), a=target))
        elif kind == "logistic":
            losses.append(LogisticLoss(np.c_[features[rows], np.ones(8)], labels[rows], 2, 1e-3))
        elif kind == "mlp":
            losses.append(MlpLoss(features[rows], labels[rows], hidden=1, classes=2, l2=1e-3))
        else:
            losses.append(AntiGradient(d))
    x0 = np.zeros((m, d)) if at_rest else rng.standard_normal((m, d))
    config = CadenConfig(
        mu_z=float(rng.uniform(0.5, 3.0)),
        mu_y=float(rng.uniform(0.1, 2.0)),
        tau=draw(st.integers(1, 6)),
        participation=draw(st.floats(0.05, 1.0)),
        solver=solver,
        seed=int(rng.integers(1000)),
        gd_step=0.05,
    )
    return topology, LossStack(losses), x0, config


class TestCarriedGradient:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rounds=st.integers(1, 6), resume_at=st.integers(0, 6))
    def test_equals_a_fresh_evaluation_after_every_round(self, data, rounds, resume_at):
        # The rows run_round writes come from each solve's own loss
        # evaluations; they must be the gradients and the loss values at the
        # current models bit for bit, for every solver, for active and
        # inactive agents, and after a resume, which refills them from the
        # checkpointed models.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        topology, losses, x0, config = _carried_gradient_run(data.draw, rng)
        everyone = np.arange(topology.m)
        x, phi, grad, value = engine.init_states(losses, topology, x0)
        assert np.array_equal(grad, losses.gradients(x, everyone))
        assert np.array_equal(value, losses.values(x, everyone), equal_nan=True)
        for t in range(rounds):
            if t == resume_at:
                with tempfile.TemporaryDirectory() as tmp:
                    path = os.path.join(tmp, "state.bin")
                    engine.save_checkpoint(path, x, phi, t)
                    x_saved, phi_saved, _ = engine.load_checkpoint(path)
                x, phi, grad, value = engine.init_states(losses, topology, x_saved)
                phi[:] = phi_saved
            engine.run_round(x, phi, grad, value, losses, topology, config, t)
            assert np.array_equal(grad, losses.gradients(x, everyone))
            assert np.array_equal(value, losses.values(x, everyone), equal_nan=True)


class TestTauSchedule:
    # The per-round budget is CadenConfig.tau_at.
    def test_reduction_schedule(self):
        config = CadenConfig(mu_z=1.0, mu_y=1.0, tau=5, tau_reduce_round=100, tau_reduced=1)
        assert config.tau_at(0) == 5
        assert config.tau_at(99) == 5
        assert config.tau_at(100) == 1

    def test_reduce_round_minus_one_never_reduces(self):
        config = CadenConfig(mu_z=1.0, mu_y=1.0, tau=5, tau_reduce_round=-1, tau_reduced=1)
        assert config.tau_at(0) == 5
        assert config.tau_at(10**6) == 5

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigError, match="^caden.tau must be at least 1"):
            CadenConfig(mu_z=1.0, mu_y=1.0, tau=0)
        with pytest.raises(ConfigError, match="^caden.tau_reduced must be at least 1"):
            CadenConfig(mu_z=1.0, mu_y=1.0, tau=5, tau_reduce_round=10, tau_reduced=0)

    def test_fields_cannot_be_assigned(self):
        # The checks run at construction, so a checked record stays checked.
        config = CadenConfig(mu_z=1.0, mu_y=1.0, tau=5)
        with pytest.raises(FrozenInstanceError):
            config.tau = 0
        assert config.tau == 5


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        topology = graphs.build_random_graph(5, 0.6, seed=7)
        rng = np.random.default_rng(3)
        losses = LossStack([QuadraticLoss(q=np.ones(3), a=rng.standard_normal(3))
                            for _ in range(5)])
        x, phi, grad, value = engine.init_states(losses, topology, rng.standard_normal((5, 3)))
        config = CadenConfig(mu_z=2.0, mu_y=2.0)
        for t in range(4):
            engine.run_round(x, phi, grad, value, losses, topology, config, t)
        path = str(tmp_path / "state.bin")
        engine.save_checkpoint(path, x, phi, round_index=4)
        x_loaded, phi_loaded, round_index = engine.load_checkpoint(path)
        assert round_index == 4
        for i in range(5):
            assert np.array_equal(x_loaded[i], x[i])
            assert np.array_equal(phi_loaded[i], phi[i])

    def test_header_layout(self, tmp_path):
        # An 8-byte magic, then little-endian u64 (version, m, d, round), the
        # SHA-256 digest of the problem record and its u64 length, the
        # record's "key = value" lines, then the float64 payload.
        topology, losses, _, x, phi, _, _ = _k2_setup()
        path = str(tmp_path / "s.bin")
        engine.save_checkpoint(path, x, phi, round_index=7, problem={"seed": "3", "m": "2"})
        raw = Path(path).read_bytes()
        record = b"seed = 3\nm = 2\n"
        assert raw[:8] == b"CADENCKP"
        assert struct.unpack("<QQQQ", raw[8:40]) == (2, 2, 1, 7)
        assert raw[40:72] == hashlib.sha256(record).digest()
        assert struct.unpack("<Q", raw[72:80]) == (len(record),)
        assert raw[80 : 80 + len(record)] == record
        assert len(raw) == 80 + len(record) + 2 * 2 * 1 * 8
        assert np.array_equal(np.frombuffer(raw[80 + len(record) :], "<f8"),
                              np.concatenate([x.ravel(), phi.ravel()]))

    @pytest.mark.parametrize("bad, named", [
        ("wrong-magic", "magic b'NOTCADEN'"),
        # The earlier layouts: a bare (m, d, round) header and a valid body,
        # and format version 1, whose header had no problem record.
        ("no-magic", "magic"),
        ("version-1", "format version 1"),
        ("header-only", "header only"),
        ("record-digest", "problem record does not match its digest"),
    ])
    def test_bad_header_is_named(self, tmp_path, bad, named):
        _, _, _, x, phi, _, _ = _k2_setup()
        path = tmp_path / "s.bin"
        engine.save_checkpoint(str(path), x, phi, round_index=7, problem={"seed": "3"})
        raw = path.read_bytes()
        body = np.zeros(2 * 2 * 1, dtype="<f8").tobytes()
        record_end = engine.CHECKPOINT_HEADER.size + len(b"seed = 3\n")
        path.write_bytes({
            "wrong-magic": b"NOTCADEN" + raw[8:],
            "no-magic": struct.pack("<QQQ", 2, 1, 7) + body,
            "version-1": b"CADENCKP" + struct.pack("<QQQQ", 1, 2, 1, 7) + body,
            "header-only": raw[:record_end],
            "record-digest": raw.replace(b"seed = 3", b"seed = 4"),
        }[bad])
        with pytest.raises(CheckpointError, match=re.escape(named)):
            engine.load_checkpoint(str(path))

    def test_another_problem_is_named(self, tmp_path):
        # Every differing key is named with both values; equal records, and
        # a file written without one, load.
        _, _, _, x, phi, _, _ = _k2_setup()
        path = str(tmp_path / "s.bin")
        written = {"seed": "3", "loss.l2": "0.0", "m": "2"}
        engine.save_checkpoint(path, x, phi, round_index=7, problem=written)
        asked = {"seed": "4", "loss.l2": "0.0", "m": "2", "d": "1"}
        match = "seed = 3 there, 4 here; d = (unset) there, 1 here"
        with pytest.raises(CheckpointError, match=re.escape(match)):
            engine.load_checkpoint(path, asked)
        assert engine.load_checkpoint(path, dict(written))[2] == 7
        engine.save_checkpoint(path, x, phi, round_index=7)
        assert engine.load_checkpoint(path, asked)[2] == 7
