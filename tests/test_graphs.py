"""Topology, spectrum, constraint residual, and sandwich-bound tests."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caden import engine, graphs
from caden.errors import ConfigError, DisconnectedGraphError, GraphSamplingError
from caden.losses import LossStack, QuadraticLoss

from helpers import (
    constraint_matrices,
    dense_constraint_residual,
    incident,
    neighbors,
    reference_ordered_sums,
    write_edge_list,
)


class TestTopology:
    def test_canonical_edge_order(self):
        t = graphs.from_edges(4, [(3, 1), (0, 2), (2, 1)])
        assert t.edges == ((0, 2), (1, 2), (1, 3))

    def test_degree_sum_is_twice_edges(self):
        t = graphs.build_random_graph(12, 0.3, seed=5)
        assert sum(t.degrees) == 2 * t.n
        assert all(t.degrees[i] == len(neighbors(t, i)) for i in range(t.m))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            graphs.from_edges(3, [(0, 1), (1, 1), (1, 2)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            graphs.from_edges(3, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            graphs.from_edges(4, [(0, 1), (2, 3)])

    def test_too_few_edges_refused_before_per_agent_lists(self):
        # Fewer than m - 1 edges cannot connect m agents; the refusal costs
        # no memory that grows with m.
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraphError, match="1000000 agents with 1 edges"):
                graphs.read_edge_list(io.StringIO("1000000 1\n1 2\n"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_rejects_fewer_than_two_agents(self, m):
        with pytest.raises(ConfigError, match=f"^topology.m must be at least 2, got {m}$"):
            graphs.from_edges(m, [])

    def test_incident_matches_neighbor_order(self):
        t = graphs.build_random_graph(9, 0.4, seed=2)
        for i in range(t.m):
            assert tuple(nbr for _, nbr, _ in incident(t, i)) == neighbors(t, i)


class TestIncidentSums:
    @pytest.mark.parametrize(
        "topology",
        [graphs.complete_graph(10), graphs.complete_graph(12),
         graphs.build_random_graph(30, 0.4, seed=3)],
        ids=["complete10", "complete12", "random30"],
    )
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_equal_a_loop_over_ascending_incident_edges(self, topology, d):
        # Bit for bit: each agent's terms added one at a time from 0 in
        # ascending edge order.  Degrees >= 8 with mixed magnitudes tell
        # this order apart from numpy's pairwise sums.
        assert topology.d_max >= 8
        rng = np.random.default_rng(d)
        scales = 10.0 ** rng.uniform(-5.0, 4.0, (topology.n, 1))
        at_src = scales * rng.standard_normal((topology.n, d))
        at_dst = scales * rng.standard_normal((topology.n, d))
        got = graphs.incident_sums(topology, at_src, at_dst)
        for i in range(topology.m):
            want = np.zeros(d)
            for k, _, side in incident(topology, i):
                want = want + (at_dst if side else at_src)[k]
            assert np.array_equal(got[i], want)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, 9),
        terms=st.integers(0, 40),
        trailing=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        empty=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ordered_sums_equal_add_at(self, rows, terms, trailing, empty, seed):
        # Random owners, some rows with no term (all of row 0 when
        # ``empty``), mixed magnitudes and signed zeros: the bits of
        # np.add.at, the sign of every zero included.
        rng = np.random.default_rng(seed)
        owner = rng.integers(int(empty and rows > 1), rows, terms)
        scales = 10.0 ** rng.uniform(-5.0, 5.0, (terms, *[1] * len(trailing)))
        values = scales * rng.standard_normal((terms, *trailing))
        zeros = rng.random(values.shape) < 0.2
        values[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
        got = graphs.ordered_sums(owner, values, rows)
        want = reference_ordered_sums(owner, values, rows)
        assert got.shape == want.shape == (rows, *trailing)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(2, 25),
        edge_prob=st.floats(0.2, 1.0),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_incident_sums_equal_add_at_on_random_graphs(self, m, edge_prob, d, seed):
        t = graphs.build_random_graph(m, edge_prob, seed=seed)
        rng = np.random.default_rng(seed)
        at_src, at_dst = 10.0 ** rng.uniform(-5.0, 5.0, (2, t.n, 1)) * rng.standard_normal(
            (2, t.n, d))
        agent, _ = graphs.edge_ends(t)
        want = reference_ordered_sums(agent, np.concatenate([at_dst, at_src]), t.m)
        assert np.array_equal(graphs.incident_sums(t, at_src, at_dst), want)

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(2, 25),
        edge_prob=st.floats(0.2, 1.0),
        d=st.integers(1, 4),
        p=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_anchor_sums_equal_add_at_for_every_agent_and_subsets(self, m, edge_prob, d, p, seed):
        # The batch of every agent sums through the topology's cached plan,
        # and a p < 1 subset takes its rows; both are np.add.at over each
        # agent's incident edges in ascending order, the topology's cache
        # reused across calls and left unchanged by them.
        t = graphs.build_random_graph(m, edge_prob, seed=seed)
        rng = np.random.default_rng(seed)
        losses = LossStack([QuadraticLoss(q=np.ones(d), a=np.zeros(d)) for _ in range(m)])
        phi = rng.standard_normal((m, d))
        z = 10.0 ** rng.uniform(-5.0, 5.0, (t.n, 1)) * rng.standard_normal((t.n, d))
        agent, edge = graphs.edge_ends(t)
        cached = [a.copy() for a in (agent, edge, t.incidence.sums.counts)]
        subset = np.flatnonzero(rng.random(m) < p)
        for agents in (np.arange(m), subset, np.arange(m)):
            batch = engine.subproblems(phi, z, losses, t, 2.0).take(agents)
            row = np.full(m, -1)
            row[agents] = np.arange(len(agents))
            ends = row[agent] >= 0
            want = reference_ordered_sums(row[agent[ends]], z[edge[ends]], len(agents))
            assert np.array_equal(batch.anchor_sum, want)
            assert batch.degree.tolist() == [t.degrees[i] for i in agents]
        assert graphs.edge_ends(t)[0] is agent
        for was, now in zip(cached, (agent, edge, t.incidence.sums.counts)):
            assert np.array_equal(was, now)

    def test_cached_index_arrays_are_read_only(self):
        t = graphs.build_random_graph(12, 0.5, seed=4)
        incidence = t.incidence
        assert t.incidence is incidence
        arrays = [incidence.agent, incidence.edge, incidence.sums.owner, incidence.sums.counts]
        arrays += [a for rank in incidence.sums.ranks for a in rank]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        # A plan resolved per call is the caller's own.
        plan = graphs.sum_plan(np.array([1, 0, 1]), 2)
        plan.counts[0] = 5

    def test_edge_ends_list_each_agent_in_ascending_edge_order(self):
        t = graphs.build_random_graph(12, 0.5, seed=4)
        agent, edge = graphs.edge_ends(t)
        for i in range(t.m):
            assert edge[agent == i].tolist() == [k for k, _, _ in incident(t, i)]


def _loop_random_graph_edges(m, edge_prob, seed, attempt):
    """The candidate edges of ``build_random_graph``'s sample ``attempt``,
    drawn by a nested loop over the pairs."""
    rng = np.random.default_rng([graphs._GRAPH_STREAM, seed, attempt])
    mask = rng.random(m * (m - 1) // 2) < edge_prob
    edges = []
    k = 0
    for i in range(m):
        for j in range(i + 1, m):
            if mask[k]:
                edges.append((i, j))
            k += 1
    return tuple(edges)


class TestRandomGraph:
    def test_paper_scale_sample_is_connected(self):
        t = graphs.build_random_graph(20, 0.2, seed=0)
        assert t.m == 20
        graphs.laplacian_spectrum(t)  # raises if disconnected

    def test_two_agents_full_probability(self):
        t = graphs.build_random_graph(2, 1.0, seed=0)
        assert t.edges == ((0, 1),)
        assert t.d_max == 1

    def test_complete_five(self):
        t = graphs.build_random_graph(5, 1.0, seed=0)
        assert t.n == 10
        assert t.d_max == 4

    def test_retry_limit_raises(self):
        with pytest.raises(GraphSamplingError):
            graphs.build_random_graph(30, 0.01, seed=1, max_retries=3)

    def test_resample_count_recorded(self):
        # Sparse enough that the first sample is usually rejected.
        t = graphs.build_random_graph(24, 0.09, seed=3)
        assert t.resamples >= 0

    def test_same_seed_same_graph(self):
        a = graphs.build_random_graph(15, 0.25, seed=9)
        b = graphs.build_random_graph(15, 0.25, seed=9)
        assert a.edges == b.edges
        # The same edges in the same order as a loop over pairs i < j, the
        # later cases after rejected samples.
        for m, p, seed in ((5, 0.5, 0), (20, 0.2, 3), (24, 0.09, 3), (50, 0.1, 7), (200, 0.03, 1)):
            t = graphs.build_random_graph(m, p, seed)
            assert t.edges == _loop_random_graph_edges(m, p, seed, t.resamples)


class TestSpectrum:
    def test_path_three(self):
        # Oracle: 3x3 eigendecomposition of the path Laplacian.
        t = graphs.path_graph(3)
        oracle = np.sort(np.linalg.eigvals(t.laplacian()).real)
        assert oracle == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)
        s = graphs.laplacian_spectrum(t)
        assert s.lambda_min == pytest.approx(1.0, abs=1e-12)
        assert s.lambda_max == pytest.approx(3.0, abs=1e-12)

    def test_complete_two(self):
        s = graphs.laplacian_spectrum(graphs.complete_graph(2))
        assert (s.lambda_min, s.lambda_max) == pytest.approx((2.0, 2.0))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_complete_m_spectrum(self, m):
        # Brute-force eigendecomposition oracle: K_m has eigenvalues {0, m}.
        t = graphs.complete_graph(m)
        oracle = np.sort(np.linalg.eigvals(t.laplacian()).real)
        assert oracle[1:] == pytest.approx(np.full(m - 1, float(m)), abs=1e-9)
        s = graphs.laplacian_spectrum(t)
        assert s.lambda_min == pytest.approx(m, abs=1e-9)
        assert s.lambda_max == pytest.approx(m, abs=1e-9)

    def test_laplacian_row_sums_zero_and_factorization(self):
        t = graphs.build_random_graph(10, 0.35, seed=4)
        lap = t.laplacian()
        assert np.abs(lap.sum(axis=1)).max() == 0.0
        a_src, a_dst = constraint_matrices(t)
        diff = a_src - a_dst
        assert np.array_equal(diff.T @ diff, lap)

    def test_spectral_bounds(self):
        for seed in range(5):
            t = graphs.build_random_graph(11, 0.3, seed=seed)
            s = graphs.laplacian_spectrum(t)
            assert 0.0 < s.lambda_min <= s.lambda_max <= 2.0 * s.d_max
            assert s.lambda_max >= s.d_max + 1.0 - 1e-9


class TestConstraintResidual:
    def test_consensus_is_zero(self):
        t = graphs.build_random_graph(6, 0.5, seed=1)
        v = np.array([1.5, -2.0, 0.25])
        x = np.tile(v, (t.m, 1))
        z = np.tile(v, (t.n, 1))
        assert graphs.constraint_residual(t, x, z) == 0.0

    def test_two_agent_hand_values(self):
        t = graphs.complete_graph(2)
        x = np.array([[0.0], [2.0]])
        assert graphs.constraint_residual(t, x, np.array([[1.0]])) == pytest.approx(2.0)
        assert graphs.constraint_residual(t, x, np.array([[0.0]])) == pytest.approx(4.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(4):
            t = graphs.build_random_graph(5, 0.6, seed=seed)
            x = rng.standard_normal((t.m, 3))
            z = rng.standard_normal((t.n, 3))
            assert graphs.constraint_residual(t, x, z) == pytest.approx(
                dense_constraint_residual(t, x, z), rel=1e-12
            )

    def test_dimension_mismatch(self):
        t = graphs.complete_graph(2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            graphs.constraint_residual(t, np.zeros((2, 2)), np.zeros((1, 3)))


class TestSandwichBounds:
    def test_consensus_all_zero(self):
        t = graphs.build_random_graph(7, 0.5, seed=2)
        x = np.tile(np.array([0.3, -1.0]), (t.m, 1))
        assert graphs.neighbor_disagreement_bounds(t, x) == (0.0, 0.0, 0.0)

    def test_two_agent_hand_value(self):
        # lam = lambda_min^2 / (2 lambda_max) = 4 / 4 = 1 on a single edge.
        t = graphs.complete_graph(2)
        x = np.array([[0.0], [2.0]])
        lower, middle, upper = graphs.neighbor_disagreement_bounds(t, x)
        assert (lower, middle, upper) == pytest.approx((2.0, 2.0, 2.0))

    def test_holds_on_random_instances(self):
        worst = 0.0
        for trial in range(100):
            rng = np.random.default_rng(trial)
            t = graphs.build_random_graph(10, 0.4, seed=trial)
            x = rng.standard_normal((t.m, int(rng.integers(1, 6))))
            lower, middle, upper = graphs.neighbor_disagreement_bounds(t, x)
            worst = min(worst, middle - lower, upper - middle)
        assert worst >= -1e-9


class TestEdgeListFormat:
    def test_round_trip(self):
        t = graphs.build_random_graph(8, 0.4, seed=6)
        buf = io.StringIO()
        write_edge_list(t, buf)
        parsed = graphs.read_edge_list(io.StringIO(buf.getvalue()))
        assert parsed.edges == t.edges
        assert parsed.m == t.m

    def test_format_is_one_indexed(self):
        buf = io.StringIO()
        write_edge_list(graphs.complete_graph(2), buf)
        assert buf.getvalue() == "2 1\n1 2\n"

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError, match="declares"):
            graphs.read_edge_list(io.StringIO("3 2\n1 2\n"))
