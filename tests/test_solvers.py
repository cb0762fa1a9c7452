"""Local subproblem and solver tests against closed-form oracles, and the
lockstep solves against lone ones."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caden import solvers
from caden.datasets import gaussian_blobs
from caden.losses import LocalLoss, LossStack, MlpLoss, QuadraticLoss, rowdot
from caden.solvers import (
    estimate_contraction,
    solve_exact,
    solve_gd,
    solve_lbfgs,
    two_loop_direction,
)

from helpers import (
    AntiGradient,
    Row,
    StackCalls,
    batch_of,
    central_difference,
    random_psd,
    reference_gradient,
    reference_solve_lbfgs,
    reference_two_loop,
    reference_value,
)

def _subproblem(rng, d=4, degree=3, mu_z=3.0, cond=10.0):
    loss = QuadraticLoss(q=random_psd(d, cond, rng), a=rng.standard_normal(d))
    return Row(
        loss=loss,
        phi=rng.standard_normal(d),
        anchors=rng.standard_normal((degree, d)),
        mu_z=mu_z,
    )


def _oracle_minimizer(p: Row) -> np.ndarray:
    # (Q + mu_z k I)^-1 (Q a - phi + mu_z sum anchors), built independently.
    q = p.loss.q if not p.loss.diagonal else np.diag(p.loss.q)
    lhs = q + p.mu_z * p.degree * np.eye(p.loss.dim)
    rhs = q @ p.loss.a - p.phi + p.mu_z * p.anchors.sum(axis=0)
    return np.linalg.solve(lhs, rhs)


def _reached(report, name, n=0):
    """Row n's first ``iterations[n] + 1`` entries of the (k, tau + 1)
    history ``name`` of ``report``: the ones its solve reached."""
    return getattr(report, name)[n, : report.iterations[n] + 1]


class TestSubproblemTerms:
    @settings(max_examples=100, deadline=None)
    @given(
        degrees=st.lists(st.integers(0, 4), min_size=1, max_size=6),
        d=st.integers(1, 30),
        log_scale=st.floats(-5.0, 4.0),
        data=st.data(),
    )
    def test_batch_rows_equal_written_out_objective(self, degrees, d, log_scale, data):
        # The stacked dual and penalty terms give each row's one-subproblem
        # value and gradient, written out in the centered form, bit for bit.
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        problems = [
            Row(
                loss=QuadraticLoss(q=rng.uniform(0.5, 2.0, d), a=scale * rng.standard_normal(d)),
                phi=scale * rng.standard_normal(d),
                anchors=scale * rng.standard_normal((k, d)),
                mu_z=float(rng.uniform(0.0, 3.0)),
            )
            for k in degrees
        ]
        rows = np.array(
            data.draw(st.lists(st.integers(0, len(problems) - 1), min_size=1, max_size=8)),
            dtype=np.intp,
        )
        x = scale * rng.standard_normal((len(rows), d))
        batch = batch_of(problems).take(rows)
        values, gradients, _, _ = batch.evaluate(x)
        for n, j in enumerate(rows):
            assert values[n] == reference_value(problems[j], x[n])
            assert np.array_equal(gradients[n], reference_gradient(problems[j], x[n]))

    @pytest.mark.parametrize("log_scale", range(-5, 5))
    def test_penalty_equals_the_written_out_sum(self, log_scale):
        # A row's penalty, held as degree, anchor sum and spread, is
        # sum_k ||x - a_k||^2 to a relative 1e-12, for degrees 0 to 8 and x
        # at an anchor, at the anchor mean or far away.  With a zero loss,
        # zero dual and mu_z = 2 a row's value is its penalty.
        rng = np.random.default_rng(log_scale + 10)
        scale = 10.0**log_scale
        for d in range(1, 6):
            zero = QuadraticLoss(q=np.zeros(d), a=np.zeros(d))
            problems, points = [], []
            for degree in range(9):
                for _ in range(20):
                    anchors = scale * (rng.standard_normal(d) + rng.standard_normal((degree, d)))
                    near = scale * 1e-6 * rng.standard_normal((2, d))
                    if degree:
                        points += [anchors[rng.integers(degree)] + near[0],
                                   anchors.mean(axis=0) + near[1],
                                   anchors.mean(axis=0) + scale * 1e3 * rng.standard_normal(d)]
                    else:
                        points += list(scale * rng.standard_normal((3, d)))
                    problems += [Row(zero, np.zeros(d), anchors, 2.0)] * 3
            points = np.array(points)
            got = batch_of(problems).evaluate(points)[0]
            for value, x, problem in zip(got, points, problems):
                want = sum(float(np.sum((x - a) ** 2)) for a in problem.anchors)
                assert abs(value - want) <= 1e-12 * want


class TestSubproblemGradient:
    def test_identity_loss_single_zero_anchor(self):
        loss = QuadraticLoss(q=np.ones(2), a=np.zeros(2))
        batch = batch_of([Row(loss=loss, phi=np.zeros(2), anchors=np.zeros((1, 2)), mu_z=3.0)])
        v = np.array([1.5, -0.5])
        assert np.allclose(batch.evaluate(v[None])[1][0], 4.0 * v)

    def test_zero_at_minimizer(self):
        rng = np.random.default_rng(0)
        p = _subproblem(rng)
        x_star = _oracle_minimizer(p)
        assert np.linalg.norm(batch_of([p]).evaluate(x_star[None])[1][0]) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            batch = batch_of([_subproblem(rng)])
            x = rng.standard_normal(4)
            grad = batch.evaluate(x[None])[1][0]
            oracle = central_difference(lambda v: batch.evaluate(v[None])[0][0], x)
            assert np.linalg.norm(grad - oracle) / max(np.linalg.norm(oracle), 1.0) < 1e-5


def _take_case(family):
    """A stack of six quadratic (diagonal and full, so two groups) or MLP
    losses, and the problems of a batch over five of its agents out of
    order, with 0 to 3 anchors each."""
    rng = np.random.default_rng(31)
    if family == "quadratic":
        d = 4
        losses = [QuadraticLoss(q=rng.uniform(0.5, 2.0, d) if i % 2 else random_psd(d, 10.0, rng),
                                a=rng.standard_normal(d)) for i in range(6)]
    else:
        features, labels = gaussian_blobs(60, 4, 3, seed=3, spread=2.0)
        losses = [MlpLoss(features[10 * i : 10 * i + 10], labels[10 * i : 10 * i + 10],
                          hidden=5, classes=3, l2=1e-3) for i in range(6)]
        d = losses[0].dim
    agents = np.array([5, 1, 3, 0, 4])
    problems = [Row(losses[i], rng.standard_normal(d), rng.standard_normal((n % 4, d)),
                    float(rng.uniform(0.5, 3.0))) for n, i in enumerate(agents)]
    return LossStack(losses), agents, problems


class TestTake:
    @pytest.mark.parametrize("family", ["quadratic", "mlp"])
    @pytest.mark.parametrize("rows", [[], [2], [4, 0, 3]])
    def test_equals_the_parent_rows_and_a_batch_of_those_rows(self, family, rows):
        # The batch of some rows evaluates each row as the parent batch
        # does, and as a batch built from those rows' own terms, bit for
        # bit: values, gradients and loss terms, evaluated or given.
        stack, agents, problems = _take_case(family)
        parent = batch_of(problems, stack, agents)
        rows = np.array(rows, dtype=np.intp)
        taken = parent.take(rows)
        direct = batch_of([problems[j] for j in rows], stack, agents[rows])
        x = np.random.default_rng(5).standard_normal((len(agents), stack.dim))
        want = [terms[rows] for terms in parent.evaluate(x)]
        names = ("values", "gradients", "loss_values", "loss_gradients")
        for batch in (taken, direct):
            for loss_terms in (None, want[2:]):
                fused = batch.evaluate(x[rows], loss_terms)
                for name, got, expected in zip(names, fused, want):
                    assert np.array_equal(got, expected), name
        for name in ("phi", "mu_z", "degree", "anchor_sum", "mean", "spread"):
            assert np.array_equal(getattr(taken, name), getattr(direct, name)), name


class TestRowdot:
    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 12),
        d=st.integers(1, 600),
        log_scale=st.floats(-5.0, 5.0),
        offsets=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_row_matmul_bit_for_bit(self, k, d, log_scale, offsets, seed):
        # The lockstep solver's bit-identity with lone solves rests on this:
        # a numpy or BLAS change that sums the stacked rows in another
        # order fails here by name.
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        off_a, off_b = offsets
        a = scale * rng.standard_normal((k + off_a, d + off_a))[off_a:, off_a:]
        b = scale * rng.standard_normal((k + off_b, d + off_b))[off_b:, off_b:]
        want = np.array([row_a @ row_b for row_a, row_b in zip(a, b)])
        assert np.array_equal(solvers.rowdot(a, b), want)
        # Column slices of a stacked (k, M, d) history, as the two-loop reads them.
        history = scale * rng.standard_normal((k, 3, d))
        want = np.array([history[n, 1] @ b[n] for n in range(k)])
        assert np.array_equal(solvers.rowdot(history[:, 1], b), want)

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.one_of(st.integers(1, 4099), st.just(503)),
        log_scale=st.floats(-5.0, 5.0),
        offset=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vector_and_squared_norm_forms_bit_for_bit(self, d, log_scale, offset, seed):
        # A loss's l2 term takes x . x of one d-vector or of each (k, d) row
        # through rowdot; both must keep the bits of the plain ``@``.
        rng = np.random.default_rng(seed)
        rows = 10.0**log_scale * rng.standard_normal((3 + offset, d + offset))[offset:, offset:]
        a, b = rows[0], rows[1]
        assert rowdot(a, b) == a @ b
        assert rowdot(a, a) == float(a @ a)
        assert np.array_equal(rowdot(rows, rows), np.array([r @ r for r in rows]))
        assert solvers.rowdot is rowdot


def _random_history(rng, k, d):
    s = rng.standard_normal((k, d))
    y = s @ np.diag(rng.uniform(0.5, 3.0, d))  # positive-curvature pairs
    rho = 1.0 / np.einsum("ij,ij->i", s, y)
    return s, y, rho


class TestTwoLoop:
    def test_empty_history_scales_gradient(self):
        grad = np.array([2.0, -4.0])
        out = two_loop_direction([], [], [], np.array([0.5]), grad[None])
        assert np.array_equal(out[0], 0.5 * grad)

    def test_input_gradient_not_mutated(self):
        rng = np.random.default_rng(1)
        s, y, rho = _random_history(rng, 4, 8)
        grad = rng.standard_normal((1, 8))
        snapshot = grad.copy()
        two_loop_direction(s[:, None], y[:, None], rho[:, None], np.ones(1), grad)
        assert np.array_equal(grad, snapshot)

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 6),
        memory=st.integers(0, 5),
        d=st.integers(1, 40),
        equal_counts=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_rows_equal_lone_recursions(self, k, memory, d, equal_counts, seed):
        # Row n holds its counts[n] pairs newest first, zeros after its
        # oldest; its recursion must be the lone one over its own pairs.
        # The slots are passed as (M, k, d) views of the row-major history.
        rng = np.random.default_rng(seed)
        s = np.zeros((k, memory, d))
        y = np.zeros_like(s)
        rho = np.zeros((k, memory))
        counts = rng.integers(0, memory + 1, size=k)
        if equal_counts:
            counts[:] = memory
        own = []
        for n, c in enumerate(counts):
            own.append(_random_history(rng, c, d))  # oldest first
            s[n, :c], y[n, :c], rho[n, :c] = (a[::-1] for a in own[n])
        gamma = rng.uniform(0.1, 2.0, k)
        grad = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((k, d))
        out = two_loop_direction(s.swapaxes(0, 1), y.swapaxes(0, 1), rho.T, gamma, grad)
        for n, (s_n, y_n, rho_n) in enumerate(own):
            assert np.array_equal(out[n], reference_two_loop(s_n, y_n, rho_n, gamma[n], grad[n]))

    def test_full_memory_exact_line_search_reaches_minimizer(self):
        # With memory >= d and exact curvature pairs the recursion reproduces
        # the Newton direction on quadratics: the minimizer arrives within
        # d + 1 iterations.  The history is passed newest first.
        q = np.diag([1.0, 10.0])
        target = np.zeros(2)
        x = np.array([3.0, -1.5])
        d = 2
        s_hist: list[np.ndarray] = []
        y_hist: list[np.ndarray] = []
        for _ in range(d + 1):
            grad = q @ (x - target)
            if np.linalg.norm(grad) == 0.0:
                break
            s_arr = np.array(s_hist[::-1]).reshape(len(s_hist), d)
            y_arr = np.array(y_hist[::-1]).reshape(len(y_hist), d)
            rho = (
                1.0 / np.einsum("ij,ij->i", s_arr, y_arr)
                if s_hist
                else np.zeros(0)
            )
            gamma = 1.0
            if s_hist:
                gamma = float(s_arr[0] @ y_arr[0]) / float(y_arr[0] @ y_arr[0])
            direction = -two_loop_direction(
                s_arr[:, None], y_arr[:, None], rho[:, None], np.array([gamma]), grad[None]
            )[0]
            denom = float(direction @ (q @ direction))
            step = -float(grad @ direction) / denom  # exact line search
            x_new = x + step * direction
            s_hist.append(x_new - x)
            y_hist.append(q @ (x_new - x))
            x = x_new
        assert np.linalg.norm(x - target) < 1e-8


class TestLbfgs:
    def test_converges_to_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = _subproblem(rng)
            report = solve_lbfgs(batch_of([p]), rng.standard_normal(p.loss.dim)[None], tau=60)
            assert report.grad_norm_out[0] <= 1e-10 * report.grad_norm_in[0]
            assert np.allclose(report.x_out[0], _oracle_minimizer(p), atol=1e-8)

    def test_start_at_minimizer_stays_put(self):
        rng = np.random.default_rng(3)
        p = _subproblem(rng)
        x_star = solve_exact(batch_of([p])).x_out[0]
        report = solve_lbfgs(batch_of([p]), x_star[None], tau=5)
        assert np.allclose(report.x_out[0], x_star, atol=1e-9)
        assert report.grad_norm_out[0] <= 1e-9

    def test_iteration_budget_respected(self):
        rng = np.random.default_rng(4)
        p = _subproblem(rng)
        report = solve_lbfgs(batch_of([p]), rng.standard_normal(p.loss.dim)[None], tau=3)
        assert report.iterations[0] <= 3
        assert report.grad_norms.shape == (1, 4)
        assert not np.isnan(_reached(report, "grad_norms")).any()
        assert np.isnan(report.grad_norms[0, report.iterations[0] + 1 :]).all()

    def test_monotone_descent(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = _subproblem(rng, cond=50.0)
            report = solve_lbfgs(batch_of([p]), rng.standard_normal(p.loss.dim)[None], tau=15)
            values = _reached(report, "values")
            diffs = np.diff(values)
            allowed = 1e-11 * (1.0 + np.abs(values[:-1]))
            assert (diffs <= allowed).all()

    def test_faster_than_gd_on_ill_conditioned(self):
        loss = QuadraticLoss(q=np.array([1.0, 100.0]), a=np.zeros(2))
        p = Row(loss=loss, phi=np.zeros(2), anchors=np.zeros((0, 2)), mu_z=0.5)
        x0 = np.array([1.0, 1.0])
        tau = 12
        lbfgs_rep = solve_lbfgs(batch_of([p]), x0[None], tau)
        gd_rep = solve_gd(batch_of([p]), x0[None], tau, step=2.0 / (1.0 + 100.0))
        assert lbfgs_rep.grad_norm_out[0] < gd_rep.grad_norm_out[0]
        assert estimate_contraction(lbfgs_rep)[0] < estimate_contraction(gd_rep)[0]

    def test_descent_direction_after_curvature_skips(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = _subproblem(rng, cond=100.0)
            report = solve_lbfgs(batch_of([p]), rng.standard_normal(p.loss.dim)[None], tau=20)
            # Monotone gradient decrease to (near) zero certifies every
            # direction was a descent direction of a positive-definite model.
            assert report.grad_norm_out[0] < report.grad_norm_in[0]

    def test_kernel_looked_up_through_module_global(self, monkeypatch):
        # Wrapping caden.solvers.two_loop_direction must see every iteration;
        # a locally bound kernel would silently bypass the wrapper.
        calls = []

        def counting(*args):
            calls.append(1)
            return two_loop_direction(*args)

        monkeypatch.setattr(solvers, "two_loop_direction", counting)
        p = _subproblem(np.random.default_rng(12), cond=50.0)
        report = solve_lbfgs(batch_of([p]), np.ones((1, p.loss.dim)), tau=8)
        assert report.iterations[0] == 8
        assert len(calls) == report.iterations[0]

    def test_singular_curvature_pairs_are_skipped(self):
        # Zero curvature along the second coordinate produces step/gradient
        # pairs with s.y ~ 0; they must be dropped without breaking descent.
        loss = QuadraticLoss(q=np.array([1.0, 0.0, 0.5]), a=np.zeros(3))
        p = Row(loss=loss, phi=np.zeros(3), anchors=np.zeros((0, 3)), mu_z=0.0)
        report = solve_lbfgs(batch_of([p]), np.array([[2.0, 1.0, -3.0]]), tau=25)
        assert report.grad_norm_out[0] <= 1e-8
        values = _reached(report, "values")
        diffs = np.diff(values)
        assert (diffs <= 1e-11 * (1.0 + np.abs(values[:-1]))).all()


class TestGd:
    def test_hand_step(self):
        loss = QuadraticLoss(q=np.array([1.0, 10.0]), a=np.zeros(2))
        p = Row(loss=loss, phi=np.zeros(2), anchors=np.zeros((0, 2)), mu_z=0.0)
        report = solve_gd(batch_of([p]), np.ones((1, 2)), tau=1, step=0.1)
        assert np.allclose(report.x_out[0], [0.9, 0.0])

    def test_zero_iterations(self):
        rng = np.random.default_rng(7)
        p = _subproblem(rng)
        x0 = rng.standard_normal(p.loss.dim)
        report = solve_gd(batch_of([p]), x0[None], tau=0, step=0.01)
        assert np.array_equal(report.x_out[0], x0)

    def test_descent_below_stability_threshold(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = _subproblem(rng, cond=20.0)
            smooth = p.loss.smoothness() + p.mu_z * p.degree
            x0 = rng.standard_normal(p.loss.dim)[None]
            report = solve_gd(batch_of([p]), x0, tau=5, step=1.8 / smooth)
            assert report.grad_norm_out[0] < report.grad_norm_in[0]

    def test_default_step_from_smoothness(self):
        rng = np.random.default_rng(9)
        p = _subproblem(rng)
        report = solve_gd(batch_of([p]), rng.standard_normal(p.loss.dim)[None], tau=10)
        assert report.grad_norm_out[0] < report.grad_norm_in[0]

    @pytest.mark.parametrize(
        "step, lipschitz",
        [(float("nan"), None), (0.0, None), (-0.1, None), (None, float("nan")),
         (None, -1e3)],
    )
    def test_step_that_is_not_positive_refused(self, step, lipschitz):
        # A NaN step, given or from a NaN smoothness, is refused like a
        # negative one instead of running on to NaN models.
        rng = np.random.default_rng(10)
        batch = batch_of([_subproblem(rng), _subproblem(rng)])
        with pytest.raises(ValueError, match="step must be positive"):
            solve_gd(batch, np.ones((2, 4)), tau=3, step=step, lipschitz=lipschitz)


class TestExactSolve:
    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            p = _subproblem(rng)
            x_exact = solve_exact(batch_of([p])).x_out[0]
            assert np.allclose(x_exact, _oracle_minimizer(p), atol=1e-10)

    def test_rejects_non_quadratic(self):
        from caden.datasets import gaussian_blobs
        from caden.losses import LogisticLoss

        x_data, y_data = gaussian_blobs(20, 3, 2, seed=0)
        loss = LogisticLoss(x_data, y_data, classes=2)
        p = Row(loss=loss, phi=np.zeros(loss.dim),
                            anchors=np.zeros((0, loss.dim)), mu_z=1.0)
        with pytest.raises(TypeError):
            solve_exact(batch_of([p]))


class TestContraction:
    def test_contracts_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = _subproblem(rng, cond=30.0)
            x0 = rng.standard_normal(p.loss.dim)[None]
            rate = estimate_contraction(solve_lbfgs(batch_of([p]), x0, 15))[0]
            assert 0.0 <= rate < 1.0

    def test_zero_at_minimizer(self):
        # Exactly representable minimizer: everything centered at the origin.
        loss = QuadraticLoss(q=np.ones(3), a=np.zeros(3))
        p = Row(loss=loss, phi=np.zeros(3), anchors=np.zeros((2, 3)), mu_z=2.0)
        assert estimate_contraction(solve_lbfgs(batch_of([p]), np.zeros((1, 3)), 5))[0] == 0.0

    def test_growth_warns_and_clamps_to_one(self):
        # An unstable gradient step makes the squared norms grow; the probe
        # warns and reports the no-contraction ceiling.
        loss = QuadraticLoss(q=np.array([1.0, 10.0]), a=np.zeros(2))
        p = Row(loss=loss, phi=np.zeros(2), anchors=np.zeros((0, 2)), mu_z=0.0)
        with pytest.warns(UserWarning, match="grew"):
            rate = estimate_contraction(solve_gd(batch_of([p]), np.ones((1, 2)), 5, step=0.5))[0]
        assert rate == 1.0
        # Two growing rows: one warning for the probe, naming the larger
        # raw rate, and both rates clamped.
        steep = Row(loss=QuadraticLoss(q=np.array([1.0, 20.0]), a=np.zeros(2)),
                                phi=np.zeros(2), anchors=np.zeros((0, 2)), mu_z=0.0)
        report = solve_gd(batch_of([p, steep]), np.ones((2, 2)), 5, step=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rates = estimate_contraction(report)
        assert len(caught) == 1
        assert "grew" in str(caught[0].message)
        assert "rate 81" in str(caught[0].message)
        assert rates.tolist() == [1.0, 1.0]

    def test_lbfgs_beats_optimal_gd_on_condition_100(self):
        for trial in range(20):
            rng = np.random.default_rng([99, trial])
            d = 20
            loss = QuadraticLoss(q=random_psd(d, 100.0, rng), a=rng.standard_normal(d))
            p = Row(loss=loss, phi=np.zeros(d), anchors=np.zeros((0, d)), mu_z=0.0)
            x0 = rng.standard_normal(d)
            batch = batch_of([p])
            r_lbfgs = estimate_contraction(solve_lbfgs(batch, x0[None], 20))[0]
            r_gd = estimate_contraction(solve_gd(batch, x0[None], 20, step=2.0 / (1.0 + 100.0)))[0]
            assert r_lbfgs <= r_gd


class _UndefinedFar(QuadraticLoss):
    """A quadratic whose value is NaN outside the ball of radius 2, so long
    trial steps are rejected as NaN."""

    _values_and_gradients = LocalLoss._values_and_gradients

    def _values(self, x, data):
        return np.where(rowdot(x, x) <= 4.0, super()._values(x, data), np.nan)


@st.composite
def _lockstep_batches(draw):
    """A stack of m agents of mixed kinds and the subproblems of an active
    subset of them, with start points, budget and memory."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 7))
    d = 7  # MLP: 2 features, 1 hidden unit, 2 classes
    x_mlp, y_mlp = gaussian_blobs(9 * m, 2, 2, seed=int(rng.integers(1000)))
    kinds = draw(st.lists(st.sampled_from(["quad", "mlp", "zero", "fail", "lone", "nan"]),
                          min_size=m, max_size=m))
    losses, x_start, anchors, phis, mu_zs = [], [], [], [], []
    for i, kind in enumerate(kinds):
        degree = int(rng.integers(1, 4))
        mu_z = float(rng.uniform(0.5, 3.0))
        phi = rng.standard_normal(d)
        x0 = rng.standard_normal(d)
        if kind == "mlp":
            rows = slice(9 * i, 9 * i + 9 - (i == m - 1) * 2)  # uneven last shard
            losses.append(MlpLoss(x_mlp[rows], y_mlp[rows], hidden=1, classes=2, l2=1e-3))
        elif kind == "fail":
            losses.append(AntiGradient(d))
            degree, mu_z, phi = 0, 0.0, np.zeros(d)
        elif kind == "nan":
            losses.append(_UndefinedFar(q=np.ones(d), a=3.0 * rng.standard_normal(d)))
            x0 = 0.3 * x0
        elif kind == "zero":
            # Exactly representable minimizer: starts at a zero gradient.
            losses.append(QuadraticLoss(q=np.ones(d), a=np.zeros(d)))
            phi, x0 = np.zeros(d), np.zeros(d)
            degree = int(rng.integers(0, 3))
        else:
            losses.append(QuadraticLoss(q=random_psd(d, 30.0, rng), a=rng.standard_normal(d)))
            if kind == "lone":  # degree 0, mu_z = 0 as in criterion 5
                degree, mu_z = 0, 0.0
        anchors.append(np.zeros((degree, d)) if kind == "zero" else rng.standard_normal((degree, d)))
        phis.append(phi)
        mu_zs.append(mu_z)
        x_start.append(x0)
    active = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    problems = [
        Row(loss=losses[i], phi=phis[i], anchors=anchors[i], mu_z=mu_zs[i])
        for i in active
    ]
    x_start = np.array(x_start)[active]
    tau = draw(st.integers(0, 7))
    memory = draw(st.integers(1, 10))
    return LossStack(losses), active, problems, x_start, tau, memory


def _drop_oldest_case():
    """A fixed ``_lockstep_batches`` case with tau 7 > memory 2, so rows drop
    their oldest pair: two quadratics and an MLP that store pairs, a linear
    row (zero loss, nonzero dual) whose gradient never changes, so every
    pair it meets is skipped on curvature, and an ``AntiGradient`` row
    whose every search fails.  Agent 1 of the stack sits out."""
    rng = np.random.default_rng(24)
    d = 7
    features, labels = gaussian_blobs(18, 2, 2, seed=3)
    linear = QuadraticLoss(q=np.zeros(d), a=np.zeros(d))
    losses = [
        QuadraticLoss(q=random_psd(d, 30.0, rng), a=rng.standard_normal(d)),
        QuadraticLoss(q=np.ones(d), a=np.zeros(d)),
        MlpLoss(features, labels, hidden=1, classes=2, l2=1e-3),
        linear,
        AntiGradient(d),
        QuadraticLoss(q=random_psd(d, 30.0, rng), a=rng.standard_normal(d)),
    ]
    active = [0, 2, 3, 4, 5]
    problems = [
        Row(losses[0], rng.standard_normal(d), rng.standard_normal((2, d)), 1.5),
        Row(losses[2], rng.standard_normal(d), rng.standard_normal((1, d)), 0.7),
        Row(linear, rng.standard_normal(d), np.zeros((0, d)), 0.0),
        Row(losses[4], np.zeros(d), np.zeros((0, d)), 0.0),
        Row(losses[5], rng.standard_normal(d), rng.standard_normal((3, d)), 2.5),
    ]
    x_start = rng.standard_normal((len(active), d))
    return LossStack(losses), active, problems, x_start, 7, 2


def _stop_mid_solve_case():
    """A fixed ``_lockstep_batches`` case with a row that stops mid-solve
    beside rows that keep going: an identity quadratic started away from 0,
    whose first step lands exactly on its minimizer 0, so later iterations
    move a row subset; a quadratic with anchors that keeps moving; and an
    ``AntiGradient`` row whose every search fails, so only a subset of the
    moving rows takes a step."""
    rng = np.random.default_rng(25)
    d = 7
    losses = [
        QuadraticLoss(q=np.ones(d), a=np.zeros(d)),
        QuadraticLoss(q=random_psd(d, 30.0, rng), a=rng.standard_normal(d)),
        AntiGradient(d),
    ]
    problems = [
        Row(losses[0], np.zeros(d), np.zeros((0, d)), 0.0),
        Row(losses[1], rng.standard_normal(d), rng.standard_normal((2, d)), 1.5),
        Row(losses[2], np.zeros(d), np.zeros((0, d)), 0.0),
    ]
    x_start = rng.standard_normal((3, d))
    return LossStack(losses), [0, 1, 2], problems, x_start, 5, 10


class TestLockstep:
    @settings(max_examples=200, deadline=None)
    @given(_lockstep_batches(), st.one_of(st.none(), st.floats(0.01, 100.0)))
    @example(_drop_oldest_case(), None)
    @example(_drop_oldest_case(), 4.0)
    @example(_stop_mid_solve_case(), None)
    def test_every_report_equals_the_lone_solve(self, case, lipschitz):
        # lipschitz: the loss smoothness that scales each row's first trial,
        # or None for unit scaling.
        stack, active, problems, x_start, tau, memory = case
        calls = StackCalls(stack)
        got = solve_lbfgs(batch_of(problems, stack, active), x_start, tau, memory,
                          lipschitz=lipschitz)
        for n, (agent, problem, x0) in enumerate(zip(active, problems, x_start)):
            want = reference_solve_lbfgs(problem, x0, tau, memory, lipschitz)
            assert np.array_equal(got.x_out[n], want.x_out[0])
            for name in ("iterations", "grad_norm_in", "grad_norm_out", "grad_norms",
                         "values", "line_search_failures"):
                assert np.array_equal(getattr(got, name)[n], getattr(want, name)[0],
                                      equal_nan=True), name
            # One fused call at the start and one per Armijo trial, and no
            # other loss call.
            accepted = got.iterations[n] - got.line_search_failures[n]
            trials = accepted + got.backtracks[n]
            assert calls.per_agent["values_and_gradients"][agent] == 1 + trials
            assert calls.per_agent["gradients"][agent] == 0
            assert np.array_equal(got.loss_grad_out[n], problem.loss.gradient(got.x_out[n]))

    def test_failed_search_counts_every_trial(self):
        p = Row(loss=AntiGradient(3), phi=np.zeros(3),
                            anchors=np.zeros((0, 3)), mu_z=0.0)
        report = solve_lbfgs(batch_of([p]), np.ones((1, 3)), tau=2)
        assert report.line_search_failures[0] == 2
        assert report.backtracks[0] == 2 * solvers.MAX_BACKTRACKS
        assert np.array_equal(report.x_out[0], np.ones(3))

    def test_gd_batch_equals_lone_solves(self):
        rng = np.random.default_rng(13)
        problems = [_subproblem(rng, degree=k) for k in (0, 1, 3)]
        x_start = rng.standard_normal((3, 4))
        batch = batch_of(problems)
        got = solve_gd(batch, x_start, tau=6)
        steps = solvers.default_gd_step(batch)
        for n, (step, problem, x0) in enumerate(zip(steps, problems, x_start)):
            assert step == 1.0 / (problem.loss.smoothness() + problem.mu_z * problem.degree)
            x = x0.copy()
            for _ in range(6):
                x = x - step * reference_gradient(problem, x)
            assert np.array_equal(got.x_out[n], x)
            assert got.iterations[n] == 6
            assert got.grad_norm_out[n] == float(np.linalg.norm(reference_gradient(problem, x)))
            assert np.array_equal(got.loss_grad_out[n], problem.loss.gradient(x))


def _every_row_stores_case():
    """A fixed ``_lockstep_batches`` case where every row stores a pair in
    every iteration but the last, with tau 7 > memory 2, so each pair from
    the third on is written into the oldest slot's buffers."""
    rng = np.random.default_rng(26)
    d = 7
    losses = [QuadraticLoss(q=random_psd(d, 30.0, rng), a=rng.standard_normal(d))
              for _ in range(3)]
    problems = [Row(loss, rng.standard_normal(d), rng.standard_normal((2, d)), 1.5)
                for loss in losses]
    return LossStack(losses), [0, 1, 2], problems, rng.standard_normal((3, d)), 7, 2


def _stale_padding_case():
    """A fixed ``_lockstep_batches`` case in which a padding slot's row
    would read a stale buffer row: an agent at its minimizer from the
    start, a quadratic that stores pairs, and last a linear row that skips
    every pair and keeps moving.  The two moving rows' pairs fill rows 0
    and 1 of the pool's next buffers; only the quadratic's is stored, so
    those buffers then pad the other two rows, and their row 2, the linear
    row's, still holds what the buffer held before the solve."""
    rng = np.random.default_rng(27)
    d = 7
    losses = [
        QuadraticLoss(q=np.ones(d), a=np.zeros(d)),
        QuadraticLoss(q=random_psd(d, 30.0, rng), a=rng.standard_normal(d)),
        QuadraticLoss(q=np.zeros(d), a=np.zeros(d)),
    ]
    problems = [
        Row(losses[0], np.zeros(d), np.zeros((0, d)), 0.0),
        Row(losses[1], rng.standard_normal(d), rng.standard_normal((2, d)), 1.5),
        Row(losses[2], rng.standard_normal(d), np.zeros((0, d)), 0.0),
    ]
    x_start = np.vstack([np.zeros(d), rng.standard_normal((2, d))])
    return LossStack(losses), [0, 1, 2], problems, x_start, 5, 10


class TestPoolReuse:
    # A pool carries buffers, not pairs, from one solve to the next: two
    # solves in a row through one pool whose buffers start as NaN equal
    # solves with fresh pools bit for bit.  The fixed examples cover a
    # padding slot made from a reused buffer (stale-padding, whose linear
    # row reads NaN unless the slot is zeroed; drop-oldest and
    # stop-mid-solve), slots reused once M are held (drop-oldest and
    # every-row-stores), and rows at an exact zero gradient (stale-padding
    # from the start, stop-mid-solve after one step).
    @settings(max_examples=100, deadline=None)
    @given(_lockstep_batches())
    @example(_stale_padding_case())
    @example(_drop_oldest_case())
    @example(_stop_mid_solve_case())
    @example(_every_row_stores_case())
    def test_reused_pool_solves_equal_fresh_ones(self, case):
        stack, active, problems, x_start, tau, memory = case
        want = solve_lbfgs(batch_of(problems, stack, active), x_start, tau, memory)
        # More rows than the batch: a solve uses each buffer's [:k] view.
        pool = solvers.LbfgsPool(len(active) + 2, x_start.shape[1])
        for j in range(max(tau - 1, 0)):
            for buffer in pool.pair(j, pool.rows):
                buffer.fill(np.nan)
        for _ in range(2):
            got = solve_lbfgs(batch_of(problems, stack, active), x_start, tau, memory,
                              pool=pool)
            for name in ("x_out", "loss_grad_out", "loss_value_out", "iterations",
                         "grad_norms", "values", "line_search_failures", "backtracks"):
                assert np.array_equal(getattr(got, name), getattr(want, name),
                                      equal_nan=True), name
        assert len(pool.s) == len(pool.y) == max(tau - 1, 0)

    def test_pool_of_too_few_rows_is_refused(self):
        stack, active, problems, x_start, tau, memory = _every_row_stores_case()
        with pytest.raises(ValueError, match="pool"):
            solve_lbfgs(batch_of(problems, stack, active), x_start, tau, memory,
                        pool=solvers.LbfgsPool(2, x_start.shape[1]))

    def test_fresh_pool_holds_at_most_min_of_memory_and_tau_minus_one(self):
        stack, active, problems, x_start, tau, _ = _every_row_stores_case()
        for memory in (1, 2, 6, 10):
            pool = solvers.LbfgsPool(len(active), x_start.shape[1])
            solve_lbfgs(batch_of(problems, stack, active), x_start, tau, memory, pool=pool)
            assert len(pool.s) == len(pool.y) == min(memory, tau - 1)


def _mlp_ring_batch():
    """The mlp_ring shapes: 10 agents on a ring, 40 samples of 16 features
    each, 25 hidden units, 3 classes (d = 503), at points, duals and mu_z
    where every row accepts step 1 in every iteration: the stack, the rows'
    problems, their batch and the start points."""
    features, labels = gaussian_blobs(400, 16, 3, seed=2, spread=2.0)
    built = [MlpLoss(features[40 * i : 40 * i + 40], labels[40 * i : 40 * i + 40],
                     hidden=25, classes=3, l2=1e-4) for i in range(10)]
    stack = LossStack(built)
    rng = np.random.default_rng(2)
    x0 = 0.1 * np.array([loss.init_params(2) for loss in built])
    problems = [
        Row(loss, 0.01 * rng.standard_normal(loss.dim),
            0.5 * (x0[i] + x0[[(i - 1) % 10, (i + 1) % 10]]), 0.5)
        for i, loss in enumerate(built)
    ]
    return stack, problems, batch_of(problems, stack, range(10)), x0


class TestLeanPath:
    def test_first_trials_all_accepted_cost_one_fused_call_per_iteration(self):
        # With the start's loss values and gradients given, as the engine
        # gives its carried rows, the solve is one whole fused
        # value-and-gradient call per iteration, all through the batch's
        # plan, and no row subset is resolved.
        stack, problems, batch, x0 = _mlp_ring_batch()
        start = stack.values_and_gradients(x0, np.arange(10))
        tau = 5
        calls = StackCalls(stack)
        got = solve_lbfgs(batch, x0, tau, start=start)
        assert got.iterations.tolist() == [tau] * 10
        assert not got.backtracks.any() and not got.line_search_failures.any()
        assert calls.calls == calls.planned == {"gradients": 0, "values_and_gradients": tau}
        assert calls.rows == {"gradients": 0, "values_and_gradients": 10 * tau}
        assert calls.plans == 0
        for n, (problem, x_start) in enumerate(zip(problems, x0)):
            want = reference_solve_lbfgs(problem, x_start, tau)
            assert np.array_equal(got.x_out[n], want.x_out[0])
            for name in ("grad_norms", "values", "loss_grad_out", "loss_value_out"):
                assert np.array_equal(getattr(got, name)[n], getattr(want, name)[0]), name


class TestReportedLossTerms:
    # Every solver reports the loss values and gradients at the models it
    # returns, bit for bit, whether it evaluated the start itself or was
    # given it: the stop-mid-solve rows include an identity quadratic whose
    # first step lands exactly on its minimizer, so gradient descent stops
    # it after one of its five steps.
    @pytest.mark.parametrize("solver", ["lbfgs", "gd", "exact"])
    @pytest.mark.parametrize("given_start", [False, True])
    def test_equal_the_losses_at_x_out(self, solver, given_start):
        stack, active, problems, x_start, tau, memory = _stop_mid_solve_case()
        if solver == "exact":
            # The closed form needs quadratics without a negated gradient.
            active, problems, x_start = active[:2], problems[:2], x_start[:2]
        batch = batch_of(problems, stack, active)
        start = stack.values_and_gradients(x_start, active) if given_start else None
        if solver == "lbfgs":
            got = solve_lbfgs(batch, x_start, tau, memory, start)
        elif solver == "gd":
            got = solve_gd(batch, x_start, tau, start=start)
            assert got.iterations.tolist() == [1, tau, tau]
        else:
            got = solve_exact(batch)
        values = [stack[i].value(x) for i, x in zip(active, got.x_out)]
        assert np.array_equal(got.loss_value_out, values)
        assert np.array_equal(got.loss_grad_out, stack.gradients(got.x_out, active))
