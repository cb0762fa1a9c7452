"""Loss families: values, gradients vs finite differences, smoothness probe,
and the stacked evaluation against the one-agent losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caden import losses
from caden.datasets import gaussian_blobs
from caden.errors import LipschitzEstimateError

from helpers import (
    ReferenceLogisticLoss,
    ReferenceMlpLoss,
    ReferenceQuadraticLoss,
    central_difference,
    random_psd,
    reference_estimate_lipschitz,
)


def _loss_zoo():
    rng = np.random.default_rng(42)
    x_data, y_data = gaussian_blobs(60, 5, 3, seed=3)
    return [
        losses.QuadraticLoss(q=np.array([1.0, 10.0]), a=np.zeros(2)),
        losses.QuadraticLoss(q=random_psd(4, 25.0, rng), a=rng.standard_normal(4)),
        losses.LogisticLoss(x_data, y_data, classes=3, l2=0.01),
        losses.MlpLoss(x_data, y_data, hidden=7, classes=3, l2=0.001),
    ]


class TestValues:
    def test_quadratic_at_target(self):
        q = losses.QuadraticLoss(q=np.ones(3), a=np.zeros(3))
        assert q.value(np.zeros(3)) == 0.0

    def test_quadratic_hand_value(self):
        q = losses.QuadraticLoss(q=np.array([1.0, 10.0]), a=np.zeros(2))
        assert q.value(np.array([1.0, 1.0])) == pytest.approx(5.5)

    def test_logistic_zero_weights_is_log_classes(self):
        x_data, y_data = gaussian_blobs(40, 6, 2, seed=5)
        loss = losses.LogisticLoss(x_data, y_data, classes=2)
        assert loss.value(np.zeros(loss.dim)) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_dimension_mismatch(self):
        q = losses.QuadraticLoss(q=np.ones(2), a=np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            q.value(np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            q.gradient(np.zeros(3))

    def test_all_losses_bounded_below(self):
        rng = np.random.default_rng(1)
        for loss in _loss_zoo():
            for _ in range(10):
                assert loss.value(rng.standard_normal(loss.dim)) >= -1e-12


class TestGradients:
    def test_identity_quadratic_gradient(self):
        q = losses.QuadraticLoss(q=np.ones(3), a=np.zeros(3))
        v = np.array([0.5, -2.0, 1.0])
        assert np.array_equal(q.gradient(v), v)

    def test_diagonal_quadratic_gradient(self):
        q = losses.QuadraticLoss(q=np.array([1.0, 10.0]), a=np.zeros(2))
        assert np.array_equal(q.gradient(np.ones(2)), np.array([1.0, 10.0]))

    def test_matches_finite_differences(self):
        # Central-difference oracle at 20 random points across the zoo.
        rng = np.random.default_rng(7)
        for loss in _loss_zoo():
            for _ in range(5):
                x = rng.standard_normal(loss.dim)
                grad = loss.gradient(x)
                oracle = central_difference(loss.value, x)
                denom = max(np.linalg.norm(oracle), 1.0)
                assert np.linalg.norm(grad - oracle) / denom < 1e-5

    def test_mlp_parameter_count(self):
        x_data, y_data = gaussian_blobs(30, 16, 3, seed=0)
        loss = losses.MlpLoss(x_data, y_data, hidden=25, classes=3)
        assert loss.dim == 16 * 25 + 25 + 25 * 3 + 3

    def test_predict_shapes(self):
        x_data, y_data = gaussian_blobs(30, 4, 3, seed=0)
        for loss in (
            losses.LogisticLoss(x_data, y_data, classes=3),
            losses.MlpLoss(x_data, y_data, hidden=5, classes=3),
        ):
            params = np.zeros(loss.dim)
            assert loss.predict(params, x_data).shape == (30,)


class TestLipschitzEstimate:
    def test_identity_quadratic_is_exactly_one(self):
        # a = 0 makes the gradient difference bitwise equal to the step.
        loss = losses.QuadraticLoss(q=np.ones(3), a=np.zeros(3))
        est = losses.estimate_lipschitz(losses.LossStack([loss]), np.array([1.0, -2.0, 0.5]))
        assert est.l_hat == 1.0

    def test_ill_conditioned_quadratic_approaches_top_eigenvalue(self):
        # The warm rate must overshoot 2 / (lam_max + lam_min) so the steep
        # mode dominates the probe directions; the quotients then climb to
        # lam_max from below.
        loss = losses.QuadraticLoss(q=np.array([1.0, 10.0]), a=np.zeros(2))
        est = losses.estimate_lipschitz(
            losses.LossStack([loss]), np.array([1.0, 1.0]), warm_epochs=20, warm_lr=0.19,
            probe_epochs=10, probe_lr=1e-7,
        )
        assert 9.99 <= est.l_hat <= 10.0

    def test_never_exceeds_top_eigenvalue(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = random_psd(5, 40.0, rng)
            loss = losses.QuadraticLoss(q=q, a=rng.standard_normal(5))
            est = losses.estimate_lipschitz(
                losses.LossStack([loss]), rng.standard_normal(5), warm_epochs=15, warm_lr=0.04
            )
            assert est.l_hat <= np.linalg.eigvalsh(q)[-1] + 1e-9

    def test_mlp_smoke(self):
        x_data, y_data = gaussian_blobs(40, 6, 3, seed=9)
        loss = losses.MlpLoss(x_data, y_data, hidden=8, classes=3)
        est = losses.estimate_lipschitz(losses.LossStack([loss]), loss.init_params(0))
        assert np.isfinite(est.l_hat) and est.l_hat > 0.0
        assert est.x_init.shape == (1, loss.dim)

    def test_all_pairs_skipped_is_an_error(self):
        # Start at the exact minimizer: every probe step has zero length.
        loss = losses.QuadraticLoss(q=np.ones(2), a=np.zeros(2))
        with pytest.raises(LipschitzEstimateError):
            losses.estimate_lipschitz(losses.LossStack([loss]), np.zeros(2), warm_epochs=0)

    @pytest.mark.parametrize("family", ["logistic", "mlp"])
    def test_lockstep_probe_equals_the_one_agent_probe_bit_for_bit(self, family):
        # Uneven last shard: the stack evaluates two groups per epoch.
        rng = np.random.default_rng(11)
        built, reference = [], []
        for rows in (30, 30, 30, 17):
            x_data, y_data = gaussian_blobs(rows, 4, 3, seed=int(rng.integers(1000)))
            if family == "logistic":
                built.append(losses.LogisticLoss(x_data, y_data, classes=3, l2=1e-3))
                reference.append(ReferenceLogisticLoss(x_data, y_data, classes=3, l2=1e-3))
            else:
                built.append(losses.MlpLoss(x_data, y_data, hidden=5, classes=3, l2=1e-3))
                reference.append(ReferenceMlpLoss(x_data, y_data, hidden=5, classes=3, l2=1e-3))
        stack = losses.LossStack(built)
        assert len(stack._groups) == 2
        x0 = 0.5 * rng.standard_normal(stack.dim)
        est = losses.estimate_lipschitz(stack, x0, warm_epochs=7, warm_lr=0.05)
        lone = [reference_estimate_lipschitz(ref, x0, warm_epochs=7, warm_lr=0.05)
                for ref in reference]
        assert est.x_init.shape == (4, stack.dim)
        for row, one in zip(est.x_init, lone):
            assert np.array_equal(row, one.x_init)
        assert est.l_hat == max(one.l_hat for one in lone) > 0.0

    def test_an_agent_at_its_minimizer_is_named(self):
        # Agent 1 starts at its own minimizer, so its probe steps have zero
        # length; the others probe normally.
        targets = np.array([[1.0, 2.0], [-1.0, 0.5], [3.0, -2.0]])
        stack = losses.LossStack(
            [losses.QuadraticLoss(q=np.array([1.0, 4.0]), a=a) for a in targets]
        )
        x0 = np.array([[0.0, 0.0], targets[1], [0.0, 0.0]])
        with pytest.raises(LipschitzEstimateError, match=r"^agent 1: .*raise probe_lr"):
            losses.estimate_lipschitz(stack, x0, warm_epochs=0)


@st.composite
def _stacked_agents(draw):
    """Agents of one data-loss family with equal shards except possibly the
    last (IDX sharding gives it the remainder), plus 0-4 quadratic agents of
    the same dimension, each with diagonal or full curvature, in shuffled
    order; returns (losses, reference losses, rng)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["logistic", "mlp"]))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    n_last = draw(st.integers(1, n + 5))
    p = draw(st.integers(1, 6))
    hidden = draw(st.integers(1, 6))
    classes = draw(st.integers(2, 4))
    l2 = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    built, reference = [], []
    for i in range(m):
        rows = n_last if i == m - 1 else n
        features = scale * rng.standard_normal((rows, p))
        labels = rng.integers(0, classes, rows)
        if family == "logistic":
            built.append(losses.LogisticLoss(features, labels, classes, l2))
            reference.append(ReferenceLogisticLoss(features, labels, classes, l2))
        else:
            built.append(losses.MlpLoss(features, labels, hidden, classes, l2))
            reference.append(ReferenceMlpLoss(features, labels, hidden, classes, l2))
    d = built[0].dim
    for full in draw(st.lists(st.booleans(), max_size=4)):
        q = random_psd(d, 30.0, rng) if full else rng.uniform(0.5, 2.0, d)
        a = scale * rng.standard_normal(d)
        built.append(losses.QuadraticLoss(q=q, a=a))
        reference.append(ReferenceQuadraticLoss(q=q, a=a))
    order = rng.permutation(len(built))
    return [built[i] for i in order], [reference[i] for i in order], rng


class TestLossStack:
    @settings(max_examples=150, deadline=None)
    @given(_stacked_agents(), st.data())
    def test_rows_equal_the_one_agent_losses_bit_for_bit(self, agents, data):
        built, reference, rng = agents
        stack = losses.LossStack(built)
        m, d = len(built), built[0].dim
        rows = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m)))
        x = rng.standard_normal((len(rows), d)) * rng.uniform(0.1, 3.0)
        gradients = stack.gradients(x, rows)
        # The fused call gives the values and the gradient call's gradients
        # bit for bit, every family included.
        values, fused_gradients = stack.values_and_gradients(x, rows)
        assert np.array_equal(fused_gradients, gradients)
        classifiers = [i for i, loss in enumerate(built) if hasattr(loss, "predict")]
        features = rng.standard_normal((7, built[classifiers[0]].n_features))
        # Every classifier agent's labels from one call of a stack of them.
        x_agents = rng.standard_normal((len(classifiers), d)) * rng.uniform(0.1, 3.0)
        labels = losses.LossStack([built[i] for i in classifiers]).predictions(x_agents, features)
        assert labels.shape == (len(classifiers), 7)
        for row, agent in enumerate(classifiers):
            assert np.array_equal(labels[row], reference[agent].predict(x_agents[row], features))
        for n, agent in enumerate(rows):
            ref = reference[agent]
            assert values[n] == ref.value(x[n])
            assert np.array_equal(gradients[n], ref.gradient(x[n]))
            assert built[agent].value(x[n]) == ref.value(x[n])
            assert np.array_equal(built[agent].gradient(x[n]), ref.gradient(x[n]))
            if hasattr(ref, "predict"):
                want = ref.predict(x[n], features)
                assert np.array_equal(built[agent].predict(x[n], features), want)

    @pytest.mark.parametrize("family", ["logistic", "mlp", "quadratic"])
    def test_members_read_views_of_the_stacked_shards(self, family):
        # The data is held once: each grouped loss's shard is a view of its
        # group's arrays; an uneven last shard, or a diagonal last quadratic
        # among full ones, forms its own group, which views the loss's own
        # arrays.  An MLP shard holds its features with a column of ones
        # appended, and its features are a view of those.
        rng = np.random.default_rng(0)
        if family == "quadratic":
            data = [(random_psd(3, 10.0, rng), rng.standard_normal(3)) for _ in range(3)]
            data.append((rng.uniform(0.5, 2.0, 3), rng.standard_normal(3)))
            built = [losses.QuadraticLoss(q, a) for q, a in data]
            fields = {"q": (3, 3, 3), "a": (3, 3)}
            held = fields
        else:
            sizes = (5, 5, 5, 4)
            data = [(rng.standard_normal((n, 3)), rng.integers(0, 2, n)) for n in sizes]
            if family == "logistic":
                built = [losses.LogisticLoss(f, y, classes=2) for f, y in data]
                held = {"features": (3, 5, 3), "labels": (3, 5)}
            else:
                built = [losses.MlpLoss(f, y, hidden=4, classes=2) for f, y in data]
                held = {"augmented": (3, 5, 4), "labels": (3, 5), "onehot": (3, 5, 2)}
            fields = {"features": (3, 5, 3), "labels": (3, 5)}
        x = rng.standard_normal(built[0].dim)
        before = [loss.value(x) for loss in built]
        own = built[-1].shard
        losses.LossStack(built)
        *grouped, last = (loss.shard for loss in built)
        for name, shape in held.items():
            stacked = getattr(grouped[0], name).base
            assert stacked.shape == shape
            for shard in grouped:
                assert np.shares_memory(getattr(shard, name), stacked)
            assert not np.shares_memory(getattr(last, name), stacked)
            assert np.shares_memory(getattr(last, name), getattr(own, name))
        if family == "mlp":
            for loss in built:
                shard = loss.shard
                assert np.shares_memory(shard.features, shard.augmented)
                assert np.array_equal(shard.augmented[:, -1], np.ones(len(shard)))
                assert np.array_equal(shard.onehot.argmax(axis=-1), shard.labels)
        else:
            for name, array in zip(fields, data[-1]):
                assert np.shares_memory(getattr(last, name), array)
        for loss, arrays, value in zip(built, data, before):
            for name, array in zip(fields, arrays):
                assert np.array_equal(getattr(loss.shard, name), array)
            assert loss.value(x) == value

    def test_quadratic_stack_never_calls_the_one_row_methods(self, monkeypatch):
        rng = np.random.default_rng(4)
        curvatures = [random_psd(3, 10.0, rng) for _ in range(3)]
        curvatures += [rng.uniform(0.5, 2.0, 3) for _ in range(2)]
        targets = rng.standard_normal((5, 3))
        stack = losses.LossStack([losses.QuadraticLoss(q, a) for q, a in zip(curvatures, targets)])

        def refuse(self, x):
            raise AssertionError("a quadratic was evaluated row by row")

        monkeypatch.setattr(losses.QuadraticLoss, "value", refuse)
        monkeypatch.setattr(losses.QuadraticLoss, "gradient", refuse)
        rows = np.array([4, 0, 2, 3, 1, 0, 3])
        x = rng.standard_normal((len(rows), 3))
        values, gradients = stack.values_and_gradients(x, rows)
        assert np.array_equal(stack.gradients(x, rows), gradients)
        for n, agent in enumerate(rows):
            ref = ReferenceQuadraticLoss(curvatures[agent], targets[agent])
            assert values[n] == ref.value(x[n])
            assert np.array_equal(gradients[n], ref.gradient(x[n]))

    def test_behaves_as_the_list_of_losses(self):
        zoo = [_loss_zoo()[2] for _ in range(2)]
        stack = losses.LossStack(zoo)
        assert len(stack) == 2 and list(stack) == zoo and stack[1] is zoo[1]

    def test_refuses_members_of_another_dimension(self):
        # Logistic d = 15 and MLP d = 66 on the same data.
        with pytest.raises(ValueError, match=r"^loss 1 has dim 66, but loss 0 has dim 15$"):
            losses.LossStack(_loss_zoo()[2:])

    @pytest.mark.parametrize("doubled_first", [False, True])
    def test_a_subclass_kernel_evaluates_its_own_rows(self, doubled_first):
        # A subclass that overrides a kernel forms its own group, so each
        # row reads its own loss's kernel in either member order.
        class Doubled(losses.QuadraticLoss):
            _values_and_gradients = losses.LocalLoss._values_and_gradients

            def _gradients(self, x, data):
                return 2.0 * super()._gradients(x, data)

        plain = losses.QuadraticLoss(q=np.ones(2), a=np.zeros(2))
        doubled = Doubled(q=np.ones(2), a=np.zeros(2))
        members = [doubled, plain] if doubled_first else [plain, doubled]
        stack = losses.LossStack(members)
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        gradients = stack.gradients(x, [0, 1])
        fused_values, fused_gradients = stack.values_and_gradients(x, [0, 1])
        for n, loss in enumerate(members):
            assert fused_values[n] == loss.value(x[n])
            assert np.array_equal(gradients[n], loss.gradient(x[n]))
            assert np.array_equal(fused_gradients[n], loss.gradient(x[n]))
        assert np.array_equal(doubled.gradient(x[0]), [2.0, 4.0])

    def test_a_kernel_override_without_the_fused_kernel_is_refused(self):
        # The quadratic's fused kernel does not call _values, so a subclass
        # that overrides _values alone would lose its override in every
        # fused call: defining it raises, naming the class and the family.
        match = (r"^Clipped overrides _values or _gradients but inherits the fused kernel "
                 r"QuadraticLoss\._values_and_gradients")
        with pytest.raises(TypeError, match=match):
            class Clipped(losses.QuadraticLoss):
                def _values(self, x, data):
                    return np.minimum(super()._values(x, data), 1.0)

    def test_a_kernel_override_with_the_calling_fused_kernel_is_accepted(self):
        # LocalLoss's fused kernel calls the other two, so taking it keeps
        # the override in fused calls.
        class Clipped(losses.QuadraticLoss):
            _values_and_gradients = losses.LocalLoss._values_and_gradients

            def _values(self, x, data):
                return np.minimum(super()._values(x, data), 1.0)

        stack = losses.LossStack([Clipped(q=np.ones(2), a=np.zeros(2))])
        values, gradients = stack.values_and_gradients(np.array([[3.0, 4.0]]), [0])
        assert values.tolist() == [1.0]
        assert gradients.tolist() == [[3.0, 4.0]]

    def test_refuses_a_loss_without_kernels(self):
        class Lone(losses.LocalLoss):
            dim = 2

        with pytest.raises(TypeError, match=r"^loss 1 \(Lone\) has no stack_key$"):
            losses.LossStack([losses.QuadraticLoss(q=np.ones(2), a=np.zeros(2)), Lone()])


class TestQuadraticKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 17),
        d=st.integers(1, 80),
        log_scale=st.floats(-5.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_matmul_rows_equal_the_lone_product(self, k, d, log_scale, seed):
        # A full quadratic's stacked gradient rows equal its lone q @ r bit
        # for bit only because numpy runs each (d, d) x (d, 1) product of the
        # stack as the lone matrix-vector product; a change fails here by name.
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        q = scale * rng.standard_normal((k, d, d))
        r = scale * rng.standard_normal((k, d))
        want = np.array([q[n] @ r[n] for n in range(k)])
        assert np.array_equal(np.matmul(q, r[..., None])[..., 0], want)


class TestSoftmax:
    @settings(max_examples=200, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        classes=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_max_reduction_form_bit_for_bit(self, lead, classes, seed):
        # The kernel takes the row maximum one class at a time; with ties,
        # signed zeros, infinities and NaNs among the logits it must give
        # the bits of the written-out max(axis=-1) form.
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e300, -1e-300])
        logits = 10.0 ** rng.uniform(-3, 3, (*lead, classes)) * rng.standard_normal(
            (*lead, classes))
        special = rng.random(logits.shape) < 0.3
        logits[special] = rng.choice(pool, int(special.sum()))
        with np.errstate(invalid="ignore", over="ignore"):
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            want = e / e.sum(axis=-1, keepdims=True)
            got = losses._softmax(logits)
        assert np.array_equal(got, want, equal_nan=True)
