import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfsim.core import RngStream
from perfsim.losses import (LogisticLoss, QuadraticLoss, Sample, as_batch,
                            logistic_constants, mean_grad, mean_loss, sigmoid)

finite_floats = st.floats(-20.0, 20.0)


def grad1(loss, theta, sample):
    """Gradient at one sample: a one-trial batch of one sample."""
    return loss.grad(theta[None], as_batch([sample]))[0]


def fd_gradient(fn, theta, h=1e-6):
    """Central-difference gradient oracle."""
    g = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (fn(theta + e) - fn(theta - e)) / (2.0 * h)
    return g


class TestQuadratic:
    def test_zero_residual(self):
        assert QuadraticLoss().loss(np.array([3.0]), Sample(scalar=3.0)) == 0.0

    def test_grad_value(self):
        g = grad1(QuadraticLoss(), np.array([1.0]), Sample(scalar=3.0))
        assert np.array_equal(g, np.array([-2.0]))

    def test_rejects_feature_samples(self):
        with pytest.raises(ValueError):
            QuadraticLoss().loss(np.array([1.0]), Sample(features=np.ones(1), label=1))


class TestLogistic:
    def test_zero_theta_gives_log_two(self):
        loss = LogisticLoss(beta=0.0)
        s = Sample(features=np.array([4.0, -2.0]), label=1)
        assert loss.loss(np.zeros(2), s) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_value_example(self):
        # beta = 2, theta = (1, 0), x = (1, 1), y = 1:
        # (2/2)*1 + log(1 + e) - 1 = log(1 + e)
        loss = LogisticLoss(beta=2.0)
        s = Sample(features=np.array([1.0, 1.0]), label=1)
        value = loss.loss(np.array([1.0, 0.0]), s)
        assert value == pytest.approx(np.log1p(np.e), rel=1e-14)
        assert value == pytest.approx(1.3133, abs=1e-4)

    def test_grad_at_zero(self):
        loss = LogisticLoss(beta=7.0)
        x = np.array([2.0, -1.0])
        g = grad1(loss, np.zeros(2), Sample(features=x, label=1))
        assert np.allclose(g, -x / 2.0, rtol=0, atol=1e-15)

    def test_grad_matches_finite_differences(self):
        loss = LogisticLoss(beta=1.0)
        s = Sample(features=np.array([2.0, 1.0]), label=0)
        theta = np.array([0.5, -0.5])
        g = grad1(loss, theta, s)
        fd = fd_gradient(lambda t: loss.loss(t, s), theta)
        assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))

    def test_overflow_safe(self):
        loss = LogisticLoss(beta=0.5)
        x = np.full(3, 100.0)
        theta = np.full(3, 10.0)  # inner product 3000
        for y in (0, 1):
            v = loss.loss(theta, Sample(features=x, label=y))
            g = grad1(loss, theta, Sample(features=x, label=y))
            assert np.isfinite(v)
            assert np.all(np.isfinite(g))

    def test_dimension_mismatch(self):
        loss = LogisticLoss(beta=1.0)
        with pytest.raises(ValueError):
            grad1(loss, np.zeros(3), Sample(features=np.zeros(2), label=0))


class TestGradientProperties:
    def test_fd_agreement_random_inputs(self):
        rng = RngStream(31).generator()
        loss = LogisticLoss(beta=0.7)
        for _ in range(25):
            theta = rng.normal(size=4)
            s = Sample(features=rng.normal(size=4), label=int(rng.integers(2)))
            g = grad1(loss, theta, s)
            fd = fd_gradient(lambda t: loss.loss(t, s), theta)
            assert np.max(np.abs(g - fd)) <= 1e-5 * (1.0 + np.max(np.abs(g)))

    def test_strong_convexity_witness(self):
        rng = RngStream(32).generator()
        cases = [(QuadraticLoss(), 1.0, lambda: Sample(scalar=float(rng.normal()))),
                 (LogisticLoss(beta=2.5), 2.5,
                  lambda: Sample(features=rng.normal(size=3), label=int(rng.integers(2))))]
        for loss, mu, draw in cases:
            d = 1 if isinstance(loss, QuadraticLoss) else 3
            for _ in range(40):
                s = draw()
                t1, t2 = rng.normal(size=d), rng.normal(size=d)
                lower = (loss.loss(t2, s) + grad1(loss, t2, s) @ (t1 - t2)
                         + 0.5 * mu * float((t1 - t2) @ (t1 - t2)))
                assert loss.loss(t1, s) >= lower - 1e-9

    @given(t1=st.lists(finite_floats, min_size=2, max_size=2),
           t2=st.lists(finite_floats, min_size=2, max_size=2),
           x=st.lists(finite_floats, min_size=2, max_size=2),
           y=st.integers(0, 1), beta=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_strong_convexity_witness_property(self, t1, t2, x, y, beta):
        loss = LogisticLoss(beta=beta)
        s = Sample(features=np.array(x), label=y)
        t1, t2 = np.array(t1), np.array(t2)
        lower = (loss.loss(t2, s) + grad1(loss, t2, s) @ (t1 - t2)
                 + 0.5 * beta * float((t1 - t2) @ (t1 - t2)))
        assert loss.loss(t1, s) >= lower - 1e-7 * (1.0 + abs(lower))

    def test_gradient_lipschitz_witness(self):
        rng = RngStream(33).generator()
        loss = LogisticLoss(beta=1.5)
        for _ in range(40):
            x = rng.normal(size=3)
            s = Sample(features=x, label=int(rng.integers(2)))
            t1, t2 = rng.normal(size=3), rng.normal(size=3)
            lhs = np.linalg.norm(grad1(loss, t1, s) - grad1(loss, t2, s))
            bound = (1.5 + float(x @ x) / 4.0) * np.linalg.norm(t1 - t2)
            assert lhs <= bound * (1.0 + 1e-12)
        quad = QuadraticLoss()
        for _ in range(10):
            s = Sample(scalar=float(rng.normal()))
            t1, t2 = rng.normal(size=1), rng.normal(size=1)
            lhs = np.linalg.norm(grad1(quad, t1, s) - grad1(quad, t2, s))
            assert lhs <= 1.0 * np.linalg.norm(t1 - t2) * (1.0 + 1e-12)


class TestMeanGrad:
    def test_quadratic_example(self):
        data = [Sample(scalar=1.0), Sample(scalar=3.0)]
        g = mean_grad(QuadraticLoss(), np.zeros(1), data)
        assert np.array_equal(g, np.array([-2.0]))

    def test_duplicates_equal_single(self):
        loss = LogisticLoss(beta=1.0)
        s = Sample(features=np.array([1.0, 2.0]), label=1)
        theta = np.array([0.3, -0.3])
        assert np.allclose(mean_grad(loss, theta, [s, s]), grad1(loss, theta, s),
                           rtol=0, atol=1e-15)

    def test_trial_batch_matches_single_trials_bit_for_bit(self):
        # each trial's row of a (T, n) batch is that trial's minibatch mean,
        # summed left to right: the same bits as the trial on its own
        rng = RngStream(37).generator()
        loss = LogisticLoss(beta=0.9)
        theta = rng.normal(size=(4, 3))
        features = rng.normal(size=(4, 5, 3))
        labels = rng.integers(2, size=(4, 5)).astype(float)
        g = loss.grad(theta, (features, labels))
        for t in range(4):
            data = [Sample(features=features[t, j], label=int(labels[t, j])) for j in range(5)]
            total = grad1(loss, theta[t], data[0]).copy()
            for sample in data[1:]:
                total += grad1(loss, theta[t], sample)
            assert np.array_equal(g[t], total / 5)
            assert np.array_equal(g[t], mean_grad(loss, theta[t], data))
        z = rng.normal(size=(4, 3))
        gq = QuadraticLoss().grad(theta[:, :1], z)
        assert np.array_equal(gq, ((theta[:, :1] - z[:, :1]) + (theta[:, :1] - z[:, 1:2])
                                   + (theta[:, :1] - z[:, 2:])) / 3)

    def test_matches_average_of_individual_calls(self):
        rng = RngStream(34).generator()
        loss = LogisticLoss(beta=0.9)
        theta = rng.normal(size=3)
        data = [Sample(features=rng.normal(size=3), label=int(rng.integers(2)))
                for _ in range(100)]
        avg = sum(grad1(loss, theta, s) for s in data) / len(data)
        assert np.max(np.abs(mean_grad(loss, theta, data) - avg)) <= 1e-12

    def test_mean_loss_matches_average(self):
        rng = RngStream(36).generator()
        loss = LogisticLoss(beta=2.0)
        theta = rng.normal(size=2)
        data = [Sample(features=rng.normal(size=2), label=int(rng.integers(2)))
                for _ in range(30)]
        avg = sum(loss.loss(theta, s) for s in data) / len(data)
        assert mean_loss(loss, theta, data) == pytest.approx(avg, rel=1e-14)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            mean_grad(QuadraticLoss(), np.zeros(1), [])
        with pytest.raises(ValueError):
            mean_loss(QuadraticLoss(), np.zeros(1), [])


class TestLogisticConstants:
    def test_matches_manual_formulas(self):
        rng = RngStream(35).generator()
        X = rng.normal(size=(50, 4))
        beta, eps = 2.0, 0.05
        L, mu_tilde = logistic_constants(X, beta, eps)
        fro2 = float(np.sum(X ** 2))
        assert L == pytest.approx(np.sqrt(2.0 * beta * 50 + fro2 / 2.0), rel=1e-14)
        assert mu_tilde == pytest.approx((1 - eps) * beta - eps * fro2 / (4.0 * 50), rel=1e-14)

    def test_sigmoid_edges(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
