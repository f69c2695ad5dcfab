import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from perfsim.losses import (LogisticLoss, QuadraticLoss, dot, logistic_constants, mean_grad,
                            sigmoid)

finite_floats = st.floats(-20.0, 20.0)


def sample(x=None, y=None, z=None):
    """One-trial batch of one sample: the scalar ``z``, or features ``x`` with label ``y``."""
    if z is not None:
        return np.array([[z]], dtype=float)
    return np.array([[x]], dtype=float), np.array([[y]], dtype=float)


def dataset(xs, ys):
    """One-trial batch of the feature rows ``xs`` with labels ``ys``."""
    return np.array([xs], dtype=float), np.array([ys], dtype=float)


def grad1(loss, theta, batch):
    """Gradient of one model ``theta`` (d,) on a one-trial batch."""
    return loss.grad(theta[None], batch)[0]


def loss1(loss, theta, batch):
    """Mean loss of one model ``theta`` (d,) on a one-trial batch."""
    return float(loss.loss(theta[None], batch)[0])


def fd_gradient(fn, theta, h=1e-6):
    """Central-difference gradient oracle."""
    g = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (fn(theta + e) - fn(theta - e)) / (2.0 * h)
    return g


# Entries of either sign from 1e-150 to 1e150, zeros, infinities and NaN.
wide_floats = st.one_of(st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150),
                        st.sampled_from([0.0, np.inf, -np.inf, np.nan]))


@st.composite
def dot_operands(draw):
    """A pair of operands in one of the layouts the engine dots: rows against
    rows, a trial batch (T, n, d) against its models (T, 1, d), and agents
    (m, d) against one model (d,)."""
    d = draw(st.sampled_from([1, 3, 50]))
    t, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shapes = draw(st.sampled_from([((n, d), (n, d)), ((t, n, d), (t, 1, d)), ((n, d), (d,))]))
    return tuple(draw(hnp.arrays(float, s, elements=wide_floats)) for s in shapes)


class TestDot:
    @settings(max_examples=200, deadline=None)
    @given(dot_operands())
    def test_matches_one_row_matmul_bit_for_bit(self, operands):
        a, b = operands
        with np.errstate(all="ignore"):
            got = dot(a, b)
            rows = (a[..., None, :] @ b[..., :, None])[..., 0, 0]
        assert got.shape == rows.shape
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(rows).view(np.int64))


class TestQuadratic:
    def test_zero_residual(self):
        assert loss1(QuadraticLoss(), np.array([3.0]), sample(z=3.0)) == 0.0

    def test_grad_value(self):
        g = grad1(QuadraticLoss(), np.array([1.0]), sample(z=3.0))
        assert np.array_equal(g, np.array([-2.0]))

    def test_rejects_feature_samples(self):
        with pytest.raises(ValueError):
            loss1(QuadraticLoss(), np.array([1.0]), sample(x=np.ones(1), y=1))


class TestLogistic:
    def test_zero_theta_gives_log_two(self):
        loss = LogisticLoss(beta=0.0)
        s = sample(x=[4.0, -2.0], y=1)
        assert loss1(loss, np.zeros(2), s) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_value_example(self):
        # beta = 2, theta = (1, 0), x = (1, 1), y = 1:
        # (2/2)*1 + log(1 + e) - 1 = log(1 + e)
        loss = LogisticLoss(beta=2.0)
        s = sample(x=[1.0, 1.0], y=1)
        value = loss1(loss, np.array([1.0, 0.0]), s)
        assert value == pytest.approx(np.log1p(np.e), rel=1e-14)
        assert value == pytest.approx(1.3133, abs=1e-4)

    def test_grad_at_zero(self):
        loss = LogisticLoss(beta=7.0)
        x = np.array([2.0, -1.0])
        g = grad1(loss, np.zeros(2), sample(x=x, y=1))
        assert np.allclose(g, -x / 2.0, rtol=0, atol=1e-15)

    def test_grad_matches_finite_differences(self):
        loss = LogisticLoss(beta=1.0)
        s = sample(x=[2.0, 1.0], y=0)
        theta = np.array([0.5, -0.5])
        g = grad1(loss, theta, s)
        fd = fd_gradient(lambda t: loss1(loss, t, s), theta)
        assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))

    def test_overflow_safe(self):
        loss = LogisticLoss(beta=0.5)
        x = np.full(3, 100.0)
        theta = np.full(3, 10.0)  # inner product 3000
        for y in (0, 1):
            v = loss1(loss, theta, sample(x=x, y=y))
            g = grad1(loss, theta, sample(x=x, y=y))
            assert np.isfinite(v)
            assert np.all(np.isfinite(g))

    def test_dimension_mismatch(self):
        loss = LogisticLoss(beta=1.0)
        with pytest.raises(ValueError):
            grad1(loss, np.zeros(3), sample(x=np.zeros(2), y=0))


class TestGradientProperties:
    def test_fd_agreement_random_inputs(self):
        rng = np.random.default_rng(31)
        loss = LogisticLoss(beta=0.7)
        for _ in range(25):
            theta = rng.normal(size=4)
            s = sample(x=rng.normal(size=4), y=int(rng.integers(2)))
            g = grad1(loss, theta, s)
            fd = fd_gradient(lambda t: loss1(loss, t, s), theta)
            assert np.max(np.abs(g - fd)) <= 1e-5 * (1.0 + np.max(np.abs(g)))

    def test_strong_convexity_witness(self):
        rng = np.random.default_rng(32)
        cases = [(QuadraticLoss(), 1.0, lambda: sample(z=float(rng.normal()))),
                 (LogisticLoss(beta=2.5), 2.5,
                  lambda: sample(x=rng.normal(size=3), y=int(rng.integers(2))))]
        for loss, mu, draw in cases:
            d = 1 if isinstance(loss, QuadraticLoss) else 3
            for _ in range(40):
                s = draw()
                t1, t2 = rng.normal(size=d), rng.normal(size=d)
                lower = (loss1(loss, t2, s) + grad1(loss, t2, s) @ (t1 - t2)
                         + 0.5 * mu * float((t1 - t2) @ (t1 - t2)))
                assert loss1(loss, t1, s) >= lower - 1e-9

    @given(t1=st.lists(finite_floats, min_size=2, max_size=2),
           t2=st.lists(finite_floats, min_size=2, max_size=2),
           x=st.lists(finite_floats, min_size=2, max_size=2),
           y=st.integers(0, 1), beta=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_strong_convexity_witness_property(self, t1, t2, x, y, beta):
        loss = LogisticLoss(beta=beta)
        s = sample(x=x, y=y)
        t1, t2 = np.array(t1), np.array(t2)
        lower = (loss1(loss, t2, s) + grad1(loss, t2, s) @ (t1 - t2)
                 + 0.5 * beta * float((t1 - t2) @ (t1 - t2)))
        assert loss1(loss, t1, s) >= lower - 1e-7 * (1.0 + abs(lower))

    def test_gradient_lipschitz_witness(self):
        rng = np.random.default_rng(33)
        loss = LogisticLoss(beta=1.5)
        for _ in range(40):
            x = rng.normal(size=3)
            s = sample(x=x, y=int(rng.integers(2)))
            t1, t2 = rng.normal(size=3), rng.normal(size=3)
            lhs = np.linalg.norm(grad1(loss, t1, s) - grad1(loss, t2, s))
            bound = (1.5 + float(x @ x) / 4.0) * np.linalg.norm(t1 - t2)
            assert lhs <= bound * (1.0 + 1e-12)
        quad = QuadraticLoss()
        for _ in range(10):
            s = sample(z=float(rng.normal()))
            t1, t2 = rng.normal(size=1), rng.normal(size=1)
            lhs = np.linalg.norm(grad1(quad, t1, s) - grad1(quad, t2, s))
            assert lhs <= 1.0 * np.linalg.norm(t1 - t2) * (1.0 + 1e-12)


class TestMeanGrad:
    def test_quadratic_example(self):
        data = np.array([[1.0, 3.0]])
        g = mean_grad(QuadraticLoss(), np.zeros(1), data)
        assert np.array_equal(g, np.array([-2.0]))

    def test_duplicates_equal_single(self):
        loss = LogisticLoss(beta=1.0)
        theta = np.array([0.3, -0.3])
        pair = dataset([[1.0, 2.0], [1.0, 2.0]], [1, 1])
        assert np.allclose(mean_grad(loss, theta, pair), grad1(loss, theta, sample(x=[1.0, 2.0], y=1)),
                           rtol=0, atol=1e-15)

    def test_trial_batch_matches_single_trials_bit_for_bit(self):
        # each trial's row of a (T, n) batch is that trial's minibatch mean,
        # summed left to right: the same bits as the trial on its own
        rng = np.random.default_rng(37)
        loss = LogisticLoss(beta=0.9)
        theta = rng.normal(size=(4, 3))
        features = rng.normal(size=(4, 5, 3))
        labels = rng.integers(2, size=(4, 5)).astype(float)
        g = loss.grad(theta, (features, labels))
        for t in range(4):
            data = [sample(x=features[t, j], y=labels[t, j]) for j in range(5)]
            total = grad1(loss, theta[t], data[0]).copy()
            for one in data[1:]:
                total += grad1(loss, theta[t], one)
            assert np.array_equal(g[t], total / 5)
            assert np.array_equal(g[t], mean_grad(loss, theta[t], dataset(features[t], labels[t])))
        z = rng.normal(size=(4, 3))
        gq = QuadraticLoss().grad(theta[:, :1], z)
        assert np.array_equal(gq, ((theta[:, :1] - z[:, :1]) + (theta[:, :1] - z[:, 1:2])
                                   + (theta[:, :1] - z[:, 2:])) / 3)

    def test_matches_average_of_individual_calls(self):
        rng = np.random.default_rng(34)
        loss = LogisticLoss(beta=0.9)
        theta = rng.normal(size=3)
        xs, ys = rng.normal(size=(100, 3)), rng.integers(2, size=100)
        avg = sum(grad1(loss, theta, sample(x=x, y=y)) for x, y in zip(xs, ys)) / 100
        assert np.max(np.abs(mean_grad(loss, theta, dataset(xs, ys)) - avg)) <= 1e-12

    def test_batch_loss_matches_average(self):
        rng = np.random.default_rng(36)
        loss = LogisticLoss(beta=2.0)
        theta = rng.normal(size=2)
        xs, ys = rng.normal(size=(30, 2)), rng.integers(2, size=30)
        avg = sum(loss1(loss, theta, sample(x=x, y=y)) for x, y in zip(xs, ys)) / 30
        assert loss1(loss, theta, dataset(xs, ys)) == pytest.approx(avg, rel=1e-14)

    def test_empty_dataset_rejected(self):
        empty_scalars = np.zeros((1, 0))
        empty_pairs = np.zeros((1, 0, 2)), np.zeros((1, 0))
        for loss, theta, empty in ((QuadraticLoss(), np.zeros(1), empty_scalars),
                                   (LogisticLoss(beta=1.0), np.zeros(2), empty_pairs)):
            with pytest.raises(ValueError):
                mean_grad(loss, theta, empty)
            with pytest.raises(ValueError):
                loss.loss(theta[None], empty)


class TestLogisticConstants:
    def test_matches_manual_formulas(self):
        rng = np.random.default_rng(35)
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
