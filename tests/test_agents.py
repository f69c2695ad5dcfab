import math

import numpy as np
import pytest

from perfsim.agents import (AdaptedBestResponseKernel, AgentPool, AgentDivergenceError,
                            ArGaussianKernel, ExactBestResponseKernel, GaussianEnv,
                            IidGaussianKernel, LogisticUtility, QuadraticUtility)
from perfsim.core import RngStream
from perfsim.data import generate_synthetic


def advance_then_emit(kern, theta, rng):
    """One agent transition followed by one emission, as the learner sees it,
    for a one-trial block; returns the trial's sample: its scalar, or its
    features and label."""
    kern.advance(theta[None], [rng])
    samples = kern.emit(theta[None], [rng])
    if isinstance(samples, tuple):
        features, labels = samples
        return features[0, 0], labels[0, 0]
    return float(samples[0, 0])


def small_pool(utility=None, m=20, d=3, alpha=None, participation=4, eps=0.05):
    ds = generate_synthetic(d=d, m=m, seed=5)
    utility = utility or QuadraticUtility(epsilon=eps)
    alpha = 0.5 * utility.epsilon if alpha is None else alpha
    return AgentPool(ds.features, ds.labels, utility, alpha=alpha,
                     participation=participation)


class TestGaussianEnv:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianEnv(z_bar=0.0, epsilon=1.0, sigma=1.0)
        with pytest.raises(ValueError):
            GaussianEnv(z_bar=0.0, epsilon=0.1, sigma=1.0, rho=0.0)

    def test_stationary_variance_formula(self):
        env = GaussianEnv(z_bar=0.0, epsilon=0.1, sigma=3.0, rho=0.5)
        assert env.stationary_variance() == pytest.approx(9.0 * 0.5 / 1.5)


class TestIidKernels:
    def test_noiseless_emission_is_shifted_mean(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=0.0)
        kern = IidGaussianKernel(env)
        out = advance_then_emit(kern, np.array([1.0]), RngStream(1).generator())
        assert out == pytest.approx(10.1, rel=1e-15)

    def test_monte_carlo_mean(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=2.0)
        kern = IidGaussianKernel(env)
        rng = RngStream(2).generator()
        theta = np.array([4.0])
        n = 100_000
        zs = kern.emit(theta[None], [rng], n)[0]
        assert abs(zs.mean() - env.shifted_mean(theta)) <= 3.0 * env.sigma / math.sqrt(n)

    def test_exact_best_response_emission(self):
        pool = small_pool()
        kern = ExactBestResponseKernel(pool)
        theta = np.array([1.0, -2.0, 0.5])
        features, label = advance_then_emit(kern, theta, RngStream(3).generator())
        shifted = pool.base_features + pool.utility.epsilon * theta
        matches = np.all(np.isclose(shifted, features, rtol=0, atol=1e-15), axis=1)
        assert matches.any()
        assert label == pool.labels[np.flatnonzero(matches)[0]]


class TestArKernel:
    def test_rho_one_reduces_to_iid(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=5.0, rho=1.0)
        theta = np.array([2.0])
        ar = ArGaussianKernel(env)
        iid = IidGaussianKernel(env)
        ar_vals, iid_vals = [], []
        rng_a = RngStream(4).generator()
        rng_b = RngStream(4).generator()
        for _ in range(50):
            ar_vals.append(advance_then_emit(ar, theta, rng_a))
            iid_vals.append(advance_then_emit(iid, theta, rng_b))
        assert np.array_equal(ar_vals, iid_vals)

    def test_noiseless_midpoint(self):
        env = GaussianEnv(z_bar=4.0, epsilon=0.0, sigma=0.0, rho=0.5)
        kern = ArGaussianKernel(env, z0=0.0)
        out = advance_then_emit(kern, np.array([0.0]), RngStream(5).generator())
        assert out == 2.0

    def test_emission_equals_post_advance_state(self):
        env = GaussianEnv(z_bar=1.0, epsilon=0.2, sigma=3.0, rho=0.4)
        kern = ArGaussianKernel(env)
        out = advance_then_emit(kern, np.array([0.5]), RngStream(6).generator())
        assert out == kern.z[0]

    def test_noiseless_geometric_mixing(self):
        # Without noise the gap to the shifted mean contracts by exactly
        # (1 - rho) per transition.
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=0.0, rho=0.3)
        theta = np.array([5.0])
        target = env.shifted_mean(theta)
        kern = ArGaussianKernel(env, z0=0.0)
        rng = RngStream(7).generator()
        gap = 0.0 - target
        for _ in range(30):
            kern.advance(theta[None], [rng])
            gap *= (1.0 - env.rho)
            assert kern.z[0] - target == pytest.approx(gap, rel=1e-12, abs=1e-12)

    def test_monte_carlo_mean_approach(self):
        # |E[z_k] - shifted mean| halves every ceil(log 2 / rho) transitions.
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=1.0, rho=0.2)
        theta = np.array([5.0])
        target = env.shifted_mean(theta)
        half_steps = math.ceil(math.log(2.0) / env.rho)
        n_chains, z0 = 4000, -10.0
        rngs = [RngStream(8).substream(i).generator() for i in range(n_chains)]
        kern = ArGaussianKernel(env, z0=z0, trials=n_chains)
        thetas = np.tile(theta, (n_chains, 1))
        gap0 = abs(z0 - target)
        for stage in range(1, 4):
            for _ in range(half_steps):
                kern.advance(thetas, rngs)
            mean_gap = abs(np.mean(kern.z) - target)
            predicted = gap0 * (1.0 - env.rho) ** (stage * half_steps)
            stderr = math.sqrt(env.stationary_variance() / n_chains)
            assert mean_gap <= predicted + 3.0 * stderr

    def test_stationary_law(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=2.0, rho=0.5)
        theta = np.array([5.0])
        kern = ArGaussianKernel(env)
        rng = RngStream(9).generator()
        for _ in range(2000):
            kern.advance(theta[None], [rng])
        zs = np.empty(20_000)
        for i in range(zs.shape[0]):
            kern.advance(theta[None], [rng])
            zs[i] = kern.z[0]
        assert zs.mean() == pytest.approx(env.shifted_mean(theta), rel=0.02)
        assert zs.var() == pytest.approx(env.stationary_variance(), rel=0.10)


class TestUtilities:
    def test_quadratic_gradient_formula(self):
        util = QuadraticUtility(epsilon=0.05)
        xp = np.array([1.0, 2.0])
        base = np.array([0.5, 1.0])
        theta = np.array([3.0, -1.0])
        g = util.grad(xp, base, 1.0, theta)
        assert np.allclose(g, theta - (xp - base) / 0.05, rtol=0, atol=1e-15)

    def test_logistic_gradient_matches_finite_differences(self):
        util = LogisticUtility(epsilon=0.05)
        rng = RngStream(10).generator()
        for _ in range(20):
            base = rng.normal(size=3)
            xp = base + 0.1 * rng.normal(size=3)
            theta = rng.normal(size=3)
            y = float(rng.integers(2))
            g = util.grad(xp, base, y, theta)
            fd = np.zeros(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1e-6
                fd[i] = (util.value(xp + e, base, y, theta)
                         - util.value(xp - e, base, y, theta)) / 2e-6
            assert np.max(np.abs(g - fd)) <= 1e-5 * (1.0 + np.max(np.abs(g)))

    def test_quadratic_best_response_at_zero_theta(self):
        util = QuadraticUtility(epsilon=0.01)
        base = np.array([1.0, 1.0])
        assert np.array_equal(util.best_response(base, 1.0, np.zeros(2)), base)

    def test_quadratic_best_response_closed_form(self):
        util = QuadraticUtility(epsilon=0.01)
        br = util.best_response(np.array([1.0, 1.0]), 1.0, np.array([2.0, 0.0]))
        assert np.allclose(br, [1.02, 1.0], rtol=0, atol=1e-15)

    def test_logistic_best_response_self_certifying(self):
        util = LogisticUtility(epsilon=0.05)
        rng = RngStream(11).generator()
        for _ in range(10):
            base = rng.normal(size=3)
            theta = rng.normal(size=3)
            y = float(rng.integers(2))
            x = util.best_response(base, y, theta)
            g = util.grad(x, base, y, theta)
            assert np.linalg.norm(g) <= 1e-8
            assert util.value(x, base, y, theta) >= util.value(base, base, y, theta)


def ascent_best_response(util, base_x, y, theta, tol, max_steps=10_000):
    """Reference: fixed-step gradient ascent on the utility (step epsilon / 2)
    until the gradient norm is at most ``tol``; it contracts only while
    ``epsilon ||theta||^2 < 12``."""
    x = np.array(base_x, dtype=float)
    for _ in range(max_steps):
        g = util.grad(x, base_x, y, theta)
        if g @ g <= tol * tol:
            return x
        x += util.epsilon / 2.0 * g
    raise RuntimeError(f"no convergence to tol={tol} in {max_steps} ascent steps")


def random_agents(rng, scale, m, d=3):
    """``m`` agents with labels and one model theta = scale * N(0, I)."""
    X = rng.normal(size=(m, d))
    y = rng.integers(2, size=m).astype(float)
    return X, y, scale * rng.normal(size=d)


class TestLogisticBestResponseRoot:
    """The exact logistic best response is the unique scalar root; no tolerance."""

    util = LogisticUtility(epsilon=0.05)
    eps = np.finfo(float).eps

    @pytest.mark.parametrize("scale", [0.1, 1.0, 3.0])
    def test_matches_gradient_ascent(self, scale):
        rng = RngStream(20).generator()
        for _ in range(10):
            X, y, theta = random_agents(rng, scale, m=5)
            got = self.util.best_response(X, y, theta)
            for i in range(X.shape[0]):
                ref = ascent_best_response(self.util, X[i], y[i], theta, tol=1e-12)
                assert np.max(np.abs(got[i] - ref)) <= 1e-9

    @pytest.mark.parametrize("scale", [10.0, 30.0])
    def test_first_order_and_improvement_where_ascent_fails(self, scale):
        # here the reference ascent fails for some agents: it contracts only
        # while epsilon ||theta||^2 < 12
        rng = RngStream(21).generator()
        for _ in range(10):
            X, y, theta = random_agents(rng, scale, m=20)
            x = self.util.best_response(X, y, theta)
            a = X @ theta
            c = self.util.epsilon * (theta @ theta)
            residual = np.linalg.norm(self.util.grad(x, X, y, theta), axis=1)
            rounding = self.eps * ((np.abs(a) + c) * np.linalg.norm(theta)
                                   + np.linalg.norm(X, axis=1) / self.util.epsilon)
            assert np.all(residual <= 4.0 * rounding)
            gain = self.util.value(x, X, y, theta) - self.util.value(X, X, y, theta)
            assert np.all(gain >= -self.eps * (1.0 + np.abs(a) + c))

    def test_stack_equals_rows_bit_for_bit(self):
        rng = RngStream(22).generator()
        scales = np.array([0.1, 1.0, 3.0, 10.0, 30.0, 1e3])
        T, n, d = scales.shape[0], 4, 3
        X = rng.normal(size=(T, n, d))
        y = rng.integers(2, size=(T, n)).astype(float)
        theta = (scales[:, None] * rng.normal(size=(T, d)))[:, None, :]
        stacked = self.util.best_response(X, y, theta)
        for t in range(T):
            for j in range(n):
                alone = self.util.best_response(X[t, j], y[t, j], theta[t, 0])
                assert np.array_equal(stacked[t, j], alone)
        pool = self.util.best_response(X[-1], y[-1], theta[-1, 0])
        assert np.array_equal(pool, stacked[-1])

    def test_zero_theta_is_base(self):
        X = np.array([[1.0, -2.0], [0.5, 0.0]])
        assert np.array_equal(self.util.best_response(X, np.array([1.0, 0.0]), np.zeros(2)), X)


class TestAdaptedPool:
    def test_single_step_from_base(self):
        pool = small_pool()
        kern = AdaptedBestResponseKernel(pool)
        theta = np.array([1.0, -1.0, 2.0])
        rng = RngStream(12).generator()
        rng_clone = RngStream(12).generator()
        expected_idx = rng_clone.choice(pool.size, size=pool.participation, replace=False)
        kern.advance(theta[None], [rng])
        moved = np.flatnonzero(np.any(kern.features[0] != pool.base_features, axis=1))
        assert np.array_equal(np.sort(expected_idx), moved)
        # one ascent step from the base lands at base + alpha * theta
        assert np.allclose(kern.features[0, moved],
                           pool.base_features[moved] + pool.alpha * theta,
                           rtol=0, atol=1e-15)

    def test_repeated_steps_follow_closed_form(self):
        pool = small_pool()
        eps = pool.utility.epsilon
        kern = AdaptedBestResponseKernel(pool)
        theta = np.array([2.0, 0.5, -1.0])
        target = pool.base_features + eps * theta
        factor = 1.0 - pool.alpha / eps
        counts = np.zeros(pool.size, dtype=int)
        rng = RngStream(13).generator()
        rng_clone = RngStream(13).generator()
        for _ in range(200):
            idx = rng_clone.choice(pool.size, size=pool.participation, replace=False)
            kern.advance(theta[None], [rng])
            counts[idx] += 1
            predicted = target + (factor ** counts)[:, None] * (pool.base_features - target)
            assert np.max(np.abs(kern.features[0] - predicted)) <= 1e-12

    def test_stationarity_under_fixed_theta(self):
        pool = small_pool(participation=5)
        eps = pool.utility.epsilon
        tol = 1e-6
        needed = math.ceil(math.log(1.0 / tol) / math.log(1.0 / abs(1.0 - pool.alpha / eps)))
        theta = np.array([1.0, 1.0, -1.0])
        kern = AdaptedBestResponseKernel(pool)
        rng = RngStream(14).generator()
        rng_clone = RngStream(14).generator()
        counts = np.zeros(pool.size, dtype=int)
        while counts.min() < needed:
            counts[rng_clone.choice(pool.size, size=pool.participation, replace=False)] += 1
            kern.advance(theta[None], [rng])
        gaps = np.linalg.norm(kern.features[0] - (pool.base_features + eps * theta), axis=1)
        assert gaps.max() <= tol

    def test_base_data_never_mutated(self):
        pool = small_pool()
        base_copy = pool.base_features.copy()
        labels_copy = pool.labels.copy()
        kern = AdaptedBestResponseKernel(pool)
        rng = RngStream(15).generator()
        theta = np.array([1.0, 2.0, 3.0])
        for _ in range(50):
            advance_then_emit(kern, theta, rng)
        assert np.array_equal(pool.base_features, base_copy)
        assert np.array_equal(pool.labels, labels_copy)
        with pytest.raises(ValueError):
            pool.base_features[0, 0] = 99.0

    def test_emission_comes_from_post_update_pool(self):
        pool = small_pool()
        kern = AdaptedBestResponseKernel(pool)
        theta = np.array([0.5, 0.5, 0.5])
        rng = RngStream(16).generator()
        for _ in range(10):
            features, label = advance_then_emit(kern, theta, rng)
            row = np.all(kern.features[0] == features, axis=1)
            assert row.any()
            assert label == pool.labels[np.flatnonzero(row)[0]]

    def test_determinism(self):
        pool = small_pool()
        theta = np.array([1.0, 0.0, -1.0])
        outs = []
        for _ in range(2):
            kern = AdaptedBestResponseKernel(pool)
            rng = RngStream(17).generator()
            for _ in range(5):
                out = advance_then_emit(kern, theta, rng)
            outs.append((out[0], kern.features[0].copy()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_minibatch_emission_distinct(self):
        pool = small_pool()
        kern = AdaptedBestResponseKernel(pool)
        features, _ = kern.emit(np.zeros((1, 3)), [RngStream(18).generator()], n=pool.size)
        rows = [np.flatnonzero(np.all(kern.features[0] == x, axis=1))[0] for x in features[0]]
        assert sorted(rows) == list(range(pool.size))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_alpha_detected(self):
        pool = small_pool(alpha=500.0, participation=20)
        kern = AdaptedBestResponseKernel(pool)
        rng = RngStream(19).generator()
        theta = np.array([[1.0, 1.0, 1.0]])
        for _ in range(500):
            failed = kern.advance(theta, [rng])
            if failed is not None:
                break
        assert failed is not None and failed[0]
        assert kern.failure is AgentDivergenceError

    def test_pool_validation(self):
        ds = generate_synthetic(d=2, m=10, seed=1)
        util = QuadraticUtility(epsilon=0.1)
        with pytest.raises(ValueError):
            AgentPool(ds.features, ds.labels, util, alpha=0.0, participation=2)
        with pytest.raises(ValueError):
            AgentPool(ds.features, ds.labels, util, alpha=0.05, participation=11)
        with pytest.raises(ValueError):
            AgentPool(ds.features, np.full(10, 2), util, alpha=0.05, participation=2)
