import math

import numpy as np
import pytest

from perfsim.agents import (AdaptedBestResponseKernel, AgentPool, AgentDivergenceError,
                            ArGaussianKernel, ExactBestResponseKernel, GaussianEnv,
                            IidGaussianKernel, LogisticUtility, QuadraticUtility)
from perfsim.core import RngStream
from perfsim.data import generate_synthetic


def advance_then_emit(kern, theta, rng):
    """One agent transition followed by one emission, as the learner sees it."""
    kern.advance(theta, rng)
    return kern.emit(theta, rng)[0]


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
        assert out.scalar == pytest.approx(10.1, rel=1e-15)

    def test_monte_carlo_mean(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=2.0)
        kern = IidGaussianKernel(env)
        rng = RngStream(2).generator()
        theta = np.array([4.0])
        n = 100_000
        zs = np.array([s.scalar for s in kern.emit(theta, rng, n)])
        assert abs(zs.mean() - env.shifted_mean(theta)) <= 3.0 * env.sigma / math.sqrt(n)

    def test_exact_best_response_emission(self):
        pool = small_pool()
        kern = ExactBestResponseKernel(pool)
        theta = np.array([1.0, -2.0, 0.5])
        out = advance_then_emit(kern, theta, RngStream(3).generator())
        shifted = pool.base_features + pool.utility.epsilon * theta
        matches = np.all(np.isclose(shifted, out.features, rtol=0, atol=1e-15), axis=1)
        assert matches.any()
        assert out.label == pool.labels[np.flatnonzero(matches)[0]]


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
            ar_vals.append(advance_then_emit(ar, theta, rng_a).scalar)
            iid_vals.append(advance_then_emit(iid, theta, rng_b).scalar)
        assert np.array_equal(ar_vals, iid_vals)

    def test_noiseless_midpoint(self):
        env = GaussianEnv(z_bar=4.0, epsilon=0.0, sigma=0.0, rho=0.5)
        kern = ArGaussianKernel(env, z0=0.0)
        out = advance_then_emit(kern, np.array([0.0]), RngStream(5).generator())
        assert out.scalar == 2.0

    def test_emission_equals_post_advance_state(self):
        env = GaussianEnv(z_bar=1.0, epsilon=0.2, sigma=3.0, rho=0.4)
        kern = ArGaussianKernel(env)
        out = advance_then_emit(kern, np.array([0.5]), RngStream(6).generator())
        assert out.scalar == kern.state

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
            kern.advance(theta, rng)
            gap *= (1.0 - env.rho)
            assert kern.state - target == pytest.approx(gap, rel=1e-12, abs=1e-12)

    def test_monte_carlo_mean_approach(self):
        # |E[z_k] - shifted mean| halves every ceil(log 2 / rho) transitions.
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=1.0, rho=0.2)
        theta = np.array([5.0])
        target = env.shifted_mean(theta)
        half_steps = math.ceil(math.log(2.0) / env.rho)
        n_chains, z0 = 4000, -10.0
        rng = RngStream(8).generator()
        kernels = [ArGaussianKernel(env, z0=z0) for _ in range(n_chains)]
        gap0 = abs(z0 - target)
        for stage in range(1, 4):
            for kern in kernels:
                for _ in range(half_steps):
                    kern.advance(theta, rng)
            mean_gap = abs(np.mean([k.state for k in kernels]) - target)
            predicted = gap0 * (1.0 - env.rho) ** (stage * half_steps)
            stderr = math.sqrt(env.stationary_variance() / n_chains)
            assert mean_gap <= predicted + 3.0 * stderr

    def test_stationary_law(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=2.0, rho=0.5)
        theta = np.array([5.0])
        kern = ArGaussianKernel(env)
        rng = RngStream(9).generator()
        for _ in range(2000):
            kern.advance(theta, rng)
        zs = np.empty(20_000)
        for i in range(zs.shape[0]):
            kern.advance(theta, rng)
            zs[i] = kern.state
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
            x = util.best_response(base, y, theta, tol=1e-8)
            g = util.grad(x, base, y, theta)
            assert np.linalg.norm(g) <= 1e-8
            assert util.value(x, base, y, theta) >= util.value(base, base, y, theta)


class TestAdaptedPool:
    def test_single_step_from_base(self):
        pool = small_pool()
        kern = AdaptedBestResponseKernel(pool)
        theta = np.array([1.0, -1.0, 2.0])
        rng = RngStream(12).generator()
        rng_clone = RngStream(12).generator()
        expected_idx = rng_clone.choice(pool.size, size=pool.participation, replace=False)
        kern.advance(theta, rng)
        moved = np.flatnonzero(np.any(kern.features != pool.base_features, axis=1))
        assert np.array_equal(np.sort(expected_idx), moved)
        # one ascent step from the base lands at base + alpha * theta
        assert np.allclose(kern.features[moved],
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
            kern.advance(theta, rng)
            counts[idx] += 1
            predicted = target + (factor ** counts)[:, None] * (pool.base_features - target)
            assert np.max(np.abs(kern.features - predicted)) <= 1e-12

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
            kern.advance(theta, rng)
        gaps = np.linalg.norm(kern.features - (pool.base_features + eps * theta), axis=1)
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
            out = advance_then_emit(kern, theta, rng)
            row = np.all(kern.features == out.features, axis=1)
            assert row.any()
            assert out.label == pool.labels[np.flatnonzero(row)[0]]

    def test_determinism(self):
        pool = small_pool()
        theta = np.array([1.0, 0.0, -1.0])
        outs = []
        for _ in range(2):
            kern = AdaptedBestResponseKernel(pool)
            rng = RngStream(17).generator()
            for _ in range(5):
                out = advance_then_emit(kern, theta, rng)
            outs.append((out.features, kern.features.copy()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_minibatch_emission_distinct(self):
        pool = small_pool()
        kern = AdaptedBestResponseKernel(pool)
        samples = kern.emit(np.zeros(3), RngStream(18).generator(), n=pool.size)
        rows = [np.flatnonzero(np.all(kern.features == s.features, axis=1))[0] for s in samples]
        assert sorted(rows) == list(range(pool.size))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_alpha_detected(self):
        pool = small_pool(alpha=500.0, participation=20)
        kern = AdaptedBestResponseKernel(pool)
        rng = RngStream(19).generator()
        theta = np.array([1.0, 1.0, 1.0])
        with pytest.raises(AgentDivergenceError):
            for _ in range(500):
                kern.advance(theta, rng)

    def test_pool_validation(self):
        ds = generate_synthetic(d=2, m=10, seed=1)
        util = QuadraticUtility(epsilon=0.1)
        with pytest.raises(ValueError):
            AgentPool(ds.features, ds.labels, util, alpha=0.0, participation=2)
        with pytest.raises(ValueError):
            AgentPool(ds.features, ds.labels, util, alpha=0.05, participation=11)
        with pytest.raises(ValueError):
            AgentPool(ds.features, np.full(10, 2), util, alpha=0.05, participation=2)
