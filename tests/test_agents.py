import math
import warnings

import numpy as np
import pytest

from perfsim import agents
from perfsim.agents import (BLOCK, _ONE_STEP_C, AdaptedBestResponseKernel, AgentPool,
                            ArGaussianKernel, ExactBestResponseKernel, GaussianEnv,
                            IidGaussianKernel, LogisticUtility, QuadraticUtility,
                            _distinct_agents, _logistic_root)
from perfsim.harness import generate_synthetic
from perfsim.harness import ExperimentSpec, resolve_points, run_experiment
from perfsim.losses import dot, sigmoid

from draw_reference import distinct_agent_draws


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
    features, labels = generate_synthetic(d=d, m=m, seed=5)
    utility = utility or QuadraticUtility(epsilon=eps)
    alpha = 0.5 * utility.epsilon if alpha is None else alpha
    return AgentPool(features, labels, utility, alpha=alpha,
                     participation=participation)


class TestGaussianEnv:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianEnv(z_bar=0.0, epsilon=1.0, sigma=1.0)
        with pytest.raises(ValueError):
            GaussianEnv(z_bar=0.0, epsilon=0.1, sigma=1.0, rho=0.0)

    @pytest.mark.parametrize("field", [{"z_bar": math.nan}, {"z_bar": -math.inf},
                                       {"sigma": math.inf}, {"sigma": math.nan},
                                       {"z0": math.nan}, {"z0": math.inf}])
    def test_rejects_non_finite(self, field):
        with pytest.raises(ValueError, match="finite"):
            GaussianEnv(**{"z_bar": 0.0, "epsilon": 0.1, "sigma": 1.0, **field})

    @pytest.mark.parametrize("kernel", [IidGaussianKernel, ArGaussianKernel])
    def test_trials_is_keyword_only(self, kernel):
        # a positional second argument is refused, not run as a trial count
        with pytest.raises(TypeError):
            kernel(GaussianEnv(z_bar=0.0, epsilon=0.1, sigma=1.0), 3)

    def test_stationary_variance_formula(self):
        env = GaussianEnv(z_bar=0.0, epsilon=0.1, sigma=3.0, rho=0.5)
        assert env.stationary_variance() == pytest.approx(9.0 * 0.5 / 1.5)


class TestIidKernels:
    def test_noiseless_emission_is_shifted_mean(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=0.0)
        kern = IidGaussianKernel(env)
        out = advance_then_emit(kern, np.array([1.0]), np.random.default_rng(1))
        assert out == pytest.approx(10.1, rel=1e-15)

    def test_monte_carlo_mean(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=2.0)
        kern = IidGaussianKernel(env)
        rng = np.random.default_rng(2)
        theta = np.array([4.0])
        n = 100_000
        zs = kern.emit(theta[None], [rng], n)[0]
        assert abs(zs.mean() - env.shifted_mean(theta)) <= 3.0 * env.sigma / math.sqrt(n)

    def test_exact_best_response_emission(self):
        pool = small_pool()
        kern = ExactBestResponseKernel(pool)
        theta = np.array([1.0, -2.0, 0.5])
        features, label = advance_then_emit(kern, theta, np.random.default_rng(3))
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
        rng_a = np.random.default_rng(4)
        rng_b = np.random.default_rng(4)
        for _ in range(50):
            ar_vals.append(advance_then_emit(ar, theta, rng_a))
            iid_vals.append(advance_then_emit(iid, theta, rng_b))
        assert np.array_equal(ar_vals, iid_vals)

    def test_noiseless_midpoint(self):
        env = GaussianEnv(z_bar=4.0, epsilon=0.0, sigma=0.0, rho=0.5, z0=0.0)
        kern = ArGaussianKernel(env)
        out = advance_then_emit(kern, np.array([0.0]), np.random.default_rng(5))
        assert out == 2.0

    def test_emission_equals_post_advance_state(self):
        env = GaussianEnv(z_bar=1.0, epsilon=0.2, sigma=3.0, rho=0.4)
        kern = ArGaussianKernel(env)
        out = advance_then_emit(kern, np.array([0.5]), np.random.default_rng(6))
        assert out == kern.z[0]

    def test_sample_keeps_its_value_across_advance(self):
        # emit(n=1) may return a view of the state, so advance must rebind the
        # state, never write it
        env = GaussianEnv(z_bar=1.0, epsilon=0.2, sigma=3.0, rho=0.4)
        kern = ArGaussianKernel(env, trials=4)
        theta = np.full((4, 1), 0.5)
        rngs = trial_rngs(40, 4)
        kern.advance(theta, rngs)
        sample = kern.emit(theta, rngs)
        kept = sample.copy()
        kern.advance(theta, rngs)
        assert np.array_equal(sample, kept)
        assert not np.array_equal(kern.emit(theta, rngs), kept)

    def test_noiseless_geometric_mixing(self):
        # Without noise the gap to the shifted mean contracts by exactly
        # (1 - rho) per transition.
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=0.0, rho=0.3, z0=0.0)
        theta = np.array([5.0])
        target = env.shifted_mean(theta)
        kern = ArGaussianKernel(env)
        rng = np.random.default_rng(7)
        gap = 0.0 - target
        for _ in range(30):
            kern.advance(theta[None], [rng])
            gap *= (1.0 - env.rho)
            assert kern.z[0] - target == pytest.approx(gap, rel=1e-12, abs=1e-12)

    def test_monte_carlo_mean_approach(self):
        # |E[z_k] - shifted mean| halves every ceil(log 2 / rho) transitions.
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=1.0, rho=0.2, z0=-10.0)
        theta = np.array([5.0])
        target = env.shifted_mean(theta)
        half_steps = math.ceil(math.log(2.0) / env.rho)
        n_chains = 4000
        rngs = [np.random.default_rng(np.random.SeedSequence(8, spawn_key=(i,)))
                for i in range(n_chains)]
        kern = ArGaussianKernel(env, trials=n_chains)
        thetas = np.tile(theta, (n_chains, 1))
        gap0 = abs(env.z0 - target)
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
        rng = np.random.default_rng(9)
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
        rng = np.random.default_rng(10)
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

    @pytest.mark.parametrize("d", [3, 50])
    def test_logistic_gradient_block_equals_rows(self, d):
        # the adapted pool passes agents (T, p, d) with theta as (T, 1, d)
        util = LogisticUtility(epsilon=0.05)
        rng = np.random.default_rng(12)
        T, p = 7, 5
        base = rng.normal(size=(T, p, d))
        xp = base + 0.1 * rng.normal(size=(T, p, d))
        y = rng.integers(2, size=(T, p)).astype(float)
        theta = rng.normal(size=(T, 1, d))
        rows = [[util.grad(xp[t, i], base[t, i], y[t, i], theta[t, 0]) for i in range(p)]
                for t in range(T)]
        assert np.array_equal(util.grad(xp, base, y, theta), np.array(rows))

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
        rng = np.random.default_rng(11)
        for _ in range(10):
            base = rng.normal(size=3)
            theta = rng.normal(size=3)
            y = float(rng.integers(2))
            x = util.best_response(base, y, theta)
            g = util.grad(x, base, y, theta)
            assert np.linalg.norm(g) <= 1e-8
            assert util.value(x, base, y, theta) >= util.value(base, base, y, theta)

    @pytest.mark.parametrize("util", [QuadraticUtility(epsilon=0.05),
                                      LogisticUtility(epsilon=0.05)],
                             ids=["quadratic", "logistic"])
    def test_value_block_equals_rows(self, util):
        # agents (T, n, d) against theta as (T, 1, d), the layout grad and
        # best_response take
        rng = np.random.default_rng(13)
        T, n, d = 6, 4, 3
        base = rng.normal(size=(T, n, d))
        xp = base + 0.1 * rng.normal(size=(T, n, d))
        y = rng.integers(2, size=(T, n)).astype(float)
        theta = rng.normal(size=(T, 1, d))
        rows = [[util.value(xp[t, i], base[t, i], y[t, i], theta[t, 0]) for i in range(n)]
                for t in range(T)]
        got = util.value(xp, base, y, theta)
        assert np.array_equal(got.view(np.int64), np.array(rows).view(np.int64))


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


def scalar_sigmoid(u):
    """Logistic function of one float, from ``math.exp``."""
    if u >= 0.0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def bisect_root(a, c, y):
    """Reference: float bisection of ``g(u) = u - a - c (y - sigmoid(u))`` on
    ``[a + c (y - 1), a + c y]`` until its ends are adjacent doubles (or g is
    0); returns the final bracket (lo, hi)."""
    lo, hi = a + c * (y - 1.0), a + c * y
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo, hi
        g = mid - a - c * (y - scalar_sigmoid(mid))
        if g == 0.0:
            return mid, mid
        lo, hi = (mid, hi) if g < 0.0 else (lo, mid)


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
        rng = np.random.default_rng(20)
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
        rng = np.random.default_rng(21)
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
        # the block mixes rows solved in one certified step (c <= C) with rows
        # that take the bracketed loop (c > C)
        rng = np.random.default_rng(22)
        scales = np.array([0.1, 1.0, 3.0, 10.0, 30.0, 1e3, 1e-3, 0.03])
        T, n, d = scales.shape[0], 4, 3
        X = rng.normal(size=(T, n, d))
        y = rng.integers(2, size=(T, n)).astype(float)
        theta = (scales[:, None] * rng.normal(size=(T, d)))[:, None, :]
        c = self.util.epsilon * np.sum(theta * theta, axis=-1)
        assert (c <= _ONE_STEP_C).any() and (c > _ONE_STEP_C).any()
        stacked = self.util.best_response(X, y, theta)
        for t in range(T):
            for j in range(n):
                alone = self.util.best_response(X[t, j], y[t, j], theta[t, 0])
                assert np.array_equal(stacked[t, j], alone)
        pool = self.util.best_response(X[-1], y[-1], theta[-1, 0])
        assert np.array_equal(pool, stacked[-1])

    def test_list_labels_give_the_array_bits(self):
        X, y, theta = random_agents(np.random.default_rng(24), 3.0, m=8)
        got = self.util.best_response(X, y.tolist(), theta)
        expected = self.util.best_response(X, y, theta)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_no_warning_where_norm_squared_overflows(self):
        # at ||theta||^2 ~ 3e320 the coefficient c is inf: it never certifies a
        # row, and no numpy warning escapes
        X, y, _ = random_agents(np.random.default_rng(25), 1.0, m=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.util.best_response(X, y, np.full(3, 1e160))
        assert got.shape == X.shape

    def test_zero_theta_is_base(self):
        X = np.array([[1.0, -2.0], [0.5, 0.0]])
        assert np.array_equal(self.util.best_response(X, np.array([1.0, 0.0]), np.zeros(2)), X)

    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 1.0])
    def test_root_within_floor_of_bisection(self, epsilon):
        # every row's root lies within its rounding floor 4 eps (|a| + c) of the
        # bracket that a scalar bisection closes to adjacent doubles, and the
        # reply is the one at that root; at scale 1e60 the certificate's
        # coefficient overflows, which best_response must raise no numpy warning for
        util = LogisticUtility(epsilon=epsilon)
        rng = np.random.default_rng(23)
        for scale in [*10.0 ** np.arange(-3, 4), 1e60]:
            X, y, theta = random_agents(rng, scale, m=100)
            a, c = dot(X, theta), epsilon * (theta @ theta)
            with np.errstate(over="ignore", invalid="ignore"):  # as best_response enters it
                u = _logistic_root(a, c, y)
            floor = 4.0 * self.eps * (np.abs(a) + c)
            for i in range(X.shape[0]):
                lo, hi = bisect_root(a[i], c, y[i])
                assert lo - floor[i] <= u[i] <= hi + floor[i]
            expected = X + (epsilon * (y - sigmoid(u)))[:, None] * theta
            assert np.array_equal(util.best_response(X, y, theta), expected)

    # a grid of scores, labels and coefficients up to the one-step bound C
    GRID = [(a, y, c) for a in (0.0, 1e-3, -1e-3, 1.0, -1.0, 40.0, -40.0, 1e3, -1e3)
            for y in (0.0, 1.0) for c in (0.0, 1e-12, 1e-6, 0.5 * _ONE_STEP_C, _ONE_STEP_C)]

    def test_one_step_bound_is_derived(self):
        # C solves K C^5 / 16 = 4 eps C: the one-step error bound meets the floor
        K = 1.0 / (12.0 * math.sqrt(3.0))
        assert K * _ONE_STEP_C ** 4 / 16.0 == pytest.approx(4.0 * self.eps, rel=1e-12)
        assert _ONE_STEP_C == pytest.approx(7.372e-4, rel=1e-4)

    def test_one_step_root_within_floor_of_bisection(self):
        for a, y, c in self.GRID:
            u = _logistic_root(np.float64(a), np.float64(c), np.float64(y))
            lo, hi = bisect_root(a, c, y)
            floor = 4.0 * self.eps * (abs(a) + c)
            assert lo - floor <= u <= hi + floor, (a, y, c)

    def test_one_step_equals_one_pass_of_the_loop(self, monkeypatch):
        # at every grid point the root is the first pass: a pass is a sigmoid
        # call after the warm start's
        calls = []

        def counting(u):
            calls.append(1)
            return sigmoid(u)

        monkeypatch.setattr(agents, "sigmoid", counting)
        for a, y, c in self.GRID:
            calls.clear()
            _logistic_root(np.float64(a), np.float64(c), np.float64(y))
            assert len(calls) == 2, (a, y, c)

    @pytest.mark.parametrize("epsilon, loops", [(0.01, False), (0.5, True)])
    def test_exact_best_response_run_enters_the_loop_only_past_c(self, tmp_path, monkeypatch,
                                                                 epsilon, loops):
        # at the preset every root of the run and of its oracle is below C;
        # at epsilon = 0.5 (c ~ 7e-3) the loop runs, which shows the count works
        calls, looped = [], []

        def counting(u):
            calls.append(1)
            return sigmoid(u)

        def counting_root(a, c, y):
            before = len(calls)
            u = _logistic_root(a, c, y)
            if len(calls) - before > 2:  # more than the warm start and one pass
                looped.append(1)
            return u

        monkeypatch.setattr(agents, "sigmoid", counting)
        monkeypatch.setattr(agents, "_logistic_root", counting_root)
        spec = ExperimentSpec.from_dict({
            "preset": "strat_class_logistic", "trials": 2, "horizon": 500, "workers": 1,
            "problem": {"kernel": "iid", "epsilon": epsilon}, "sweep": [["batch", [1, 4]]],
            "out": str(tmp_path)})
        run_experiment(spec)
        assert (len(looped) > 0) is loops, len(looped)

    def test_bracket_ends_cycle_of_plain_newton(self):
        # negative control: at y = 1, a = -c/2, c = 100 undamped Newton from the
        # warm start u = c/2 bounces between +-c/2; the root is u = 0
        util = LogisticUtility(epsilon=1.0)
        theta, x = np.array([10.0, 0.0]), np.array([-5.0, 3.0])
        a, c, y = x @ theta, theta @ theta, 1.0
        u = a + c * (y - scalar_sigmoid(a))
        for _ in range(4):
            s = scalar_sigmoid(u)
            u -= (u - a - c * (y - s)) / (1.0 + c * s * (1.0 - s))
            assert abs(u) == c / 2.0
        expected = x + 0.5 * theta
        got = util.best_response(x, y, theta)
        assert np.max(np.abs(got - expected)) <= 4.0 * self.eps * np.max(np.abs(expected))

    def test_three_sigmoids_per_call_at_preset_stable_point(self, monkeypatch):
        # the warm start, one certified Newton pass and the reply: 3 evaluations
        # for the whole pool of the strat_class_logistic preset at its theta_PS
        spec = ExperimentSpec.from_dict({"preset": "strat_class_logistic", "out": "unused"})
        point = resolve_points(spec)[0]
        pool = point.problem
        calls = []

        def counting(u):
            calls.append(np.shape(u))
            return sigmoid(u)

        monkeypatch.setattr("perfsim.agents.sigmoid", counting)
        pool.utility.best_response(pool.base_features, pool.labels, point.theta_ps)
        assert calls == [(200,)] * 3


def trial_rngs(seed, trials):
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
            for t in range(trials)]


def assert_uniform_sets(sets, m, p):
    """Rows of ``sets`` (N, m), each the 0/1 membership of one draw of p
    distinct agents of m: every agent's inclusion frequency is p/m and every
    pair's p(p-1)/(m(m-1)), each within 3 standard errors. For m = 6 these
    are 21 checks, so a correct sampler fails one at about 5 % of seeds."""
    n = sets.shape[0]
    assert np.array_equal(sets.sum(axis=1), np.full(n, p))
    for freq, q in ((sets.mean(axis=0), p / m),
                    ((sets.T @ sets)[np.triu_indices(m, 1)] / n, p * (p - 1) / (m * (m - 1)))):
        assert np.all(np.abs(freq - q) <= 3.0 * math.sqrt(q * (1.0 - q) / n))


class TestBlockDraws:
    @pytest.mark.parametrize("draws", [
        lambda: ArGaussianKernel(GaussianEnv(z_bar=1.0, epsilon=0.1, sigma=2.0, rho=0.5),
                                 trials=3)._noise,
        lambda: _distinct_agents(20, 1),
        lambda: _distinct_agents(20, 5),
    ], ids=["normals", "rank_select_p1", "rank_select_p5"])
    def test_step_is_take_of_one(self, draws):
        stepped, taken = draws(), draws()
        rngs, same = trial_rngs(40, 3), trial_rngs(40, 3)
        for _ in range(BLOCK + 5):  # across a block refill
            step, take = stepped.step(rngs), taken.take(same, 1)[0]
            assert step.shape == take.shape and step.dtype == take.dtype
            assert step.tobytes() == take.tobytes()


class TestDistinctAgents:
    """Pool agents are drawn per trial in blocks by rank-select: entry i of a
    step picks, by a uniform rank, one of the m - i agents not yet taken."""

    def test_advance_inclusion_frequencies(self):
        m, p, trials, steps = 6, 3, 20, 2000
        pool = small_pool(m=m, participation=p)
        kern = AdaptedBestResponseKernel(pool, trials=trials)
        theta = np.tile([1.0, -1.0, 2.0], (trials, 1))
        rngs = trial_rngs(30, trials)
        sets = np.empty((steps, trials, m))
        for step in range(steps):
            kern.features[:] = pool.base_features  # every selected agent moves
            kern.advance(theta, rngs)
            sets[step] = np.any(kern.features != pool.base_features, axis=2)
        assert_uniform_sets(sets.reshape(-1, m), m, p)

    @pytest.mark.parametrize("kernel", [AdaptedBestResponseKernel, ExactBestResponseKernel])
    def test_emission_inclusion_frequencies(self, kernel):
        m, n, trials, steps = 6, 4, 20, 2000
        kern = kernel(small_pool(m=m), trials=trials)
        rngs = trial_rngs(31, trials)
        sets = np.zeros((steps * trials, m))
        for step in range(steps):
            idx = kern.draw_agents(rngs, n)
            np.put_along_axis(sets[step * trials:(step + 1) * trials], idx, 1.0, axis=1)
        assert_uniform_sets(sets, m, n)

    def test_all_agents_give_a_permutation(self):
        m, trials = 20, 3
        pool = small_pool(m=m, participation=m)
        kern = AdaptedBestResponseKernel(pool, trials=trials)
        rngs, sample_rngs = trial_rngs(32, trials), trial_rngs(33, trials)
        theta = np.tile([0.5, 0.5, 0.5], (trials, 1))
        firsts = []
        for _ in range(200):
            kern.features[:] = pool.base_features
            kern.advance(theta, rngs)
            assert np.all(kern.features != pool.base_features)
            idx = kern.draw_agents(sample_rngs, m)
            assert np.array_equal(np.sort(idx, axis=1), np.tile(np.arange(m), (trials, 1)))
            firsts.append(idx[:, 0])
        assert len(set(np.concatenate(firsts).tolist())) == m

    def test_trial_row_independent_of_block(self):
        # 1500 steps cross a block refill
        pool = small_pool(utility=LogisticUtility(epsilon=0.05), participation=5)
        trials, row = 7, 3
        wide = AdaptedBestResponseKernel(pool, trials=trials)
        alone = AdaptedBestResponseKernel(pool)
        theta = np.array([[1.0, -0.5, 0.25]])
        agent, sample = trial_rngs(34, trials), trial_rngs(35, trials)
        agent1, sample1 = trial_rngs(34, trials)[row:row + 1], trial_rngs(35, trials)[row:row + 1]
        for _ in range(1500):
            wide.advance(np.repeat(theta, trials, axis=0), agent)
            alone.advance(theta, agent1)
            X, y = wide.emit(np.repeat(theta, trials, axis=0), sample, 3)
            X1, y1 = alone.emit(theta, sample1, 3)
            assert np.array_equal(X[row], X1[0]) and np.array_equal(y[row], y1[0])
        assert np.array_equal(wide.features[row], alone.features[0])

    def test_advance_and_emission_use_separate_streams(self):
        # participation == batch: each draw still follows its own stream
        pool = small_pool(participation=4)
        kern = AdaptedBestResponseKernel(pool)
        agent, sample = np.random.default_rng(36), np.random.default_rng(37)
        moves = distinct_agent_draws(np.random.default_rng(36), pool.size, 4)
        emissions = distinct_agent_draws(np.random.default_rng(37), pool.size, 4)
        theta = np.array([[1.0, 2.0, -1.0]])
        for _ in range(1100):
            kern.features[0] = pool.base_features
            kern.advance(theta, [agent])
            moved = np.flatnonzero(np.any(kern.features[0] != pool.base_features, axis=1))
            assert np.array_equal(moved, np.sort(next(moves)))
            assert kern.draw_agents([sample], 4)[0].tolist() == next(emissions)

    def test_more_agents_than_the_pool_rejected(self):
        kern = ExactBestResponseKernel(small_pool(m=20))
        with pytest.raises(ValueError, match="21 distinct agents"):
            kern.emit(np.zeros((1, 3)), [np.random.default_rng(38)], 21)


class TestAdaptedPool:
    def test_single_step_from_base(self):
        pool = small_pool()
        kern = AdaptedBestResponseKernel(pool)
        theta = np.array([1.0, -1.0, 2.0])
        rng = np.random.default_rng(12)
        rng_clone = np.random.default_rng(12)
        expected_idx = next(distinct_agent_draws(rng_clone, pool.size, pool.participation))
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
        rng = np.random.default_rng(13)
        draws = distinct_agent_draws(np.random.default_rng(13), pool.size, pool.participation)
        for _ in range(200):
            idx = next(draws)
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
        rng = np.random.default_rng(14)
        draws = distinct_agent_draws(np.random.default_rng(14), pool.size, pool.participation)
        counts = np.zeros(pool.size, dtype=int)
        while counts.min() < needed:
            counts[next(draws)] += 1
            kern.advance(theta[None], [rng])
        gaps = np.linalg.norm(kern.features[0] - (pool.base_features + eps * theta), axis=1)
        assert gaps.max() <= tol

    def test_base_data_never_mutated(self):
        pool = small_pool()
        base_copy = pool.base_features.copy()
        labels_copy = pool.labels.copy()
        kern = AdaptedBestResponseKernel(pool)
        rng = np.random.default_rng(15)
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
        rng = np.random.default_rng(16)
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
            rng = np.random.default_rng(17)
            for _ in range(5):
                out = advance_then_emit(kern, theta, rng)
            outs.append((out[0], kern.features[0].copy()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_in_place_feature_writes_reach_emission(self):
        # advance and emit go through one flat view of features, so a write
        # into kern.features is what the next emission returns
        pool, trials = small_pool(), 3
        kern = AdaptedBestResponseKernel(pool, trials=trials)
        assert np.shares_memory(kern._flat, kern.features)
        rngs = trial_rngs(41, trials)
        draws = [distinct_agent_draws(rng, pool.size, 2) for rng in trial_rngs(41, trials)]
        theta = np.zeros((trials, 3))
        for step in range(5):
            kern.features[...] = step + np.arange(kern.features.size).reshape(kern.features.shape)
            X, y = kern.emit(theta, rngs, 2)
            idx = np.array([next(d) for d in draws])
            assert np.array_equal(X, kern.features[np.arange(trials)[:, None], idx])
            assert np.array_equal(y, pool.labels[idx])

    def test_minibatch_emission_distinct(self):
        pool = small_pool()
        kern = AdaptedBestResponseKernel(pool)
        features, _ = kern.emit(np.zeros((1, 3)), [np.random.default_rng(18)], n=pool.size)
        rows = [np.flatnonzero(np.all(kern.features[0] == x, axis=1))[0] for x in features[0]]
        assert sorted(rows) == list(range(pool.size))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_alpha_detected(self):
        pool = small_pool(alpha=500.0, participation=20)
        kern = AdaptedBestResponseKernel(pool)
        rng = np.random.default_rng(19)
        theta = np.array([[1.0, 1.0, 1.0]])
        for _ in range(500):
            failed = kern.advance(theta, [rng])
            if failed is not None:
                break
        assert failed is not None and failed[0]
        assert kern.failure == "AgentDivergenceError"

    def test_pool_validation(self):
        features, labels = generate_synthetic(d=2, m=10, seed=1)
        util = QuadraticUtility(epsilon=0.1)
        with pytest.raises(ValueError):
            AgentPool(features, labels, util, alpha=0.0, participation=2)
        with pytest.raises(ValueError):
            AgentPool(features, labels, util, alpha=0.05, participation=11)
        with pytest.raises(ValueError):
            AgentPool(features, np.full(10, 2), util, alpha=0.05, participation=2)

    @pytest.mark.parametrize("labels", [[0.5, 0.0, 1.0], [1.9, 0.0, 1.0], [0.5, 1.9, 0.0]])
    def test_fractional_labels_rejected(self, labels):
        # an integer cast would truncate them to valid labels
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            AgentPool(np.zeros((3, 2)), labels, QuadraticUtility(0.1), alpha=0.05,
                      participation=1)

    def test_labels_are_read_only_floats(self):
        pool = AgentPool(np.zeros((3, 2)), [1, 0, True], QuadraticUtility(0.1), alpha=0.05,
                         participation=1)
        assert pool.labels.dtype == np.float64
        assert pool.labels.tolist() == [1.0, 0.0, 1.0]
        with pytest.raises(ValueError):
            pool.labels[0] = 0.0
