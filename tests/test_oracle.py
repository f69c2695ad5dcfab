import math

import numpy as np
import pytest

from perfsim.agents import (AgentPool, ArGaussianKernel, GaussianEnv, IidGaussianKernel,
                            LogisticUtility, QuadraticUtility)
from perfsim.core import InverseSchedule
from perfsim.harness import generate_synthetic
from perfsim.losses import LogisticLoss, QuadraticLoss, mean_grad, sigmoid
from perfsim.oracle import (TOL, ConvergenceError, fit_rate, stable_jacobian,
                            theta_ps_fixed_point, theta_ps_gaussian)
from perfsim.solver import RunConfig, sa_run


class TestGaussianStablePoint:
    def test_reference_values(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=1.0)
        assert theta_ps_gaussian(env) == pytest.approx(100.0 / 9.0, rel=1e-15)

    def test_no_sensitivity(self):
        assert theta_ps_gaussian(GaussianEnv(z_bar=3.0, epsilon=0.0, sigma=1.0)) == 3.0

    def test_zero_base_mean(self):
        assert theta_ps_gaussian(GaussianEnv(z_bar=0.0, epsilon=0.7, sigma=1.0)) == 0.0


class Static:
    """A problem that does not respond: every model induces the same dataset."""

    def __init__(self, features, labels):
        self.dim = features.shape[1]
        self.dataset = features[None], labels[None]

    def response_dataset(self, theta):
        return self.dataset


class Shifted:
    """A scalar problem whose response dataset is the single sample ``mean(theta)``,
    so that the quadratic loss's mean field is ``theta - mean(theta)``."""

    dim = 1

    def __init__(self, mean):
        self.mean = mean

    def response_dataset(self, theta):
        return np.array([[self.mean(float(theta[0]))]])


def logistic_erm(loss, features, labels):
    """Test-side reference minimizer: Newton with the exact logistic Hessian."""
    m, d = features.shape
    theta = np.zeros(d)
    for _ in range(50):
        s = sigmoid(features @ theta)
        g = loss.beta * theta + features.T @ (s - labels) / m
        hess = loss.beta * np.eye(d) + (features.T * (s * (1.0 - s))) @ features / m
        theta = theta - np.linalg.solve(hess, g)
    return theta


# (utility, epsilon, beta) on the presets' data (d = 3, m = 200, data seed 7):
# the two presets, then three points with mu_tilde_est < 0, where repeated
# risk minimization is slow or expands.
POINTS = [(QuadraticUtility, 0.01, 5.0), (LogisticUtility, 0.01, 5.0),
          (LogisticUtility, 5.0, 5.0), (QuadraticUtility, 5.0, 0.5),
          (LogisticUtility, 5.0, 0.5)]


def preset_pool(utility, epsilon):
    features, labels = generate_synthetic(d=3, m=200, seed=7)
    return AgentPool(features, labels, utility(epsilon=epsilon), alpha=0.5 * epsilon,
                     participation=5)


class TestFixedPoint:
    def test_matches_gaussian_closed_form(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=50.0)
        theta = theta_ps_fixed_point(QuadraticLoss(), env)
        assert abs(theta[0] - theta_ps_gaussian(env)) <= 1e-8

    def test_no_shift_equals_plain_erm(self):
        features, labels = generate_synthetic(d=3, m=60, seed=3)
        loss = LogisticLoss(beta=1000.0 / 60)
        problem = Static(features, labels)
        theta = theta_ps_fixed_point(loss, problem)
        assert np.linalg.norm(theta - logistic_erm(loss, features, labels)) <= 1e-8
        residual = np.linalg.norm(mean_grad(loss, theta, problem.response_dataset(theta)))
        assert residual <= TOL

    def test_pool_self_consistency_residual(self):
        features, labels = generate_synthetic(d=3, m=200, seed=7)
        pool = AgentPool(features, labels, QuadraticUtility(epsilon=0.01),
                         alpha=0.005, participation=5)
        loss = LogisticLoss(beta=5.0)
        theta = theta_ps_fixed_point(loss, pool)
        residual = np.linalg.norm(mean_grad(loss, theta, pool.response_dataset(theta)))
        assert residual <= 1e-8

    def test_initialization_independence(self):
        features, labels = generate_synthetic(d=3, m=80, seed=11)
        pool = AgentPool(features, labels, QuadraticUtility(epsilon=0.02),
                         alpha=0.01, participation=5)
        loss = LogisticLoss(beta=1000.0 / 80)
        a = theta_ps_fixed_point(loss, pool, theta0=np.zeros(3))
        b = theta_ps_fixed_point(loss, pool, theta0=np.array([7.0, -7.0, 7.0]))
        assert np.linalg.norm(a - b) <= 1e-8

    @pytest.mark.parametrize("utility, epsilon, beta", POINTS)
    def test_starts_reach_one_root(self, utility, epsilon, beta):
        pool = preset_pool(utility, epsilon)
        loss = LogisticLoss(beta=beta)
        features, labels = pool.response_dataset(np.zeros(3))
        theta_static = theta_ps_fixed_point(loss, Static(features[0], labels[0]))
        rng = np.random.default_rng(0)
        starts = [2.0 * theta_static, -3.0 * theta_static]
        starts += [scale * rng.standard_normal(3) for scale in (1.0, 1.0, 3.0, 3.0, 10.0, 10.0)]
        roots = [theta_ps_fixed_point(loss, pool, theta0=start) for start in starts]
        for root in roots[1:]:
            assert np.max(np.abs(root - roots[0])) <= 1e-9

    def test_solves_where_rrm_does_not_contract(self):
        # linear utility, epsilon = 5, beta = 0.5: mu_tilde_est = -5.75, and
        # repeated risk minimization expands, but J is positive definite
        pool = preset_pool(QuadraticUtility, 5.0)
        loss = LogisticLoss(beta=0.5)
        theta = theta_ps_fixed_point(loss, pool)
        assert np.linalg.norm(mean_grad(loss, theta, pool.response_dataset(theta))) <= TOL

    def test_non_contraction_detected(self):
        # induced mean 1 + 1.5 theta: G = -1 - 0.5 theta expands under repeated
        # risk minimization, but its root -2 is Newton's; |G| <= TOL within TOL / 0.5
        theta = theta_ps_fixed_point(QuadraticLoss(), Shifted(lambda t: 1.0 + 1.5 * t))
        assert theta[0] == pytest.approx(-2.0, abs=TOL / 0.5)

    def test_cycle_does_not_converge(self):
        # induced mean 1 - theta: repeated risk minimization cycles 0, 1, 0, ...,
        # Newton finds the root 0.5 of G = 2 theta - 1
        theta = theta_ps_fixed_point(QuadraticLoss(), Shifted(lambda t: 1.0 - t))
        assert theta[0] == pytest.approx(0.5, abs=TOL / 2.0)

    @pytest.mark.parametrize("mean, theta0, failure", [
        (lambda t: t + 1.0, 0.0, "the Jacobian is singular"),  # G = -1
        (lambda t: t + 1.0, -2.0, "the Jacobian is singular"),
        (lambda t: t - t * t - 1.0, 0.3, "no convergence in 500 Newton steps"),  # G = theta^2 + 1
        (lambda t: t - t * t - 1.0, -2.0, "no convergence in 500 Newton steps"),
        (lambda t: 1.0 if t == 0.0 else math.nan, 0.0, "the Newton step is not finite"),
    ], ids=["G=-1", "G=-1,theta0=-2", "G=theta^2+1", "G=theta^2+1,theta0=-2", "nan-response"])
    def test_no_root_is_a_convergence_error(self, mean, theta0, failure):
        with pytest.raises(ConvergenceError) as info:
            theta_ps_fixed_point(QuadraticLoss(), Shifted(mean), theta0=np.array([theta0]))
        message = str(info.value)
        assert "\n" not in message
        assert message.startswith(f"stable point of QuadraticLoss(): {failure} (||G|| = ")


class TestJacobian:
    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.7])
    def test_gaussian_is_one_minus_epsilon(self, epsilon):
        env = GaussianEnv(z_bar=10.0, epsilon=epsilon, sigma=1.0)
        theta = theta_ps_gaussian(env)
        [[jac]] = stable_jacobian(QuadraticLoss(), env, np.array([theta]))
        # G(theta +/- H) subtracts numbers of size |theta|: each difference is
        # off by at most a few ulps of theta, over 2 H
        h = 1e-6
        assert abs(jac - (1.0 - epsilon)) <= 4.0 * np.spacing(theta) / (2.0 * h)

    @pytest.mark.parametrize("utility", [QuadraticUtility, LogisticUtility])
    def test_pool_matches_a_wider_central_difference(self, utility):
        pool = preset_pool(utility, 0.01)
        loss = LogisticLoss(beta=5.0)
        theta = theta_ps_fixed_point(loss, pool)

        def field(t):
            return mean_grad(loss, t, pool.response_dataset(t))

        h = 1e-5
        reference = np.stack([(field(theta + e) - field(theta - e)) / (2.0 * h)
                              for e in h * np.eye(3)], axis=1)
        jac = stable_jacobian(loss, pool, theta)
        assert np.max(np.abs(jac - reference)) <= 1e-6 * np.max(np.abs(reference))


class TestKernelAgreement:
    def test_ar_and_iid_share_the_stable_point(self):
        # Without noise both samplers drive the learner to the same fixed
        # point, showing the chain introduces no asymptotic bias.
        sched = InverseSchedule(c0=500.0 / 0.9, c1=800.0 / 0.81)
        tps = None
        finals = {}
        for name, rho in (("iid", 1.0), ("ar", 0.3)):
            env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=0.0, rho=rho)
            tps = np.array([theta_ps_gaussian(env)])
            kernel = IidGaussianKernel(env) if name == "iid" else ArGaussianKernel(env)
            cfg = RunConfig(theta0=np.zeros(1), schedule=sched, horizon=3000, seed=1)
            finals[name] = sa_run(QuadraticLoss(), kernel, cfg, tps).errors[0, -1]
        assert finals["iid"] <= 1e-12
        assert finals["ar"] <= 1e-12


class TestRateFit:
    def test_exact_inverse_law(self):
        k = np.arange(1, 501)
        fit = fit_rate(k, 7.0 / k, 1, 500)
        assert fit["slope"] == pytest.approx(-1.0, abs=1e-12)
        assert fit["r2"] == pytest.approx(1.0, abs=1e-12)
        assert fit["intercept"] == pytest.approx(np.log(7.0), abs=1e-10)

    def test_constant_series(self):
        k = np.arange(1, 101)
        fit = fit_rate(k, np.full(100, 3.0), 1, 100)
        assert fit["slope"] == pytest.approx(0.0, abs=1e-12)

    def test_window_restriction(self):
        k = np.arange(1, 1001)
        err = np.where(k < 100, 5.0, 50.0 / k)  # flat head, 1/k tail
        fit = fit_rate(k, err, 100, 1000)
        assert fit["slope"] == pytest.approx(-1.0, abs=1e-10)

    def test_rejects_nonpositive_errors(self):
        k = np.arange(1, 11)
        with pytest.raises(ValueError, match="strictly positive"):
            fit_rate(k, np.zeros(10), 1, 10)
        for bad in (np.nan, np.inf):  # neither fails the > 0 test; either would give NaN
            err = 1.0 / k
            err[4] = bad
            with pytest.raises(ValueError, match="mean errors must be finite in the fit window"):
                fit_rate(k, err, 1, 10)

    def test_agrees_with_polyfit(self):
        # the least-squares line of np.polyfit(log k, log err, 1), on seeded series
        rng = np.random.default_rng(33)
        for _ in range(200):
            k = np.unique(rng.integers(1, 100_000, size=int(rng.integers(2, 300))))
            if k.size < 2:
                continue
            err = (np.exp(rng.normal(0.0, 3.0)) * k ** rng.uniform(-2.0, 1.0)
                   * np.exp(rng.normal(0.0, 0.3, size=k.size)))
            fit = fit_rate(k, err, 1, 100_000)
            slope, intercept = np.polyfit(np.log(k), np.log(err), 1)
            assert abs(fit["slope"] - slope) <= 1e-12
            assert abs(fit["intercept"] - intercept) <= 1e-12

    def test_rejects_bad_window(self):
        k = np.arange(1, 11)
        with pytest.raises(ValueError):
            fit_rate(k, 1.0 / k, 5, 5)
        with pytest.raises(ValueError):
            fit_rate(k, 1.0 / k, 2000, 3000)
