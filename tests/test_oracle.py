import numpy as np
import pytest

from perfsim.agents import AgentPool, ArGaussianKernel, GaussianEnv, IidGaussianKernel, QuadraticUtility
from perfsim.core import InverseSchedule
from perfsim.harness import generate_synthetic
from perfsim.losses import LogisticLoss, QuadraticLoss, mean_grad
from perfsim.oracle import (ConvergenceError, NonContractionError, fit_rate,
                            minimize_empirical_risk, theta_ps_fixed_point, theta_ps_gaussian)
from perfsim.solver import RunConfig, sa_run


class TestGaussianStablePoint:
    def test_reference_values(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=1.0)
        assert theta_ps_gaussian(env) == pytest.approx(100.0 / 9.0, rel=1e-15)

    def test_no_sensitivity(self):
        assert theta_ps_gaussian(GaussianEnv(z_bar=3.0, epsilon=0.0, sigma=1.0)) == 3.0

    def test_zero_base_mean(self):
        assert theta_ps_gaussian(GaussianEnv(z_bar=0.0, epsilon=0.7, sigma=1.0)) == 0.0


class TestFixedPoint:
    def test_matches_gaussian_closed_form(self):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=50.0)
        theta = theta_ps_fixed_point(QuadraticLoss(), env)
        assert abs(theta[0] - theta_ps_gaussian(env)) <= 1e-8

    def test_no_shift_equals_plain_erm(self):
        features, labels = generate_synthetic(d=3, m=60, seed=3)
        loss = LogisticLoss(beta=1000.0 / 60)

        class NoShift:
            dim = 3

            def response_dataset(self, theta):
                return features[None], labels[None].astype(float)

        problem = NoShift()
        theta = theta_ps_fixed_point(loss, problem)
        erm = minimize_empirical_risk(loss, problem.response_dataset(theta), np.zeros(3))
        assert np.linalg.norm(theta - erm) <= 1e-8
        residual = np.linalg.norm(mean_grad(loss, theta, problem.response_dataset(theta)))
        assert residual <= 1e-9

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

    def test_non_contraction_detected(self):
        class Expanding:
            dim = 1

            def response_dataset(self, theta):
                # induced mean moves 1.5x as fast as the model: no fixed point
                return np.array([[1.0 + 1.5 * float(theta[0])]])

        with pytest.raises(NonContractionError):
            theta_ps_fixed_point(QuadraticLoss(), Expanding())

    def test_cycle_does_not_converge(self):
        class Flipping:
            dim = 1

            def response_dataset(self, theta):
                # induced mean 1 - theta: the iterates cycle 0, 1, 0, ... with
                # constant moves, so they neither settle nor expand
                return np.array([[1.0 - float(theta[0])]])

        with pytest.raises(ConvergenceError, match="no fixed point"):
            theta_ps_fixed_point(QuadraticLoss(), Flipping())


class Recording:
    """Wraps a problem and keeps every model it is asked to respond to."""

    def __init__(self, problem):
        self.problem = problem
        self.dim = problem.dim
        self.path = []

    def response_dataset(self, theta):
        self.path.append(np.array(theta, copy=True))
        return self.problem.response_dataset(theta)


class TestRrm:
    """The repeated-risk-minimization path: every pass, then the residual check."""

    def test_gaussian_affine_fixed_point_path(self):
        # theta_{t+1} = z_bar + eps * theta_t, contraction ratio eps
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=3.0)
        tps = theta_ps_gaussian(env)
        rec = Recording(env)
        theta_ps_fixed_point(QuadraticLoss(), rec, theta0=np.zeros(1))
        path = rec.path
        theta = 0.0
        for t in range(1, len(path)):
            theta = 10.0 + 0.1 * theta
            assert path[t][0] == pytest.approx(theta, abs=1e-9)
        gaps = [abs(p[0] - tps) for p in path]
        for t in range(1, 10):
            assert gaps[t] == pytest.approx(0.1 * gaps[t - 1], rel=1e-6)

    def test_no_shift_converges_in_one_outer_step(self):
        env = GaussianEnv(z_bar=4.0, epsilon=0.0, sigma=1.0)
        rec = Recording(env)
        theta_ps_fixed_point(QuadraticLoss(), rec, theta0=np.array([2.0]))
        assert rec.path[1][0] == pytest.approx(4.0, abs=1e-10)
        assert len(rec.path) <= 3

    def test_strategic_iterates_contract(self):
        features, labels = generate_synthetic(d=3, m=30, seed=5)
        pool = AgentPool(features, labels, QuadraticUtility(epsilon=0.05),
                         alpha=0.025, participation=4)
        rec = Recording(pool)
        theta_ps_fixed_point(LogisticLoss(beta=1000.0 / 30), rec, theta0=np.zeros(3))
        path = rec.path
        moves = [float(np.linalg.norm(path[t + 1] - path[t])) for t in range(len(path) - 1)]
        moves = [m for m in moves if m > 1e-13]
        assert all(moves[i + 1] <= moves[i] for i in range(len(moves) - 1))


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
        with pytest.raises(ValueError):
            fit_rate(k, np.zeros(10), 1, 10)

    def test_rejects_bad_window(self):
        k = np.arange(1, 11)
        with pytest.raises(ValueError):
            fit_rate(k, 1.0 / k, 5, 5)
        with pytest.raises(ValueError):
            fit_rate(k, 1.0 / k, 2000, 3000)
