import numpy as np
import pytest

from perfsim.agents import AgentPool, ArGaussianKernel, GaussianEnv, IidGaussianKernel, QuadraticUtility
from perfsim.core import InverseSchedule
from perfsim.data import generate_synthetic
from perfsim.losses import LogisticLoss, QuadraticLoss, mean_grad
from perfsim.oracle import (NonContractionError, fit_rate, theta_ps_fixed_point,
                            theta_ps_gaussian)
from perfsim.solver import RunConfig, minimize_empirical_risk, sa_run


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
        ds = generate_synthetic(d=3, m=60, seed=3)
        loss = LogisticLoss(beta=1000.0 / 60)

        class NoShift:
            dim = 3

            def response_dataset(self, theta):
                return ds.features[None], ds.labels[None].astype(float)

        problem = NoShift()
        theta = theta_ps_fixed_point(loss, problem)
        erm = minimize_empirical_risk(loss, problem.response_dataset(theta),
                                      np.zeros(3), tol=1e-12)
        assert np.linalg.norm(theta - erm) <= 1e-8
        residual = np.linalg.norm(mean_grad(loss, theta, problem.response_dataset(theta)))
        assert residual <= 1e-9

    def test_pool_self_consistency_residual(self):
        ds = generate_synthetic(d=3, m=200, seed=7)
        pool = AgentPool(ds.features, ds.labels, QuadraticUtility(epsilon=0.01),
                         alpha=0.005, participation=5)
        loss = LogisticLoss(beta=5.0)
        theta = theta_ps_fixed_point(loss, pool)
        residual = np.linalg.norm(mean_grad(loss, theta, pool.response_dataset(theta)))
        assert residual <= 1e-8

    def test_initialization_independence(self):
        ds = generate_synthetic(d=3, m=80, seed=11)
        pool = AgentPool(ds.features, ds.labels, QuadraticUtility(epsilon=0.02),
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
            theta_ps_fixed_point(QuadraticLoss(), Expanding(), max_outer=100)


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
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(7.0), abs=1e-10)

    def test_constant_series(self):
        k = np.arange(1, 101)
        fit = fit_rate(k, np.full(100, 3.0), 1, 100)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_window_restriction(self):
        k = np.arange(1, 1001)
        err = np.where(k < 100, 5.0, 50.0 / k)  # flat head, 1/k tail
        fit = fit_rate(k, err, 100, 1000)
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)

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
