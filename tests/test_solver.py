import numpy as np
import pytest

from perfsim.agents import (AdaptedBestResponseKernel, AgentPool, ArGaussianKernel,
                            GaussianEnv, IidGaussianKernel, QuadraticUtility)
from perfsim.core import ConstantSchedule, InverseSchedule, ProblemConstants, RngStream
from perfsim.data import generate_synthetic
from perfsim.losses import LogisticLoss, QuadraticLoss
from perfsim.oracle import theta_ps_gaussian
from perfsim.solver import (AGENT_STREAM, SAMPLE_STREAM, RunConfig, one_step_contraction_probe,
                            sa_run)


class ZeroSchedule:
    """Degenerate all-zero steps for identity-run checks."""

    def gamma(self, k):
        return np.zeros(np.shape(k)) if np.ndim(k) else 0.0


class CountingKernel:
    """Mock kernel recording interface usage."""

    trials = 1

    def __init__(self):
        self.advances = 0
        self.emissions = 0

    def advance(self, theta, rngs):
        self.advances += 1

    def emit(self, theta, rngs, n=1):
        self.emissions += n
        return np.zeros((theta.shape[0], n))


def gaussian_setup(sigma=50.0, rho=0.5, epsilon=0.1):
    env = GaussianEnv(z_bar=10.0, epsilon=epsilon, sigma=sigma, rho=rho)
    tps = np.array([theta_ps_gaussian(env)])
    return env, tps


class TestSaRun:
    def test_one_step_exact_convergence(self):
        # sigma = 0, epsilon = 0, constant step 1: theta_1 = z_bar = theta_ps
        env = GaussianEnv(z_bar=5.0, epsilon=0.0, sigma=0.0)
        cfg = RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(1.0), horizon=3, seed=0)
        trace = sa_run(QuadraticLoss(), IidGaussianKernel(env), cfg, np.array([5.0]))
        assert trace.errors[0, 0] == 25.0
        assert np.all(trace.errors[0, 1:] == 0.0)

    def test_matches_deterministic_recursion(self):
        # sigma = 0: theta_{k+1} = (1 - gamma_{k+1}) theta_k + gamma_{k+1} z_bar
        env = GaussianEnv(z_bar=7.0, epsilon=0.0, sigma=0.0)
        sched = InverseSchedule(c0=2.0, c1=3.0)
        cfg = RunConfig(theta0=np.array([1.0]), schedule=sched, horizon=20, seed=0)
        trace = sa_run(QuadraticLoss(), IidGaussianKernel(env), cfg, np.array([7.0]))
        theta = 1.0
        for k in range(20):
            g = sched.gamma(k + 1)
            theta = (1.0 - g) * theta + g * 7.0
            assert trace.errors[0, k + 1] == pytest.approx((theta - 7.0) ** 2, rel=1e-12,
                                                           abs=1e-300)

    def test_zero_steps_reproduce_theta0(self):
        env, tps = gaussian_setup()
        cfg = RunConfig(theta0=np.array([3.0]), schedule=ZeroSchedule(), horizon=10, seed=1)
        trace = sa_run(QuadraticLoss(), ArGaussianKernel(env), cfg, tps)
        assert np.all(trace.errors == trace.errors[0, 0])
        assert np.array_equal(trace.final_theta, np.array([[3.0]]))

    def test_kernel_interface_usage_counts(self):
        kern = CountingKernel()
        cfg = RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(0.01), horizon=7,
                        batch=2, br_per_iter=3, seed=0)
        trace = sa_run(QuadraticLoss(), kern, cfg, np.zeros(1))
        assert kern.advances == 3 * 7
        assert kern.emissions == 2 * 7
        assert trace.samples_drawn[-1] == 14
        assert trace.agent_updates[-1] == 21

    def test_seed_determinism_and_trial_variation(self):
        env, tps = gaussian_setup()
        sched = InverseSchedule(c0=10.0, c1=100.0)

        def run(trial):
            cfg = RunConfig(theta0=np.zeros(1), schedule=sched, horizon=200, seed=42)
            return sa_run(QuadraticLoss(), ArGaussianKernel(env), cfg, tps, trials=[trial])

        a, b, c = run(0), run(0), run(1)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.final_theta, b.final_theta)
        assert not np.array_equal(a.errors, c.errors)

    def test_divergence_detected(self):
        env, tps = gaussian_setup(sigma=1.0)
        cfg = RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(50.0), horizon=500, seed=3)
        trace = sa_run(QuadraticLoss(), IidGaussianKernel(env), cfg, tps)
        (failure,) = trace.failures
        assert failure["trial"] == 0 and failure["kind"] == "DivergenceError"
        assert failure["iteration"] >= 1
        assert np.isnan(trace.errors[0, failure["iteration"]:]).all()
        assert np.isnan(trace.final_theta).all()

    def test_block_where_every_trial_fails(self):
        class PoisonedChain(ArGaussianKernel):
            """Sets the chain of block row r to NaN at advance number POISON[r]."""

            POISON = {0: 30, 1: 20, 2: 10}
            calls = 0

            def advance(self, theta, rngs):
                self.calls += 1
                for row, call in self.POISON.items():
                    if self.calls == call:
                        self.z[row] = np.nan
                return super().advance(theta, rngs)

        env, tps = gaussian_setup(sigma=1.0)
        cfg = RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(0.1), horizon=100,
                        seed=3, trials=3)
        kernel = PoisonedChain(env, trials=3)
        trace = sa_run(QuadraticLoss(), kernel, cfg, tps)
        assert kernel.calls == 30  # the block ends at the last failure
        assert trace.failures == [{"trial": t, "iteration": it, "kind": "DivergenceError"}
                                  for t, it in ((2, 10), (1, 20), (0, 30))]
        assert trace.failed_rows == [2, 1, 0]
        assert np.isnan(trace.final_theta).all()
        for row, it in ((0, 30), (1, 20), (2, 10)):
            assert np.isfinite(trace.errors[row, :it]).all()
            assert np.isnan(trace.errors[row, it:]).all()

    def test_kernel_trial_count_checked(self):
        env, tps = gaussian_setup()
        pool, pool_loss = pool_setup()
        for loss, kernel, target in ((QuadraticLoss(), IidGaussianKernel(env), tps),
                                     (pool_loss, AdaptedBestResponseKernel(pool), np.zeros(3))):
            cfg = RunConfig(theta0=np.zeros_like(target), schedule=ConstantSchedule(0.1),
                            horizon=5, trials=3)
            with pytest.raises(ValueError, match="built for 1 trials, the block has 3"):
                sa_run(loss, kernel, cfg, target)

    def test_trace_length_and_counters(self):
        env, tps = gaussian_setup()
        cfg = RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(0.1), horizon=11, seed=5)
        trace = sa_run(QuadraticLoss(), ArGaussianKernel(env), cfg, tps)
        assert len(trace) == 12
        assert np.array_equal(trace.iterations, np.arange(12))
        assert np.all(trace.errors >= 0)

    def test_horizon_zero(self):
        env, tps = gaussian_setup()
        cfg = RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(0.1), horizon=0, seed=5)
        trace = sa_run(QuadraticLoss(), ArGaussianKernel(env), cfg, tps)
        assert len(trace) == 1
        assert trace.errors[0, 0] == pytest.approx(float(tps[0] ** 2))


class TestVariants:
    def test_minibatch_reduces_error_floor(self):
        # averaging the gradient over a batch of agents cuts the stationary
        # fluctuation level roughly by the batch size
        from perfsim.losses import logistic_constants
        from perfsim.oracle import theta_ps_fixed_point

        ds = generate_synthetic(d=3, m=100, seed=7)
        eps, beta = 0.01, 10.0
        pool = AgentPool(ds.features, ds.labels, QuadraticUtility(epsilon=eps),
                         alpha=0.5 * eps, participation=5)
        loss = LogisticLoss(beta=beta)
        lipschitz, mu_tilde = logistic_constants(ds.features, beta, eps)
        sched = InverseSchedule(c0=100.0 / mu_tilde, c1=8.0 * lipschitz ** 2 / mu_tilde ** 2)
        tps = theta_ps_fixed_point(loss, pool)
        floors = {}
        for batch in (1, 8):
            cfg = RunConfig(theta0=np.zeros(3), schedule=sched, horizon=3000,
                            seed=1, batch=batch, trials=6)
            trace = sa_run(loss, AdaptedBestResponseKernel(pool, trials=6), cfg, tps)
            floors[batch] = float(np.mean(trace.errors[:, 300:].mean(axis=1)))
        assert floors[8] < 0.5 * floors[1]


class TestRunConfig:
    def test_opposing_variants_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(0.1), horizon=5,
                      br_per_iter=2, learner_iters_per_agent_round=2)

    def test_non_finite_theta0_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(theta0=np.array([np.inf]), schedule=ConstantSchedule(0.1), horizon=5)


def pool_setup(m=30, seed=5):
    ds = generate_synthetic(d=3, m=m, seed=seed)
    eps = 0.05
    pool = AgentPool(ds.features, ds.labels, QuadraticUtility(epsilon=eps),
                     alpha=0.5 * eps, participation=4)
    return pool, LogisticLoss(beta=1000.0 / m)


class TestLazyRun:
    def test_single_inner_iteration_equals_sa(self):
        # one learner update per agent round is greedy SA: per iteration one
        # transition, one emission and one gradient step, on the trial's streams
        pool, loss = pool_setup()
        sched = InverseSchedule(c0=0.5, c1=50.0)
        cfg = RunConfig(theta0=np.zeros(3), schedule=sched, horizon=60, seed=9,
                        learner_iters_per_agent_round=1)
        trace = sa_run(loss, AdaptedBestResponseKernel(pool), cfg, np.zeros(3), trials=[2])

        root = RngStream(9).substream(2)
        agent_rng = root.substream(AGENT_STREAM).generator()
        sample_rng = root.substream(SAMPLE_STREAM).generator()
        kernel = AdaptedBestResponseKernel(pool)
        theta = np.zeros((1, 3))
        errors = [0.0]
        for gamma in sched.gamma(np.arange(1, 61)):
            kernel.advance(theta, [agent_rng])
            theta = theta - gamma * loss.grad(theta, kernel.emit(theta, [sample_rng]))
            errors.append(float(theta[0] @ theta[0]))
        assert np.array_equal(trace.errors[0], errors)
        assert np.array_equal(trace.final_theta, theta)
        assert np.array_equal(trace.agent_updates, np.arange(61))

    def test_agent_rounds_counted_per_block(self):
        pool, loss = pool_setup()
        cfg = RunConfig(theta0=np.zeros(3), schedule=ConstantSchedule(0.01), horizon=10,
                        learner_iters_per_agent_round=4, seed=9)
        trace = sa_run(loss, AdaptedBestResponseKernel(pool), cfg, np.zeros(3))
        # 10 learner updates in blocks of 4 -> 3 agent rounds
        assert trace.agent_updates[-1] == 3
        assert np.array_equal(trace.agent_updates[1:5], [1, 1, 1, 1])
        assert trace.samples_drawn[-1] == 10

    def test_pool_frozen_during_inner_block(self):
        pool, loss = pool_setup()

        class SpyKernel(AdaptedBestResponseKernel):
            def __init__(self, pool):
                super().__init__(pool)
                self.snapshot = None

            def advance(self, theta, rngs):
                failed = super().advance(theta, rngs)
                self.snapshot = self.features.copy()
                return failed

            def emit(self, theta, rngs, n=1):
                assert np.array_equal(self.features, self.snapshot)
                return super().emit(theta, rngs, n)

        cfg = RunConfig(theta0=np.zeros(3), schedule=ConstantSchedule(0.01), horizon=40,
                        learner_iters_per_agent_round=5, seed=9)
        sa_run(loss, SpyKernel(pool), cfg, np.zeros(3))

    def test_rejects_minibatch(self):
        with pytest.raises(ValueError, match="one sample per learner update"):
            RunConfig(theta0=np.zeros(3), schedule=ConstantSchedule(0.01), horizon=10,
                      batch=2, learner_iters_per_agent_round=2, seed=9)


class TestContractionProbe:
    def constants(self, env):
        return ProblemConstants(mu=1.0, lipschitz=1.0, sensitivity=env.epsilon,
                                sigma_noise=env.sigma)

    def test_zero_gamma_is_exact_identity(self):
        env, tps = gaussian_setup(sigma=2.0)
        theta = tps + 3.0
        r = one_step_contraction_probe(QuadraticLoss(), IidGaussianKernel(env),
                                       self.constants(env), theta, tps, 0.0, 500,
                                       RngStream(20).generator())
        assert r.lhs == pytest.approx(9.0, rel=1e-12)
        assert r.rhs == pytest.approx(9.0, rel=1e-12)
        assert r.stderr == 0.0

    def test_at_stable_point_without_noise(self):
        env, tps = gaussian_setup(sigma=0.0)
        r = one_step_contraction_probe(QuadraticLoss(), IidGaussianKernel(env),
                                       self.constants(env), tps, tps, 0.01, 100,
                                       RngStream(21).generator())
        assert r.lhs == pytest.approx(0.0, abs=1e-25)
        assert r.rhs == pytest.approx(0.0, abs=1e-25)

    def test_bound_holds_at_reference_point(self):
        env, tps = gaussian_setup()
        r = one_step_contraction_probe(QuadraticLoss(), IidGaussianKernel(env),
                                       self.constants(env), tps + 1.0, tps, 0.01,
                                       20_000, RngStream(22).generator())
        assert r.lhs <= r.rhs + 3.0 * r.stderr


class TestOneStepBoundUnrolled:
    def test_iid_quadratic_constant_step_bound(self):
        # Unrolled one-step recursion:
        #   bound_k = A^k err0 + 2 sigma^2 gamma^2 sum_{j<k} A^j,
        #   A = 1 - 2 gamma mu_tilde + 2 L^2 gamma^2
        env, tps = gaussian_setup(sigma=5.0, rho=1.0)
        mu_tilde, lipschitz = 0.9, 1.0
        gamma = min(0.3, mu_tilde / (2 * lipschitz ** 2))
        A = 1.0 - 2 * gamma * mu_tilde + 2 * lipschitz ** 2 * gamma ** 2
        trials = 200
        cfg = RunConfig(theta0=tps + 4.0, schedule=ConstantSchedule(gamma), horizon=1000,
                        seed=77, trials=trials)
        errs = sa_run(QuadraticLoss(), IidGaussianKernel(env, trials=trials), cfg, tps).errors
        err0 = errs[0, 0]
        for k in (10, 100, 1000):
            bound = A ** k * err0 + 2 * env.sigma ** 2 * gamma ** 2 * sum(A ** j for j in range(k))
            mean = errs[:, k].mean()
            stderr = errs[:, k].std(ddof=1) / np.sqrt(trials)
            assert mean <= bound + 3.0 * stderr
