import tracemalloc

import numpy as np
import pytest

from perfsim.agents import (AdaptedBestResponseKernel, AgentPool, ArGaussianKernel,
                            ExactBestResponseKernel, GaussianEnv, IidGaussianKernel,
                            QuadraticUtility)
from perfsim.core import ConstantSchedule, InverseSchedule
from perfsim.harness import generate_synthetic
from perfsim.losses import LogisticLoss, QuadraticLoss
from perfsim.oracle import theta_ps_gaussian
from perfsim import solver
from perfsim.solver import (AGENT_STREAM, SAMPLE_STREAM, RunConfig, _trial_rngs,
                            one_step_contraction_probe, sa_run)


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
        (failure,) = trace.failures.values()
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
                        seed=3)
        kernel = PoisonedChain(env, trials=3)
        trace = sa_run(QuadraticLoss(), kernel, cfg, tps)
        assert kernel.calls == 30  # the block ends at the last failure
        assert trace.failures == {t: {"trial": t, "iteration": it, "kind": "DivergenceError"}
                                  for t, it in ((2, 10), (1, 20), (0, 30))}
        assert list(trace.failures) == [2, 1, 0]
        assert np.isnan(trace.final_theta).all()
        for row, it in ((0, 30), (1, 20), (2, 10)):
            assert np.isfinite(trace.errors[row, :it]).all()
            assert np.isnan(trace.errors[row, it:]).all()

    @staticmethod
    def assert_sparse_record_matches_dense(loss, kernel, cfg, target):
        """``record=[0, K]`` gives the failures of the dense record, in order, the
        same errors at 0 and K and the same ``final_theta``; returns the dense
        trace and the dense and sparse runs' kernels."""
        dense_kernel, sparse_kernel = kernel(), kernel()
        dense = sa_run(loss, dense_kernel, cfg, target)
        sparse = sa_run(loss, sparse_kernel, cfg, target, record=[0, cfg.horizon])
        assert list(sparse.failures.items()) == list(dense.failures.items())
        assert np.array_equal(sparse.errors, dense.errors[:, [0, -1]], equal_nan=True)
        assert np.array_equal(sparse.final_theta, dense.final_theta, equal_nan=True)
        return dense, dense_kernel, sparse_kernel

    def test_sparse_record_divergence(self):
        # constant step 50 multiplies the gap by -49 per step: every row
        # diverges between the record iterations 0 and 500
        env, tps = gaussian_setup(sigma=1.0)
        cfg = RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(50.0), horizon=500, seed=3)
        dense, _, _ = self.assert_sparse_record_matches_dense(
            QuadraticLoss(), lambda: IidGaussianKernel(env, trials=3), cfg, tps)
        assert len(dense.failures) == 3
        assert all(1 < f["iteration"] < 500 and f["kind"] == "DivergenceError"
                   for f in dense.failures.values())

    @pytest.mark.parametrize("poison", [{0: 30, 1: 20, 2: 10}, {1: 20}])
    def test_sparse_record_poisoned_rows(self, poison):
        class PoisonedChain(ArGaussianKernel):
            """Sets the chain of block row r to NaN at advance number poison[r]."""

            calls = 0

            def advance(self, theta, rngs):
                self.calls += 1
                for row, call in poison.items():
                    if self.calls == call:
                        self.z[row] = np.nan
                return super().advance(theta, rngs)

        env, tps = gaussian_setup(sigma=1.0)
        cfg = RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(0.1), horizon=100,
                        seed=3)
        dense, dense_kernel, sparse_kernel = self.assert_sparse_record_matches_dense(
            QuadraticLoss(), lambda: PoisonedChain(env, trials=3), cfg, tps)
        assert dense.failures == {r: {"trial": r, "iteration": it, "kind": "DivergenceError"}
                                  for r, it in poison.items()}
        assert sparse_kernel.calls == dense_kernel.calls == (30 if len(poison) == 3 else 100)

    def test_guard_reads_live_rows(self, monkeypatch):
        # row 0 is NaN from advance 10 on; the guard leaves it out, so a sparse
        # record computes errors only at the failure and the record iterations
        class PoisonedChain(ArGaussianKernel):
            calls = 0

            def advance(self, theta, rngs):
                self.calls += 1
                if self.calls == 10:
                    self.z[0] = np.nan
                return super().advance(theta, rngs)

        env, tps = gaussian_setup()
        K = 30_000
        cfg = RunConfig(theta0=np.zeros(1), schedule=InverseSchedule(c0=500 / 0.9, c1=800 / 0.81),
                        horizon=K, seed=3)
        dense = sa_run(QuadraticLoss(), PoisonedChain(env, trials=72), cfg, tps)
        calls = []
        dot = solver.dot
        monkeypatch.setattr(solver, "dot", lambda a, b: calls.append(1) or dot(a, b))
        sparse = sa_run(QuadraticLoss(), PoisonedChain(env, trials=72), cfg, tps, record=[0, K])
        assert len(calls) == 4  # max ||theta_ps||, iterations 0, 10 and K
        assert dense.failures == {0: {"trial": 0, "iteration": 10, "kind": "DivergenceError"}}
        assert list(sparse.failures.items()) == list(dense.failures.items())
        assert np.array_equal(sparse.errors, dense.errors[:, [0, -1]], equal_nan=True)
        assert np.array_equal(sparse.final_theta, dense.final_theta, equal_nan=True)

    def test_sparse_record_agent_failure(self):
        class PoisonedPool(AdaptedBestResponseKernel):
            """Makes the agents of block row 1 non-finite at advance number 120."""

            calls = 0

            def advance(self, theta, rngs):
                self.calls += 1
                if self.calls == 120:
                    self.features[1] = np.nan
                return super().advance(theta, rngs)

        pool, loss = pool_setup()
        cfg = RunConfig(theta0=np.zeros(3), schedule=InverseSchedule(c0=5.0, c1=50.0),
                        horizon=300, seed=4)
        dense, _, _ = self.assert_sparse_record_matches_dense(
            loss, lambda: PoisonedPool(pool, trials=3), cfg, np.zeros(3))
        assert dense.failures == {1: {"trial": 1, "iteration": 120,
                                      "kind": "AgentDivergenceError"}}

    def test_stable_point_beyond_the_cap(self):
        # ||theta_ps|| > 1e12: no norm passes the guard, and every trial fails at once
        env, _ = gaussian_setup(sigma=1.0)
        cfg = RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(0.1), horizon=50, seed=3)
        dense, _, _ = self.assert_sparse_record_matches_dense(
            QuadraticLoss(), lambda: ArGaussianKernel(env, trials=3), cfg, np.array([2e12]))
        assert dense.failures == {r: {"trial": r, "iteration": 1, "kind": "DivergenceError"}
                                  for r in range(3)}

    @staticmethod
    def count_exact_checks(monkeypatch, loss, kernel, cfg, target):
        """The ``dot`` calls of a ``record=[0, K]`` run: one for max ||theta_ps||,
        one per exact error check (iteration 0 included)."""
        calls = []
        dot = solver.dot
        with monkeypatch.context() as m:
            m.setattr(solver, "dot", lambda a, b: calls.append(1) or dot(a, b))
            sa_run(loss, kernel, cfg, target, record=[0, cfg.horizon])
        return len(calls)

    @pytest.mark.parametrize("scale,guarded", [(1 - 1e-9, True), (1 + 1e-9, False)])
    def test_sparse_record_target_at_the_guard_edge(self, monkeypatch, scale, guarded):
        # a step multiplies the iterate by about -1.2, so it first leaves the cap on
        # the negative side, with ||theta|| in [2/3, 1] sqrt(cap); the guard rules a
        # step out only while every target row has ||t_r|| <= sqrt(cap) / 3, and
        # then reads ||theta||_F <= sqrt(cap) / 3
        env, _ = gaussian_setup(sigma=1.0, epsilon=0.0)
        target = np.array([scale * np.sqrt(solver.DIVERGENCE_CAP) / 3])
        cfg = RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(2.2), horizon=300, seed=3)
        dense, _, _ = self.assert_sparse_record_matches_dense(
            QuadraticLoss(), lambda: IidGaussianKernel(env), cfg, target)
        ((_, failure),) = dense.failures.items()
        checks = self.count_exact_checks(monkeypatch, QuadraticLoss(), IidGaussianKernel(env),
                                         cfg, target)
        assert (checks < failure["iteration"]) if guarded else (checks == 2 + failure["iteration"])

    def test_sparse_record_block_norm_past_the_guard(self, monkeypatch):
        # 16 rows at 1e11: each squared error is 1e22, far below the cap, but
        # ||theta||_F^2 = 1.6e23 > cap / 9, so every step takes the exact path
        env, _ = gaussian_setup()
        cfg = RunConfig(theta0=np.array([1e11]), schedule=ZeroSchedule(), horizon=40, seed=3)
        dense, _, _ = self.assert_sparse_record_matches_dense(
            QuadraticLoss(), lambda: ArGaussianKernel(env, trials=16), cfg, np.zeros(1))
        assert dense.failures == {}
        assert np.all(dense.errors == 1e22)
        checks = self.count_exact_checks(monkeypatch, QuadraticLoss(),
                                         ArGaussianKernel(env, trials=16), cfg, np.zeros(1))
        assert checks == 2 + cfg.horizon

    def test_start_beyond_the_finite_range(self):
        # the start's error overflows to inf, recorded unchecked and with no
        # warning; the first step's error fails the trial
        env, tps = gaussian_setup()
        cfg = RunConfig(theta0=np.array([1e300]), schedule=ConstantSchedule(0.1), horizon=10,
                        seed=0)
        for record in (None, [0, 10]):
            trace = sa_run(QuadraticLoss(), ArGaussianKernel(env), cfg, tps, record=record)
            assert trace.failures == {0: {"trial": 0, "iteration": 1, "kind": "DivergenceError"}}
            assert trace.errors[0, 0] == np.inf
            assert np.isnan(trace.errors[0, 1:]).all()

    def test_memory_flat_in_horizon(self):
        # the memory of a run with a sparse record does not grow with the horizon;
        # a first, untraced run keeps first-call imports out of the peak
        sched = InverseSchedule(c0=3.0, c1=7.0)

        class StoppingKernel(CountingKernel):
            """Fails its trial at advance 8193, which ends the run: tracing
            every allocation is slow."""

            failure = "RuntimeError"
            stop = 8193

            def advance(self, theta, rngs):
                super().advance(theta, rngs)
                return np.array([True]) if self.advances == self.stop else None

        K = 200_000
        cfg = RunConfig(theta0=np.zeros(1), schedule=sched, horizon=K, seed=3)
        sa_run(QuadraticLoss(), StoppingKernel(), cfg, np.zeros(1), record=[0, K])
        tracemalloc.start()
        try:
            trace = sa_run(QuadraticLoss(), StoppingKernel(), cfg, np.zeros(1), record=[0, K])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.failures[0]["iteration"] == StoppingKernel.stop
        assert peak < 1 << 20  # a horizon-sized list of step sizes would take 6.4 MB

    def test_kernel_trial_count_checked(self):
        env, tps = gaussian_setup()
        pool, pool_loss = pool_setup()
        for loss, kernel, target in ((QuadraticLoss(), IidGaussianKernel(env), tps),
                                     (pool_loss, AdaptedBestResponseKernel(pool), np.zeros(3))):
            cfg = RunConfig(theta0=np.zeros_like(target), schedule=ConstantSchedule(0.1),
                            horizon=5)
            with pytest.raises(ValueError, match="built for 1 trials, trials lists 3"):
                sa_run(loss, kernel, cfg, target, trials=range(3))

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

        features, labels = generate_synthetic(d=3, m=100, seed=7)
        eps, beta = 0.01, 10.0
        pool = AgentPool(features, labels, QuadraticUtility(epsilon=eps),
                         alpha=0.5 * eps, participation=5)
        loss = LogisticLoss(beta=beta)
        lipschitz, mu_tilde = logistic_constants(features, beta, eps)
        sched = InverseSchedule(c0=100.0 / mu_tilde, c1=8.0 * lipschitz ** 2 / mu_tilde ** 2)
        tps = theta_ps_fixed_point(loss, pool)
        floors = {}
        for batch in (1, 8):
            cfg = RunConfig(theta0=np.zeros(3), schedule=sched, horizon=3000,
                            seed=1, batch=batch)
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


class TestTrialRngs:
    """A trial's agent and sample streams, spawn keys (trial, AGENT_STREAM) and
    (trial, SAMPLE_STREAM) under the run's seed."""

    @staticmethod
    def streams(seed, trial):
        cfg = RunConfig(theta0=np.zeros(1), schedule=ConstantSchedule(0.1), horizon=1, seed=seed)
        return _trial_rngs(cfg, trial)

    def draws(self, seed, trial, n=100):
        return [rng.random(n) for rng in self.streams(seed, trial)]

    def test_equal_seed_and_trial_replay_bit_for_bit(self):
        for a, b in zip(self.draws(9, 2), self.draws(9, 2)):
            assert np.array_equal(a, b)

    def test_agent_and_sample_streams_differ(self):
        agent, sample = self.draws(9, 2)
        assert (agent != sample).all()

    def test_trials_differ(self):
        for a, b in zip(self.draws(9, 2), self.draws(9, 3)):
            assert (a != b).all()

    def test_first_draws_pinned(self):
        # every trace.csv and golden file was drawn from these streams; the
        # values were pinned from an earlier construction of the same keys
        agent, sample = self.draws(9, 2, n=4)
        assert [x.hex() for x in agent] == ["0x1.bc2baa6354d20p-6", "0x1.f7fe5d2be92e4p-1",
                                            "0x1.a978b8930b322p-2", "0x1.0626d7f2b85c0p-6"]
        assert [x.hex() for x in sample] == ["0x1.7053ce0f22268p-1", "0x1.b577109a0dd33p-1",
                                             "0x1.ccc4602980ef0p-1", "0x1.e2beb018388d0p-4"]


def pool_setup(m=30, seed=5):
    features, labels = generate_synthetic(d=3, m=m, seed=seed)
    eps = 0.05
    pool = AgentPool(features, labels, QuadraticUtility(epsilon=eps),
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

        agent_rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(2, AGENT_STREAM)))
        sample_rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(2, SAMPLE_STREAM)))
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
        return dict(mu_tilde=1.0 - 1.0 * env.epsilon, lipschitz=1.0, sigma=env.sigma)

    def test_zero_gamma_is_exact_identity(self):
        env, tps = gaussian_setup(sigma=2.0)
        theta = tps + 3.0
        lhs, rhs, stderr = one_step_contraction_probe(QuadraticLoss(), IidGaussianKernel(env),
                                                      theta, tps, 0.0, 500,
                                                      np.random.default_rng(20),
                                                      **self.constants(env))
        assert lhs == pytest.approx(9.0, rel=1e-12)
        assert rhs == pytest.approx(9.0, rel=1e-12)
        assert stderr == 0.0

    def test_at_stable_point_without_noise(self):
        env, tps = gaussian_setup(sigma=0.0)
        lhs, rhs, _ = one_step_contraction_probe(QuadraticLoss(), IidGaussianKernel(env),
                                                 tps, tps, 0.01, 100,
                                                 np.random.default_rng(21), **self.constants(env))
        assert lhs == pytest.approx(0.0, abs=1e-25)
        assert rhs == pytest.approx(0.0, abs=1e-25)

    def test_bound_holds_at_reference_point(self):
        env, tps = gaussian_setup()
        lhs, rhs, stderr = one_step_contraction_probe(QuadraticLoss(), IidGaussianKernel(env),
                                                      tps + 1.0, tps, 0.01, 20_000,
                                                      np.random.default_rng(22),
                                                      **self.constants(env))
        assert lhs <= rhs + 3.0 * stderr

    @pytest.mark.parametrize("mu_tilde", [0.0, -0.2, float("nan")])
    def test_rejects_non_contracting_problem(self, mu_tilde):
        env, tps = gaussian_setup()
        with pytest.raises(ValueError, match="mu_tilde"):
            one_step_contraction_probe(QuadraticLoss(), IidGaussianKernel(env), tps, tps,
                                       0.01, 100, np.random.default_rng(23),
                                       mu_tilde=mu_tilde, lipschitz=1.0, sigma=env.sigma)

    def test_pool_kernel_batches(self):
        # a pool kernel emits (features, labels); each of the n_mc draws is one agent
        features, labels = generate_synthetic(d=3, m=50, seed=4)
        pool = AgentPool(features, labels, QuadraticUtility(epsilon=0.5), alpha=0.25,
                         participation=1)
        loss, gamma = LogisticLoss(beta=2.0), 0.1
        theta, tps = np.array([0.5, -1.0, 2.0]), np.array([0.25, 0.0, 1.0])
        constants = dict(mu_tilde=1.5, lipschitz=3.0, sigma=2.0)
        lhs, rhs, stderr = one_step_contraction_probe(
            loss, ExactBestResponseKernel(pool), theta, tps, gamma, 50,
            np.random.default_rng(24), **constants)
        X, y = ExactBestResponseKernel(pool).emit(theta[None], [np.random.default_rng(24)], 50)
        errors = []
        for i in range(50):
            g = loss.grad(theta[None], (X[:, i:i + 1], y[:, i:i + 1]))[0]
            gap = theta - gamma * g - tps
            errors.append(gap @ gap)
        assert lhs == np.mean(errors)
        assert stderr == np.std(errors, ddof=1) / np.sqrt(50)
        dist2 = (theta - tps) @ (theta - tps)
        assert rhs == pytest.approx((1 - 2 * gamma * 1.5 + 2 * 3.0 ** 2 * gamma ** 2) * dist2
                                    + 2 * 2.0 ** 2 * gamma ** 2, rel=1e-15)
        with pytest.raises(ValueError, match="cannot draw 51 distinct agents from a pool of 50"):
            one_step_contraction_probe(loss, ExactBestResponseKernel(pool), theta, tps, gamma, 51,
                                       np.random.default_rng(24), **constants)


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
                        seed=77)
        errs = sa_run(QuadraticLoss(), IidGaussianKernel(env, trials=trials), cfg, tps).errors
        err0 = errs[0, 0]
        for k in (10, 100, 1000):
            bound = A ** k * err0 + 2 * env.sigma ** 2 * gamma ** 2 * sum(A ** j for j in range(k))
            mean = errs[:, k].mean()
            stderr = errs[:, k].std(ddof=1) / np.sqrt(trials)
            assert mean <= bound + 3.0 * stderr
