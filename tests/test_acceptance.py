"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single ``ACCEPTANCE n: PASS/FAIL`` line with the
measured quantities.
"""
import math
import os
from time import perf_counter

import numpy as np
import pytest

from perfsim.agents import (AdaptedBestResponseKernel, AgentPool, ArGaussianKernel,
                            GaussianEnv, IidGaussianKernel, LogisticUtility,
                            QuadraticUtility)
from perfsim.core import ConstantSchedule, InverseSchedule, check_schedule
from perfsim.harness import generate_synthetic
from perfsim.harness import (ExperimentSpec, _execute_points, record_grid,
                             resolve_points, run_experiment)
from perfsim.losses import LogisticLoss, QuadraticLoss, mean_grad
from perfsim.oracle import fit_rate, theta_ps_fixed_point, theta_ps_gaussian
from perfsim.solver import RunConfig, one_step_contraction_probe, sa_run

from draw_reference import distinct_agent_draws

WORKERS = min(os.cpu_count() or 1, 8)


def report(criterion: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# --------------------------------------------------------------------------
# Shared studies (expensive runs reused across criteria)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gaussian_study():
    """gaussian_ar preset, rho in {0.1, 0.5, 1.0}, 20 trials, K = 1e5."""
    spec = ExperimentSpec.from_dict({
        "preset": "gaussian_ar", "seed": 20_240_401, "trials": 20, "horizon": 100_000,
        "sweep": [["rho", [0.1, 0.5, 1.0]]], "out": "unused",
    })
    points = resolve_points(spec)
    grid = record_grid(spec.horizon)
    start = perf_counter()
    errors = {}
    for point, trace in zip(points, _execute_points(points, grid, WORKERS)):
        assert not trace.failures, "unexpected divergence"
        errors[point.overrides["rho"]] = trace.errors
    elapsed = perf_counter() - start
    return {"grid": grid, "errors": errors, "elapsed": elapsed, "horizon": spec.horizon}


@pytest.fixture(scope="module")
def strat_study():
    """Both strategic classification presets, 10 trials, K = 2e4."""
    out = {}
    start = perf_counter()
    for preset in ("strat_class_linear", "strat_class_logistic"):
        spec = ExperimentSpec.from_dict({
            "preset": preset, "seed": 20_240_402, "trials": 10, "horizon": 20_000,
            "out": "unused",
        })
        point = resolve_points(spec)[0]
        grid = record_grid(spec.horizon)
        (trace,) = _execute_points([point], grid, WORKERS)
        assert not trace.failures, "unexpected divergence"
        out[preset] = {"grid": grid, "errors": trace.errors, "horizon": spec.horizon}
    out["elapsed"] = perf_counter() - start
    return out


# --------------------------------------------------------------------------
# 1. Gaussian O(1/k) rate
# --------------------------------------------------------------------------

def test_c1_gaussian_rate(gaussian_study):
    grid = gaussian_study["grid"]
    slopes = {}
    for rho, errs in gaussian_study["errors"].items():
        fit = fit_rate(grid, errs.mean(axis=0), 1000, gaussian_study["horizon"])
        slopes[rho] = fit["slope"]
    elapsed = gaussian_study["elapsed"]
    in_band = {rho: -1.25 <= s <= -0.75 for rho, s in slopes.items()}
    ok = all(in_band.values()) and elapsed <= 60.0
    detail = (", ".join(f"rho={r}: slope={s:.3f}" for r, s in slopes.items())
              + f", runtime={elapsed:.1f}s (<=60s)")
    report("1 gaussian O(1/k) rate", ok, detail)
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    for rho, s in slopes.items():
        assert -1.25 <= s <= -0.75, f"rho={rho}: log-log slope {s:.3f} outside [-1.25, -0.75]"


# --------------------------------------------------------------------------
# 2. rho-ordering of the final-window error
# --------------------------------------------------------------------------

def test_c2_rho_ordering(gaussian_study):
    grid = gaussian_study["grid"]
    window = grid >= gaussian_study["horizon"] // 10
    stats = {}
    for rho, errs in gaussian_study["errors"].items():
        per_trial = errs[:, window].mean(axis=1)
        stats[rho] = (per_trial.mean(), per_trial.std(ddof=1) / math.sqrt(per_trial.shape[0]))
    rhos = sorted(stats)
    ok = True
    for lo, hi in zip(rhos[:-1], rhos[1:]):
        tol = 2.0 * math.hypot(stats[lo][1], stats[hi][1])
        ok &= stats[lo][0] <= stats[hi][0] + tol
    detail = ", ".join(f"rho={r}: {stats[r][0]:.2f}+/-{stats[r][1]:.2f}" for r in rhos)
    report("2 rho-ordering", ok, detail)
    assert ok, f"final-window errors not non-decreasing in rho: {detail}"


# --------------------------------------------------------------------------
# 3. AR stationary law
# --------------------------------------------------------------------------

def test_c3_ar_stationary_law():
    theta = np.array([[5.0]])
    start = perf_counter()
    checks = []
    for rho in (0.25, 0.5, 1.0):
        env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=2.0, rho=rho)
        kernel = ArGaussianKernel(env)
        rngs = [np.random.default_rng(np.random.SeedSequence(42, spawn_key=(int(rho * 100),)))]
        for _ in range(10_000):
            kernel.advance(theta, rngs)
        zs = np.empty(100_000)
        for i in range(zs.shape[0]):
            kernel.advance(theta, rngs)
            zs[i] = kernel.z[0]
        mean_err = abs(zs.mean() - env.shifted_mean(theta[0])) / abs(env.shifted_mean(theta[0]))
        var_err = abs(zs.var() - env.stationary_variance()) / env.stationary_variance()
        checks.append((rho, mean_err, var_err))
    elapsed = perf_counter() - start
    ok = all(m <= 0.01 and v <= 0.05 for _, m, v in checks) and elapsed <= 5.0
    detail = (", ".join(f"rho={r}: mean-err={m:.2%}, var-err={v:.2%}" for r, m, v in checks)
              + f", runtime={elapsed:.1f}s (<=5s)")
    report("3 AR stationary law", ok, detail)
    assert elapsed <= 5.0
    for rho, mean_err, var_err in checks:
        assert mean_err <= 0.01, f"rho={rho}: mean off by {mean_err:.2%} (>1%)"
        assert var_err <= 0.05, f"rho={rho}: variance off by {var_err:.2%} (>5%)"


# --------------------------------------------------------------------------
# 4. Stable-point oracle consistency
# --------------------------------------------------------------------------

def test_c4_stable_point_oracle():
    start = perf_counter()
    env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=50.0)
    gauss_gap = abs(theta_ps_fixed_point(QuadraticLoss(), env)[0] - theta_ps_gaussian(env))

    features, labels = generate_synthetic(d=3, m=200, seed=7)
    pool = AgentPool(features, labels, QuadraticUtility(epsilon=0.01),
                     alpha=0.005, participation=5)
    loss = LogisticLoss(beta=1000.0 / 200)
    theta_a = theta_ps_fixed_point(loss, pool, theta0=np.zeros(3))
    theta_b = theta_ps_fixed_point(loss, pool, theta0=np.array([5.0, -5.0, 5.0]))
    residual = float(np.linalg.norm(mean_grad(loss, theta_a, pool.response_dataset(theta_a))))
    init_gap = float(np.linalg.norm(theta_a - theta_b))
    elapsed = perf_counter() - start

    ok = gauss_gap <= 1e-8 and residual <= 1e-8 and init_gap <= 1e-8 and elapsed <= 10.0
    detail = (f"gaussian-gap={gauss_gap:.2e}, residual={residual:.2e}, "
              f"init-gap={init_gap:.2e}, runtime={elapsed:.1f}s (<=10s)")
    report("4 stable-point oracle", ok, detail)
    assert gauss_gap <= 1e-8
    assert residual <= 1e-8
    assert init_gap <= 1e-8
    assert elapsed <= 10.0


# --------------------------------------------------------------------------
# 5. Strategic classification convergence
# --------------------------------------------------------------------------

def test_c5a_strat_class_error_drop(strat_study):
    elapsed = strat_study["elapsed"]
    ratios = {}
    for preset in ("strat_class_linear", "strat_class_logistic"):
        study = strat_study[preset]
        mean = study["errors"].mean(axis=0)
        grid = study["grid"]
        at_100 = mean[np.searchsorted(grid, 100)]
        at_end = mean[-1]
        ratios[preset] = at_end / at_100
    ok = all(r < 0.01 for r in ratios.values()) and elapsed <= 120.0
    detail = (", ".join(f"{p}: err(K)/err(100)={r:.4f}" for p, r in ratios.items())
              + f", runtime={elapsed:.1f}s (<=120s)")
    report("5a strat-class error drop", ok, detail)
    assert elapsed <= 120.0
    for preset, ratio in ratios.items():
        assert ratio < 0.01, (f"{preset}: mean error at K is {ratio:.2%} of its value "
                              f"at k=100 (needs <1%)")


def test_c5a_companion_follows_one_over_k():
    """What C5a's learner meets: under E err_k ~ C/(c1 + k) the drop from
    k = 100 to K is (c1 + 100)/(c1 + K), and (c1 + k) E err_k is flat."""
    spec = ExperimentSpec.from_dict({"preset": "strat_class_linear", "seed": 5, "trials": 200,
                                     "horizon": 20_000, "out": "unused"})
    point = resolve_points(spec)[0]
    K, c1 = spec.horizon, point.config.schedule.c1
    (trace,) = _execute_points([point], np.array([0, 100, K]), WORKERS)
    assert not trace.failures, "unexpected divergence"
    errs = trace.errors[:, 1:]  # columns k = 100 and k = K
    n = errs.shape[0]
    mean = errs.mean(axis=0)
    cov = np.cov(errs, rowvar=False) / n  # covariance of the two means
    ratio = mean[1] / mean[0]
    # delta method for mean[1]/mean[0]
    ratio_se = ratio * math.sqrt(cov[1, 1] / mean[1] ** 2 + cov[0, 0] / mean[0] ** 2
                                 - 2.0 * cov[0, 1] / (mean[0] * mean[1]))
    expected = (c1 + 100) / (c1 + K)
    z = (ratio - expected) / ratio_se
    scale = np.array([c1 + 100, c1 + K])
    products, products_se = scale * mean, scale * np.sqrt(np.diag(cov))
    gap = abs(products[1] - products[0])
    band = 3.0 * math.hypot(*products_se)
    ok = abs(z) <= 3.0 and gap <= band
    report("5a companion strat-class O(1/k)", ok,
           f"err(K)/err(100)={ratio:.4f}+/-{ratio_se:.4f} vs (c1+100)/(c1+K)={expected:.4f}"
           f" (z={z:+.2f}, |z|<=3), (c1+k)*err at k=100: {products[0]:.3f}"
           f"+/-{products_se[0]:.3f}, at K: {products[1]:.3f}+/-{products_se[1]:.3f}"
           f" (gap {gap:.3f} <= {band:.3f})")
    assert abs(z) <= 3.0, f"ratio {ratio:.4f} is {z:+.2f} SE from {expected:.4f}"
    assert gap <= band, f"(c1+k)*err moves by {gap:.3f} from k=100 to K (band {band:.3f})"


def test_c5b_strat_class_monotone_trend(strat_study):
    outcomes = {}
    for preset in ("strat_class_linear", "strat_class_logistic"):
        study = strat_study[preset]
        mean = study["errors"].mean(axis=0)
        grid = study["grid"]
        bounds = [10.0 ** (j / 2.0) for j in range(2, 9)] + [study["horizon"] + 1]
        window_means = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sel = (grid >= lo) & (grid < hi)
            if sel.any():
                window_means.append(mean[sel].mean())
        outcomes[preset] = all(b <= a for a, b in zip(window_means, window_means[1:]))
    ok = all(outcomes.values())
    report("5b strat-class smoothed monotone", ok,
           ", ".join(f"{p}: {'monotone' if v else 'NOT monotone'}" for p, v in outcomes.items()))
    for preset, monotone in outcomes.items():
        assert monotone, f"{preset}: smoothed trace increases past the first decade"


# --------------------------------------------------------------------------
# 6. Lazy-deploy ordering at fixed agent budget
# --------------------------------------------------------------------------

def test_c6_lazy_deploy_ordering():
    spec = ExperimentSpec.from_dict({"preset": "strat_class_logistic", "seed": 20_240_403,
                                     "trials": 10, "horizon": 1, "out": "unused"})
    point = resolve_points(spec)[0]
    budget = 5_000

    def mean_curve(inner):
        horizon = budget * inner
        cfg = RunConfig(theta0=point.config.theta0, schedule=point.config.schedule,
                        horizon=horizon, seed=spec.seed,
                        learner_iters_per_agent_round=inner)
        trace = sa_run(point.loss, point.kernel(point.problem, trials=10), cfg, point.theta_ps)
        return trace.errors.mean(axis=0), trace.agent_updates

    err_1, agents_1 = mean_curve(1)
    err_4, agents_4 = mean_curve(4)
    checkpoints = record_grid(budget)
    checkpoints = checkpoints[checkpoints >= 100]
    wins = 0
    for budget_point in checkpoints:
        e1 = err_1[budget_point]  # inner = 1: agent updates == iteration count
        k4 = np.searchsorted(agents_4, budget_point, side="right") - 1
        wins += err_4[k4] <= e1
    frac = wins / checkpoints.shape[0]
    ok = frac >= 0.8
    report("6 lazy-deploy ordering", ok,
           f"4-inner-iteration run no worse at {frac:.1%} of {checkpoints.shape[0]} "
           f"checkpoints (needs >=80%)")
    assert ok, f"lazy ordering holds at only {frac:.1%} of checkpoints"


# --------------------------------------------------------------------------
# 7. One-step contraction probe
# --------------------------------------------------------------------------

def test_c7_one_step_contraction():
    env = GaussianEnv(z_bar=10.0, epsilon=0.1, sigma=50.0)
    mu_tilde, lipschitz = 1.0 - 1.0 * env.epsilon, 1.0
    theta_ps = np.array([theta_ps_gaussian(env)])
    gamma_max = mu_tilde / (2.0 * lipschitz ** 2)
    rng = np.random.default_rng(2718)
    kernel = IidGaussianKernel(env)
    violations = []
    for _ in range(50):
        theta = theta_ps + rng.uniform(-20.0, 20.0, size=1)
        gamma = rng.uniform(1e-3, gamma_max)
        lhs, rhs, stderr = one_step_contraction_probe(
            QuadraticLoss(), kernel, theta, theta_ps, gamma, 10_000, rng, mu_tilde=mu_tilde,
            lipschitz=lipschitz, sigma=env.sigma)
        if lhs > rhs + 3.0 * stderr:
            violations.append((float(theta[0]), gamma, (lhs, rhs, stderr)))
    ok = not violations
    report("7 one-step contraction probe", ok,
           f"{50 - len(violations)}/50 random (theta, gamma) points satisfy "
           "lhs <= rhs + 3*stderr")
    assert ok, f"contraction bound violated at {len(violations)} points: {violations[:3]}"


# --------------------------------------------------------------------------
# 8. Closed-form best response under the quadratic utility
# --------------------------------------------------------------------------

def test_c8_closed_form_best_response():
    features, labels = generate_synthetic(d=3, m=200, seed=7)
    epsilon = 0.01
    pool = AgentPool(features, labels, QuadraticUtility(epsilon=epsilon),
                     alpha=0.5 * epsilon, participation=5)
    kernel = AdaptedBestResponseKernel(pool)
    theta = np.array([2.0, -1.0, 0.5])
    target = pool.base_features + epsilon * theta
    factor = 1.0 - pool.alpha / epsilon
    rng = np.random.default_rng(11)
    draws = distinct_agent_draws(np.random.default_rng(11), pool.size, pool.participation)
    counts = np.zeros(pool.size, dtype=np.int64)
    max_dev = 0.0
    for _ in range(3000):
        counts[next(draws)] += 1
        kernel.advance(theta[None], [rng])
        predicted = target + (factor ** counts)[:, None] * (pool.base_features - target)
        max_dev = max(max_dev, float(np.max(np.abs(kernel.features[0] - predicted))))
    final_gap = float(np.max(np.abs(kernel.features[0] - target)))
    ok = max_dev <= 1e-10 and final_gap <= 1e-10
    report("8 closed-form best response", ok,
           f"max per-step deviation={max_dev:.2e} (<=1e-10), final gap to "
           f"base + eps*theta = {final_gap:.2e}, min selections={counts.min()}")
    assert max_dev <= 1e-10
    assert final_gap <= 1e-10


# --------------------------------------------------------------------------
# 9. Property suites
# --------------------------------------------------------------------------

def test_c9_property_suites(tmp_path):
    rng = np.random.default_rng(99)
    notes = []

    # gradient / finite-difference agreement (loss and utility)
    loss = LogisticLoss(beta=0.8)
    util = LogisticUtility(epsilon=0.05)

    def one(x, y):
        # one-trial batch of one sample
        return x[None, None], np.array([[float(y)]])

    def loss1(theta, s):
        return float(loss.loss(theta[None], s)[0])

    fd_ok = True
    for _ in range(10):
        theta = rng.normal(size=3)
        x = rng.normal(size=3)
        y = int(rng.integers(2))
        s = one(x, y)
        g = mean_grad(loss, theta, s)
        fd = np.array([
            (loss1(theta + h, s) - loss1(theta - h, s)) / 2e-6
            for h in (1e-6 * np.eye(3))[:]
        ])
        fd_ok &= np.max(np.abs(g - fd)) <= 1e-5 * (1.0 + np.max(np.abs(g)))
        xp = x + 0.05 * rng.normal(size=3)
        gu = util.grad(xp, x, float(y), theta)
        fdu = np.array([
            (util.value(xp + h, x, float(y), theta)
             - util.value(xp - h, x, float(y), theta)) / 2e-6
            for h in (1e-6 * np.eye(3))[:]
        ])
        fd_ok &= np.max(np.abs(gu - fdu)) <= 1e-5 * (1.0 + np.max(np.abs(gu)))
    notes.append(f"finite differences {'ok' if fd_ok else 'BAD'}")

    # strong convexity witness
    convex_ok = True
    for _ in range(20):
        s = one(rng.normal(size=3), int(rng.integers(2)))
        t1, t2 = rng.normal(size=3), rng.normal(size=3)
        lower = (loss1(t2, s) + mean_grad(loss, t2, s) @ (t1 - t2)
                 + 0.5 * loss.mu * float((t1 - t2) @ (t1 - t2)))
        convex_ok &= loss1(t1, s) >= lower - 1e-9
    notes.append(f"strong convexity {'ok' if convex_ok else 'BAD'}")

    # full-pipeline seed determinism: byte-identical trace.csv
    digests = []
    for name, workers in (("p1", 1), ("p2", 2)):
        spec = ExperimentSpec.from_dict({
            "preset": "gaussian_ar", "seed": 77, "trials": 3, "horizon": 500,
            "workers": workers, "out": str(tmp_path / name),
        })
        run_experiment(spec)
        digests.append((tmp_path / name / "trace.csv").read_bytes())
    determinism_ok = digests[0] == digests[1]
    notes.append(f"pipeline determinism {'ok' if determinism_ok else 'BAD'}")

    # schedule checker: constant passes, diminishing preset passes, c1 = 0 fails
    mu_tilde = 1.0 - 1.0 * 0.1
    sched_ok = check_schedule(ConstantSchedule(0.1), mu_tilde, 10_000) is None
    sched_ok &= check_schedule(InverseSchedule(c0=500 / mu_tilde, c1=800 / mu_tilde ** 2),
                               mu_tilde, 10_000) is None
    weak = 1.0 - 1.0 * 0.99
    sched_ok &= check_schedule(InverseSchedule(c0=1.0, c1=0.0), weak, 10) == 1
    notes.append(f"schedule checker {'ok' if sched_ok else 'BAD'}")

    ok = fd_ok and convex_ok and determinism_ok and sched_ok
    report("9 property suites", ok, ", ".join(notes))
    assert ok
