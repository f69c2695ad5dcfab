"""References the tests compare the package against, apart from its code.

No run, CLI command or benchmark reaches these functions, so they live with
the tests: the utilities' and losses' values (the antiderivatives of the
package's gradients), the AR chain's stationary variance, the one-step
contraction probe of acceptance criterion C7, and a scalar redo of the pool
kernels' rule for drawing distinct agents.
"""
import numpy as np

from perfsim.agents import BLOCK, LogisticUtility
from perfsim.core import as_param
from perfsim.losses import QuadraticLoss, _batch_mean, dot


def log1pexp(u):
    """Overflow-safe ``log(1 + exp(u))``, elementwise."""
    return np.logaddexp(0.0, u)


def utility_value(util, xp, base_x, y, theta):
    """The utility of a ``QuadraticUtility`` or ``LogisticUtility`` ``util`` at
    the submitted features ``xp``, whose gradient is ``util.grad``.

    Agents (..., d) with labels (...) and a theta that broadcasts against
    them, e.g. (T, 1, d) for (T, n, d). The linear gain is ``u = xp . theta``,
    the logistic gain ``y u - log(1 + exp(u))``; both pay the moving cost
    ``||xp - base_x||^2 / (2 epsilon)``. Used by ``tests/test_agents.py``
    (finite differences, the best response's improvement, block against
    rows) and C9's finite differences.
    """
    move = np.asarray(xp) - np.asarray(base_x)
    gain = dot(xp, theta)
    if isinstance(util, LogisticUtility):
        # y u - log(1 + exp(u)) for y in {0, 1}, without subtracting terms of size |u|
        gain = -log1pexp((1.0 - 2.0 * y) * gain)
    return gain - np.sum(move * move, axis=-1) / (2.0 * util.epsilon)


def loss_value(loss, theta, batch):
    """Each trial's mean loss, shape (T,), of a ``QuadraticLoss`` or
    ``LogisticLoss`` ``loss`` at models ``theta`` (T, d) on a trial batch,
    whose gradient is ``loss.grad``: the per-sample values summed left to
    right and divided by n.

    The quadratic loss is ``(z - theta)^2 / 2``, the logistic one ``beta/2
    ||theta||^2 + log(1 + exp(<theta, x>)) - y <theta, x>``. Raises
    ``ValueError`` on a batch with no samples per trial, and on feature
    samples for the quadratic loss. Used by ``tests/test_losses.py`` (values,
    finite differences, convexity witnesses, the empty dataset) and C9.
    """
    if isinstance(loss, QuadraticLoss) and isinstance(batch, tuple):
        raise ValueError("quadratic loss expects scalar samples")
    per_trial = batch[1] if isinstance(batch, tuple) else batch
    if per_trial.shape[1] == 0:
        raise ValueError("empty dataset")
    if isinstance(loss, QuadraticLoss):
        r = batch - theta[:, :1]
        return _batch_mean(0.5 * r * r)
    x, y = batch
    u = dot(x, theta[:, None, :])
    reg = 0.5 * loss.beta * dot(theta, theta)
    return _batch_mean(reg[:, None] + log1pexp(u) - y * u)


def stationary_variance(env):
    """Variance of a ``GaussianEnv``'s AR chain's stationary law at any fixed
    model. Used by C3 and ``tests/test_agents.py``."""
    return env.sigma ** 2 * env.rho / (2.0 - env.rho)


def one_step_contraction_probe(loss, kernel, theta, theta_ps, gamma: float,
                               n_mc: int, rng, *, mu_tilde: float, lipschitz: float,
                               sigma: float) -> tuple:
    """Estimate the expected post-step squared error and its one-step bound.

    The check behind the paper's O(1/k) rate, run by C7 and by
    ``tests/test_solver.py``'s ``TestContractionProbe``. Requires a memoryless
    (i.i.d.) kernel so the stochastic gradient is conditionally unbiased; the
    ``n_mc`` samples are one emission from it. Returns the tuple ``(lhs, rhs,
    stderr)``: the Monte Carlo estimate of E||theta' - theta_ps||^2 over
    ``n_mc`` fresh samples, the bound ``(1 - 2 gamma mu_tilde + 2 L^2
    gamma^2) ||theta - theta_ps||^2 + 2 sigma^2 gamma^2``, with ``L =
    lipschitz`` and the sample noise level ``sigma``, and the Monte Carlo
    standard error for the assertion ``lhs <= rhs + 3 stderr``. Raises
    ``ValueError`` unless ``mu_tilde`` is positive.
    """
    if not mu_tilde > 0:
        raise ValueError(f"mu_tilde must be positive, got {mu_tilde!r}")
    theta = as_param(theta)
    target = as_param(theta_ps, d=theta.shape[0])
    samples = kernel.emit(theta[None], [rng], n_mc)
    # one single-sample step from theta per draw: the draws become n_mc trials
    if isinstance(samples, tuple):
        one_each = tuple(a.swapaxes(0, 1) for a in samples)
    else:
        one_each = samples.swapaxes(0, 1)
    g = loss.grad(np.tile(theta, (n_mc, 1)), one_each)
    gap = theta - gamma * g - target
    sq = dot(gap, gap)
    lhs = float(np.mean(sq))
    stderr = float(np.std(sq, ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    dist = theta - target
    dist2 = float(dist @ dist)
    rhs = ((1.0 - 2.0 * gamma * mu_tilde + 2.0 * lipschitz ** 2 * gamma ** 2) * dist2
           + 2.0 * sigma ** 2 * gamma ** 2)
    return lhs, rhs, stderr


def distinct_agent_draws(rng, m, p):
    """Yield the p distinct agents of each step, as a list, that a pool
    kernel's sampler on stream ``rng`` takes (pass a clone of the kernel's
    stream). Used by ``tests/test_agents.py`` and C8.

    Per step a pool kernel takes p distinct agents of m. Its stream draws
    ``integers(0, m - arange(p), size=(BLOCK, p))`` once every ``BLOCK``
    steps, and entry i of a step's row picks, among the agents that entries
    0..i-1 did not take, the one of that rank in index order. Here the
    picking is redone with a Python list, apart from the kernel's arrays.
    """
    while True:
        for ranks in rng.integers(0, m - np.arange(p), size=(BLOCK, p)).tolist():
            untaken = list(range(m))
            yield [untaken.pop(rank) for rank in ranks]
