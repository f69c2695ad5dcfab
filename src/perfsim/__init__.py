"""State-dependent stochastic approximation for performative prediction.

The learner optimizes a strongly convex loss while the training samples are
drawn from a controlled Markov chain whose transition law depends on the
currently deployed model. The package provides the optimization loops,
stateful agent models, stable-point oracles and a reproducible experiment
harness.
"""

from .agents import (AdaptedBestResponseKernel, AgentPool, ArGaussianKernel,
                     ExactBestResponseKernel, GaussianEnv, IidGaussianKernel,
                     LogisticUtility, QuadraticUtility)
from .core import ConstantSchedule, InverseSchedule, ProblemConstants, RngStream, check_schedule
from .data import SyntheticDataset, generate_synthetic, load_csv
from .harness import ExperimentSpec, run_experiment
from .losses import LogisticLoss, QuadraticLoss, logistic_constants, mean_grad
from .oracle import RateFit, fit_rate, theta_ps_fixed_point, theta_ps_gaussian
from .solver import DivergenceError, RunConfig, RunTrace, one_step_contraction_probe, sa_run

__version__ = "0.1.0"
