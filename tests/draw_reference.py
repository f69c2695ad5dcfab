"""Scalar reference of the pool kernels' rule for drawing distinct agents.

Per step a pool kernel takes p distinct agents of m. Its stream draws
``integers(0, m - arange(p), size=(BLOCK, p))`` once every ``BLOCK`` steps,
and entry i of a step's row picks, among the agents that entries 0..i-1 did
not take, the one of that rank in index order. Here the picking is redone
with a Python list, apart from the kernel's arrays.
"""
import numpy as np

from perfsim.agents import BLOCK


def distinct_agent_draws(rng, m, p):
    """Yield the p distinct agents of each step, as a list, that a kernel's
    sampler on stream ``rng`` takes (pass a clone of the kernel's stream)."""
    while True:
        for ranks in rng.integers(0, m - np.arange(p), size=(BLOCK, p)).tolist():
            untaken = list(range(m))
            yield [untaken.pop(rank) for rank in ranks]
