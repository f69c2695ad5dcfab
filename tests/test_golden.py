"""Golden traces: refactoring the learner must not move a single output byte.

Each case runs a small in-process experiment (``workers: 1``) and compares
the SHA-256 of its ``trace.csv`` and the exact bits of every ``theta_ps`` in
``summary.json`` with values pinned from the code before the solver loops,
the repeated-risk-minimization loops and the best-response routines were
merged. The cases cover greedy runs with several agent transitions per
update, lazy deployment with a horizon that is not a multiple of the inner
count, the adapted agent pool and exact best responses with minibatches.

Regenerate the pins only for a deliberate, documented output change::

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json

import pytest

from perfsim.harness import ExperimentSpec, run_experiment

CASES = {
    "gaussian_ar_rho_br": {
        "preset": "gaussian_ar", "seed": 11, "trials": 2, "horizon": 1500,
        "sweep": [["rho", [0.1, 0.5, 1.0]], ["br_per_iter", [1, 3]]],
    },
    "gaussian_lazy_inner": {
        "preset": "gaussian_ar", "seed": 12, "trials": 2, "horizon": 5001,
        "sweep": [["learner_iters_per_agent_round", [1, 3, 7]]],
    },
    "pool_logistic_lazy": {
        "preset": "strat_class_logistic", "seed": 13, "trials": 2, "horizon": 2000,
        "sweep": [["learner_iters_per_agent_round", [1, 4]]],
    },
    "exact_br_batch": {
        "preset": "strat_class_logistic", "seed": 14, "trials": 2, "horizon": 150,
        "problem": {"kernel": "iid"},
        "sweep": [["batch", [1, 4]]],
    },
    "exact_br_batch_linear": {
        "preset": "strat_class_linear", "seed": 15, "trials": 2, "horizon": 400,
        "problem": {"kernel": "iid", "m": 50},
        "sweep": [["batch", [1, 4]]],
    },
}

# name -> (SHA-256 of trace.csv, float.hex of every theta_ps entry per point)
GOLDEN = {
    "exact_br_batch": (
        "c9851e2cfb57659d183e81f5d10ee377bd6febaf8d94b0a43032d0938b9ed0e1",
        [
            ["0x1.0eb69af5b15b4p-4", "0x1.128d3c39b3b75p-4", "0x1.164945c1cdfb6p-4"],
            ["0x1.0eb69af5b15b4p-4", "0x1.128d3c39b3b75p-4", "0x1.164945c1cdfb6p-4"],
        ],
    ),
    "exact_br_batch_linear": (
        "c996d7ebb80a1e07902346dd3b50e647d0514c03ed9fde1e811c145e1ec960de",
        [
            ["0x1.2bdc447d517c5p-6", "0x1.3306532f9f11ap-6", "0x1.170e228443bafp-6"],
            ["0x1.2bdc447d517c5p-6", "0x1.3306532f9f11ap-6", "0x1.170e228443bafp-6"],
        ],
    ),
    "gaussian_ar_rho_br": (
        "b4aacb8d3b1859d5e276e6e61e0715598f25196bcecee9da6be286ec504c3d74",
        [
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
        ],
    ),
    "gaussian_lazy_inner": (
        "d92cd092db9a7c071dedf8a3080f9c20e205a29d6bb2d097e1dd10abed87f1e1",
        [
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
        ],
    ),
    "pool_logistic_lazy": (
        "b8bd806ea8baf2783da8eb4ff576fc09702741543d912f3c6ee2930d75a49c5e",
        [
            ["0x1.0eb69af5b15b4p-4", "0x1.128d3c39b3b75p-4", "0x1.164945c1cdfb6p-4"],
            ["0x1.0eb69af5b15b4p-4", "0x1.128d3c39b3b75p-4", "0x1.164945c1cdfb6p-4"],
        ],
    ),
}


def run_case(name, out_dir):
    spec = ExperimentSpec.from_dict(dict(CASES[name], workers=1, out=str(out_dir)))
    run_experiment(spec)
    digest = hashlib.sha256((out_dir / "trace.csv").read_bytes()).hexdigest()
    with open(out_dir / "summary.json") as fh:
        points = json.load(fh)["points"]
    theta_ps = [[float(v).hex() for v in p["theta_ps"]] for p in points]
    return digest, theta_ps


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace(name, tmp_path):
    digest, theta_ps = run_case(name, tmp_path)
    expected_digest, expected_theta_ps = GOLDEN[name]
    assert theta_ps == expected_theta_ps
    assert digest == expected_digest


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {run_case(case, Path(tmp))!r},")
