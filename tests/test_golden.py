"""Golden traces: refactoring the learner must not move a single output byte.

Each case runs a small in-process experiment (``workers: 1``) and compares
the SHA-256 of its ``trace.csv`` and the exact bits of every ``theta_ps`` in
``summary.json`` with values pinned from the code before the solver loops,
the repeated-risk-minimization loops and the best-response routines were
merged. The two logistic-utility pins were retaken once when the exact
logistic best response became a scalar root solved to rounding level instead
of a gradient ascent to a tolerance; their ``theta_ps`` moved by about 2e-14.
The four pool pins (``pool_logistic_lazy``, ``exact_br_batch``,
``exact_br_batch_linear``, ``pool_linear_batch``) were retaken once more when
the pools stopped drawing distinct agents with one ``Generator.choice`` call
per trial and step and began drawing them in per-trial blocks by rank-select:
the adapting agents and every minibatch of distinct agents changed, so their
``trace.csv`` bytes moved; no ``theta_ps`` bit moved, and the three Gaussian
pins passed unchanged. The four pool pins were retaken a third time when
the stable-point oracle became Newton's method on the mean field instead of
repeated risk minimization: each ``theta_ps`` moved by at most 9.8e-12
(``pool_linear_batch``), and with it the error columns of their
``trace.csv`` by at most 8.3e-9 relative; the Gaussian pins, whose
``theta_ps`` is closed form, passed unchanged. ``gaussian_ar_z0`` was pinned from the code in which
the AR chain's start ``z0`` was a kernel argument, before it became a
``GaussianEnv`` field; its chains of two starts and two values of rho run
in one block. The cases cover greedy runs with several agent
transitions per update, lazy deployment with a horizon that is not a
multiple of the inner count, the adapted agent pool, exact best responses
with minibatches, and minibatches drawn from the i.i.d. Gaussian kernel and
from the adapted pool (blocked normal draws and draws of distinct agents).
``exact_br_loop`` runs exact logistic best responses at epsilon = 0.5, where
c = epsilon ||theta||^2 exceeds the one-step bound, so its roots take the
bracketed Newton loop past the first pass; it was pinned from the code in
which that loop was a second root solver, before the one-step root and the
loop became one function.

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
    "exact_br_loop": {
        "preset": "strat_class_logistic", "seed": 19, "trials": 2, "horizon": 300,
        "problem": {"kernel": "iid", "epsilon": 0.5},
        "sweep": [["batch", [1, 4]]],
    },
    "exact_br_batch_linear": {
        "preset": "strat_class_linear", "seed": 15, "trials": 2, "horizon": 400,
        "problem": {"kernel": "iid", "m": 50},
        "sweep": [["batch", [1, 4]]],
    },
    "gaussian_iid_batch": {
        "preset": "gaussian_ar", "seed": 16, "trials": 2, "horizon": 3000,
        "problem": {"kernel": "iid"},
        "sweep": [["batch", [1, 4]]],
    },
    "pool_linear_batch": {
        "preset": "strat_class_linear", "seed": 17, "trials": 2, "horizon": 1500,
        "sweep": [["batch", [1, 3]]],
    },
    "gaussian_ar_z0": {
        "preset": "gaussian_ar", "seed": 18, "trials": 2, "horizon": 1500,
        "sweep": [["z0", [None, -40.0]], ["rho", [0.2, 1.0]]],
    },
}

# name -> (SHA-256 of trace.csv, float.hex of every theta_ps entry per point)
GOLDEN = {
    "exact_br_batch": (
        "dbf8a5d62a3955e8d717051e5b8791afe44d7f2b6ba0511e2821cb739cf1701d",
        [
            ["0x1.0eb69af591e30p-4", "0x1.128d3c39b5b20p-4", "0x1.164945c1ca469p-4"],
            ["0x1.0eb69af591e30p-4", "0x1.128d3c39b5b20p-4", "0x1.164945c1ca469p-4"],
        ],
    ),
    "exact_br_batch_linear": (
        "e755d8b2e1c919917a65ea7b3c5413537f086f4dc9ba4202039178cfd1ba4f43",
        [
            ["0x1.2bdc447d2a129p-6", "0x1.3306532f9ea7dp-6", "0x1.170e2284340d7p-6"],
            ["0x1.2bdc447d2a129p-6", "0x1.3306532f9ea7dp-6", "0x1.170e2284340d7p-6"],
        ],
    ),
    "exact_br_loop": (
        "900141a61352ab8a0d9f2b548f02b1e4e198089213f44bae25411b4bb87b8089",
        [
            ["0x1.1383852f16a53p-4", "0x1.1773de88ea768p-4", "0x1.1b40212012a7cp-4"],
            ["0x1.1383852f16a53p-4", "0x1.1773de88ea768p-4", "0x1.1b40212012a7cp-4"],
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
    "gaussian_ar_z0": (
        "156bbae32078c7c7f3698a854d20706a2624d005ece39a0d15d4f16780b30d59",
        [
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
        ],
    ),
    "gaussian_iid_batch": (
        "b787de69eb79cc34efa0f54ec93244b053b4d393e8e32aeb1f69129f593726f2",
        [["0x1.638e38e38e38ep+3"], ["0x1.638e38e38e38ep+3"]],
    ),
    "gaussian_lazy_inner": (
        "d92cd092db9a7c071dedf8a3080f9c20e205a29d6bb2d097e1dd10abed87f1e1",
        [
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
            ["0x1.638e38e38e38ep+3"],
        ],
    ),
    "pool_linear_batch": (
        "7ac1524392e1dcecbcb1bc02a798e3ca8017e31786880c3edd8d78c83d7c9e8f",
        [
            ["0x1.0e9dc4fb7b2b1p-4", "0x1.1273e2ab247cep-4", "0x1.162f975835835p-4"],
            ["0x1.0e9dc4fb7b2b1p-4", "0x1.1273e2ab247cep-4", "0x1.162f975835835p-4"],
        ],
    ),
    "pool_logistic_lazy": (
        "531887a0b04dc527ea9f59d05fcf1d2c15240f5d1198f051dd94a37793b19431",
        [
            ["0x1.0eb69af591e30p-4", "0x1.128d3c39b5b20p-4", "0x1.164945c1ca469p-4"],
            ["0x1.0eb69af591e30p-4", "0x1.128d3c39b5b20p-4", "0x1.164945c1ca469p-4"],
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
