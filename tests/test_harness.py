import contextlib
import csv
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from perfsim.agents import (AdaptedBestResponseKernel, AgentPool, ArGaussianKernel,
                            ExactBestResponseKernel, GaussianEnv, IidGaussianKernel)
from perfsim.cli import main as cli_main
from perfsim.core import ConstantSchedule, InverseSchedule
from perfsim import harness
from perfsim.harness import (ConfigError, ExperimentSpec, _execute_points, _group_key,
                             generate_synthetic, record_grid, resolve_points, run_experiment)
from perfsim.losses import LogisticLoss, mean_grad
from perfsim.oracle import (TOL, ConvergenceError, fit_rate, theta_ps_fixed_point,
                            theta_ps_gaussian)
from perfsim.solver import RunConfig, sa_run


class TestSyntheticData:
    def test_seed_determinism(self):
        a_features, a_labels = generate_synthetic(3, 50, seed=4)
        b_features, b_labels = generate_synthetic(3, 50, seed=4)
        assert np.array_equal(a_features, b_features)
        assert np.array_equal(a_labels, b_labels)
        c_features, _ = generate_synthetic(3, 50, seed=5)
        assert not np.array_equal(a_features, c_features)

    def test_label_balance(self):
        for m in (10, 11, 201):
            _, labels = generate_synthetic(2, m, seed=1)
            ones = int(labels.sum())
            assert abs(ones - (m - ones)) <= 1

    def test_standardization(self):
        features, _ = generate_synthetic(4, 300, seed=2)
        assert np.max(np.abs(features.mean(axis=0))) <= 1e-12
        assert np.allclose(features.std(axis=0), 1.0, atol=1e-12)

    def test_erm_beats_chance(self):
        features, labels = generate_synthetic(3, 200, seed=7)
        loss = LogisticLoss(beta=5.0)

        class Static:  # the data do not respond: the stable point is the ERM
            dim = 3

            def response_dataset(self, theta):
                return features[None], labels[None]

        theta = theta_ps_fixed_point(loss, Static())
        pred = (features @ theta > 0).astype(int)
        assert (pred == labels).mean() > 0.5

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            generate_synthetic(3, 1, seed=0)


class TestRecordGrid:
    def test_horizon_zero(self):
        assert np.array_equal(record_grid(0), [0])

    def test_dense_then_log_spaced(self):
        grid = record_grid(50_000)
        assert np.array_equal(grid[:1001], np.arange(1001))
        assert grid[-1] == 50_000
        tail = grid[grid >= 1000].astype(float)
        assert np.all(np.diff(tail) >= 1)
        assert np.max(tail[1:] / tail[:-1]) <= 1.06

    def test_sorted_unique(self):
        grid = record_grid(5000)
        assert np.array_equal(grid, np.unique(grid))


def gaussian_spec(**kwargs):
    base = {"preset": "gaussian_ar", "seed": 11, "trials": 3, "horizon": 400,
            "workers": 1, "out": "unused"}
    base.update(kwargs)
    return ExperimentSpec.from_dict(base)


class TestRunExperiment:
    def test_horizon_zero_single_row(self, tmp_path):
        spec = gaussian_spec(trials=1, horizon=0, out=str(tmp_path))
        run_experiment(spec)
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        # theta0 = 0 -> error is theta_ps^2
        tps = 10.0 / 0.9
        assert float(rows[0]["err_mean"]) == pytest.approx(tps ** 2, rel=1e-15)

    def test_byte_identical_reruns_and_worker_invariance(self, tmp_path):
        # 5 trials on the AR chain, the adapted pool and exact best responses
        # in minibatches of 3, run in-process and forked; the sweep of each
        # case makes two groups, which the pool runs in parallel
        cases = (("gaussian_ar", 400, {}, [["batch", [1, 3]]]),
                 ("strat_class_logistic", 150, {}, [["learner_iters_per_agent_round", [1, 2]]]),
                 ("strat_class_logistic", 150, {"problem": {"kernel": "iid"}, "batch": 3},
                  [["batch", [1, 3]]]))
        for case, (preset, horizon, extra, sweep) in enumerate(cases):
            for swept in ([], sweep):
                points = resolve_points(gaussian_spec(preset=preset, sweep=swept, **extra))
                assert len({_group_key(point) for point in points}) == (2 if swept else 1)
                outs = []
                for name, workers in (("a", 1), ("b", 1), ("c", 2), ("d", 3)):
                    out = tmp_path / str(case) / str(len(swept)) / name
                    spec = gaussian_spec(preset=preset, trials=5, horizon=horizon, sweep=swept,
                                         out=str(out), workers=workers, **extra)
                    run_experiment(spec)
                    outs.append((out / "trace.csv").read_bytes())
                assert outs[0] == outs[1] == outs[2] == outs[3], (preset, extra, swept)

    def test_pool_processes_are_capped_at_the_cpus(self, tmp_path, monkeypatch):
        sizes = []

        class InlinePool:
            """Records the pool size asked for and runs the jobs in-process."""

            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        spec = ExperimentSpec.from_dict({
            "preset": "strat_class_linear", "seed": 3, "trials": 2, "horizon": 8,
            "workers": 10_000, "out": str(tmp_path), "problem": {"m": 20, "data_seed": 2},
            "sweep": [["batch", [1, 2, 3]]],
        })
        summary = run_experiment(spec)
        assert [len(p["diverged"]) for p in summary["points"]] == [0, 0, 0]
        assert sizes == [min(3, os.cpu_count() or 1)]

    def test_default_workers_fork_a_pool_on_one_cpu(self, tmp_path, monkeypatch):
        sizes = []

        def inline_pool(max_workers, mp_context=None):
            """Records the pool size asked for and runs the jobs in-process."""
            sizes.append(max_workers)
            return contextlib.nullcontext(types.SimpleNamespace(map=map))

        monkeypatch.setattr(harness, "ProcessPoolExecutor", inline_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        spec = ExperimentSpec.from_dict({
            "preset": "strat_class_linear", "seed": 3, "trials": 2, "horizon": 8,
            "out": str(tmp_path), "problem": {"m": 20, "data_seed": 2},
            "sweep": [["batch", [1, 2, 3]]],
        })
        summary = run_experiment(spec)
        assert [len(p["diverged"]) for p in summary["points"]] == [0, 0, 0]
        assert sizes == [1]

    def test_mixed_failure_leaves_other_trials_unchanged(self):
        class PoisonedPool(AdaptedBestResponseKernel):
            """Makes the agents of block row 1 non-finite at advance number 120."""

            calls = 0

            def advance(self, theta, rngs):
                self.calls += 1
                if self.calls == 120:
                    self.features[1] = np.nan
                return super().advance(theta, rngs)

        spec = ExperimentSpec.from_dict({"preset": "strat_class_linear", "seed": 5,
                                         "trials": 3, "horizon": 300, "out": "unused"})
        point = resolve_points(spec)[0]
        poisoned = dataclasses.replace(point, kernel=PoisonedPool)
        grid = record_grid(spec.horizon)
        (trace,) = _execute_points([poisoned], grid, workers=1)
        assert trace.failures == {
            1: {"trial": 1, "iteration": 120, "kind": "AgentDivergenceError"}}
        for trial in (0, 2):
            alone = sa_run(point.loss, point.kernel(point.problem), point.config, point.theta_ps,
                           trials=[trial], record=grid)
            assert np.array_equal(trace.errors[trial], alone.errors[0])
            assert np.array_equal(trace.final_theta[trial], alone.final_theta[0])

    def test_grouped_points_match_one_point_runs_bit_for_bit(self):
        # AR points with differing targets, chain laws and starts, and i.i.d.
        # points in minibatches of 3; one block, in-process and forked
        sweeps = ({"sweep": [["rho", [0.2, 1.0]], ["sigma", [0.5, 3.0]],
                             ["z_bar", [1.0, -4.0]], ["z0", [None, 2.5]]]},
                  {"problem": {"kernel": "iid"}, "batch": 3,
                   "sweep": [["sigma", [0.5, 2.0, 8.0]]]})
        for extra in sweeps:
            spec = gaussian_spec(**extra)
            points = resolve_points(spec)
            assert len({_group_key(point) for point in points}) == 1
            grid = record_grid(spec.horizon)
            alone = [sa_run(point.loss, point.kernel(point.problem, trials=3), point.config,
                            point.theta_ps, record=grid) for point in points]
            for workers in (1, 4):
                for one, trace in zip(alone, _execute_points(points, grid, workers)):
                    assert not trace.failures
                    assert np.array_equal(trace.errors, one.errors)
                    assert np.array_equal(trace.final_theta, one.final_theta)

    def test_group_key_covers_every_run_field(self):
        # points that differ in any RunConfig field must not share a block,
        # which would run them all under the first point's config
        point = resolve_points(gaussian_spec())[0]
        other = {"theta0": point.config.theta0 + 1.0, "schedule": ConstantSchedule(0.01),
                 "horizon": 401, "batch": 2, "br_per_iter": 2,
                 "learner_iters_per_agent_round": 2, "seed": 12}
        assert set(other) == {f.name for f in dataclasses.fields(RunConfig)}
        for name, value in other.items():
            config = dataclasses.replace(point.config, **{name: value})
            changed = dataclasses.replace(point, config=config)
            assert _group_key(changed) != _group_key(point), name

    def test_grouped_failure_is_attributed_to_its_point(self):
        class PoisonedChain(ArGaussianKernel):
            """Makes block row 4, trial 1 of the second point, non-finite at
            advance number 120."""

            calls = 0

            def advance(self, theta, rngs):
                self.calls += 1
                if self.calls == 120:
                    self.z[4] = np.nan
                return super().advance(theta, rngs)

        spec = gaussian_spec(sweep=[["rho", [0.5, 1.0]]])
        points = resolve_points(spec)
        poisoned = [dataclasses.replace(point, kernel=PoisonedChain) for point in points]
        grid = record_grid(spec.horizon)
        traces = _execute_points(poisoned, grid, workers=1)
        assert [trace.failures for trace in traces] == [
            {}, {1: {"trial": 1, "iteration": 120, "kind": "DivergenceError"}}]
        for point, trace in zip(points, traces):
            alone = sa_run(point.loss, point.kernel(point.problem, trials=3), point.config,
                           point.theta_ps, record=grid)
            for trial in range(point.trials):
                if trial in trace.failures:
                    continue
                assert np.array_equal(trace.errors[trial], alone.errors[trial])
                assert np.array_equal(trace.final_theta[trial], alone.final_theta[trial])

    def test_diverged_lists_trials_in_trial_order(self, tmp_path, monkeypatch):
        class PoisonedChain(ArGaussianKernel):
            """Makes block row 1 non-finite at advance number 100 and row 0
            at advance number 200, so trial 1 fails first."""

            calls = 0

            def advance(self, theta, rngs):
                self.calls += 1
                for row, call in ((1, 100), (0, 200)):
                    if self.calls == call:
                        self.z[row] = np.nan
                return super().advance(theta, rngs)

        spec = gaussian_spec(out=str(tmp_path))
        poisoned = [dataclasses.replace(point, kernel=PoisonedChain)
                    for point in resolve_points(spec)]
        monkeypatch.setattr(harness, "resolve_points", lambda spec: poisoned)
        (point,) = run_experiment(spec)["points"]
        assert point["diverged"] == [
            {"trial": 0, "iteration": 200, "kind": "DivergenceError"},
            {"trial": 1, "iteration": 100, "kind": "DivergenceError"}]

    def test_missing_rate_fit_is_explained(self, tmp_path):
        # sigma = epsilon = 0 and a unit step land on theta_ps at k = 1: the
        # errors are all 0 and no log-log fit exists
        spec = gaussian_spec(trials=2, horizon=200, out=str(tmp_path),
                             problem={"gamma": 1.0, "sigma": 0.0, "epsilon": 0.0})
        point = run_experiment(spec)["points"][0]
        assert point["final_mean_error"] == 0.0
        assert point["rate_fit"] is None
        assert point["rate_fit_error"] == "mean errors must be strictly positive in the fit window"
        with open(tmp_path / "summary.json") as fh:
            assert json.load(fh)["points"][0]["rate_fit_error"] == point["rate_fit_error"]

    def test_sweep_columns_and_alignment(self, tmp_path):
        spec = gaussian_spec(sweep=[["rho", [0.2, 1.0]]], out=str(tmp_path))
        summary = run_experiment(spec)
        with open(tmp_path / "trace.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "k"
        for label in ("rho=0.2", "rho=1.0"):
            for col in ("samples_drawn", "agent_updates", "err_mean", "err_p05", "err_p95"):
                assert f"{col}[{label}]" in header
        assert [p["label"] for p in summary["points"]] == ["rho=0.2", "rho=1.0"]

    def test_summary_contents(self, tmp_path):
        spec = gaussian_spec(out=str(tmp_path))
        run_experiment(spec)
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["schema"] == 1
        assert summary["seed"] == 11
        point = summary["points"][0]
        assert point["theta_ps"][0] == pytest.approx(10.0 / 0.9)
        assert point["schedule"]["kind"] == "inverse"
        assert point["schedule"]["c0"] == pytest.approx(500.0 / 0.9)
        assert point["schedule"]["c1"] == pytest.approx(800.0 / 0.81)
        assert point["rate_fit"] is not None
        assert point["rate_fit_error"] is None
        assert point["diverged"] == []

    @pytest.mark.parametrize("rate_window", [None, [20, 300]])
    def test_rate_fit_is_fit_rate_of_the_trace(self, tmp_path, rate_window):
        # each point's rate_fit is fit_rate's dict over its own err_mean column
        spec = gaussian_spec(sweep=[["rho", [0.2, 1.0]]], rate_window=rate_window,
                             out=str(tmp_path))
        summary = run_experiment(spec)
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        grid = np.array([int(row["k"]) for row in rows])
        k_lo, k_hi = rate_window or (spec.horizon // 100, spec.horizon)
        for point in summary["points"]:
            err_mean = np.array([float(row[f"err_mean[{point['label']}]"]) for row in rows])
            assert point["rate_fit"] == fit_rate(grid, err_mean, k_lo, k_hi)

    def test_float_format_round_trips(self, tmp_path):
        spec = gaussian_spec(trials=1, horizon=5, out=str(tmp_path))
        run_experiment(spec)
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        point = resolve_points(spec)[0]
        trace = sa_run(point.loss, point.kernel(point.problem), point.config, point.theta_ps)
        for i, row in enumerate(rows):
            assert float(row["err_mean"]) == trace.errors[0, i]

    def test_strat_class_presets_resolve(self, tmp_path):
        # small m makes beta large, so pin a mild constant step for stability
        for preset in ("strat_class_linear", "strat_class_logistic"):
            spec = ExperimentSpec.from_dict({
                "preset": preset, "seed": 3, "trials": 2, "horizon": 50,
                "workers": 1, "out": str(tmp_path / preset),
                "problem": {"m": 40, "data_seed": 2, "gamma": 0.005},
            })
            summary = run_experiment(spec)
            point = summary["points"][0]
            assert point["problem"]["beta"] == pytest.approx(1000.0 / 40)
            assert point["problem"]["alpha"] == pytest.approx(0.005)
            assert len(point["theta_ps"]) == 3
            assert point["diverged"] == []

    def test_greedy_deploy_kernel_via_config(self, tmp_path):
        # kernel="iid" swaps the adapted pool for exact best responses
        spec = ExperimentSpec.from_dict({
            "preset": "strat_class_logistic", "seed": 3, "trials": 2, "horizon": 30,
            "workers": 1, "out": str(tmp_path),
            "problem": {"m": 30, "data_seed": 2, "kernel": "iid", "gamma": 0.005},
        })
        summary = run_experiment(spec)
        point = summary["points"][0]
        assert point["problem"]["kernel"] == "iid"
        assert point["diverged"] == []

    def test_constant_schedule_via_config(self, tmp_path):
        spec = gaussian_spec(trials=1, horizon=30, out=str(tmp_path),
                             problem={"gamma": 0.05})
        summary = run_experiment(spec)
        assert summary["points"][0]["schedule"] == {"kind": "constant", "gamma": 0.05}

    def test_batch_and_br_sweeps_affect_counters(self, tmp_path):
        spec = ExperimentSpec.from_dict({
            "preset": "strat_class_linear", "seed": 3, "trials": 1, "horizon": 8,
            "workers": 1, "out": str(tmp_path), "problem": {"m": 20, "data_seed": 2},
            "sweep": [["batch", [1, 4]]],
        })
        run_experiment(spec)
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert int(rows[-1]["samples_drawn[batch=1]"]) == 8
        assert int(rows[-1]["samples_drawn[batch=4]"]) == 32
        spec.sweep = [["br_per_iter", [1, 3]]]
        spec.out = str(tmp_path / "br")
        run_experiment(spec)
        with open(tmp_path / "br" / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert int(rows[-1]["agent_updates[br_per_iter=1]"]) == 8
        assert int(rows[-1]["agent_updates[br_per_iter=3]"]) == 24

    def test_pool_sweep_points_run_as_groups_of_their_own(self, tmp_path):
        spec = ExperimentSpec.from_dict({
            "preset": "strat_class_linear", "seed": 3, "trials": 2, "horizon": 8,
            "workers": 1, "out": str(tmp_path), "problem": {"m": 20, "data_seed": 2},
            "sweep": [["batch", [1, 4]]],
        })
        points = resolve_points(spec)
        spec.sweep = [["trials", [1, 2]], ["epsilon", [0.01, 0.02]]]
        points = resolve_points(spec)
        # each pool point still runs as a group of its own
        assert len({_group_key(point) for point in points}) == 4
        summary = run_experiment(spec)
        assert [len(p["diverged"]) for p in summary["points"]] == [0, 0, 0, 0]

    @pytest.mark.parametrize("preset, kernel, problem_type, kernel_type", [
        ("gaussian_ar", "ar", GaussianEnv, ArGaussianKernel),
        ("gaussian_ar", "iid", GaussianEnv, IidGaussianKernel),
        ("strat_class_logistic", "pool", AgentPool, AdaptedBestResponseKernel),
        ("strat_class_linear", "iid", AgentPool, ExactBestResponseKernel),
    ])
    def test_point_carries_its_problem_and_kernel(self, preset, kernel, problem_type,
                                                  kernel_type):
        spec = ExperimentSpec.from_dict({"preset": preset, "seed": 3, "trials": 2,
                                         "horizon": 20, "out": "unused",
                                         "problem": {"kernel": kernel}})
        (point,) = resolve_points(spec)
        assert type(point.problem) is problem_type and point.kernel is kernel_type
        trace = sa_run(point.loss, point.kernel(point.problem, trials=2), point.config,
                       point.theta_ps)
        assert trace.errors.shape[0] == 2 and not trace.failures
        if problem_type is GaussianEnv:
            assert theta_ps_gaussian(point.problem) == point.theta_ps
        else:
            batch = point.problem.response_dataset(point.theta_ps)
            assert np.linalg.norm(mean_grad(point.loss, point.theta_ps, batch)) <= 10 * TOL

    def test_divergent_trials_flagged(self, tmp_path):
        spec = gaussian_spec(trials=2, horizon=50, out=str(tmp_path),
                             problem={"c0": 1e8, "c1": 0.0, "sigma": 1.0})
        summary = run_experiment(spec)
        point = summary["points"][0]
        assert len(point["diverged"]) == 2
        assert all(d["kind"] == "DivergenceError" for d in point["diverged"])
        assert point["final_mean_error"] is None
        assert point["rate_fit_error"] == "no trial survived"

    def test_exact_best_responses_follow_an_unstable_schedule(self, tmp_path):
        # an unstable schedule drives theta to about 1e10; the exact best
        # response has no step cap or tolerance to break down, so the trial
        # runs to the horizon (agent failures are covered by the adapted pool)
        spec = ExperimentSpec.from_dict({
            "preset": "strat_class_logistic", "seed": 3, "trials": 1, "horizon": 30,
            "workers": 1, "out": str(tmp_path),
            "problem": {"m": 30, "data_seed": 2, "kernel": "iid"},
        })
        point = run_experiment(spec)["points"][0]
        assert point["diverged"] == []
        assert 1e12 < point["final_mean_error"] < 1e24


# Fields given a JSON type they do not take, or out of range: (override, field named).
MALFORMED_FIELDS = [
    ({"trials": "3"}, "trials"),
    ({"workers": "2"}, "workers"),
    ({"horizon": 10.5}, "horizon"),
    ({"trials": True}, "trials"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.0}, "seed"),
    ({"batch": None}, "batch"),
    ({"br_per_iter": 2.0}, "br_per_iter"),
    ({"learner_iters_per_agent_round": "1"}, "learner_iters_per_agent_round"),
    ({"sweep": [["trials", [2, "3"]]]}, "trials"),
    ({"sweep": [["batch", [1, False]]]}, "batch"),
    ({"rate_window": [1, "x"]}, "rate_window"),
    ({"rate_window": 5}, "rate_window"),
    ({"out": 5}, "out"),
    ({"problem": [1]}, "problem"),
    ({"problem": {"rho": [1]}}, "rho"),
    ({"problem": {"sigma": True}}, "sigma"),
    ({"sweep": 5}, "sweep"),
    ({"sweep": [["rho"]]}, "sweep"),
    ({"sweep": [["rho", [0.5, {"x": 1}]]]}, "rho"),
    ({"workers": -3}, "workers"),
    ({"preset": "strat_class_linear", "problem": {"d": 3.7}}, "parameter d"),
    ({"preset": "strat_class_linear", "problem": {"data_seed": 7.9}}, "data_seed"),
    ({"preset": "strat_class_linear", "sweep": [["d", [2.5]]]}, "value of d"),
    ({"preset": "strat_class_linear", "problem": {"m": "200"}}, "parameter m"),
    ({"problem": {"epsilon": "0.1"}}, "epsilon"),
    ({"problem": {"z_bar": float("nan")}}, "z_bar"),
    ({"problem": {"sigma": float("inf")}}, "sigma"),
    ({"preset": "strat_class_linear", "problem": {"alpha": float("inf")}}, "alpha"),
    ({"theta0": {"a": 1}}, "theta0"),
    ({"theta0": [float("nan")]}, "theta0"),
    ({"problem": {"z_bar": None}}, "z_bar"),
    ({"preset": "strat_class_linear", "problem": {"d": None}}, "parameter d"),
    ({"preset": "strat_class_linear", "sweep": [["m", [None]]]}, "value of m"),
    ({"preset": "custom"}, "preset"),
    ({"problem": {"family": "pool"}}, "family"),
    # a repeated name would run only its last values, a repeated value would
    # write two trace columns with the same name
    ({"sweep": [["rho", [0.1]], ["rho", [0.5]]]}, "sweep parameter 'rho'"),
    ({"sweep": [["rho", [0.5, 0.5]]]}, "sweep values for 'rho'"),
]


# Configs whose step sizes cannot take effect, each with the words its error
# names: gamma with c0/c1, a mu_tilde so small that the derived c1 is
# infinite (mu_tilde^2 underflows to 0 at beta 1e-200; at 1e-160 the
# quotient overflows, and every step would be 0), and one so large that
# mu_tilde^2 overflows (beta 1e200), where c1 cannot be computed.
STEP_SIZE_CONFIGS = [
    ({"preset": "gaussian_ar", "problem": {"gamma": 0.01, "c0": 5.0, "c1": 3.0}},
     ("gamma", "c0", "c1")),
    ({"preset": "strat_class_linear", "problem": {"beta": 1e-200, "epsilon": 1e-300}},
     ("c1 = inf", "mu_tilde_est = 1e-200", "set c0 and c1")),
    ({"preset": "strat_class_linear", "problem": {"beta": 1e-160, "epsilon": 1e-300}},
     ("c1 = inf", "mu_tilde_est = 1e-160", "set c0 and c1")),
    ({"preset": "strat_class_linear", "problem": {"beta": 1e200}},
     ("c1 = nan", "mu_tilde_est = 9.9e+199", "set c0 and c1")),
]


class TestConfigValidation:
    @pytest.mark.parametrize("override,field_name", MALFORMED_FIELDS)
    def test_malformed_integer_field_named(self, override, field_name):
        with pytest.raises(ConfigError, match=field_name):
            ExperimentSpec.from_dict({"preset": "gaussian_ar", **override})

    def test_explicit_step_constants_need_no_derived_ones(self):
        # a null gamma leaves c0 and c1 in force, and with both set a mu_tilde
        # too small for the derived c1 (see STEP_SIZE_CONFIGS) does not matter
        spec = ExperimentSpec.from_dict({
            "preset": "strat_class_linear", "trials": 1, "horizon": 20,
            "problem": {"beta": 1e-200, "epsilon": 1e-300, "c0": 10.0, "c1": 100.0},
            "sweep": [["gamma", [None]]]})
        [point] = resolve_points(spec)
        assert point.config.schedule == InverseSchedule(c0=10.0, c1=100.0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict({"preset": "nope"})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentSpec.from_dict({"preset": "gaussian_ar", "horizn": 5})

    def test_unknown_problem_key(self):
        with pytest.raises(ConfigError, match="problem parameter"):
            ExperimentSpec.from_dict({"preset": "gaussian_ar", "problem": {"zbar": 1}})

    def test_sweep_must_name_field(self):
        with pytest.raises(ConfigError, match="sweep parameter"):
            ExperimentSpec.from_dict({"preset": "gaussian_ar",
                                      "sweep": [["horizon", [10, 20]]]})

    def test_bad_rate_window(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict({"preset": "gaussian_ar", "rate_window": [50, 10]})

    def test_spec_checks_itself_when_built(self):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentSpec(preset="gaussian_ar", trials=0)
        spec = ExperimentSpec(preset="gaussian_ar")
        with pytest.raises(ConfigError, match="trials"):
            dataclasses.replace(spec, trials=0)


def _exit_worker(job):
    """Stands in for ``harness._run_group``: the worker dies, as on an OS kill."""
    os._exit(1)


class TestCli:
    def write_config(self, tmp_path, payload):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_presets_command(self, capsys):
        assert cli_main(["presets"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out] == list(harness.PRESETS)

    def test_oracle_command(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"preset": "gaussian_ar", "trials": 1,
                                           "horizon": 10, "out": str(tmp_path)})
        assert cli_main(["oracle", "--config", cfg]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(10.0 / 0.9)

    def test_run_with_overrides(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        cfg = self.write_config(tmp_path, {"preset": "gaussian_ar", "trials": 5,
                                           "horizon": 5000, "workers": 1,
                                           "out": str(tmp_path / "ignored")})
        code = cli_main(["run", "--config", cfg, "--trials", "2", "--horizon", "60",
                         "--seed", "5", "--out", str(out_dir)])
        assert code == 0
        with open(out_dir / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["seed"] == 5
        assert summary["horizon"] == 60
        assert summary["points"][0]["trials"] == 2

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"preset": "nope"})
        assert cli_main(["run", "--config", cfg]) == 1
        assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 1

    def test_malformed_integer_exit_code(self, tmp_path, capsys):
        for override, field_name in MALFORMED_FIELDS:
            cfg = self.write_config(tmp_path, {"preset": "gaussian_ar", "horizon": 10,
                                               "out": str(tmp_path / "res"), **override})
            assert cli_main(["run", "--config", cfg]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("perfsim: error: ")
            assert field_name in err[0]
        assert not (tmp_path / "res").exists()

    def test_sweep_mapping_form_exit_code(self, tmp_path, capsys):
        # the sweep is a list of [name, values] pairs; a mapping is no second form of it
        out_dir = tmp_path / "res"
        cfg = self.write_config(tmp_path, {"preset": "gaussian_ar", "horizon": 10,
                                           "sweep": {"rho": [0.2]}, "out": str(out_dir)})
        assert cli_main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("perfsim: error: sweep must be a list")
        assert not out_dir.exists()

    @pytest.mark.parametrize("error", [ConvergenceError])
    def test_stable_point_failure_exit_code(self, tmp_path, capsys, monkeypatch, error):
        def failing(loss, problem, theta0=None):
            raise error("the stable-point solve failed")

        monkeypatch.setattr(harness, "theta_ps_fixed_point", failing)
        out_dir = tmp_path / "res"
        cfg = self.write_config(tmp_path, {"preset": "strat_class_logistic", "workers": 1,
                                           "out": str(out_dir)})
        for command in ("run", "oracle"):
            assert cli_main([command, "--config", cfg]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "perfsim: error: the stable-point solve failed"], command
        assert not out_dir.exists()

    def test_mu_tilde_gate_exit_code(self, tmp_path, capsys):
        out_dir = tmp_path / "res"
        cfg = self.write_config(tmp_path, {"preset": "strat_class_logistic",
                                           "problem": {"epsilon": 1.0}, "out": str(out_dir)})
        for command in ("run", "oracle"):
            assert cli_main([command, "--config", cfg]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("perfsim: error: "), command
            assert "mu_tilde = -0.75 <= 0" in err[0]
        assert not out_dir.exists()

    def test_nearly_separable_pool_oracle_exit_code(self, tmp_path, capsys, monkeypatch):
        # nearly unregularized and well separated: the stable point lies far
        # out, where the risk is flat; Newton reached it in 17 steps of
        # 1 + 2 d = 7 response datasets each
        calls = []
        response_dataset = AgentPool.response_dataset

        def counted(pool, theta):
            calls.append(theta)
            return response_dataset(pool, theta)

        monkeypatch.setattr(AgentPool, "response_dataset", counted)
        cfg = self.write_config(tmp_path, {"preset": "strat_class_logistic", "problem": {
            "beta": 1e-7, "epsilon": 1e-9, "separation": 3.0}})
        assert cli_main(["oracle", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.split()) == 3
        assert len(calls) <= 25 * 7

    def test_oversized_problem_exit_code(self, tmp_path, capsys):
        # a 1e8 x 1e8 feature matrix is 71 PiB: numpy refuses it before allocating
        cfg = self.write_config(tmp_path, {"preset": "strat_class_linear",
                                           "problem": {"m": 100_000_000, "d": 100_000_000}})
        assert cli_main(["oracle", "--config", cfg]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("perfsim: error: out of memory: ")

    def test_integer_beyond_int64_exit_code(self, tmp_path, capsys):
        # numpy refuses both sizes when it converts them, before allocating
        for override in ({"horizon": 2 ** 63}, {"batch": 10 ** 20}):
            cfg = self.write_config(tmp_path, {"preset": "gaussian_ar", "trials": 2,
                                               "horizon": 9, "workers": 1,
                                               "out": str(tmp_path / "res"), **override})
            assert cli_main(["run", "--config", cfg]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("perfsim: error: "), override

    def test_shipped_configs_run(self, tmp_path, capsys):
        configs = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json"))
        assert configs
        for path in configs:
            out = tmp_path / path.stem
            assert cli_main(["run", "--config", str(path), "--horizon", "300",
                             "--trials", "2", "--out", str(out)]) == 0, path.name
            sweep = ExperimentSpec.from_json(path).sweep
            names = [name for name, _ in sweep]
            labels = [",".join(f"{name}={value}" for name, value in zip(names, combo))
                      for combo in itertools.product(*(values for _, values in sweep))]
            header = ["k"] + [f"{column}[{label}]" if label else column for label in labels
                              for column in ("samples_drawn", "agent_updates", "err_mean",
                                             "err_p05", "err_p95")]
            with open(out / "trace.csv") as fh:
                assert fh.readline().rstrip("\n").split(",") == header, path.name

    def test_malformed_json_exit_code(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert cli_main(["run", "--config", str(p)]) == 1

    def test_all_trials_divergent_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {
            "preset": "gaussian_ar", "trials": 2, "horizon": 50, "workers": 1,
            "out": str(tmp_path / "res"),
            "problem": {"c0": 1e8, "c1": 0.0, "sigma": 1.0},
        })
        assert cli_main(["run", "--config", cfg]) == 2
        assert "diverged at iteration 2 (DivergenceError)" in capsys.readouterr().err

    def test_start_beyond_the_finite_range_exit_code(self, tmp_path):
        # a fresh interpreter shows numpy's warnings as a user would see them
        cfg = self.write_config(tmp_path, {"preset": "gaussian_ar", "theta0": [1e300],
                                           "horizon": 10, "trials": 1,
                                           "out": str(tmp_path / "res")})
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        result = subprocess.run([sys.executable, "-m", "perfsim.cli", "run", "--config", cfg],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "warning: trial 0 of (base) diverged at iteration 1 (DivergenceError)",
            "error: all trials diverged for: (base)"]

    def test_dead_worker_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "_run_group", _exit_worker)
        cfg = self.write_config(tmp_path, {
            "preset": "gaussian_ar", "trials": 2, "horizon": 50, "workers": 2,
            "sweep": [["batch", [1, 2]]], "out": str(tmp_path / "res"),
        })
        assert cli_main(["run", "--config", cfg]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("perfsim: error: a worker process died")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("config,words", STEP_SIZE_CONFIGS)
    def test_unusable_step_size_exit_code(self, tmp_path, capsys, config, words):
        out_dir = tmp_path / "res"
        cfg = self.write_config(tmp_path, {**config, "workers": 1, "out": str(out_dir)})
        for command in ("run", "oracle"):
            assert cli_main([command, "--config", cfg]) == 1
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert captured.out == "" and "Traceback" not in captured.err
            assert len(err) == 1 and err[0].startswith("perfsim: error: "), command
            assert all(word in err[0] for word in words), err[0]
        assert not out_dir.exists()

    def test_pool_batch_above_m_rejected_before_any_trial(self, tmp_path, capsys):
        out_dir = tmp_path / "res"
        cfg = self.write_config(tmp_path, {
            "preset": "strat_class_linear", "trials": 2, "horizon": 50, "workers": 1,
            "problem": {"m": 10}, "sweep": [["batch", [1, 11]]], "out": str(out_dir),
        })
        assert cli_main(["oracle", "--config", cfg]) == 1
        assert capsys.readouterr().out == ""
        assert cli_main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "batch" in err[0] and "m = 10" in err[0]
        assert not out_dir.exists()

    def test_theta0_of_the_wrong_length_named_before_any_trial(self, tmp_path, capsys):
        out_dir = tmp_path / "res"
        cfg = self.write_config(tmp_path, {
            "preset": "strat_class_linear", "trials": 2, "horizon": 50, "workers": 1,
            "sweep": [["d", [2, 3]]], "theta0": [0, 0, 0], "out": str(out_dir),
        })
        assert cli_main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "theta0" in err[0], err
        assert "length 3" in err[0] and "d is 2" in err[0], err[0]
        assert not out_dir.exists()

    def test_lazy_minibatch_rejected_before_any_trial(self, tmp_path, capsys):
        out_dir = tmp_path / "res"
        cfg = self.write_config(tmp_path, {
            "preset": "gaussian_ar", "trials": 2, "horizon": 50, "workers": 1, "batch": 2,
            "sweep": [["learner_iters_per_agent_round", [1, 2]]], "out": str(out_dir),
        })
        assert cli_main(["oracle", "--config", cfg]) == 1
        assert capsys.readouterr().out == ""
        assert cli_main(["run", "--config", cfg]) == 1
        assert "one sample per learner update" in capsys.readouterr().err
        assert not out_dir.exists()


# Mixed JSON values for the fuzz test. Integers stay in [-3, 50] so that no
# draw allocates large arrays; horizon and trials are always set, and bounded
# apart, and workers is fixed at 1, so every run stays small and in this
# process. Problem keys are mostly those of the drawn preset, so that many
# configs get past validation.
_NAMES = st.sampled_from(["ar", "iid", "pool", "x", "0.1"])
_NUMBERS = st.one_of(st.integers(1, 50), st.floats(0.0, 50.0))
_ODD = st.one_of(st.none(), st.booleans(), _NAMES, st.integers(-3, 0), st.floats(-3.0, 0.0),
                 st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308]),
                 st.lists(st.integers(-3, 50), max_size=2),
                 st.dictionaries(st.sampled_from(["a", "rho"]), st.integers(-3, 50), max_size=2))
_GAUSSIAN_KEYS = ["kernel", "z_bar", "sigma", "epsilon", "rho", "z0", "gamma", "c0", "c1"]
_POOL_KEYS = ["kernel", "d", "m", "data_seed", "separation", "epsilon", "beta",
              "participation", "alpha", "gamma", "c0", "c1"]
_PRESET_KEYS = {"gaussian_ar": _GAUSSIAN_KEYS, "strat_class_linear": _POOL_KEYS,
                "strat_class_logistic": _POOL_KEYS}
_RUN_KEYS = ["batch", "br_per_iter", "learner_iters_per_agent_round", "trials", "horizon"]


def _mostly(valid):
    """A value of ``valid`` in about five draws of six, else an odd JSON value."""
    return st.integers(0, 5).flatmap(lambda i: valid if i else _ODD)


def _value(name):
    if name == "kernel":
        return _mostly(_NAMES)
    return _mostly(st.integers(1, 2) if name in ("trials", "horizon") else _NUMBERS)


def _entry(name):
    return st.tuples(st.just(name), st.lists(_value(name), max_size=3))


@st.composite
def _configs(draw):
    preset = draw(_mostly(st.sampled_from(sorted(_PRESET_KEYS))))
    keys = st.sampled_from(_PRESET_KEYS.get(str(preset), _GAUSSIAN_KEYS + _POOL_KEYS))
    config = {"preset": preset, "trials": draw(_mostly(st.integers(1, 2))),
              "horizon": draw(_mostly(st.integers(0, 20)))}
    optional = {
        "seed": _mostly(st.integers(0, 50)),
        "batch": _mostly(st.integers(1, 50)),
        "br_per_iter": _mostly(st.integers(1, 50)),
        "learner_iters_per_agent_round": _mostly(st.integers(1, 50)),
        "theta0": _mostly(st.lists(_NUMBERS, max_size=3)),
        "problem": _mostly(st.lists(keys.flatmap(lambda k: st.tuples(st.just(k), _value(k))),
                                    max_size=3).map(dict)),
        "sweep": _mostly(st.lists(st.one_of(keys, st.sampled_from(_RUN_KEYS)).flatmap(_entry),
                                  max_size=2)),
        "rate_window": _mostly(st.lists(st.integers(-3, 50), min_size=2, max_size=2)),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            config[key] = draw(values)
    return config


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=_configs(), command=st.sampled_from(["oracle", "run"]))
@example(config={"preset": "custom", "trials": 1, "horizon": 20}, command="run")
@example(config={**STEP_SIZE_CONFIGS[0][0], "trials": 1, "horizon": 20}, command="run")
@example(config={**STEP_SIZE_CONFIGS[1][0], "trials": 1, "horizon": 20}, command="run")
@example(config={**STEP_SIZE_CONFIGS[2][0], "trials": 1, "horizon": 20}, command="run")
def test_cli_fuzz_exits_cleanly(config, command):
    # any config built from the known keys ends in exit 0, 1 or 2, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({**config, "workers": 1, "out": str(Path(tmp) / "res")}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main([command, "--config", str(cfg)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
