import csv
import json

import numpy as np
import pytest

from perfsim.cli import main as cli_main
from perfsim.data import generate_synthetic, load_csv
from perfsim.harness import (ConfigError, ExperimentSpec, record_grid, resolve_points,
                             run_experiment)
from perfsim.losses import LogisticLoss, Sample
from perfsim.solver import minimize_empirical_risk


class TestSyntheticData:
    def test_seed_determinism(self):
        a = generate_synthetic(3, 50, seed=4)
        b = generate_synthetic(3, 50, seed=4)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = generate_synthetic(3, 50, seed=5)
        assert not np.array_equal(a.features, c.features)

    def test_label_balance(self):
        for m in (10, 11, 201):
            ds = generate_synthetic(2, m, seed=1)
            ones = int(ds.labels.sum())
            assert abs(ones - (m - ones)) <= 1

    def test_standardization(self):
        ds = generate_synthetic(4, 300, seed=2)
        assert np.max(np.abs(ds.features.mean(axis=0))) <= 1e-12
        assert np.allclose(ds.features.std(axis=0), 1.0, atol=1e-12)

    def test_erm_beats_chance(self):
        ds = generate_synthetic(3, 200, seed=7)
        loss = LogisticLoss(beta=5.0)
        data = [Sample(features=ds.features[i], label=int(ds.labels[i]))
                for i in range(ds.size)]
        theta = minimize_empirical_risk(loss, data, np.zeros(3), tol=1e-8)
        pred = (ds.features @ theta > 0).astype(int)
        assert (pred == ds.labels).mean() > 0.5

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            generate_synthetic(3, 1, seed=0)


class TestCsvLoader:
    def write(self, path, header, rows):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    def test_small_fixture(self, tmp_path):
        p = tmp_path / "d.csv"
        self.write(p, ["a", "b", "y"], [[1, 10, 0], [2, 20, 1], [3, 30, 1]])
        ds = load_csv(p, ["a", "b"], "y")
        assert ds.size == 3 and ds.dim == 2
        assert np.max(np.abs(ds.features.mean(axis=0))) <= 1e-12
        assert list(ds.labels) == [0, 1, 1]

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "d.csv"
        self.write(p, ["a", "y"], [[1, 0]])
        with pytest.raises(ValueError, match="label"):
            load_csv(p, ["a"], "label")

    def test_bad_row_numbered(self, tmp_path):
        p = tmp_path / "d.csv"
        self.write(p, ["a", "y"], [[1, 0], ["oops", 1]])
        with pytest.raises(ValueError, match="row 2"):
            load_csv(p, ["a"], "y")

    def test_non_binary_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        self.write(p, ["a", "y"], [[1, 2]])
        with pytest.raises(ValueError, match="row 1"):
            load_csv(p, ["a"], "y")

    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(3, 40, seed=9)
        p = tmp_path / "rt.csv"
        cols = ["f0", "f1", "f2"]
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols + ["y"])
            for i in range(ds.size):
                w.writerow(["%.17g" % v for v in ds.features[i]] + [int(ds.labels[i])])
        back = load_csv(p, cols, "y")
        assert np.max(np.abs(back.features - ds.features)) <= 1e-9
        assert np.array_equal(back.labels, ds.labels)


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
        outs = []
        for name, workers in (("a", 1), ("b", 1), ("c", 2)):
            spec = gaussian_spec(out=str(tmp_path / name), workers=workers)
            run_experiment(spec)
            outs.append((tmp_path / name / "trace.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

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
        assert point["diverged"] == []

    def test_float_format_round_trips(self, tmp_path):
        spec = gaussian_spec(trials=1, horizon=5, out=str(tmp_path))
        run_experiment(spec)
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        from perfsim.solver import sa_run
        point = resolve_points(spec)[0]
        trace = sa_run(point.loss, point.kernel_factory(), point.config, point.theta_ps, trial=0)
        for i, row in enumerate(rows):
            assert float(row["err_mean"]) == trace.errors[i]

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

    def test_custom_pool_preset(self, tmp_path):
        spec = ExperimentSpec.from_dict({
            "preset": "custom", "seed": 3, "trials": 1, "horizon": 20,
            "workers": 1, "out": str(tmp_path),
            "problem": {"family": "pool", "utility": "quadratic", "m": 30,
                        "participation": 3},
        })
        summary = run_experiment(spec)
        assert summary["points"][0]["problem"]["utility"] == "quadratic"

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

    def test_divergent_trials_flagged(self, tmp_path):
        spec = gaussian_spec(trials=2, horizon=50, out=str(tmp_path),
                             problem={"c0": 1e8, "c1": 0.0, "sigma": 1.0})
        summary = run_experiment(spec)
        point = summary["points"][0]
        assert len(point["diverged"]) == 2
        assert all(d["kind"] == "DivergenceError" for d in point["diverged"])
        assert point["final_mean_error"] is None

    def test_best_response_breakdown_recorded_as_divergence(self, tmp_path):
        # an unstable schedule drives theta far enough that the fixed-step
        # best-response ascent cannot converge; the trial must be flagged,
        # not crash the experiment
        spec = ExperimentSpec.from_dict({
            "preset": "strat_class_logistic", "seed": 3, "trials": 1, "horizon": 30,
            "workers": 1, "out": str(tmp_path),
            "problem": {"m": 30, "data_seed": 2, "kernel": "iid"},
        })
        summary = run_experiment(spec)
        (failure,) = summary["points"][0]["diverged"]
        assert failure["kind"] == "BestResponseError"
        assert isinstance(failure["iteration"], int) and 1 <= failure["iteration"] <= 30


class TestConfigValidation:
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

    def test_sweep_accepts_mapping_form(self):
        spec = ExperimentSpec.from_dict({"preset": "gaussian_ar",
                                         "sweep": {"rho": [0.2, 0.7]}})
        assert spec.normalized_sweep() == [("rho", [0.2, 0.7])]


class TestCli:
    def write_config(self, tmp_path, payload):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_presets_command(self, capsys):
        assert cli_main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "gaussian_ar" in out and "strat_class_logistic" in out

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
