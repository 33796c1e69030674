import dataclasses
import json
from pathlib import Path

import pytest

from graphsdp.cli import build_parser, main
from graphsdp.experiments import EXPERIMENTS
from graphsdp.fileio import read_csv, read_json
from graphsdp.metrics import BOUNDS, bound_report
from graphsdp.problems import PROBLEMS


def run(args):
    return main([str(a) for a in args])


def file_bytes(*paths):
    return tuple(Path(p).read_bytes() for p in paths)


class TestGenerateSolveRoundEvaluate:
    def test_signed_pipeline(self, tmp_path):
        inst = tmp_path / "inst"
        res = tmp_path / "res"
        assert run(["generate", "--problem", "signed", "--n", 16, "--k", 2,
                    "--p", 0.95, "--q", 0.05, "--delta", 0.9,
                    "--seed", 7, "--out", inst]) == 0
        meta = read_json(str(inst) + ".json")
        assert meta["problem"] == "signed"
        assert run(["solve", "--in", inst, "--out", res]) == 0
        report = read_json(str(res) + ".json")["report"]
        assert report["termination"] == "converged" and report["gap"] is None
        out = tmp_path / "comm.json"
        assert run(["round", "--in", res, "--k", 2, "--out", out]) == 0
        ev = tmp_path / "eval.json"
        assert run(["evaluate", "--in", out, "--instance", inst, "--out", ev]) == 0
        result = read_json(ev)
        assert result["ari"] == 1.0 and result["gamma"] == 0.0

    def test_answer_of_another_problem_names_the_key(self, tmp_path, capsys):
        # signed labels scored against a MAX-CUT instance
        inst, res, labels = tmp_path / "inst", tmp_path / "res", tmp_path / "labels.json"
        run(["generate", "--problem", "signed", "--n", 8, "--out", inst])
        run(["solve", "--in", inst, "--out", res])
        run(["round", "--in", res, "--out", labels])
        mc = tmp_path / "mc"
        run(["generate", "--problem", "maxcut", "--n", 8, "--out", mc])
        ev = tmp_path / "ev.json"
        assert run(["evaluate", "--in", labels, "--instance", mc, "--out", ev]) == 2
        err = capsys.readouterr().err
        assert "'cut_vector'" in err and "maxcut" in err and "KeyError" not in err
        assert not ev.exists()

    def test_negative_seed_names_the_param(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert run(["generate", "--problem", "signed", "--n", 8, "--seed", -1, "--out", out]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not Path(str(out) + ".json").exists()

    @pytest.mark.parametrize("n", [0, -2])
    def test_maxcut_below_two_vertices_names_n(self, tmp_path, capsys, n):
        out = tmp_path / "mc"
        assert run(["generate", "--problem", "maxcut", "--n", n, "--out", out]) == 2
        assert f"n must be even and >= 2, got {n}" in capsys.readouterr().err
        assert not Path(str(out) + ".json").exists()

    def test_maxcut_pipeline_with_bm(self, tmp_path):
        inst = tmp_path / "mc"
        res = tmp_path / "mcres"
        assert run(["generate", "--problem", "maxcut", "--n", 12, "--eta", 0.0,
                    "--delta", 1.0, "--seed", 1, "--out", inst]) == 0
        assert (tmp_path / "mc.full.coo").exists()
        assert run(["solve", "--in", inst, "--out", res]) == 0
        report = read_json(str(res) + ".json")["report"]
        assert report["gap"] <= 1e-7 * (1.0 + abs(report["objective"]))
        out = tmp_path / "cut.json"
        assert run(["round", "--in", res, "--instance", inst,
                    "--samples", 100, "--seed", 2, "--out", out]) == 0
        ev = tmp_path / "ev.json"
        assert run(["evaluate", "--in", out, "--instance", inst, "--out", ev]) == 0
        result = read_json(ev)
        # unperturbed bipartite: the planted cut is optimal, (n/2)^2 edges
        assert result["cut_full"] == 36.0
        assert result["ari"] == 1.0

    def test_sync_pipeline(self, tmp_path):
        inst = tmp_path / "sy"
        res = tmp_path / "syres"
        assert run(["generate", "--problem", "sync", "--n", 20, "--sigma", 0.0,
                    "--seed", 3, "--out", inst]) == 0
        assert run(["solve", "--in", inst, "--out", res]) == 0
        out = tmp_path / "ph.json"
        assert run(["round", "--in", res, "--out", out]) == 0
        ev = tmp_path / "ev.json"
        assert run(["evaluate", "--in", out, "--instance", inst, "--out", ev]) == 0
        assert read_json(ev)["mse"] < 1e-6

    def test_sidecar_solver_follows_the_constraint_set(self, tmp_path):
        expected = {"community": "pierra", "signed": "pierra", "sync": "bm", "maxcut": "bm"}
        for problem, solver in expected.items():
            inst, res = tmp_path / problem, tmp_path / (problem + "res")
            assert run(["generate", "--problem", problem, "--n", 8, "--seed", 0,
                        "--out", inst]) == 0
            assert run(["solve", "--in", inst, "--out", res]) == 0
            side = read_json(str(res) + ".json")
            assert side["solver"] == side["report"]["solver"] == solver, problem

    def test_unknown_config_key_is_invalid_input(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        run(["generate", "--problem", "signed", "--n", 8, "--k", 2, "--seed", 0,
             "--out", inst])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 3}))
        assert run(["solve", "--in", inst, "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert "max_iter" in capsys.readouterr().err
        assert not (tmp_path / "r.coo").exists()

    @pytest.mark.parametrize("key", ["rank", "epsilon"])
    def test_starting_rank_and_step_are_unknown_config_keys(self, tmp_path, capsys, key):
        # the factor's rank adapts and a cold splitting solve scales its own
        # first step: neither is a solver setting
        inst = tmp_path / "inst"
        run(["generate", "--problem", "signed", "--n", 8, "--k", 2, "--seed", 0,
             "--out", inst])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 4}))
        assert run(["solve", "--in", inst, "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert f"unknown solver config keys ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "r.coo").exists()

    def test_non_numeric_config_value_is_invalid_input(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        run(["generate", "--problem", "signed", "--n", 8, "--k", 2, "--seed", 0,
             "--out", inst])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": "5"}))
        assert run(["solve", "--in", inst, "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert "max_iters" in capsys.readouterr().err
        assert not (tmp_path / "r.coo").exists()

    @pytest.mark.parametrize("text", ["5", "null", "[]", '"x"'])
    def test_config_that_is_not_an_object_is_invalid_input(self, tmp_path, capsys, text):
        inst = tmp_path / "inst"
        run(["generate", "--problem", "signed", "--n", 8, "--k", 2, "--seed", 0,
             "--out", inst])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(["solve", "--in", inst, "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert "solver config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "r.coo").exists()

    def test_out_of_range_config_value_is_invalid_input(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        run(["generate", "--problem", "signed", "--n", 8, "--k", 2, "--seed", 0,
             "--out", inst])
        cfg = tmp_path / "cfg.json"
        for bad in ({"max_iters": -5}, {"max_iters": 0}, {"grad_tol": -1}, {"seed": -1}):
            cfg.write_text(json.dumps(bad))
            assert run(["solve", "--in", inst, "--config", cfg, "--out", tmp_path / "r"]) == 2
            assert next(iter(bad)) in capsys.readouterr().err
            assert not (tmp_path / "r.coo").exists()

    def test_missing_instance_is_invalid_input(self, tmp_path):
        assert run(["solve", "--in", tmp_path / "nope", "--out", tmp_path / "r"]) == 2

    def test_nonconvergence_exit_code(self, tmp_path):
        inst = tmp_path / "inst"
        res = tmp_path / "r"
        run(["generate", "--problem", "signed", "--n", 12, "--k", 2, "--seed", 0,
             "--out", inst])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 3}))
        assert run(["solve", "--in", inst, "--config", cfg, "--out", res]) == 3

    def test_sidecar_trace_is_bounded(self, tmp_path):
        inst = tmp_path / "inst"
        res = tmp_path / "r"
        run(["generate", "--problem", "signed", "--n", 12, "--k", 2, "--seed", 0,
             "--out", inst])
        # tolerances no solve meets: the budget is spent
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 2500, "feas_tol": 1e-300, "obj_tol": 1e-300}))
        assert run(["solve", "--in", inst, "--config", cfg, "--out", res]) == 3
        report = read_json(str(res) + ".json")["report"]
        assert report["iterations"] == 2500
        trace = report["objective_trace"]
        assert len(trace) == 1000
        assert abs(trace[-1] - report["objective"]) <= 1e-6 * abs(report["objective"])


class TestRoundCommand:
    # the result sidecar's problem picks the rounding and names the output's mode
    MODES = {"community": "communities", "signed": "communities", "sync": "phases",
             "maxcut": "cut"}

    @pytest.mark.parametrize("problem", list(MODES))
    def test_problem_picks_the_rounding(self, tmp_path, problem):
        inst, res, out = tmp_path / "inst", tmp_path / "res", tmp_path / "r.json"
        assert run(["generate", "--problem", problem, "--n", 8, "--seed", 1,
                    "--out", inst]) == 0
        run(["solve", "--in", inst, "--out", res])
        assert run(["round", "--in", res, "--instance", inst, "--samples", 20,
                    "--out", out]) == 0
        rounded = read_json(out)
        assert rounded["mode"] == self.MODES[problem]
        assert PROBLEMS[problem].answer_key in rounded
        assert run(["evaluate", "--in", out, "--instance", inst,
                    "--out", tmp_path / "e.json"]) == 0

    def test_result_without_a_sidecar_names_it(self, tmp_path, capsys):
        inst, res = tmp_path / "inst", tmp_path / "res"
        run(["generate", "--problem", "sync", "--n", 6, "--out", inst])
        run(["solve", "--in", inst, "--out", res])
        Path(str(res) + ".json").unlink()
        out = tmp_path / "r.json"
        assert run(["round", "--in", res, "--out", out]) == 2
        assert "res.json" in capsys.readouterr().err
        assert not out.exists()

    def test_cut_graph_of_the_wrong_shape_names_both_shapes(self, tmp_path, capsys):
        mc, mc6, res = tmp_path / "mc", tmp_path / "mc6", tmp_path / "res"
        run(["generate", "--problem", "maxcut", "--n", 8, "--out", mc])
        run(["generate", "--problem", "maxcut", "--n", 6, "--out", mc6])
        run(["solve", "--in", mc, "--out", res])
        out = tmp_path / "cut.json"
        assert run(["round", "--in", res, "--graph", str(mc6) + ".full.coo",
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert "(6, 6)" in err and "(8, 8)" in err
        assert not out.exists()


class TestFlags:
    # a subcommand takes --seed and --threads only where it reads them, and
    # neither a rounding mode nor a cluster input that its inputs decide
    VALID = {
        "generate": ["generate", "--problem", "signed", "--n", 8],
        "solve": ["solve", "--in", "inst"],
        "round": ["round", "--in", "res"],
        "cluster": ["cluster", "--in", "inst"],
        "evaluate": ["evaluate", "--bound", "maxcut_rstar", "--n", 10, "--p", 0.5],
        "fixed-point": ["fixed-point", "--r-grid", "5"],
        "experiment": ["experiment", "--config", "exp.json"],
        "gset": ["gset", "--in", "g.gset"],
    }

    @staticmethod
    def parse(args):
        return build_parser().parse_args([str(a) for a in args])

    @pytest.mark.parametrize("command, flag", [
        *((command, "--threads") for command in
          ("generate", "solve", "round", "cluster", "evaluate", "fixed-point")),
        ("evaluate", "--seed"), ("round", "--mode"), ("cluster", "--input"),
    ])
    def test_flag_it_does_not_take_is_rejected(self, capsys, command, flag):
        self.parse(self.VALID[command])
        with pytest.raises(SystemExit) as exc:
            self.parse(self.VALID[command] + [flag, 3])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["experiment", "gset"])
    def test_sweeps_take_threads(self, command):
        assert self.parse(self.VALID[command] + ["--threads", 3]).threads == 3

    def test_seed_defaults_to_zero_and_experiment_keeps_the_configs(self):
        for command, args in self.VALID.items():
            if command == "evaluate":
                assert not hasattr(self.parse(args), "seed")
            else:
                assert self.parse(args).seed == (None if command == "experiment" else 0)


class TestClusterCommand:
    def test_raw_and_sdp_modes(self, tmp_path):
        inst = tmp_path / "inst"
        run(["generate", "--problem", "signed", "--n", 20, "--k", 2,
             "--p", 0.95, "--q", 0.05, "--delta", 1.0, "--seed", 5, "--out", inst])
        raw_out = tmp_path / "raw.json"
        assert run(["cluster", "--in", inst, "--algo", "lbar_sym", "--out", raw_out]) == 0
        assert read_json(raw_out)["ari"] == 1.0
        assert read_json(raw_out)["input"] == "raw"
        res = tmp_path / "res"
        run(["solve", "--in", inst, "--out", res])
        sdp_out = tmp_path / "sdp.json"
        assert run(["cluster", "--in", inst, "--solution", res,
                    "--algo", "adjacency", "--out", sdp_out]) == 0
        assert read_json(sdp_out)["ari"] == 1.0
        assert read_json(sdp_out)["input"] == "sdp"

    def test_k_zero_is_invalid_input(self, tmp_path, capsys):
        # --k 0 reaches k-means, which needs 1 <= K <= n, instead of giving
        # way to the instance's K
        inst = tmp_path / "inst"
        run(["generate", "--problem", "signed", "--n", 12, "--k", 3, "--seed", 1,
             "--out", inst])
        out = tmp_path / "c.json"
        assert run(["cluster", "--in", inst, "--k", 0, "--out", out]) == 2
        assert "1 <= K <= n" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluateBounds:
    def test_bound_mode(self, tmp_path):
        out = tmp_path / "b.json"
        assert run(["evaluate", "--bound", "maxcut_rstar", "--n", 20, "--p", 0.8,
                    "--out", out]) == 0
        data = read_json(out)
        assert data["formula"] == "maxcut_rstar"
        assert data["value"] > 0

    def test_bound_missing_inputs(self, tmp_path):
        assert run(["evaluate", "--bound", "sync_excess", "--n", 10,
                    "--out", tmp_path / "b.json"]) == 2

    @pytest.mark.parametrize("formula", list(BOUNDS))
    def test_every_formula_writes_its_report(self, tmp_path, formula):
        inputs = {"n": 50, "p": 0.5, "delta_prob": 0.1, "sigma": 0.5, "eps": 0.1}
        out = tmp_path / "b.json"
        args = ["evaluate", "--bound", formula, "--out", out]
        for name in BOUNDS[formula][1]:
            args += ["--" + name.replace("_", "-"), inputs[name]]
        assert run(args) == 0
        assert read_json(out) == bound_report(formula, **inputs).to_dict()

    def test_n_below_one_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert run(["evaluate", "--bound", "maxcut_rstar", "--n", 0, "--p", 0.5,
                    "--out", out]) == 2
        assert "n must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_no_bound_and_no_inputs(self, tmp_path, capsys):
        assert run(["evaluate", "--out", tmp_path / "e.json"]) == 2
        err = capsys.readouterr().err
        assert "--in" in err and "--instance" in err
        assert not (tmp_path / "e.json").exists()


class TestFixedPointCommand:
    def test_writes_curve_and_sidecar(self, tmp_path):
        out = tmp_path / "fp"
        assert run(["fixed-point", "--problem", "maxcut", "--n", 10, "--p", 0.8,
                    "--n-mc", 6, "--delta-prob", 0.2, "--r-grid", "5,20,80",
                    "--seed", 1, "--out", out]) == 0
        header, rows = read_csv(str(out) + ".csv")
        assert header == ["r", "quantile", "n_effective"]
        assert len(rows) == 3
        side = read_json(str(out) + ".json")
        assert side["r_hat"] in (5.0, 20.0, 80.0)

    def test_negative_seed_is_invalid_input(self, tmp_path, capsys):
        # the command checks its params as `graphsdp experiment` does
        out = tmp_path / "fp"
        assert run(["fixed-point", "--n", 8, "--n-mc", 2, "--r-grid", "5,20",
                    "--seed", -1, "--out", out]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not Path(str(out) + ".csv").exists()

    @pytest.mark.parametrize("n_mc", [0, -3])
    def test_non_positive_n_mc_names_the_flag(self, tmp_path, capsys, n_mc):
        out = tmp_path / "fp"
        assert run(["fixed-point", "--n", 8, "--n-mc", n_mc, "--r-grid", "5,20",
                    "--out", out]) == 2
        assert f"--n-mc must be > 0, got {n_mc}" in capsys.readouterr().err
        assert not Path(str(out) + ".csv").exists()

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_n_names_the_param(self, tmp_path, capsys, n):
        out = tmp_path / "fp"
        assert run(["fixed-point", "--n", n, "--n-mc", 2, "--r-grid", "5,20",
                    "--out", out]) == 2
        assert f"param 'n' must be >= 1, got {n}" in capsys.readouterr().err
        assert not Path(str(out) + ".csv").exists()

    def test_edgeless_graph_under_excess_risk_names_the_params(self, tmp_path, capsys):
        # n=1 draws no edge, so the excess_risk half-space has no normal
        out = tmp_path / "fp"
        assert run(["fixed-point", "--n", 1, "--n-mc", 2, "--r-grid", "5,20",
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert "excess_risk" in err and "n=1" in err and "avg_degree=0.0" in err
        assert not Path(str(out) + ".csv").exists()

    @pytest.mark.parametrize("localization", ["l1", "l2"])
    def test_edgeless_graph_under_a_ball_gives_a_zero_curve(self, tmp_path, localization):
        out = tmp_path / "fp"
        assert run(["fixed-point", "--n", 1, "--localization", localization,
                    "--n-mc", 2, "--r-grid", "5,20", "--out", out]) == 0
        _, rows = read_csv(str(out) + ".csv")
        assert [float(row["quantile"]) for row in rows] == [0.0, 0.0]

    def test_writes_the_experiment_header(self, tmp_path, monkeypatch):
        # a column the curve gains reaches the CLI's csv
        spec = EXPERIMENTS["fixed_point_curve"]
        monkeypatch.setattr(type(spec), "header", spec.header + ("extra",))
        out = tmp_path / "fp"
        assert run(["fixed-point", "--problem", "maxcut", "--n", 8, "--n-mc", 3,
                    "--delta-prob", 0.2, "--r-grid", "5,20", "--out", out]) == 0
        header, _ = read_csv(str(out) + ".csv")
        assert header == list(EXPERIMENTS["fixed_point_curve"].header)
        assert header[-1] == "extra"

    @staticmethod
    def _matches_experiment(tmp_path, flags, params):
        """The command and the equivalent experiment config write the same three files."""
        out = tmp_path / "fp"
        assert run(["fixed-point", *flags, "--n-mc", 3, "--seed", 2, "--out", out]) == 0
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "fixed_point_curve", "replicates": 3,
                                   "seed": 2, "params": params}))
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "exp"]) == 0
        suffixes = (".csv", ".agg.csv", ".json")
        assert file_bytes(*(str(out) + s for s in suffixes)) == \
            file_bytes(*(str(tmp_path / "exp") + s for s in suffixes))
        return read_json(str(out) + ".json")

    def test_signed_curve_matches_experiment(self, tmp_path):
        # both front ends build the signed instance with the SSBM default p
        side = self._matches_experiment(
            tmp_path, ["--problem", "signed", "--n", 6, "--delta-prob", 0.3, "--r-grid", "1,4"],
            {"problem": "signed", "n": 6, "delta_prob": 0.3, "r_grid": [1.0, 4.0]})
        assert side["resolved_params"]["p"] == 0.9
        assert side["n_mc"] == 3 and side["config"]["seed"] == 2

    def test_maxcut_curve_matches_experiment(self, tmp_path):
        side = self._matches_experiment(
            tmp_path, ["--problem", "maxcut", "--n", 8, "--graph-seed", 3,
                       "--localization", "l1", "--delta-prob", 0.3, "--r-grid", "5,20"],
            {"problem": "maxcut", "n": 8, "graph_seed": 3, "localization": "l1",
             "delta_prob": 0.3, "r_grid": [5.0, 20.0]})
        assert side["resolved_params"]["avg_degree"] == 3.5
        assert side["resolved_params"]["graph_seed"] == 3

    def test_other_problems_flag_is_invalid_input(self, tmp_path, capsys):
        # --k is the signed curve's; the MAX-CUT curve would not read it
        out = tmp_path / "fp"
        assert run(["fixed-point", "--problem", "maxcut", "--n", 8, "--k", 3, "--n-mc", 2,
                    "--r-grid", "5,20", "--out", out]) == 2
        assert "params ['K'] do not apply to the maxcut fixed-point curve" in \
            capsys.readouterr().err
        assert not Path(str(out) + ".csv").exists()


class TestExperimentCommand:
    def test_unknown_param_is_invalid_input(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "sync_heatmap_gaussian",
                                   "params": {"n": 8, "level_grd": [0.5]}}))
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "level_grd" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text", ["5", "null", "[]", '"x"'])
    def test_config_that_is_not_an_object_is_invalid_input(self, tmp_path, capsys, text):
        cfg = tmp_path / "exp.json"
        cfg.write_text(text)
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "experiment config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_non_integer_replicates_is_invalid_input(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "sync_heatmap_gaussian",
                                   "params": {"n": 8}, "replicates": "2"}))
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "replicates must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("experiment, params, key", [
        ("sync_heatmap_gaussian", {"n": "8", "level_grid": [0.1], "prob_grid": [1.0]}, "n"),
        ("fixed_point_curve", {"n": "8"}, "n"),
        ("sync_heatmap_gaussian", {"n": 8, "level_grid": 0.1}, "level_grid"),
        ("maxcut_gset_sweep", {"n": 8, "gset_path": 1.5}, "gset_path"),
    ])
    def test_param_of_the_wrong_kind_is_invalid_input(self, tmp_path, capsys, experiment,
                                                      params, key):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": experiment, "params": params,
                                   "replicates": 1}))
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_failing_cell_is_one_error_row(self, tmp_path):
        # K > n fails in the generator: each cell is one error row, the sweep completes
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "signed_before_after",
                                   "params": {"n": 4, "K": 6}, "replicates": 2}))
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "x"]) == 0
        _, rows = read_csv(str(tmp_path / "x.csv"))
        assert [(r["replicate"], r["algorithm"], r["status"]) for r in rows] == \
            [("0", "", "error:InvalidInputError"), ("1", "", "error:InvalidInputError")]


class TestGsetCommand:
    def test_info_and_sweep(self, tmp_path, capsys):
        f = tmp_path / "g.gset"
        f.write_text("4 4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n")
        assert run(["gset", "--in", f]) == 0
        assert "n=4 m=4" in capsys.readouterr().out
        out = tmp_path / "sweep"
        assert run(["gset", "--in", f, "--sweep", "--delta-grid", "1.0",
                    "--replicates", 2, "--seed", 0, "--out", out]) == 0
        _, agg = read_csv(str(out) + ".agg.csv")
        assert float(agg[0]["mean_cut_full"]) == 4.0  # 4-cycle max cut

    def test_sweep_writes_what_experiment_writes(self, tmp_path):
        # the command runs a maxcut_gset_sweep config: same three files
        f = tmp_path / "g.gset"
        f.write_text("4 4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n")
        out = tmp_path / "sweep"
        assert run(["gset", "--in", f, "--sweep", "--delta-grid", "0.5,1.0",
                    "--replicates", 2, "--samples", 20, "--seed", 3, "--out", out]) == 0
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "experiment": "maxcut_gset_sweep", "replicates": 2, "seed": 3,
            "params": {"gset_path": str(f), "gw_samples": 20, "delta_grid": [0.5, 1.0]}}))
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "exp"]) == 0
        suffixes = (".csv", ".agg.csv", ".json")
        assert file_bytes(*(str(out) + s for s in suffixes)) == \
            file_bytes(*(str(tmp_path / "exp") + s for s in suffixes))
        side = read_json(str(out) + ".json")
        assert side["rows"] == side["rows_ok"] == 4

    def test_sweep_writes_the_experiment_headers(self, tmp_path, monkeypatch):
        # a column the experiment gains reaches the CLI's csv and aggregate
        spec = EXPERIMENTS["maxcut_gset_sweep"]

        def cell(params, axes, seed):
            return [{**row, "edges": 4.0} for row in spec.cell_fn(params, axes, seed)]

        monkeypatch.setitem(EXPERIMENTS, "maxcut_gset_sweep", dataclasses.replace(
            spec, cell_fn=cell, value_cols=spec.value_cols + ("edges",)))
        f = tmp_path / "g.gset"
        f.write_text("4 4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n")
        out = tmp_path / "sweep"
        assert run(["gset", "--in", f, "--sweep", "--delta-grid", "1.0",
                    "--replicates", 2, "--out", out]) == 0
        header, rows = read_csv(str(out) + ".csv")
        assert header == ["delta", "replicate", "seed", "cut_full", "edges", "status"]
        assert [r["edges"] for r in rows] == ["4.0", "4.0"]
        header, agg = read_csv(str(out) + ".agg.csv")
        assert header[-2:] == ["mean_edges", "std_edges"]
        assert float(agg[0]["mean_edges"]) == 4.0

    def test_sweep_over_a_non_finite_weight_is_invalid_input(self, tmp_path, capsys):
        f = tmp_path / "g.gset"
        f.write_text("3 2\n1 2 nan\n2 3 1\n")
        out = tmp_path / "sweep"
        assert run(["gset", "--in", f, "--sweep", "--delta-grid", "1.0",
                    "--replicates", 1, "--out", out]) == 2
        assert "line 2: non-finite weight" in capsys.readouterr().err
        assert not Path(str(out) + ".csv").exists()

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sweep_without_samples_is_invalid_input(self, tmp_path, capsys, samples):
        # rejected before any cell runs, not one error row per cell
        f = tmp_path / "g.gset"
        f.write_text("4 4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n")
        out = tmp_path / "sweep"
        assert run(["gset", "--in", f, "--sweep", "--samples", samples, "--out", out]) == 2
        assert f"param 'gw_samples' must be >= 1, got {samples}" in capsys.readouterr().err
        assert not Path(str(out) + ".csv").exists()

    def test_malformed_file_exit_code(self, tmp_path):
        f = tmp_path / "bad.gset"
        f.write_text("2 1\n1 3 1\n")
        assert run(["gset", "--in", f]) == 2


class TestDeterminism:
    def test_generate_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["generate", "--problem", "sync", "--n", 10, "--sigma", 0.3,
                 "--seed", 9, "--out", out])
        assert file_bytes(str(a) + ".coo", str(a) + ".json") == \
            file_bytes(str(b) + ".coo", str(b) + ".json")

    def test_experiment_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "sync_heatmap_gaussian", "replicates": 2, "seed": 3,
            "params": {"n": 16, "level_grid": [0.0, 0.2], "prob_grid": [1.0]},
        }))
        for name in ("x", "y"):
            assert run(["experiment", "--config", cfg, "--out", tmp_path / name]) == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        assert (tmp_path / "x.agg.csv").read_bytes() == (tmp_path / "y.agg.csv").read_bytes()
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()

    def test_solve_round_byte_identical(self, tmp_path):
        inst = tmp_path / "i"
        run(["generate", "--problem", "maxcut", "--n", 10, "--eta", 0.1,
             "--delta", 0.9, "--seed", 4, "--out", inst])
        outputs = []
        for name in ("r1", "r2"):
            res = tmp_path / name
            run(["solve", "--in", inst, "--out", res])
            cut = tmp_path / (name + "cut.json")
            run(["round", "--in", res, "--instance", inst,
                 "--samples", 50, "--seed", 5, "--out", cut])
            outputs.append(file_bytes(str(res) + ".coo", str(res) + ".json", cut))
        assert outputs[0] == outputs[1]
