import json
from pathlib import Path

from graphsdp.cli import main
from graphsdp.fileio import read_csv, read_json


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
        assert run(["solve", "--in", inst, "--solver", "pierra", "--out", res]) == 0
        report = read_json(str(res) + ".json")["report"]
        assert report["termination"] == "converged" and report["gap"] is None
        out = tmp_path / "comm.json"
        assert run(["round", "--in", res, "--mode", "communities", "--k", 2,
                    "--out", out]) == 0
        ev = tmp_path / "eval.json"
        assert run(["evaluate", "--in", out, "--instance", inst, "--out", ev]) == 0
        result = read_json(ev)
        assert result["ari"] == 1.0 and result["gamma"] == 0.0

    def test_maxcut_pipeline_with_bm(self, tmp_path):
        inst = tmp_path / "mc"
        res = tmp_path / "mcres"
        assert run(["generate", "--problem", "maxcut", "--n", 12, "--eta", 0.0,
                    "--delta", 1.0, "--seed", 1, "--out", inst]) == 0
        assert (tmp_path / "mc.full.coo").exists()
        assert run(["solve", "--in", inst, "--solver", "bm", "--out", res]) == 0
        report = read_json(str(res) + ".json")["report"]
        assert report["gap"] <= 1e-7 * (1.0 + abs(report["objective"]))
        out = tmp_path / "cut.json"
        assert run(["round", "--in", res, "--mode", "cut", "--instance", inst,
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
        assert run(["solve", "--in", inst, "--solver", "bm", "--out", res]) == 0
        out = tmp_path / "ph.json"
        assert run(["round", "--in", res, "--mode", "phases", "--out", out]) == 0
        ev = tmp_path / "ev.json"
        assert run(["evaluate", "--in", out, "--instance", inst, "--out", ev]) == 0
        assert read_json(ev)["mse"] < 1e-6

    def test_bm_rejected_for_box_constraints(self, tmp_path):
        inst = tmp_path / "inst"
        run(["generate", "--problem", "signed", "--n", 8, "--k", 2, "--seed", 0,
             "--out", inst])
        assert run(["solve", "--in", inst, "--solver", "bm", "--out", tmp_path / "r"]) == 2

    def test_unknown_config_key_is_invalid_input(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        run(["generate", "--problem", "signed", "--n", 8, "--k", 2, "--seed", 0,
             "--out", inst])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 3}))
        assert run(["solve", "--in", inst, "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert "max_iter" in capsys.readouterr().err
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


class TestClusterCommand:
    def test_raw_and_sdp_modes(self, tmp_path):
        inst = tmp_path / "inst"
        run(["generate", "--problem", "signed", "--n", 20, "--k", 2,
             "--p", 0.95, "--q", 0.05, "--delta", 1.0, "--seed", 5, "--out", inst])
        raw_out = tmp_path / "raw.json"
        assert run(["cluster", "--in", inst, "--input", "raw", "--algo", "lbar_sym",
                    "--out", raw_out]) == 0
        assert read_json(raw_out)["ari"] == 1.0
        res = tmp_path / "res"
        run(["solve", "--in", inst, "--out", res])
        sdp_out = tmp_path / "sdp.json"
        assert run(["cluster", "--in", inst, "--input", "sdp", "--solution", res,
                    "--algo", "adjacency", "--out", sdp_out]) == 0
        assert read_json(sdp_out)["ari"] == 1.0


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

    def test_signed_curve_matches_experiment(self, tmp_path):
        # both front ends build the signed instance with the SSBM default p
        out = tmp_path / "fp"
        assert run(["fixed-point", "--problem", "signed", "--n", 6, "--n-mc", 3,
                    "--delta-prob", 0.3, "--r-grid", "1,4", "--seed", 2,
                    "--out", out]) == 0
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "experiment": "fixed_point_curve", "replicates": 3, "seed": 2,
            "params": {"problem": "signed", "n": 6, "delta_prob": 0.3, "r_grid": [1, 4]}}))
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "exp"]) == 0
        assert file_bytes(str(out) + ".csv") == file_bytes(tmp_path / "exp.csv")
        assert read_json(tmp_path / "exp.json")["resolved_params"]["p"] == 0.9


class TestExperimentCommand:
    def test_unknown_param_is_invalid_input(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "sync_heatmap_gaussian",
                                   "params": {"n": 8, "level_grd": [0.5]}}))
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "level_grd" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


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
            run(["solve", "--in", inst, "--solver", "bm", "--out", res])
            cut = tmp_path / (name + "cut.json")
            run(["round", "--in", res, "--mode", "cut", "--instance", inst,
                 "--samples", 50, "--seed", 5, "--out", cut])
            outputs.append(file_bytes(str(res) + ".coo", str(res) + ".json", cut))
        assert outputs[0] == outputs[1]
