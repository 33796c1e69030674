import re
from itertools import product

import numpy as np
import pytest

from graphsdp import _rng, experiments
from graphsdp.experiments import EXPERIMENTS, ExperimentConfig, run_experiment, run_grid
from graphsdp.fileio import GsetGraph, parse_gset, read_csv, render_gset
from graphsdp.linalg import InvalidInputError
from graphsdp.problems import signed_ground_truth_matrix
from graphsdp.solvers import BmConfig


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(experiment="nope")

    def test_replicates_positive(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(experiment="sync_heatmap_gaussian", replicates=0)

    def test_field_types(self):
        # a config file can put any JSON value in any field
        for bad in ({"replicates": "2"}, {"replicates": 2.0}, {"seed": True}, {"seed": -1},
                    {"full_scale": 1}, {"params": [["n", 30]]}, {"schema_version": "1"},
                    {"experiment": ["sync_heatmap_gaussian"]}):
            with pytest.raises(InvalidInputError, match=next(iter(bad))):
                ExperimentConfig.from_dict({"experiment": "sync_heatmap_gaussian", **bad})

    def test_param_values_have_the_kind_of_their_default(self):
        # desk/full defaults give the kind of a params key; optional keys have their own
        for experiment, bad in (("sync_heatmap_gaussian", {"n": "8"}),
                                ("sync_heatmap_gaussian", {"n": 8.0}),
                                ("sync_heatmap_gaussian", {"n": True}),
                                ("sync_heatmap_gaussian", {"level_grid": 0.1}),
                                ("sync_heatmap_gaussian", {"level_grid": []}),
                                ("sync_heatmap_gaussian", {"prob_grid": [1.0, "0.5"]}),
                                ("sync_heatmap_gaussian", {"prob_grid": [True]}),
                                ("signed_before_after", {"p": None}),
                                ("maxcut_bipartite_heatmap", {"gw_samples": 10.0}),
                                ("maxcut_gset_sweep", {"gset_path": 5}),
                                ("maxcut_gset_sweep", {"_adjacency": [[0.0, 1.0], [1.0, 0.0]]}),
                                ("fixed_point_curve", {"n": "8"}),
                                ("fixed_point_curve", {"problem": 1}),
                                ("fixed_point_curve", {"K": 2.0}),
                                ("fixed_point_curve", {"graph_seed": False})):
            with pytest.raises(InvalidInputError, match=f"'{next(iter(bad))}'"):
                ExperimentConfig(experiment, params=bad)

    def test_solver_settings_are_unknown_params(self):
        # every cell solves with fixed settings: no experiment takes solver params
        for experiment, key in (("signed_before_after", "max_iters"),
                                ("signed_before_after", "feas_tol"),
                                ("signed_before_after", "obj_tol"),
                                ("maxcut_bipartite_heatmap", "max_iters"),
                                ("maxcut_gset_sweep", "restarts"),
                                ("sync_heatmap_gaussian", "max_iters"),
                                ("sync_heatmap_outlier", "restarts")):
            with pytest.raises(InvalidInputError, match=f"unknown params.*'{key}'"):
                ExperimentConfig(experiment, params={key: 2})

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_counts_below_one_are_rejected(self, experiment):
        # a size or a sample count below 1 fails before any cell runs
        counts = [k for k in ("n", "gw_samples") if k in EXPERIMENTS[experiment].desk_defaults]
        for key, bad in product(counts, (0, -3)):
            with pytest.raises(InvalidInputError, match=f"param '{key}' must be >= 1, got {bad}"):
                ExperimentConfig(experiment, params={key: bad})
        ExperimentConfig(experiment, params=dict.fromkeys(counts, 1))

    def test_param_values_of_their_kind_pass(self):
        # an integer is a real number; a grid may be a tuple
        ExperimentConfig("sync_heatmap_gaussian",
                         params={"n": 8, "level_grid": [0, 0.5], "prob_grid": (1,)})
        ExperimentConfig("fixed_point_curve", params={"p": 1, "K": 3, "graph_seed": 3})
        ExperimentConfig("maxcut_gset_sweep", params={"gset_path": "g.txt"})

    def test_round_trip(self):
        cfg = ExperimentConfig(experiment="sync_heatmap_gaussian",
                               params={"n": 30}, replicates=2, seed=5)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig.from_dict({"experiment": "sync_heatmap_gaussian", "bogus": 1})

    def test_fixed_point_curve_desk_and_full_defaults(self):
        # the echo holds the graph's params too: average degree (n-1)/2, seed 7
        desk = ExperimentConfig(experiment="fixed_point_curve").resolved_params()
        assert desk == {"problem": "maxcut", "n": 20, "p": 0.8,
                        "localization": "excess_risk", "delta_prob": 0.005,
                        "r_grid": [2.0 * k for k in range(1, 41)],
                        "avg_degree": 9.5, "graph_seed": 7}
        full = ExperimentConfig(experiment="fixed_point_curve",
                                full_scale=True).resolved_params()
        assert full["n"] == 40 and full["r_grid"][-1] == 300.0
        assert full["avg_degree"] == 19.5
        sized = ("n", "r_grid", "avg_degree")
        assert {k: v for k, v in full.items() if k not in sized} == \
            {k: v for k, v in desk.items() if k not in sized}

    @pytest.mark.parametrize("problem, own", [
        ("maxcut", {"p": 0.8, "avg_degree": 2.5, "graph_seed": 7}),
        ("signed", {"p": 0.9, "K": 2, "q": 0.1, "delta": 1.0}),
    ])
    def test_fixed_point_curve_echoes_every_param_it_reads(self, problem, own):
        params = ExperimentConfig("fixed_point_curve",
                                  params={"problem": problem, "n": 6}).resolved_params()
        assert {k: params[k] for k in own} == own

        class Reads(dict):
            def __init__(self, params):
                super().__init__(params)
                self.read = set()

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

        reads = Reads(params)
        generator, _ = experiments._fixed_point_problem(reads)
        generator(np.random.default_rng(0))
        assert reads.read >= set(own) and reads.read <= set(params)

    @pytest.mark.parametrize("params, foreign", [
        ({"problem": "maxcut", "K": 3, "q": 0.2}, "['K', 'q']"),
        ({"problem": "signed", "avg_degree": 2.0, "graph_seed": 1}, "['avg_degree', 'graph_seed']"),
    ], ids=["maxcut", "signed"])
    def test_fixed_point_curve_rejects_the_other_problems_params(self, params, foreign):
        # the curve would neither read nor should echo them; the shared p stays valid
        config = ExperimentConfig("fixed_point_curve", params={**params, "p": 0.7})
        with pytest.raises(InvalidInputError, match=re.escape(foreign)):
            config.resolved_params()
        shared = {"problem": params["problem"], "p": 0.7}
        assert ExperimentConfig("fixed_point_curve", params=shared).resolved_params()["p"] == 0.7

    def test_gset_file_sweep_echoes_no_synthetic_graph(self):
        # the graph comes from the file, so its synthetic stand-in's params are not echoed
        synthetic = ("n", "avg_degree", "graph_seed")
        from_file = ExperimentConfig("maxcut_gset_sweep",
                                     params={"gset_path": "g.txt"}).resolved_params()
        assert from_file["gset_path"] == "g.txt"
        assert not set(synthetic) & set(from_file)
        seeded = ExperimentConfig("maxcut_gset_sweep").resolved_params()
        assert {k: seeded[k] for k in synthetic} == \
            {"n": 150, "avg_degree": 12.0, "graph_seed": 53}


    def test_csv_headers(self):
        # each sweep's header is derived from its grid, keys and outputs;
        # these are the columns its csv has always had
        headers = {name: spec.header for name, spec in experiments.EXPERIMENTS.items()}
        assert headers == {
            "signed_before_after": ("replicate", "seed", "algorithm", "gamma_before",
                                    "gamma_after", "gamma_delta", "status"),
            "maxcut_bipartite_heatmap": ("eta", "delta", "replicate", "seed", "ari",
                                         "best_cut", "mean_cut", "status"),
            "maxcut_gset_sweep": ("delta", "replicate", "seed", "cut_full", "status"),
            "sync_heatmap_gaussian": ("level", "sample_prob", "replicate", "seed", "mse_sdp",
                                      "mse_spectral", "status"),
            "sync_heatmap_outlier": ("level", "sample_prob", "replicate", "seed", "mse_sdp",
                                     "mse_spectral", "status"),
            "fixed_point_curve": ("r", "quantile", "n_effective"),
        }


class TestGroundTruthMatrix:
    def test_blocks(self):
        M = signed_ground_truth_matrix(np.array([0, 0, 1]))
        want = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        assert np.array_equal(M, want)


def run_to_tmp(tmp_path, cfg, name, threads=1):
    prefix = tmp_path / name
    summary = run_experiment(cfg, prefix, threads=threads)
    return prefix, summary


class TestRunExperiment:
    def test_sync_noiseless_rows_are_tiny(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="sync_heatmap_gaussian",
            params={"n": 30, "level_grid": [0.0], "prob_grid": [1.0]},
            replicates=3, seed=0,
        )
        prefix, _ = run_to_tmp(tmp_path, cfg, "sync")
        _, rows = read_csv(str(prefix) + ".csv")
        assert len(rows) == 3
        for row in rows:
            assert row["status"] == "ok"
            assert float(row["mse_sdp"]) < 1e-6

    def test_bipartite_unperturbed_ari_one(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="maxcut_bipartite_heatmap",
            params={"n": 20, "eta_grid": [0.0], "delta_grid": [1.0], "gw_samples": 50},
            replicates=2, seed=1,
        )
        prefix, _ = run_to_tmp(tmp_path, cfg, "mc")
        _, rows = read_csv(str(prefix) + ".csv")
        for row in rows:
            assert float(row["ari"]) == 1.0

    def test_signed_before_after_columns(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="signed_before_after",
            params={"n": 30, "K": 2, "p": 0.9, "q": 0.1, "delta": 0.8},
            replicates=2, seed=2,
        )
        prefix, _ = run_to_tmp(tmp_path, cfg, "sba")
        header, rows = read_csv(str(prefix) + ".csv")
        assert header == ["replicate", "seed", "algorithm", "gamma_before",
                          "gamma_after", "gamma_delta", "status"]
        assert len(rows) == 2 * 5
        agg_header, agg_rows = read_csv(str(prefix) + ".agg.csv")
        assert "mean_gamma_before" in agg_header
        assert "mean_gamma_after" in agg_header
        assert "mean_gamma_delta" in agg_header
        assert len(agg_rows) == 5

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="sync_heatmap_outlier",
            params={"n": 24, "level_grid": [0.0, 0.3], "prob_grid": [1.0]},
            replicates=2, seed=3,
        )
        p1, _ = run_to_tmp(tmp_path, cfg, "a")
        p2, _ = run_to_tmp(tmp_path, cfg, "b")
        for ext in (".csv", ".agg.csv"):
            assert (tmp_path / ("a" + ext)).read_bytes() == (tmp_path / ("b" + ext)).read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="sync_heatmap_gaussian",
            params={"n": 24, "level_grid": [0.0, 0.4], "prob_grid": [0.5, 1.0]},
            replicates=2, seed=4,
        )
        p1, _ = run_to_tmp(tmp_path, cfg, "serial", threads=1)
        p2, _ = run_to_tmp(tmp_path, cfg, "pooled", threads=4)
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()
        # the gset sweep (library and CLI) runs through the same pooled grid
        gset = ExperimentConfig(
            experiment="maxcut_gset_sweep",
            params={"n": 24, "avg_degree": 6.0, "delta_grid": [0.5, 1.0], "gw_samples": 30},
            replicates=2, seed=4,
        )
        assert run_grid(gset, threads=1) == run_grid(gset, threads=4)
        # one task, many rows: the algorithms keep their order within each replicate
        signed = ExperimentConfig(
            experiment="signed_before_after",
            params={"n": 30, "K": 2, "p": 0.9, "q": 0.1, "delta": 0.8},
            replicates=2, seed=4,
        )
        assert run_grid(signed, threads=1) == run_grid(signed, threads=4)

    def test_rows_follow_the_grid_as_written(self):
        params = {"n": 12, "level_grid": [0.3, 0.0], "prob_grid": [1.0]}
        rows, _ = run_grid(ExperimentConfig("sync_heatmap_gaussian", params=params,
                                            replicates=1, seed=2))
        assert [r["level"] for r in rows] == [0.3, 0.0]
        # a cell's seed is keyed by its grid index, not by its value
        assert [r["seed"] for r in rows] == [_rng.cell_seed(2, 0, 0), _rng.cell_seed(2, 1, 0)]

    def test_aggregate_matches_independent_reader(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="sync_heatmap_gaussian",
            params={"n": 20, "level_grid": [0.2], "prob_grid": [1.0]},
            replicates=4, seed=5,
        )
        prefix, _ = run_to_tmp(tmp_path, cfg, "agg")
        _, rows = read_csv(str(prefix) + ".csv")
        _, agg = read_csv(str(prefix) + ".agg.csv")
        vals = [float(r["mse_sdp"]) for r in rows if r["status"] == "ok"]
        assert float(agg[0]["mean_mse_sdp"]) == pytest.approx(np.mean(vals), abs=1e-12)
        assert int(agg[0]["count"]) == len(vals)

    def test_fixed_point_curve_experiment(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="fixed_point_curve",
            params={"problem": "maxcut", "n": 10, "p": 0.8,
                    "r_grid": [5.0, 20.0, 80.0], "delta_prob": 0.1},
            replicates=8, seed=6,
        )
        prefix, summary = run_to_tmp(tmp_path, cfg, "fp")
        header, rows = read_csv(str(prefix) + ".csv")
        assert header == ["r", "quantile", "n_effective"]
        assert len(rows) == 3
        # the estimate's fields sit beside the echo, as a grid sweep's row counts do
        assert {"r_hat", "delta", "n_mc", "n_effective", "n_flagged", "unresolved",
                "unreliable", "quantile_curve"} <= set(summary)
        assert summary["n_mc"] == 8 and summary["r_hat"] in (5.0, 20.0, 80.0)
        assert summary["resolved_params"]["graph_seed"] == 7

    def test_fixed_point_curve_rejects_an_edgeless_half_space(self, tmp_path):
        # the l1 and l2 balls take the same graph (see the CLI test)
        cfg = ExperimentConfig(
            experiment="fixed_point_curve",
            params={"n": 6, "avg_degree": 0.0, "r_grid": [5.0, 20.0]}, replicates=2,
        )
        with pytest.raises(InvalidInputError,
                           match="excess_risk localization .* n=6 and avg_degree=0.0"):
            run_to_tmp(tmp_path, cfg, "fp")
        assert not (tmp_path / "fp.csv").exists()


_GRID = {"n": 12, "level_grid": [0.0, 0.2], "prob_grid": [1.0]}


@pytest.mark.parametrize("experiment, generator, params, fail_at, frame, n_rows", [
    ("signed_before_after", "gen_ssbm",
     {"n": 30, "K": 2, "p": 0.9, "q": 0.1, "delta": 0.8}, (0, 1), {}, 6),
    ("maxcut_bipartite_heatmap", "gen_bipartite_perturbed",
     {"n": 12, "eta_grid": [0.0, 0.1], "delta_grid": [1.0], "gw_samples": 10}, (1, 0),
     {"eta": 0.1, "delta": 1.0}, 4),
    ("maxcut_gset_sweep", "apply_mask",
     {"n": 12, "avg_degree": 4.0, "delta_grid": [0.5, 1.0], "gw_samples": 10}, (1, 0),
     {"delta": 1.0}, 4),
    ("sync_heatmap_gaussian", "gen_sync", _GRID, (1, 0), {"level": 0.2, "sample_prob": 1.0}, 4),
    ("sync_heatmap_outlier", "gen_sync", _GRID, (0, 1), {"level": 0.0, "sample_prob": 1.0}, 4),
])
def test_failed_cell_is_one_error_row(monkeypatch, experiment, generator, params, fail_at,
                                      frame, n_rows):
    """An exception in one cell's generator leaves one error row carrying the
    cell's grid point, replicate and seed; the rest of the sweep runs."""
    bad_seed = _rng.cell_seed(9, *fail_at)
    generate = getattr(experiments, generator)

    def failing(*args, **kwargs):
        if kwargs["seed"] == bad_seed:
            raise RuntimeError("injected failure")
        return generate(*args, **kwargs)

    monkeypatch.setattr(experiments, generator, failing)
    rows, _ = run_grid(ExperimentConfig(experiment, params=params, replicates=2, seed=9))
    assert len(rows) == n_rows
    assert [row for row in rows if row["status"] != "ok"] == [
        {**frame, "replicate": fail_at[1], "seed": bad_seed, "status": "error:RuntimeError"}]


def test_unconverged_cell_reads_its_stop_reason(monkeypatch):
    # a gradient tolerance below roundoff stalls BM (as in test_stop_reasons);
    # the row names that stop, not an exhausted budget
    monkeypatch.setattr(experiments, "_bm_config",
                        lambda seed: BmConfig(grad_tol=1e-30, restarts=1))
    rows, _ = run_grid(ExperimentConfig("sync_heatmap_gaussian", params={
        "n": 12, "level_grid": [0.3], "prob_grid": [1.0]}, replicates=2, seed=0))
    assert [row["status"] for row in rows] == ["solver_stalled"] * 2


def sweep_gset_file(tmp_path, graph, delta_grid, replicates, seed, gw_samples):
    """The sweep over ``graph`` (a GsetGraph or an unweighted adjacency),
    read from an edge-list file as ``graphsdp gset --sweep`` reads it."""
    if not isinstance(graph, GsetGraph):
        graph = GsetGraph(n=len(graph), edges=tuple(
            (i, j, 1.0) for i, j in zip(*np.nonzero(np.triu(graph, 1)))))
    path = tmp_path / "g.gset"
    path.write_text(render_gset(graph))
    return run_grid(ExperimentConfig("maxcut_gset_sweep", replicates=replicates, seed=seed,
                                     params={"gset_path": str(path), "delta_grid": delta_grid,
                                             "gw_samples": gw_samples}))


class TestGsetSweep:
    def test_full_observation_reproduces_full_solve(self, tmp_path):
        g = parse_gset("6 6\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 6 1\n6 1 1\n")
        rows, agg = sweep_gset_file(tmp_path, g, [1.0], replicates=2, seed=0, gw_samples=50)
        # even cycle: max cut = 6
        for row in rows:
            assert row["status"] == "ok"
            assert row["cut_full"] == pytest.approx(6.0)

    def test_cut_beats_random_partition_baseline(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 24
        A0 = (rng.random((n, n)) < 0.25).astype(float)
        A0 = np.triu(A0, 1) + np.triu(A0, 1).T
        rows, _ = sweep_gset_file(tmp_path, A0, [0.6], replicates=5, seed=1, gw_samples=100)
        cuts = [row["cut_full"] for row in rows]
        random_baseline = A0.sum() / 2 / 2  # expected cut of a uniform partition
        assert np.mean(cuts) > random_baseline

    def test_trend_more_observation_helps(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 36
        A0 = (rng.random((n, n)) < 0.3).astype(float)
        A0 = np.triu(A0, 1) + np.triu(A0, 1).T
        rows, agg = sweep_gset_file(tmp_path, A0, [0.2, 0.9], replicates=8, seed=2, gw_samples=100)
        mean_low = [r["mean_cut_full"] for r in agg if r["delta"] == 0.2][0]
        mean_high = [r["mean_cut_full"] for r in agg if r["delta"] == 0.9][0]
        assert mean_high >= mean_low
