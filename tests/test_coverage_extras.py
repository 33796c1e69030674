"""Cross-cutting paths not exercised by the per-module suites."""

import dataclasses

import numpy as np
import pytest

from graphsdp import solvers
from graphsdp.cli import main
from graphsdp.experiments import ExperimentConfig, run_experiment
from graphsdp.fileio import read_csv, read_json, render_gset, parse_gset
from graphsdp.linalg import InvalidInputError
from graphsdp.metrics import estimate_fixed_point
from graphsdp.models import SsbmParams, SyncParams, gen_ssbm, gen_sync
from graphsdp.solvers import BmConfig, PierraConfig, bm_solve, pierra_solve, unit_diag_atoms


def run(args):
    return main([str(a) for a in args])


class TestHermitianPierra:
    def test_matches_bm_on_sync_instance(self):
        # splitting takes real objectives: the complex sync program is solved
        # as its real 2n embedding, whose optimum is twice the complex one
        M = gen_sync(SyncParams(n=10, sigma=0.3), seed=0).observed
        Zp, rp = pierra_solve(np.block([[M.real, -M.imag], [M.imag, M.real]]), unit_diag_atoms())
        _, _, rb = bm_solve(M, "max", BmConfig(seed=0))
        assert rp.converged
        assert abs(rp.objective / 2 - rb.objective) <= 1e-3 * (1 + abs(rb.objective))
        assert np.max(np.abs(np.diagonal(Zp) - 1.0)) <= 1e-6
        assert np.linalg.eigvalsh(Zp).min() >= -1e-8


class TestFixedPointFlagging:
    def make_generator(self):
        params = SsbmParams(n=6, n_clusters=2, p=0.9, q=0.1, delta=0.8)

        def generator(rng):
            seed = int(rng.integers(0, 2**32))
            inst = gen_ssbm(params, seed=seed)
            return inst.observed, inst.expected, inst.oracle

        return generator

    def test_nonconverged_replicates_are_excluded_and_counted(self, monkeypatch):
        from graphsdp.solvers import signed_atoms
        # a 3-iteration budget cannot converge: everything gets flagged
        starved = PierraConfig(max_iters=3, feas_tol=1e-12, obj_tol=1e-14)
        monkeypatch.setattr(solvers, "_FIXED_POINT_CONFIG", starved)
        with pytest.raises(InvalidInputError):
            estimate_fixed_point(self.make_generator(), signed_atoms(), "l1",
                                 0.2, 5, [1.0, 2.0], seed=0)

    def test_converged_replicates_are_all_effective(self):
        from graphsdp.solvers import signed_atoms
        # the default budget: solves converge, nothing flagged
        est = estimate_fixed_point(self.make_generator(), signed_atoms(), "l2",
                                   0.2, 5, [1.0, 4.0], seed=0)
        assert est.n_flagged == 0 and est.n_effective == 5 and not est.unreliable

    @pytest.mark.parametrize("n_mc, flagged, unreliable", [
        (5, {3}, True), (5, {1, 3, 4}, True), (10, {7}, False), (10, {2, 7}, True)])
    def test_unreliable_above_a_tenth_flagged(self, monkeypatch, n_mc, flagged, unreliable):
        from graphsdp.solvers import signed_atoms
        # the chosen replicates' solves report no convergence; the estimate is
        # unreliable when more than a tenth of them are flagged
        generator, current = self.make_generator(), []

        def counting_generator(rng):
            current.append(len(current))
            return generator(rng)

        def solve(*args, **kwargs):
            Z, report = pierra_solve(*args, **kwargs)
            if current[-1] in flagged:
                report = dataclasses.replace(report, termination="max_iters")
            return Z, report

        monkeypatch.setattr(solvers, "pierra_solve", solve)
        est = estimate_fixed_point(counting_generator, signed_atoms(), "l2",
                                   0.2, n_mc, [1.0, 4.0], seed=0)
        assert current == list(range(n_mc))
        assert est.n_flagged == len(flagged) and est.n_effective == n_mc - len(flagged)
        assert est.unreliable is unreliable and est.to_dict()["unreliable"] is unreliable


class TestCliRemainingPaths:
    def test_community_pipeline_with_pierra(self, tmp_path):
        inst, res = tmp_path / "c", tmp_path / "cres"
        assert run(["generate", "--problem", "community", "--n", 14, "--k", 2,
                    "--p", 0.95, "--q", 0.05, "--seed", 2, "--out", inst]) == 0
        assert run(["solve", "--in", inst, "--out", res]) == 0
        out = tmp_path / "lbl.json"
        assert run(["round", "--in", res, "--k", 2, "--out", out]) == 0
        ev = tmp_path / "ev.json"
        assert run(["evaluate", "--in", out, "--instance", inst, "--out", ev]) == 0
        assert read_json(ev)["ari"] == 1.0

    def test_sync_and_maxcut_default_solver(self, tmp_path):
        sy, res = tmp_path / "sy", tmp_path / "syres"
        run(["generate", "--problem", "sync", "--n", 10, "--sigma", 0.1,
             "--seed", 1, "--out", sy])
        assert run(["solve", "--in", sy, "--out", res]) == 0
        mc, mcres = tmp_path / "mc", tmp_path / "mcres"
        run(["generate", "--problem", "maxcut", "--n", 10, "--eta", 0.0,
             "--delta", 1.0, "--seed", 1, "--out", mc])
        assert run(["solve", "--in", mc, "--out", mcres]) == 0
        out = tmp_path / "cut.json"
        assert run(["round", "--in", mcres, "--instance", mc,
                    "--samples", 50, "--out", out]) == 0
        assert read_json(out)["best_cut"] == 25.0  # bipartite 5x5 optimum

    def test_round_with_explicit_graph_file(self, tmp_path):
        mc, mcres = tmp_path / "mc", tmp_path / "r"
        run(["generate", "--problem", "maxcut", "--n", 8, "--eta", 0.0,
             "--delta", 1.0, "--seed", 0, "--out", mc])
        run(["solve", "--in", mc, "--out", mcres])
        out = tmp_path / "cut.json"
        assert run(["round", "--in", mcres,
                    "--graph", str(mc) + ".full.coo", "--samples", 20,
                    "--out", out]) == 0
        assert read_json(out)["best_cut"] == 16.0

    def test_fixed_point_signed_problem(self, tmp_path):
        out = tmp_path / "fp"
        assert run(["fixed-point", "--problem", "signed", "--n", 6, "--k", 2,
                    "--p", 0.9, "--q", 0.1, "--delta-param", 1.0,
                    "--localization", "l1", "--n-mc", 4, "--delta-prob", 0.3,
                    "--r-grid", "1,4,16", "--seed", 0, "--out", out]) == 0
        header, rows = read_csv(str(out) + ".csv")
        assert len(rows) == 3


class TestGsetFileExperiment:
    def test_sweep_reads_gset_path(self, tmp_path):
        gfile = tmp_path / "g.gset"
        g = parse_gset("8 8\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 6 1\n6 7 1\n7 8 1\n8 1 1\n")
        gfile.write_text(render_gset(g))
        cfg = ExperimentConfig(
            experiment="maxcut_gset_sweep",
            params={"gset_path": str(gfile), "delta_grid": [1.0], "gw_samples": 50},
            replicates=2, seed=0,
        )
        run_experiment(cfg, tmp_path / "sweep")
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert all(float(r["cut_full"]) == 8.0 for r in rows)  # even cycle
