"""Acceptance criteria, one test per item.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Budgets and tolerances are asserted as stated; the suite
uses desk-scale sizes throughout (full-scale sweeps exist behind the CLI's
``--full`` flag but are not part of acceptance).
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from graphsdp import _rng
from graphsdp.cli import main as cli_main
from graphsdp.experiments import ExperimentConfig, run_experiment
from graphsdp.fileio import read_csv
from graphsdp.metrics import (
    brute_force_maxcut,
    curvature_check_sync,
    cut_value,
    estimate_fixed_point,
    excess_risk,
    maxcut_rstar_bound,
    phase_aligned_l2,
    sync_mse,
)
from graphsdp.models import (
    SsbmParams,
    SyncParams,
    apply_mask,
    gen_sbm,
    gen_ssbm,
    gen_sync,
    sample_feasible,
)
from graphsdp.rounding import (
    expected_cut_closed_form,
    extract_phases,
    factorize_gram,
    gw_round,
    spectral_sync,
)
from graphsdp.solvers import (
    BmConfig,
    bm_solve,
    pierra_signed,
    pierra_solve,
    unit_diag_atoms,
)

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(num, name, budget_s=None):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({name}): FAIL", flush=True)
        raise
    elapsed = time.time() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"\nACCEPTANCE {num} ({name}): FAIL (runtime {elapsed:.1f}s >= {budget_s}s)",
              flush=True)
        raise AssertionError(f"runtime budget exceeded: {elapsed:.1f}s >= {budget_s}s")
    print(f"\nACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]", flush=True)


def random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    A = (rng.random((n, n)) < density).astype(float)
    A = np.triu(A, 1)
    return A + A.T


def test_01_curvature_identities():
    with criterion(1, "curvature identities", budget_s=10):
        rng = np.random.default_rng(0)

        # signed clustering: exact l1 curvature equality
        params = SsbmParams(n=40, n_clusters=4, p=0.85, q=0.15, delta=0.7)
        signed = gen_ssbm(params, seed=1)
        M = signed.expected - params.alpha * np.ones((40, 40))
        for _ in range(50):
            Z = sample_feasible("signed", 40, rng)
            lhs = excess_risk(M, signed.oracle, Z)
            rhs = params.theta * np.abs(signed.oracle - Z).sum()
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

        # community detection: l1 curvature lower bound with slack >= -1e-9
        com = gen_sbm(40, 4, 0.8, 0.2, seed=2)
        for _ in range(50):
            Z = sample_feasible("community", 40, rng, lam=com.params["lam"])
            lhs = excess_risk(com.expected, com.oracle, Z)
            rhs = 0.5 * (0.8 - 0.2) * np.abs(com.oracle - Z).sum()
            assert lhs - rhs >= -1e-9

        # synchronization: exact l2 + modulus-l1 decomposition
        sync = gen_sync(SyncParams(n=30, sigma=0.5), seed=3)
        for _ in range(50):
            Z = sample_feasible("sync", 30, rng)
            lhs, rhs_l2, extra_l1 = curvature_check_sync(sync.expected, sync.oracle, Z)
            assert abs(lhs - (rhs_l2 + extra_l1)) <= 1e-9 * (1.0 + abs(lhs))
            assert lhs >= rhs_l2 - 1e-9


def test_02_maxcut_brute_force_sandwich():
    with criterion(2, "max-cut brute-force sandwich", budget_s=120):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(6, 13))
            A0 = random_graph(n, 0.5, seed=100 + trial)
            if A0.sum() == 0:
                continue
            _, Z, _ = bm_solve(-A0, "max", BmConfig(seed=trial))
            sdp_val = 0.25 * float(np.vdot(A0, np.ones((n, n)) - Z).real)
            opt, _ = brute_force_maxcut(A0)
            x, _ = gw_round(Z, A0, n_samples=200, seed=trial)
            best_gw = cut_value(A0, x)
            assert sdp_val >= opt - 1e-6 * (1.0 + np.linalg.norm(A0))
            assert opt >= best_gw - 1e-9
            assert best_gw >= 0.878 * opt - 1.0


def test_03_gw_identity_chain():
    with criterion(3, "gw identity chain", budget_s=120):
        rng = np.random.default_rng(2)
        # deterministic inequality for arbitrary feasible matrices
        for trial in range(20):
            n = 8
            A0 = random_graph(n, 0.5, seed=200 + trial)
            Z = sample_feasible("maxcut", n, rng)
            lhs = expected_cut_closed_form(A0, Z)
            rhs = 0.878 * 0.25 * float(np.vdot(A0, np.ones((n, n)) - Z).real)
            assert lhs >= rhs - 1e-9

        # Monte Carlo mean against the closed form, 3 standard errors
        n = 10
        A0 = random_graph(n, 0.5, seed=300)
        Z = sample_feasible("maxcut", n, rng)
        n_samples = 10_000
        rows = factorize_gram(Z)
        sampler = _rng.stream(400, _rng.STREAM_SOLVER)
        values = np.empty(n_samples)
        for k in range(n_samples):
            g = sampler.standard_normal(rows.shape[1])
            x = np.where(rows @ g >= 0, 1.0, -1.0)
            values[k] = cut_value(A0, x)
        se = values.std(ddof=1) / np.sqrt(n_samples)
        closed = expected_cut_closed_form(A0, Z)
        assert abs(values.mean() - closed) <= 3 * se
        _, lib_mean = gw_round(Z, A0, n_samples=n_samples, seed=401)
        assert abs(lib_mean - closed) <= 3 * se + 1e-9


def test_04_signed_exact_recovery():
    with criterion(4, "signed clustering exact recovery", budget_s=300):
        params = SsbmParams(n=200, n_clusters=2, p=0.9, q=0.1, delta=0.8)
        hits = 0
        for seed in range(20):
            inst = gen_ssbm(params, seed=seed)
            Z, report = pierra_signed(inst.observed, inst.params["alpha"])
            if np.max(np.abs(Z - inst.oracle)) <= 1e-3:
                hits += 1
        assert hits >= 18, f"exact recovery in only {hits}/20 runs"


def test_05_synchronization_recovery():
    with criterion(5, "synchronization recovery", budget_s=480):
        n = 200
        inst0 = gen_sync(SyncParams(n=n, sigma=0.0), seed=0)
        _, Z0, _ = bm_solve(inst0.observed, "max", BmConfig(seed=0, restarts=1))
        mse0 = sync_mse(np.angle(extract_phases(Z0)), inst0.ground_truth)
        assert mse0 < 1e-6

        sigmas = (0.1, 0.3, 0.5)
        med_sdp, med_spec, ratios = [], [], {}
        for sigma in sigmas:
            sdp_vals, spec_vals, corr_ratios = [], [], []
            for seed in range(20):
                inst = gen_sync(SyncParams(n=n, sigma=sigma), seed=seed)
                _, Z, _ = bm_solve(inst.observed, "max", BmConfig(seed=seed, restarts=1))
                x_hat = extract_phases(Z)
                sdp_vals.append(sync_mse(np.angle(x_hat), inst.ground_truth))
                spec_vals.append(sync_mse(np.angle(spectral_sync(inst.observed)),
                                          inst.ground_truth))
                # constant-bearing error bound reported as a ratio only
                eps = 1.0 / n**2
                x_star = np.exp(1j * inst.ground_truth)
                bound_no_c0 = 8 * np.sqrt(2 / 3) * eps**0.25 * np.exp(sigma**2 / 4) \
                    * sigma**2 * np.sqrt(n)
                corr_ratios.append(phase_aligned_l2(x_hat, x_star) / bound_no_c0)
            med_sdp.append(float(np.median(sdp_vals)))
            med_spec.append(float(np.median(spec_vals)))
            ratios[sigma] = float(np.median(corr_ratios))
        print(f"\n  median MSE (sdp) by sigma: {dict(zip(sigmas, med_sdp))}")
        print(f"  median MSE (spectral) by sigma: {dict(zip(sigmas, med_spec))}")
        print(f"  eigenvector error / (bound without c0): {ratios}")
        assert med_sdp[0] < med_sdp[1] < med_sdp[2], "median MSE not increasing in sigma"
        for s_sdp, s_spec in zip(med_sdp, med_spec):
            assert s_sdp <= 2.0 * s_spec


def test_06_fixed_point_below_theoretical_bound():
    with criterion(6, "empirical fixed point vs closed-form bound", budget_s=600):
        n, p = 20, 0.8
        A0 = random_graph(n, 0.5, seed=123)
        _, Z_star, _ = bm_solve(-A0, "max", BmConfig(seed=0))

        def generator(rng):
            seed = int(rng.integers(0, 2**32))
            inst = apply_mask(A0, p, seed=seed)
            return inst.rescaled, -A0, Z_star

        delta = 4.0 ** (-n)   # truncated by the MC resolution to the max order statistic
        grid = [10.0, 20.0, 40.0, 60.0, 90.0, 130.0, 180.0, 219.0, 240.0]
        est = estimate_fixed_point(generator, unit_diag_atoms(), "excess_risk",
                                   delta_prob=delta, n_mc=200, r_grid=grid, seed=7)
        bound = maxcut_rstar_bound(n, p)
        print(f"\n  r_hat={est.r_hat} bound={bound:.1f} "
              f"flagged={est.n_flagged} unresolved={est.unresolved}")
        assert not est.unreliable
        assert not est.unresolved
        assert est.r_hat <= bound


def test_07_before_after_sdp_improvement(tmp_path):
    with criterion(7, "before/after SDP improvement", budget_s=900):
        config = ExperimentConfig(
            experiment="signed_before_after",
            params={"n": 200, "K": 5, "p": 0.8, "q": 0.2, "delta": 0.3},
            replicates=20,
            seed=0,
        )
        run_experiment(config, tmp_path / "sba")
        _, agg = read_csv(tmp_path / "sba.agg.csv")
        by_algo = {row["algorithm"]: row for row in agg}
        for algo in ("adjacency", "lbar_rw", "lbar_sym", "bnc"):
            before = float(by_algo[algo]["mean_gamma_before"])
            after = float(by_algo[algo]["mean_gamma_after"])
            assert int(by_algo[algo]["count"]) == 20
            assert after <= before, f"{algo}: mean gamma went up ({before} -> {after})"


def test_08_solver_cross_validation():
    with criterion(8, "solver cross-validation", budget_s=600):
        sizes = [20, 25, 30, 35, 40, 45, 50, 55, 60, 60]
        for idx, n in enumerate(sizes):
            rng = np.random.default_rng(500 + idx)
            M = rng.standard_normal((n, n))
            M = (M + M.T) / 2
            Zp, rp = pierra_solve(M, unit_diag_atoms())
            _, _, rb = bm_solve(M, "max", BmConfig(seed=idx))
            rel = abs(rp.objective - rb.objective) / (1.0 + abs(rp.objective))
            assert rel <= 1e-3, f"instance {idx}: relative gap {rel:.2e}"


def _run_cli(args):
    code = cli_main([str(a) for a in args])
    assert code == 0, f"cli failed: {args}"


def _cli_outputs(base: Path, tag: str, monkeypatch):
    work = base / tag
    work.mkdir()
    inst = work / "inst"
    _run_cli(["generate", "--problem", "signed", "--n", 16, "--k", 2, "--p", 0.95,
              "--q", 0.05, "--delta", 0.9, "--seed", 11, "--out", inst])
    res = work / "res"
    _run_cli(["solve", "--in", inst, "--out", res])
    comm = work / "comm.json"
    _run_cli(["round", "--in", res, "--k", 2, "--seed", 3,
              "--out", comm])
    ev = work / "eval.json"
    _run_cli(["evaluate", "--in", comm, "--instance", inst, "--out", ev])
    cl = work / "cl.json"
    _run_cli(["cluster", "--in", inst, "--algo", "bnc", "--out", cl])

    sy = work / "sy"
    _run_cli(["generate", "--problem", "sync", "--n", 14, "--sigma", 0.2, "--seed", 5,
              "--out", sy])
    syres = work / "syres"
    _run_cli(["solve", "--in", sy, "--out", syres])
    ph = work / "ph.json"
    _run_cli(["round", "--in", syres, "--out", ph])

    mc = work / "mc"
    _run_cli(["generate", "--problem", "maxcut", "--n", 12, "--eta", 0.1,
              "--delta", 0.9, "--seed", 6, "--out", mc])
    mcres = work / "mcres"
    _run_cli(["solve", "--in", mc, "--out", mcres])
    cut = work / "cut.json"
    _run_cli(["round", "--in", mcres, "--instance", mc,
              "--samples", 64, "--seed", 8, "--out", cut])

    bound = work / "bound.json"
    _run_cli(["evaluate", "--bound", "maxcut_rstar", "--n", 20, "--p", 0.8,
              "--out", bound])

    fp = work / "fp"
    _run_cli(["fixed-point", "--problem", "maxcut", "--n", 8, "--p", 0.8,
              "--n-mc", 4, "--delta-prob", 0.3, "--r-grid", "4,16,64", "--seed", 2,
              "--out", fp])

    cfg = work / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "sync_heatmap_gaussian", "replicates": 2, "seed": 3,
        "params": {"n": 12, "level_grid": [0.0, 0.2], "prob_grid": [1.0]},
    }))
    exp = work / "exp"
    _run_cli(["experiment", "--config", cfg, "--out", exp])

    gfile = work / "g.gset"
    gfile.write_text("6 6\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 6 1\n6 1 1\n")
    gsw = work / "gsw"
    # the sweep's sidecar echoes the file's path as given: a relative one
    # reads the same in both runs
    monkeypatch.chdir(work)
    _run_cli(["gset", "--in", gfile.name, "--sweep", "--delta-grid", "0.5,1.0",
              "--replicates", 2, "--seed", 4, "--out", gsw])

    produced = {}
    for path in sorted(work.rglob("*")):
        if path.is_file() and path != cfg and path != gfile:
            produced[path.relative_to(work).as_posix()] = path.read_bytes()
    return produced


def test_09_cli_determinism(tmp_path, monkeypatch):
    with criterion(9, "CLI determinism", budget_s=600):
        first = _cli_outputs(tmp_path, "run1", monkeypatch)
        second = _cli_outputs(tmp_path, "run2", monkeypatch)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"output differs across reruns: {name}"
