"""The benchmark's workloads, built only from graphsdp's public functions.

Each workload runs *units*: one signed instance (``signed_pierra``), one
bundle of four BM instances (``unitdiag_bm``) or one fixed-point call of
one replicate (``fixed_point``).  Units take consecutive instance seeds
from the workload seed (``seed_stride`` seeds each); the library sees only
the generated inputs.

A unit returns a plain record: its latency, how many instances
converged and passed their checks, how many failed a check, one record per
instance (seed, latency, termination, iterations, checks), the solver
reports, a quality value and its seed-state values keyed by instance seed.
Checks run after the timed region.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from graphsdp import fileio, linalg, metrics, models, rounding, signed, solvers

SIGNED_ALGOS = ("adjacency", "lbar", "lbar_rw", "lbar_sym", "bnc")
SYNC_SIGMAS = (0.1, 0.3, 0.5)
FIXED_POINT_GRID = (10.0, 20.0, 40.0, 60.0, 90.0, 130.0, 180.0, 219.0, 240.0)
GW_SAMPLES = 200
# one-sided tolerances against the seed-state reference: a better optimum
# passes, a worse one beyond the solver's own accuracy fails
OBJECTIVE_RTOL = 1e-4
CURVE_RTOL = 1e-3
# instance seeds whose seed-state values reference.json holds; every run
# re-checks the unit at the first of them outside its timed loop, so the
# check fires whatever the workload seed
REFERENCE_SEEDS = range(64)


def _at_least(value, floor, rtol):
    return bool(value >= floor - rtol * (1.0 + abs(floor)))


def _seed_state(reference, seed, holds):
    """The one-sided seed-state check of one instance: ``{}`` when no
    reference is in use (smoke runs, recording) or the seed is not recorded,
    and a failure when a recorded seed has no entry."""
    if not reference or seed not in REFERENCE_SEEDS:
        return {}
    ref = reference.get(str(seed))
    return {"ge_seed_state": ref is not None and holds(ref)}


def _instance(seed, kind, latency, checks, termination, iterations):
    return {"seed": seed, "kind": kind, "latency": latency, "checks": checks,
            "termination": termination, "iterations": iterations}


def _unit(seed, latency, records, ok):
    """The fields every unit record shares; ``ok`` flags the instances that
    converged and passed their checks."""
    return {"seed": seed, "instances": len(records), "latency": latency,
            "ok": sum(ok), "failed": sum(not all(r["checks"].values()) for r in records),
            "instance_records": records}


def _solve_record(span, report):
    return {"span": span, "termination": report.termination,
            "iterations": int(report.iterations), "objective": float(report.objective),
            "max_residual": float(max(report.residuals.values()))}


def _psd_probe_ms(matrices, repeats=3):
    """Median wall time of one ``project_psd`` call per matrix, in ms."""
    out = []
    for M in matrices:
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            linalg.project_psd(M)
            times.append(time.perf_counter() - t)
        out.append(1e3 * statistics.median(times))
    return out


def random_graph(n, density, seed):
    """Dense Erdos-Renyi graph, as in the fixed-point acceptance criterion."""
    rng = np.random.default_rng(seed)
    A = np.triu((rng.random((n, n)) < density).astype(float), 1)
    return A + A.T


class SignedPierra:
    """Signed SBM -> .coo dump/load -> pierra_signed -> communities -> scores,
    plus the five signed baselines on the raw input and on the SDP solution."""

    name = "signed_pierra"
    instances_per_unit = 1
    seed_stride = 1

    def __init__(self, smoke=False):
        self.params = (models.SsbmParams(n=24, n_clusters=2, p=0.9, q=0.1, delta=0.8) if smoke
                       else models.SsbmParams(n=100, n_clusters=5, p=0.8, q=0.2, delta=0.4))

    def setup(self):
        return None

    def run_unit(self, seed, fixtures, tracer, workdir: Path, reference, probe=False):
        iid = f"{self.name}:{seed}"
        K = self.params.n_clusters
        path = workdir / f"{seed}.coo"
        t0 = time.perf_counter()
        with tracer.span("instance", iid):
            with tracer.span("models.generate", iid):
                inst = models.gen_ssbm(self.params, seed=seed)
            with tracer.span("fileio.dump_matrix", iid):
                fileio.dump_matrix(inst.observed, path)
            with tracer.span("fileio.load_matrix", iid):
                A = fileio.load_matrix(path)
            alpha = inst.params["alpha"]
            with tracer.span("solvers.pierra_signed", iid):
                Z, report = solvers.pierra_signed(A, alpha)
            with tracer.span("rounding.extract_communities", iid):
                labels = rounding.extract_communities(Z, K, seed=seed)
            truth = 2.0 * models.membership_matrix(inst.ground_truth) - 1.0
            with tracer.span("metrics.score", iid):
                ari = metrics.ari(labels, inst.ground_truth)
            gamma = {}
            for algo in SIGNED_ALGOS:
                for when, matrix in (("before", A), ("after", Z)):
                    if algo == "bnc":
                        with tracer.span("signed.bnc_cluster", iid):
                            assignment = signed.bnc_cluster(matrix, K, seed=seed)
                    else:
                        with tracer.span("signed.spectral_cluster", iid):
                            assignment = signed.spectral_cluster(matrix, algo, K, seed=seed)
                    with tracer.span("metrics.score", iid):
                        gamma[f"{algo}.{when}"] = metrics.signed_error_rate(assignment, truth)
        latency = time.perf_counter() - t0

        nbytes = path.stat().st_size
        path.unlink()
        M = A - alpha * np.ones_like(A)
        oracle_value = float(np.vdot(M, inst.oracle).real)
        checks = {
            "coo_round_trip": bool(np.array_equal(A, inst.observed)),
            "objective_ge_oracle": _at_least(report.objective, oracle_value, 1e-9),
            "residuals": max(report.residuals.values()) <= 1e-6,
            **_seed_state(reference, seed, lambda ref: _at_least(
                report.objective, ref["objective"], OBJECTIVE_RTOL)),
        }
        gain = statistics.fmean(gamma[f"{a}.before"] - gamma[f"{a}.after"] for a in SIGNED_ALGOS)
        record = _instance(seed, "signed", latency, checks, report.termination, report.iterations)
        return {
            **_unit(seed, latency, [record], [report.converged and all(checks.values())]),
            "solves": [_solve_record("solvers.pierra_signed", report)],
            "quality": ari,
            "scores": {"signed_ari": ari, "signed_gamma_gain": gain, **gamma},
            "coo_bytes": nbytes,
            "psd_probe_ms": _psd_probe_ms([M]) if probe else [],
            "values": {str(seed): {"objective": float(report.objective)}},
        }


class UnitdiagBm:
    """One unit is a bundle on four consecutive seeds, all solved by bm_solve
    with the experiment-cell settings.  An instance seed's remainder mod 4
    fixes its problem: angular sync (complex) at sigma = 0.1, 0.3 or 0.5, or
    masked MAX-CUT.  Every bundle so holds one of each, and an instance's
    inputs depend on its seed alone, whatever seed the bundle starts at."""

    name = "unitdiag_bm"
    instances_per_unit = len(SYNC_SIGMAS) + 1
    seed_stride = instances_per_unit

    def __init__(self, smoke=False):
        self.sync_n = 16 if smoke else 200
        self.maxcut_n = 16 if smoke else 100
        self.bm = dict(restarts=2, max_iters=20_000)

    def setup(self):
        return None

    def _sync(self, seed, sigma, tracer, iid):
        with tracer.span("models.generate", iid):
            sy = models.gen_sync(models.SyncParams(n=self.sync_n, sigma=sigma), seed=seed)
        with tracer.span("solvers.bm_solve.sync", iid):
            _, Z, report = solvers.bm_solve(sy.observed, "max", solvers.BmConfig(seed=seed, **self.bm))
        with tracer.span("rounding.extract_phases", iid):
            phases_sdp = np.angle(rounding.extract_phases(Z))
        with tracer.span("rounding.spectral_sync", iid):
            phases_spec = np.angle(rounding.spectral_sync(sy.observed))
        with tracer.span("metrics.score", iid):
            mse = metrics.sync_mse(phases_sdp, sy.ground_truth)
            mse_spec = metrics.sync_mse(phases_spec, sy.ground_truth)
        return sy, report, mse, mse_spec

    def _maxcut(self, seed, tracer, iid):
        with tracer.span("models.generate", iid):
            mc = models.gen_bipartite_perturbed(self.maxcut_n, 0.1, 0.6, seed=seed)
        with tracer.span("solvers.bm_solve.maxcut", iid):
            _, Z, report = solvers.bm_solve(mc.rescaled, "max", solvers.BmConfig(seed=seed, **self.bm))
        with tracer.span("rounding.gw_round", iid):
            x, _ = rounding.gw_round(Z, mc.full_adjacency, GW_SAMPLES, seed=seed)
        with tracer.span("metrics.score", iid):
            cut = metrics.cut_value(mc.full_adjacency, x)
            planted_cut = metrics.cut_value(mc.full_adjacency, 1 - 2 * mc.ground_truth_partition)
        return mc, report, np.asarray(x, dtype=float), cut / planted_cut

    def run_unit(self, seed, fixtures, tracer, workdir: Path, reference, probe=False):
        t0 = time.perf_counter()
        results = []
        for s in range(seed, seed + self.instances_per_unit):
            j = s % self.instances_per_unit
            kind = f"sync{SYNC_SIGMAS[j]}" if j < len(SYNC_SIGMAS) else "maxcut"
            iid = f"{self.name}:{kind}:{s}"
            t = time.perf_counter()
            with tracer.span("instance", iid):
                out = (self._sync(s, SYNC_SIGMAS[j], tracer, iid) if kind != "maxcut"
                       else self._maxcut(s, tracer, iid))
            results.append((s, kind, time.perf_counter() - t, out))
        latency = time.perf_counter() - t0

        records, oks, solves, scores, probes, values = [], [], [], {}, [], {}
        for s, kind, t, (inst, report, x_or_mse, score) in results:
            if kind == "maxcut":
                feasible = float(x_or_mse @ inst.rescaled @ x_or_mse)
                quality = score
                scores["maxcut_cut_ratio"] = score
                probes.append(inst.rescaled)
            else:
                feasible = float(np.vdot(inst.observed, inst.oracle).real)
                scores[f"sync_mse.sigma{kind[4:]}"] = x_or_mse
                scores[f"sync_mse_spectral.sigma{kind[4:]}"] = score
                probes.append(inst.observed)
            checks = {
                "objective_ge_feasible": _at_least(report.objective, feasible, 1e-9),
                "residuals": max(report.residuals.values()) <= 1e-8,
                **_seed_state(reference, s, lambda ref: _at_least(
                    report.objective, ref["objective"], OBJECTIVE_RTOL)),
            }
            records.append(_instance(s, kind, t, checks, report.termination, report.iterations))
            oks.append(report.converged and all(checks.values()))
            solves.append(_solve_record(
                f"solvers.bm_solve.{'maxcut' if kind == 'maxcut' else 'sync'}", report))
            values[str(s)] = {"objective": float(report.objective)}
        return {
            **_unit(seed, latency, records, oks),
            "solves": solves,
            "quality": quality,
            "scores": scores,
            "gw_samples": GW_SAMPLES,
            "psd_probe_ms": _psd_probe_ms(probes) if probe else [],
            "values": values,
        }


class FixedPoint:
    """estimate_fixed_point on masked MAX-CUT (acceptance criterion 6's
    configuration) with one replicate per call; one unit is one call."""

    name = "fixed_point"
    # one replicate per call: the call's time is the replicate's time and
    # r_hat the replicate's own radius (the max over several replicates jumps
    # between grid values from run to run); a flagged replicate then leaves
    # no estimate, so the call raises and the instance counts as failed
    instances_per_unit = 1
    seed_stride = 1

    def __init__(self, smoke=False):
        self.n = 8 if smoke else 20
        self.p = 0.8

    def setup(self):
        A0 = random_graph(self.n, 0.5, seed=123)
        _, Z_star, _ = solvers.bm_solve(-A0, "max", solvers.BmConfig(seed=0))
        return A0, Z_star

    def run_unit(self, seed, fixtures, tracer, workdir: Path, reference, probe=False):
        iid = f"{self.name}:{seed}"
        A0, Z_star = fixtures
        noise = []

        def generator(rng):
            with tracer.span("models.generate", iid):
                inst = models.apply_mask(A0, self.p, seed=int(rng.integers(0, 2**32)))
            if probe:
                noise.append(inst.rescaled + A0)
            return inst.rescaled, -A0, Z_star

        t0 = time.perf_counter()
        with tracer.span("instance", iid):
            with tracer.span("metrics.estimate_fixed_point", iid):
                est = metrics.estimate_fixed_point(
                    generator, solvers.unit_diag_atoms(), "excess_risk",
                    delta_prob=4.0 ** (-self.n), n_mc=self.instances_per_unit,
                    r_grid=FIXED_POINT_GRID, seed=seed)
        latency = time.perf_counter() - t0

        bound = metrics.maxcut_rstar_bound(self.n, self.p)
        curve = [q for _, q in est.quantile_curve]
        checks = {
            "curve_monotone": all(b >= a for a, b in zip(curve, curve[1:])),
            "resolved": not est.unresolved,
            "r_hat_le_bound": est.r_hat <= bound,
            **_seed_state(reference, seed, lambda ref: all(
                _at_least(q, r, CURVE_RTOL) for q, r in zip(curve, ref["curve"]))),
        }
        # the estimator exposes no per-solve reports: no termination or count
        record = _instance(seed, "replicate", latency, checks, None, None)
        return {
            **_unit(seed, latency, [record], [est.n_effective == 1 and all(checks.values())]),
            "solves": [],
            "quality": 1.0 - est.r_hat / bound,
            "scores": {"r_hat": est.r_hat, "rstar_bound": bound},
            "psd_probe_ms": _psd_probe_ms(noise) if probe else [],
            "values": {str(seed): {"curve": curve, "r_hat": est.r_hat}},
        }


WORKLOADS = {cls.name: cls for cls in (SignedPierra, UnitdiagBm, FixedPoint)}


def make(name, smoke=False):
    return WORKLOADS[name](smoke)
