"""Experiment harness: seeded parameter sweeps with CSV + JSON persistence.

Each experiment iterates a parameter grid times a replicate count, runs the
generate -> solve -> round -> evaluate pipeline for its problem, and writes

* ``<out>.csv``       one row per (grid point, replicate) result,
* ``<out>.agg.csv``   mean / std / count per grid point (ok rows only),
* ``<out>.json``      the full configuration echo plus summary fields.

Per-cell seeds derive from (master seed, flat grid index, replicate), so
grids can be extended without perturbing existing cells.  Rows come in task
order (grid points as written, replicates within each), whatever the number
of worker threads.  The runner frames every row with its grid point,
replicate and seed; a cell only generates, solves, rounds and scores.  An
exception in a cell becomes one row with status ``error:<ExceptionName>``
and never aborts a sweep; a cell whose solve did not converge reads
``solver_<termination>``, the solve's stop reason.  Config ``params`` are
checked by name and by the kind of their default before anything runs.  The
fixed-point curve is the one experiment whose replicates are pooled by its
estimator: both tables hold its quantile curve, and the sidecar its estimate.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from pathlib import Path

import numpy as np

from . import _rng
from .fileio import parse_gset, write_csv, write_json
from .linalg import InvalidInputError, check_fields, check_value
from .metrics import estimate_fixed_point
from .models import (
    SsbmParams,
    SyncParams,
    apply_mask,
    gen_bipartite_perturbed,
    gen_ssbm,
    gen_sync,
)
from .problems import PROBLEMS
from .rounding import extract_phases, gw_round, spectral_sync
from .signed import BASELINES, cluster_baseline
from .solvers import BmConfig, PierraConfig

__all__ = [
    "ExperimentConfig",
    "EXPERIMENTS",
    "run_experiment",
    "write_sweep",
    "run_grid",
]

SCHEMA_VERSION = 1
_COUNTS = ("n", "gw_samples")     # params that count something, so at least 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: experiment id, parameter overrides, replicates, master seed."""

    experiment: str
    params: dict = field(default_factory=dict)
    replicates: int = 20
    seed: int = 0
    full_scale: bool = False
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        check_fields(self, {"experiment": str, "params": dict, "replicates": int, "seed": int,
                            "full_scale": bool, "schema_version": int},
                     positive=("replicates",), nonnegative=("seed",))
        if self.experiment not in EXPERIMENTS:
            raise InvalidInputError(
                f"unknown experiment '{self.experiment}'; have {sorted(EXPERIMENTS)}"
            )
        if self.schema_version != SCHEMA_VERSION:
            raise InvalidInputError(f"unsupported schema_version {self.schema_version}")
        spec = EXPERIMENTS[self.experiment]
        defaults = {**spec.full_defaults, **spec.desk_defaults}
        kinds = {**spec.optional, **{name: type(v) for name, v in defaults.items()}}
        unknown = set(self.params) - set(kinds)
        if unknown:
            raise InvalidInputError(
                f"unknown params {sorted(unknown)} for experiment '{self.experiment}'"
            )
        for name, value in self.params.items():
            check_value(f"param '{name}'", value, kinds[name])
            if name in _COUNTS and value < 1:
                raise InvalidInputError(f"param '{name}' must be >= 1, got {value!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InvalidInputError(
                f"an experiment config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidInputError(f"unknown config fields {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    def resolved_params(self) -> dict:
        spec = EXPERIMENTS[self.experiment]
        out = dict(spec.full_defaults if self.full_scale else spec.desk_defaults)
        out.update(self.params)
        return spec.complete(out)


@dataclass(frozen=True)
class _ExperimentSpec:
    """A sweep: one cell per (grid point, replicate), aggregated per group."""

    cell_fn: object           # (params, grid point, seed) -> [metric columns + status]
    desk_defaults: dict
    full_defaults: dict
    grid_axes: tuple = ()     # parameter names iterated as a cartesian grid
    group_cols: tuple = ()    # aggregation keys, the grid point's names first
    value_cols: tuple = ()    # numeric outputs to aggregate
    optional: dict = field(default_factory=dict)   # {name: kind} of params without a default
    complete: object = dict   # resolved params -> the params echoed and run
    setup: object = dict      # params -> params for the cells, run once

    @property
    def header(self) -> tuple:
        """The csv columns: the grid point, the cell's seed, the other
        aggregation keys, the outputs and the status."""
        k = len(self.grid_axes)
        return (self.group_cols[:k] + ("replicate", "seed") + self.group_cols[k:]
                + self.value_cols + ("status",))

    def run(self, config, params, threads):
        """Every cell of the sweep: (rows, agg header, agg rows, sidecar fields)."""
        params = self.setup(params)
        tasks = [(axes, rep, _rng.cell_seed(config.seed, gi, rep))
                 for gi, axes in enumerate(product(*(params[a] for a in self.grid_axes)))
                 for rep in range(config.replicates)]

        def run_task(task):
            axes, rep, seed = task
            frame = {**dict(zip(self.group_cols, axes)), "replicate": rep, "seed": seed}
            try:
                rows = self.cell_fn(params, axes, seed)
            except Exception as exc:  # one failed cell never aborts the sweep
                rows = [{"status": f"error:{type(exc).__name__}"}]
            return [{**frame, **row} for row in rows]

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(run_task, tasks))   # in task order
        else:
            results = [run_task(t) for t in tasks]
        rows = [row for chunk in results for row in chunk]
        agg_header, agg_rows = _aggregate(self, rows)
        n_ok = sum(1 for r in rows if r.get("status") == "ok")
        return rows, agg_header, agg_rows, {"rows": len(rows), "rows_ok": n_ok}


@dataclass(frozen=True)
class _FixedPointSpec:
    """The fixed-point quantile curve: one estimator call pools the replicates."""

    desk_defaults: dict
    full_defaults: dict
    header = ("r", "quantile", "n_effective")

    @property
    def optional(self):
        """{name: kind} of every problem's own params."""
        return {name: type(value) for defaults in _FIXED_POINT_DEFAULTS.values()
                for name, value in defaults(1).items()}

    def complete(self, params):
        """The problem's own defaults, unless given; another problem's own
        params raise, as the curve would not read them."""
        problem = params["problem"]
        if problem not in _FIXED_POINT_DEFAULTS:
            raise InvalidInputError(f"fixed_point_curve does not support problem '{problem}'")
        own = _FIXED_POINT_DEFAULTS[problem](params["n"])
        foreign = sorted(set(params) & set(self.optional) - set(own))
        if foreign:
            raise InvalidInputError(
                f"params {foreign} do not apply to the {problem} fixed-point curve")
        return {**own, **params}

    def run(self, config, params, threads):
        generator, atoms = _fixed_point_problem(params)
        estimate = estimate_fixed_point(
            generator, atoms, params["localization"], params["delta_prob"],
            n_mc=config.replicates, r_grid=params["r_grid"], seed=config.seed,
        )
        rows = [{"r": r, "quantile": q, "n_effective": estimate.n_effective}
                for r, q in estimate.quantile_curve]
        return rows, self.header, rows, estimate.to_dict()


def _status(report):
    """A cell's status: "ok" for a converged solve, else the solve's stop reason."""
    return "ok" if report.converged else f"solver_{report.termination}"


# denoising needs only a moderately accurate solve
_DENOISING_CONFIG = PierraConfig(max_iters=20_000, feas_tol=1e-5, obj_tol=1e-7)


def _cell_signed_before_after(params, axes, seed):
    ssbm = SsbmParams(
        n=params["n"], n_clusters=params["K"], p=params["p"], q=params["q"],
        delta=params["delta"],
    )
    inst = gen_ssbm(ssbm, seed=seed)
    signed = PROBLEMS["signed"]
    Z_hat, report = signed.solve(inst.observed, inst.params, _DENOISING_CONFIG)
    status = _status(report)
    K = params["K"]

    def gamma(matrix, algo):
        labels = cluster_baseline(matrix, algo, K, seed)
        return signed.score(labels, inst.ground_truth)["gamma"]

    rows = []
    for algo in sorted(BASELINES):
        before, after = gamma(inst.observed, algo), gamma(Z_hat, algo)
        rows.append({"algorithm": algo, "gamma_before": before, "gamma_after": after,
                     "gamma_delta": before - after, "status": status})
    return rows


def _bm_config(seed):
    return BmConfig(restarts=2, seed=seed)


def _round_maxcut(inst, params, seed):
    """Solve a masked cut instance by BM, round it on the full graph:
    (best sign vector, mean sampled cut, status)."""
    Z_hat, report = PROBLEMS["maxcut"].solve(
        inst.observed, {"mask_prob": inst.mask_prob}, bm_config=_bm_config(seed)
    )
    x, mean_cut = gw_round(Z_hat, inst.full_adjacency, params["gw_samples"], seed=seed)
    return x, mean_cut, _status(report)


def _cell_maxcut_bipartite(params, axes, seed):
    eta, delta = axes
    inst = gen_bipartite_perturbed(params["n"], eta, delta, seed=seed)
    x, mean_cut, status = _round_maxcut(inst, params, seed)
    scores = PROBLEMS["maxcut"].score(x, inst.ground_truth_partition, inst.full_adjacency)
    return [{"ari": scores["ari"], "best_cut": scores["cut_full"], "mean_cut": mean_cut,
             "status": status}]


def _synthetic_benchmark_graph(n: int, avg_degree: float, seed: int) -> np.ndarray:
    """Stand-in benchmark graph when no Gset file is supplied."""
    rng = _rng.stream(seed, _rng.STREAM_EDGES)
    prob = min(1.0, avg_degree / max(n - 1, 1))
    draw = (rng.random((n, n)) < prob).astype(float)
    upper = np.triu(draw, 1)
    return upper + upper.T


def _file_or_synthetic_graph(params):
    """A Gset file's sweep reads none of the synthetic graph's params."""
    drop = ("n", "avg_degree", "graph_seed") if params.get("gset_path") else ()
    return {k: v for k, v in params.items() if k not in drop}


def _benchmark_graph(params):
    """Params plus ``_adjacency``: the graph of the Gset file, or a synthetic one."""
    params = dict(params)
    if params.get("gset_path"):
        graph = parse_gset(Path(params["gset_path"]).read_text())
        params["_adjacency"] = graph.adjacency()
    else:
        params["_adjacency"] = _synthetic_benchmark_graph(
            params["n"], params["avg_degree"], params["graph_seed"]
        )
    return params


def _cell_gset_sweep(params, axes, seed):
    (delta,) = axes
    A0 = params["_adjacency"]
    x, _, status = _round_maxcut(apply_mask(A0, delta, seed=seed), params, seed)
    return [{"cut_full": PROBLEMS["maxcut"].score(x, None, A0)["cut_full"], "status": status}]


def _cell_sync(noise_model):
    def cell(params, axes, seed):
        level, sample_prob = axes
        kwargs = {"sigma": level} if noise_model == "gaussian" else {"sigma": 0.0, "gamma": level}
        sync = PROBLEMS["sync"]
        inst = gen_sync(
            SyncParams(n=params["n"], noise_model=noise_model, sample_prob=sample_prob,
                       **kwargs),
            seed=seed,
        )
        Z_hat, report = sync.solve(inst.observed, inst.params, bm_config=_bm_config(seed))
        phases_sdp = np.angle(extract_phases(Z_hat))
        phases_spec = np.angle(spectral_sync(inst.observed))
        return [{
            "mse_sdp": sync.score(phases_sdp, inst.ground_truth)["mse"],
            "mse_spectral": sync.score(phases_spec, inst.ground_truth)["mse"],
            "status": _status(report),
        }]
    return cell


EXPERIMENTS = {
    "signed_before_after": _ExperimentSpec(
        grid_axes=(),
        group_cols=("algorithm",),
        value_cols=("gamma_before", "gamma_after", "gamma_delta"),
        cell_fn=_cell_signed_before_after,
        desk_defaults={"n": 200, "K": 5, "p": 0.8, "q": 0.2, "delta": 0.3},
        full_defaults={"n": 200, "K": 5, "p": 0.8, "q": 0.2, "delta": 0.3},
    ),
    "maxcut_bipartite_heatmap": _ExperimentSpec(
        grid_axes=("eta_grid", "delta_grid"),
        group_cols=("eta", "delta"),
        value_cols=("ari", "best_cut", "mean_cut"),
        cell_fn=_cell_maxcut_bipartite,
        desk_defaults={"n": 100, "eta_grid": [0.0, 0.05, 0.1],
                       "delta_grid": [0.3, 0.6, 1.0], "gw_samples": 100},
        full_defaults={"n": 500, "eta_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
                       "delta_grid": [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0],
                       "gw_samples": 200},
    ),
    "maxcut_gset_sweep": _ExperimentSpec(
        grid_axes=("delta_grid",),
        group_cols=("delta",),
        value_cols=("cut_full",),
        cell_fn=_cell_gset_sweep,
        optional={"gset_path": str},
        complete=_file_or_synthetic_graph,
        setup=_benchmark_graph,
        desk_defaults={"n": 150, "avg_degree": 12.0, "graph_seed": 53,
                       "delta_grid": [0.2, 0.5, 0.8, 1.0], "gw_samples": 100},
        full_defaults={"n": 1000, "avg_degree": 12.0, "graph_seed": 53,
                       "delta_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
                       "gw_samples": 200},
    ),
    "sync_heatmap_gaussian": _ExperimentSpec(
        grid_axes=("level_grid", "prob_grid"),
        group_cols=("level", "sample_prob"),
        value_cols=("mse_sdp", "mse_spectral"),
        cell_fn=_cell_sync("gaussian"),
        desk_defaults={"n": 100, "level_grid": [0.0, 0.25, 0.5, 1.0],
                       "prob_grid": [0.3, 0.6, 1.0]},
        full_defaults={"n": 500, "level_grid": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
                       "prob_grid": [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0]},
    ),
    "sync_heatmap_outlier": _ExperimentSpec(
        grid_axes=("level_grid", "prob_grid"),
        group_cols=("level", "sample_prob"),
        value_cols=("mse_sdp", "mse_spectral"),
        cell_fn=_cell_sync("outlier"),
        desk_defaults={"n": 100, "level_grid": [0.0, 0.2, 0.4, 0.6],
                       "prob_grid": [0.3, 0.6, 1.0]},
        full_defaults={"n": 500, "level_grid": [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9],
                       "prob_grid": [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0]},
    ),
    "fixed_point_curve": _FixedPointSpec(
        desk_defaults={"problem": "maxcut", "n": 20, "localization": "excess_risk",
                       "delta_prob": 0.005, "r_grid": [2.0 * k for k in range(1, 41)]},
        full_defaults={"problem": "maxcut", "n": 40, "localization": "excess_risk",
                       "delta_prob": 0.005, "r_grid": [5.0 * k for k in range(1, 61)]},
    ),
}


def _aggregate(spec: _ExperimentSpec, rows):
    groups = {}
    order = []
    for row in rows:
        if row.get("status") != "ok":
            continue
        key = tuple(row[c] for c in spec.group_cols)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    header = list(spec.group_cols) + ["count"]
    for col in spec.value_cols:
        header += [f"mean_{col}", f"std_{col}"]
    out = []
    for key in order:
        members = groups[key]
        row = dict(zip(spec.group_cols, key))
        row["count"] = len(members)
        for col in spec.value_cols:
            vals = np.asarray([float(m[col]) for m in members if col in m])
            row[f"mean_{col}"] = float(vals.mean()) if vals.size else None
            row[f"std_{col}"] = float(vals.std()) if vals.size else None
        out.append(row)
    return header, out


def run_grid(config: ExperimentConfig, threads: int = 1):
    """Run a sweep without writing files; returns (rows, aggregated rows)."""
    rows, _, agg_rows, _ = EXPERIMENTS[config.experiment].run(
        config, config.resolved_params(), threads
    )
    return rows, agg_rows


# each fixed-point problem's own params and their defaults at size n: MAX-CUT
# masks a seeded graph of average degree avg_degree with probability p, the
# signed curve draws SSBM instances with sign probability p
_FIXED_POINT_DEFAULTS = {
    "maxcut": lambda n: {"p": 0.8, "avg_degree": 0.5 * (n - 1), "graph_seed": 7},
    "signed": lambda n: {"p": 0.9, "K": 2, "q": 0.1, "delta": 1.0},
}


def _fixed_point_problem(params):
    """(generator, atoms) for the curve of resolved params: maxcut or signed."""
    problem, n = params["problem"], params["n"]
    if problem == "maxcut":
        avg_degree = params["avg_degree"]
        A0 = _synthetic_benchmark_graph(n, avg_degree, params["graph_seed"])
        if params["localization"] == "excess_risk" and not A0.any():
            # the half-space <-A0, Z> <= bound has no normal without an edge
            raise InvalidInputError(
                f"the excess_risk localization needs a graph with an edge; n={n} and "
                f"avg_degree={avg_degree} gave none")
        Z_star, _ = PROBLEMS["maxcut"].solve(
            A0, {"mask_prob": 1.0}, bm_config=BmConfig(seed=params["graph_seed"]))

        def generator(rng):
            seed = int(rng.integers(0, 2**32))
            inst = apply_mask(A0, params["p"], seed=seed)
            return inst.rescaled, -A0, Z_star

        return generator, PROBLEMS["maxcut"].atoms(params)
    ssbm = SsbmParams(n=n, n_clusters=params["K"], p=params["p"], q=params["q"],
                      delta=params["delta"])
    signed = PROBLEMS["signed"]

    def generator(rng):
        seed = int(rng.integers(0, 2**32))
        inst = gen_ssbm(ssbm, seed=seed)
        return (signed.objective(inst.observed, inst.params),
                signed.objective(inst.expected, inst.params), inst.oracle)

    return generator, signed.atoms(params)


def write_sweep(config: ExperimentConfig, out_prefix, threads: int = 1):
    """Run a sweep and write its rows to ``<out_prefix>.csv`` and the
    aggregate to ``<out_prefix>.agg.csv``, under the headers the experiment
    declares.  Returns (resolved params, sidecar fields)."""
    out_prefix = str(out_prefix)
    spec = EXPERIMENTS[config.experiment]
    params = config.resolved_params()
    rows, agg_header, agg_rows, fields = spec.run(config, params, threads)
    write_csv(out_prefix + ".csv", spec.header, rows)
    write_csv(out_prefix + ".agg.csv", agg_header, agg_rows)
    return params, fields


def run_experiment(config: ExperimentConfig, out_prefix, threads: int = 1) -> dict:
    """Run a sweep and persist CSV results plus a JSON sidecar.

    Returns a summary dict (also written into the sidecar).
    """
    params, fields = write_sweep(config, out_prefix, threads)
    sidecar = {"config": config.to_dict(), "schema_version": SCHEMA_VERSION,
               "resolved_params": params, **fields}
    write_json(sidecar, str(out_prefix) + ".json")
    return sidecar

