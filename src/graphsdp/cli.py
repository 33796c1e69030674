"""Command line interface.

Subcommands: generate, solve, round, cluster, evaluate, fixed-point,
experiment, gset.  Exit codes: 0 success, 2 invalid input, 3 solver
non-convergence on a single-solve command.  All outputs are deterministic
given the seed and configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .experiments import ExperimentConfig, run_experiment
from .fileio import dump_matrix, load_matrix, parse_gset, read_json, write_json
from .linalg import InvalidInputError
from .metrics import BOUNDS, LOCALIZATIONS, bound_report, cut_value
from .models import (
    MaxCutInstance,
    SsbmParams,
    SyncParams,
    gen_bipartite_perturbed,
    gen_sbm,
    gen_ssbm,
    gen_sync,
)
from .problems import PROBLEMS
from .rounding import extract_communities, extract_phases, gw_round
from .signed import BASELINES, cluster_baseline
from .solvers import BmConfig, PierraConfig

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _float_list(text: str):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _load_instance(prefix: str):
    """(sidecar, observed matrix, graph that cuts are scored on)."""
    meta = read_json(prefix + ".json")
    observed = load_matrix(prefix + ".coo")
    graph = observed
    if meta["problem"] == "maxcut":
        graph = load_matrix(prefix + ".full.coo")
    return meta, observed, graph


_GENERATORS = {
    "community": lambda a: gen_sbm(a.n, a.k, a.p, a.q, seed=a.seed),
    "signed": lambda a: gen_ssbm(
        SsbmParams(n=a.n, n_clusters=a.k, p=a.p, q=a.q, delta=a.delta), seed=a.seed),
    "sync": lambda a: gen_sync(
        SyncParams(n=a.n, sigma=a.sigma, noise_model=a.noise_model, gamma=a.gamma,
                   sample_prob=a.sample_prob), seed=a.seed),
    "maxcut": lambda a: gen_bipartite_perturbed(a.n, a.eta, a.delta, seed=a.seed),
}


def _cmd_generate(args) -> int:
    out = args.out or "instance"
    inst = _GENERATORS[args.problem](args)
    if isinstance(inst, MaxCutInstance):
        params = {"n": args.n, "eta": args.eta, "mask_prob": args.delta}
        truth = inst.ground_truth_partition
        dump_matrix(inst.full_adjacency, out + ".full.coo")
    else:
        params, truth = inst.params, inst.ground_truth
    dump_matrix(inst.observed, out + ".coo")
    write_json({"problem": args.problem, "params": params, "seed": args.seed,
                "ground_truth": truth}, out + ".json")
    return EXIT_OK


def _solver_configs(args):
    overrides = read_json(args.config) if args.config else {}
    if not isinstance(overrides, dict):
        raise InvalidInputError(
            f"a solver config must be a JSON object, got {type(overrides).__name__}")
    pierra_keys = {f.name for f in fields(PierraConfig)}
    bm_keys = {f.name for f in fields(BmConfig)}
    unknown = set(overrides) - pierra_keys - bm_keys
    if unknown:
        raise InvalidInputError(f"unknown solver config keys {sorted(unknown)}")
    pc = PierraConfig(**{k: v for k, v in overrides.items() if k in pierra_keys})
    bm_over = {k: v for k, v in overrides.items() if k in bm_keys}
    bm_over.setdefault("seed", args.seed)
    return pc, BmConfig(**bm_over)


def _cmd_solve(args) -> int:
    meta, observed, _ = _load_instance(args.infile)
    pc, bc = _solver_configs(args)
    problem = meta["problem"]
    if args.problem is not None and args.problem != problem:
        raise InvalidInputError(
            f"--problem {args.problem} does not match the instance ({problem})"
        )
    Z, report = PROBLEMS[problem].solve(observed, meta["params"], pc, bc)
    out = args.out or "result"
    dump_matrix(Z, out + ".coo")
    write_json({"problem": problem, "solver": report.solver,
                "instance": Path(args.infile).name,
                "report": report.to_dict()}, out + ".json")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_round(args) -> int:
    """Round as the result's problem is scored: its answer key picks the step."""
    Z = load_matrix(args.infile + ".coo")
    key = PROBLEMS[read_json(args.infile + ".json")["problem"]].answer_key
    out = args.out or "rounded.json"
    if key == "cut_vector":
        if args.instance:
            _, _, graph = _load_instance(args.instance)
        elif args.graph:
            graph = load_matrix(args.graph)
        else:
            raise InvalidInputError("cut rounding needs --instance or --graph")
        x, mean_cut = gw_round(Z, graph, args.samples, seed=args.seed)
        write_json({"mode": "cut", "cut_vector": x, "best_cut": cut_value(graph, x),
                    "mean_cut": mean_cut}, out)
    elif key == "labels":
        labels = extract_communities(Z, args.k, seed=args.seed)
        write_json({"mode": "communities", "labels": labels}, out)
    else:  # phases
        x = extract_phases(Z)
        write_json({"mode": "phases", "phases": np.angle(x),
                    "estimate_re": np.real(x), "estimate_im": np.imag(x)}, out)
    return EXIT_OK


def _cmd_cluster(args) -> int:
    meta, observed, _ = _load_instance(args.infile)
    if meta["problem"] != "signed":
        raise InvalidInputError("cluster works on signed instances")
    matrix = load_matrix(args.solution + ".coo") if args.solution else observed
    K = args.k if args.k is not None else meta["params"]["K"]
    labels = cluster_baseline(matrix, args.algo, K, seed=args.seed)
    result = {"labels": labels, "algorithm": args.algo,
              "input": "sdp" if args.solution else "raw"}
    truth = meta.get("ground_truth")
    if truth is not None:
        result.update(PROBLEMS["signed"].score(labels, truth))
    write_json(result, args.out or "clusters.json")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    out = args.out or "evaluation.json"
    if args.bound:
        report = bound_report(args.bound, n=args.n, p=args.p, delta_prob=args.delta_prob,
                              sigma=args.sigma, eps=args.eps)
        write_json(report.to_dict(), out)
        return EXIT_OK
    if args.infile is None or args.instance is None:
        raise InvalidInputError("evaluate needs --bound, or both --in and --instance")
    meta, _, graph = _load_instance(args.instance)
    problem = PROBLEMS[meta["problem"]]
    rounded = read_json(args.infile)
    if problem.answer_key not in rounded:
        raise InvalidInputError(f"{args.infile} holds no '{problem.answer_key}', the answer "
                                f"a {meta['problem']} instance is scored on")
    answer = rounded[problem.answer_key]
    result = {"problem": meta["problem"],
              **problem.score(answer, meta.get("ground_truth"), graph)}
    write_json(result, out)
    return EXIT_OK


def _cmd_fixed_point(args) -> int:
    if args.n_mc < 1:
        raise InvalidInputError(f"--n-mc must be > 0, got {args.n_mc}")
    params = {"problem": args.problem, "n": args.n, "p": args.p, "K": args.k,
              "q": args.q, "delta": args.delta_param, "graph_seed": args.graph_seed,
              "localization": args.localization, "delta_prob": args.delta_prob,
              "r_grid": _float_list(args.r_grid)}
    config = ExperimentConfig("fixed_point_curve", replicates=args.n_mc, seed=args.seed,
                              params={k: v for k, v in params.items() if v is not None})
    run_experiment(config, args.out or "fixed_point")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_dict(read_json(args.config))
    if args.seed is not None:
        config = ExperimentConfig.from_dict({**config.to_dict(), "seed": args.seed})
    if args.full:
        config = ExperimentConfig.from_dict({**config.to_dict(), "full_scale": True})
    run_experiment(config, args.out or config.experiment, threads=args.threads)
    return EXIT_OK


def _cmd_gset(args) -> int:
    if args.sweep:
        config = ExperimentConfig("maxcut_gset_sweep", replicates=args.replicates,
                                  seed=args.seed, params={
                                      "gset_path": args.infile, "gw_samples": args.samples,
                                      "delta_grid": _float_list(args.delta_grid)})
        run_experiment(config, args.out or "gset_sweep", threads=args.threads)
        return EXIT_OK
    graph = parse_gset(Path(args.infile).read_text())
    info = {"n": graph.n, "m": graph.m, "average_degree": graph.average_degree}
    if args.out:
        write_json(info, args.out)
    else:
        print(f"n={graph.n} m={graph.m} average_degree={graph.average_degree!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsdp",
        description="SDP estimators for graph learning: generate, solve, round, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, seed=True, threads=False, **kw):
        """A subcommand with ``--out``, and ``--seed`` and ``--threads`` where it reads them."""
        p = sub.add_parser(name, **kw)
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker threads of the sweep (the output does not depend on it)")
        p.add_argument("--out", help="output path or prefix")
        return p

    g = add_parser("generate", help="generate a synthetic instance")
    g.add_argument("--problem", required=True, choices=list(PROBLEMS))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--p", type=float, default=0.9)
    g.add_argument("--q", type=float, default=0.1)
    g.add_argument("--delta", type=float, default=1.0)
    g.add_argument("--eta", type=float, default=0.0)
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--gamma", type=float, default=0.0)
    g.add_argument("--noise-model", default="gaussian", choices=["gaussian", "outlier"])
    g.add_argument("--sample-prob", type=float, default=1.0)
    g.set_defaults(func=_cmd_generate)

    s = add_parser("solve", help="solve the SDP for a generated instance")
    s.add_argument("--in", dest="infile", required=True, help="instance prefix")
    s.add_argument("--problem", choices=list(PROBLEMS),
                   help="sanity check against the instance sidecar")
    s.add_argument("--config", help="JSON file with solver overrides")
    s.set_defaults(func=_cmd_solve)

    r = add_parser("round", help="round a solved matrix")
    r.add_argument("--in", dest="infile", required=True,
                   help="result prefix; its sidecar's problem picks the rounding")
    r.add_argument("--instance", help="instance prefix (for cut evaluation)")
    r.add_argument("--graph", help="explicit graph .coo (for cut evaluation)")
    r.add_argument("--samples", type=int, default=200)
    r.add_argument("--k", type=int, default=2)
    r.set_defaults(func=_cmd_round)

    c = add_parser("cluster", help="signed clustering baselines, before/after")
    c.add_argument("--in", dest="infile", required=True, help="instance prefix")
    c.add_argument("--solution", help="solved result prefix (default: the raw observation)")
    c.add_argument("--algo", default="adjacency", choices=BASELINES)
    c.add_argument("--k", type=int)
    c.set_defaults(func=_cmd_cluster)

    e = add_parser("evaluate", seed=False, help="metrics for rounded outputs or bounds")
    e.add_argument("--in", dest="infile", help="rounded output JSON")
    e.add_argument("--instance", help="instance prefix")
    e.add_argument("--bound", choices=list(BOUNDS))
    e.add_argument("--n", type=int)
    e.add_argument("--p", type=float)
    e.add_argument("--delta-prob", type=float)
    e.add_argument("--sigma", type=float)
    e.add_argument("--eps", type=float)
    e.set_defaults(func=_cmd_evaluate)

    f = add_parser("fixed-point", help="empirical fixed-point radius")
    # --problem, --n and --localization default as the experiment's desk params
    f.add_argument("--problem", choices=["maxcut", "signed"])
    f.add_argument("--n", type=int)
    f.add_argument("--p", type=float)
    f.add_argument("--q", type=float)
    f.add_argument("--k", type=int)
    f.add_argument("--delta-param", type=float)
    f.add_argument("--graph-seed", type=int)
    f.add_argument("--localization", choices=LOCALIZATIONS)
    f.add_argument("--delta-prob", type=float, default=0.05)
    f.add_argument("--n-mc", type=int, default=50)
    f.add_argument("--r-grid", required=True, help="comma-separated radii")
    f.set_defaults(func=_cmd_fixed_point)

    x = add_parser("experiment", threads=True, help="run a configured sweep")
    x.set_defaults(seed=None)    # None keeps the config's seed
    x.add_argument("--config", required=True, help="experiment config JSON")
    x.add_argument("--full", action="store_true", help="paper-scale parameters")
    x.set_defaults(func=_cmd_experiment)

    gs = add_parser("gset", threads=True, help="benchmark graph utilities")
    gs.add_argument("--in", dest="infile", required=True, help="edge-list file")
    gs.add_argument("--sweep", action="store_true")
    gs.add_argument("--delta-grid", default="0.2,0.5,0.8,1.0")
    gs.add_argument("--replicates", type=int, default=5)
    gs.add_argument("--samples", type=int, default=100)
    gs.set_defaults(func=_cmd_gset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
