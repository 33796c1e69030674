#!/usr/bin/env python3
"""graphsdp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload signed_pierra --seed 1 --seconds 30 --trace 0

Runs units of the workload (see ``workloads.py``) for ``--seconds``,
re-checks the unit at the first recorded seed against the seed-state values
outside the timed loop, and prints each metric with its unit, then, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` records spans around every library
call for half the time, replays the same instances untraced, and reports
the per-layer metrics and the tracing overhead.  The full record (versions,
per-instance results, spans) is written to ``perfbench/runs/``.
``--smoke`` runs the same pipeline at tiny sizes.
"""

import os

# Pinned before numpy loads: threaded BLAS changes the last digits of BM
# objectives and makes timings depend on the other tenants of the machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# On a shared virtual machine the same solve runs up to ~40% slower for
# minutes at a time as other tenants load the host, more than a run's own
# sampling error.  Untraced runs therefore time a fixed numpy and Python
# calibration kernel after every unit and scale latencies to a machine on
# which it takes CALIBRATION_REF_S (the kernel's median on a 2-vCPU Xeon VM).
CALIBRATION_REF_S = 0.025
CALIBRATION_REPEATS = 3


def make_calibration():
    """A kernel of fixed work like the workloads': complex power iterations
    at n=200, a dense symmetric eigensolve at n=100 and an interpreter loop.
    It calls nothing in graphsdp, so a change to the library cannot move it."""
    import numpy as np

    rng = np.random.default_rng(0)
    H = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    H = H + H.conj().T
    Y0 = rng.standard_normal((200, 20)) + 0j
    S = rng.standard_normal((100, 100))
    S = S + S.T

    def kernel():
        Y = Y0
        for _ in range(60):
            Y = H @ Y
            Y /= np.linalg.norm(Y, axis=0)
        for _ in range(5):
            np.linalg.eigh(S)
        acc = 0
        for i in range(60_000):
            acc += i * i

    def timed():
        t = time.perf_counter()
        kernel()
        return time.perf_counter() - t
    return timed


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    return ap.parse_args(argv)


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f'{blas.get("name")} {blas.get("version")}'
    except (TypeError, KeyError):   # older numpy has no dict mode
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "graphsdp").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
        "machine": platform.machine(), "seed": seed, "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure_setup(name, smoke):
    """Median over fresh interpreters of: import the library and build the
    workload's fixtures."""
    code = ("import sys, time\nt = time.perf_counter()\n"
            f"sys.path[:0] = {[str(SRC), str(HERE)]!r}\n"
            "import workloads\n"
            f"workloads.make({name!r}, {smoke!r}).setup()\n"
            "print(time.perf_counter() - t)\n")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_units(wl, fixtures, seeds, seconds, tracer, workdir, reference, probe=False,
              calibration_s=None):
    """Run units on consecutive seeds until ``seconds`` pass (at least one),
    or exactly the given seeds when ``seconds`` is None.  Given a list
    ``calibration_s``, the calibration kernel's times after each unit go
    into it."""
    calibration = make_calibration() if calibration_s is not None else None
    units = []
    t0 = time.perf_counter()
    for seed in seeds:
        if seconds is not None and units and time.perf_counter() - t0 >= seconds:
            break
        t = time.perf_counter()
        try:
            units.append(wl.run_unit(seed, fixtures, tracer, workdir, reference, probe=probe))
        except Exception:   # a failing instance is recorded, never aborts the run
            units.append({"seed": seed, "instances": wl.instances_per_unit, "ok": 0,
                          "failed": wl.instances_per_unit, "latency": time.perf_counter() - t,
                          "error": traceback.format_exc()})
        if calibration is not None:
            calibration_s.extend(calibration() for _ in range(CALIBRATION_REPEATS))
    return units, time.perf_counter() - t0


def end_to_end(units, setup_s, speed):
    """Latency is the median unit, scaled by the run's ``speed`` (reference
    calibration time over the run's median calibration time).  No throughput
    is reported: a stalled BM escape (20k iterations, ~18 s for sync at
    n=200) is rare but halves the instances per second of a run that draws
    one, so no run-level throughput stays within a bound; stalls show in
    ok_frac, the instance records and the per-layer iteration counts."""
    done = [u for u in units if "error" not in u]
    attempted = sum(u["instances"] for u in units)
    nan = float("nan")
    return {
        "setup_s": setup_s,
        "instance_p50_s": speed * statistics.median(u["latency"] for u in done) if done else nan,
        "ok_frac": sum(u["ok"] for u in units) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": statistics.fmean(u["quality"] for u in done) if done else nan,
    }


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(tracer, units, traced_wall, untraced_wall):
    """Per-call means from the traced pass; 0 where the workload never calls
    the function.  ``*_computed`` counts are derived, not observed."""
    spans = tracer.durations()
    done = [u for u in units if "error" not in u]
    out = {f"{name}.s": _mean(spans.get(name, [])) for name in (
        "rounding.extract_communities", "rounding.gw_round", "rounding.extract_phases",
        "rounding.spectral_sync", "signed.spectral_cluster", "signed.bnc_cluster",
        "models.generate", "fileio.dump_matrix", "fileio.load_matrix", "metrics.score",
        "metrics.estimate_fixed_point")}
    for span, key, count, rate in (
            ("solvers.pierra_signed", "solvers.pierra_signed.{}", "sweeps", "ms_per_sweep"),
            ("solvers.bm_solve.sync", "solvers.bm_solve.{}.sync", "iters", "ms_per_iter"),
            ("solvers.bm_solve.maxcut", "solvers.bm_solve.{}.maxcut", "iters", "ms_per_iter")):
        solves = [s for u in done for s in u["solves"] if s["span"] == span]
        its = [s["iterations"] for s in solves]
        out[key.format("s")] = _mean(spans.get(span, []))
        out[key.format(count)] = _mean(its)
        out[key.format(rate)] = 1e3 * sum(spans.get(span, [])) / sum(its) if its else 0.0
        out[key.format("nonconverged")] = sum(s["termination"] != "converged" for s in solves)
    sweeps = [s["iterations"] for u in done for s in u["solves"]
              if s["span"] == "solvers.pierra_signed"]
    out["linalg.project_psd.ms_per_call"] = (
        statistics.median([m for u in done for m in u["psd_probe_ms"]]) if done else 0.0)
    # one projection per sweep, one per residual check every 10 sweeps, and
    # two after the loop (final sweep, final residuals)
    out["linalg.project_psd.calls_computed"] = _mean([k + k // 10 + 2 for k in sweeps])
    out["rounding.gw_round.samples"] = _mean([u["gw_samples"] for u in done if "gw_samples" in u])
    out["fileio.bytes"] = _mean([u["coo_bytes"] for u in done if "coo_bytes" in u])
    out["metrics.estimate_fixed_point.self_s"] = _mean(tracer.self_times("metrics.estimate_fixed_point"))
    out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    out["trace.spans"] = len(tracer.spans)
    return out


def _unit_wall(units):
    return sum(u["latency"] for u in units if "error" not in u)


def _summary(u):
    if "error" in u:
        return f"  seed {u['seed']}: ERROR {u['error'].strip().splitlines()[-1]}"
    solves = ", ".join(f"{s['span'].split('.', 1)[1]} {s['termination']} {s['iterations']} it"
                       for s in u["solves"])
    failed = [f"{r['seed']}.{k}" for r in u["instance_records"]
              for k, v in r["checks"].items() if not v]
    return (f"  seed {u['seed']}: {u['latency']:.3f} s, ok {u['ok']}/{u['instances']}"
            f"{', ' + solves if solves else ''}, quality {u['quality']:.4f}"
            f"{', FAILED ' + ','.join(failed) if failed else ''}")


def main(argv=None):
    args = parse_args(argv)
    try:
        sys.path[:0] = [str(SRC), str(HERE)]
        import spans
        import workloads
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args.seed)
    print(json.dumps({"env": env}))
    wl = workloads.make(args.workload, args.smoke)
    reference = {} if args.smoke else json.loads(
        (HERE / "reference.json").read_text())[args.workload]
    setup_s = measure_setup(args.workload, args.smoke)
    fixtures = wl.setup()

    runs_dir = HERE / "runs"
    workdir = runs_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    seeds = itertools.count(args.seed, wl.seed_stride)
    record = {"env": env, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "setup_s": setup_s}
    try:
        checked, _ = run_units(wl, fixtures, [workloads.REFERENCE_SEEDS[0]], None,
                               spans.NullTracer(), workdir, reference)
        record["reference_check"] = checked
        if args.trace:
            tracer = spans.Tracer()
            units, _ = run_units(wl, fixtures, seeds, args.seconds / 2, tracer, workdir,
                                 reference, probe=True)
            replay, _ = run_units(wl, fixtures, [u["seed"] for u in units], None,
                                  spans.NullTracer(), workdir, reference)
            units_all = checked + units + replay
            values = per_layer(tracer, units, _unit_wall(units), _unit_wall(replay))
            units_for_record = units
            record["spans"] = tracer.to_list()
            record["replay"] = replay
            metric_spec = spec["per_layer"]
        else:
            calibration_s = []
            units, wall = run_units(wl, fixtures, seeds, args.seconds, spans.NullTracer(),
                                    workdir, reference, calibration_s=calibration_s)
            units_for_record = units
            units_all = checked + units
            speed = CALIBRATION_REF_S / statistics.median(calibration_s)
            values = end_to_end(units, setup_s, speed)
            record["calibration_s"] = calibration_s
            record["speed"] = speed
            metric_spec = spec["end_to_end"]
            record["wall_s"] = wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["units"] = units_for_record
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    record["metrics"] = metrics
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (runs_dir / out_name).write_text(json.dumps(record, indent=1, default=float))

    for u in checked + units_for_record:
        print(_summary(u))
    scores = [u["scores"] for u in units_for_record if "scores" in u]
    for key in sorted({k for s in scores for k in s}):
        vals = [s[key] for s in scores if key in s]
        print(f"  median {key} = {statistics.median(vals):.6g} over {len(vals)}")
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(f"record: {runs_dir / out_name}")
    failed = sum(u["failed"] for u in units_all)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(u["instances"] for u in units_all),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
