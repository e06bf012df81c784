"""Benchmark of the `inclined` certificate CLI: three seeded workloads.

  python3 perfbench/run.py --workload incline --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout.  For each workload the script
generates (or reuses) the seeded inputs, times fresh interpreters importing
`inclined.cli` in turn with ones importing numpy alone (setup_s), and then
starts worker.py in one fresh child
process that drives the CLI in-process and checks every output.  Children run
one at a time, with BLAS threads capped at the number of processors.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  The line before it holds the
details: the environment, the per-command timings under the names used in
README.md, and any failed checks.  `--workload all` runs every workload and
prints a table of those named metrics.

The script exits with status 2, printing no result, when the checkout has no
program to measure or the inputs break a stated limit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 175.0
# A fresh interpreter importing numpy alone, on an idle 2-core Xeon VM (see README.md).
REF_IMPORT_S = 0.15

END_TO_END_UNITS = {
    "setup_s": "s", "certify_s": "ref_s", "verify_s": "ref_s", "query_s": "ref_s",
    "certs_per_s": "1/ref_s", "peak_rss_mb": "MiB", "bound_reached": "ratio",
}
PER_LAYER_UNITS = {
    "serialize.digests": "count", "serialize.hashed_mb": "MB", "family.leaked": "count",
    "search.evals": "count", "search.rows": "count", "search.evals_per_s": "1/s",
}

# The command timings in plain seconds, under the names of the commands.
NAMED = {
    "incline": {"incline_s": "certify", "incline_verify_s": "verify", "frontier_s": "query"},
    "family": {"build_s": "certify", "verify_s": "verify", "intersect_s": "query"},
}


def child_env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = dict(os.environ)
    threads = min(nproc, int(env.get("OPENBLAS_NUM_THREADS") or nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env, nproc


def time_import(env: dict, module: str = "inclined.cli") -> float:
    """Seconds from starting a fresh interpreter until `import <module>`
    has finished, as seen through the child's first line of output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", f"import {module}; print('ok', flush=True)"],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ok" or proc.returncode != 0:
        raise RuntimeError(f"a fresh interpreter could not import {module}")
    return elapsed


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(workload: str, args, env: dict, deadline: float) -> dict:
    scale = inputs.SCALES[args.scale]
    input_dir = inputs.ensure_inputs(args.workdir, workload, args.scale, args.seed)
    setup = []
    if not args.trace:
        time_import(env)  # compiles the bytecode cache, which users pay once
        numpy_only = []
        for _ in range(scale.setup_repeats):
            setup.append(time_import(env))
            numpy_only.append(time_import(env, "numpy"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--inputs", str(input_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    if setup:
        # Scaled by the numpy-only imports timed in turn with it, which slow
        # down together with it when other tenants load the machine.
        result["metrics"]["setup_s"] = (REF_IMPORT_S * statistics.median(setup)
                                        / statistics.median(numpy_only))
        result["seconds"]["setup_s"] = statistics.median(setup)
        result["setup_samples_s"] = setup
        result["setup_numpy_s"] = numpy_only
    return result


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or PER_LAYER_UNITS.get(name, "s")


def with_units(metrics: dict) -> dict:
    return {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}


def named_metrics(workload: str, result: dict) -> dict:
    m, seconds = result["metrics"], result["seconds"]
    regime = "incline" if workload == "incline" else "family"
    named = {name: {"value": seconds[kind], "unit": "s"} for name, kind in NAMED[regime].items()}
    best = "incline_best" if workload == "incline" else "max_diagonal"
    named[best] = {"value": m["bound_reached"], "unit": "ratio"}
    named["setup_s"] = {"value": seconds["setup_s"], "unit": "s"}
    named["certs_per_s"] = {"value": seconds["certs_per_s"], "unit": "1/s"}
    named["peak_rss_mb"] = {"value": m["peak_rss_mb"], "unit": "MiB"}
    named["failed_share"] = {"value": len(result["failed_ops"]) / result["attempted"], "unit": "ratio"}
    return named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the inclined certificate CLI.")
    parser.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(inputs.SCALES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench_work",
                        help="cache of generated inputs and outputs")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "inclined" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'inclined'} is missing",
              file=sys.stderr)
        return 2
    args.workdir = args.workdir.resolve()
    env, nproc = child_env()
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    limit = RUN_LIMIT_S if args.workload != "all" else RUN_LIMIT_S * len(workloads)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args, env, started + limit)
    except inputs.InputRefused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failed_ops"]) for r in results.values())
    for workload, result in results.items():
        result["env"].update(nproc=nproc, git_commit=git_commit())
        if not args.trace:
            result["named"] = named_metrics(workload, result)
        out = args.workdir / "results" / f"{workload}-{args.scale}-s{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1))
        print(json.dumps({k: v for k, v in result.items() if k not in ("trace",)}))
        for line in result["failed_ops"]:
            print(f"failed: {line}", file=sys.stderr)

    if args.workload == "all":
        for workload, result in results.items():
            table = result.get("named") or with_units(result["metrics"])
            print(f"\n{workload}:")
            for name, m in table.items():
                print(f"  {name:24s} {m['value']:14.6g} {m['unit']}")
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in with_units(r["metrics"]).items()}
    else:
        metrics = with_units(results[args.workload]["metrics"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
