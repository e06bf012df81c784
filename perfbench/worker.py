"""One workload in one fresh process: timed passes, or a traced run.

Usage (normally started by run.py, which sets PYTHONPATH and BLAS threads):

  python3 perfbench/worker.py --workload incline --seed 1 --seconds 30 \
      --trace 0 --scale full --inputs DIR

The worker changes into DIR (the cached inputs of this workload and seed),
drives the public CLI entry `inclined.cli.main(argv)` in-process, checks every
output, and prints one JSON object as its last stdout line.  Output files go
to DIR/out; every pass rewrites them with the same argv, so their bytes must
repeat.

Timed run (--trace 0): passes repeat until the next one would end after
--seconds, with at least two passes so that every command is rerun.  A
calibration runs between commands, and the bounded timings are reported in
reference seconds (see timed_run).
Traced run (--trace 1): one untimed warm-up pass, then pairs of an untraced
and a traced pass; per-layer metrics come from the traced passes, and the
tracing overhead is the traced minus the untraced pass time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from spans import CLI_LAYER, ModuleProxy, Tracer

ROOT = Path(__file__).resolve().parent.parent

INTERSECT_TOL = 1e-10
MATCH_TOL = 1e-10
RHO = 0.9
SUPPRESSION_BOUND = (1.0 + RHO) / 2.0
MIN_PASSES = 2


@dataclass
class Op:
    label: str
    kind: str  # "certify", "verify" or "query"
    argv: list[str] | None  # CLI arguments; None runs `call` instead
    expect_rc: int
    outputs: tuple[str, ...]
    check: Callable[[str, dict[str, bytes]], list[str]]
    call: Callable[[], tuple[int, str]] | None = None

    @property
    def key(self) -> str:
        return self.label + "|" + " ".join(self.argv or [])


# ------------------------------------------------------------ workloads

def _unit_rows(vectors_obj) -> np.ndarray:
    rows = np.array([[complex(re, im) for re, im in v["entries"]] for v in vectors_obj])
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _worst_inner(rows: np.ndarray, candidate_obj) -> float:
    v = np.array([complex(re, im) for re, im in candidate_obj["entries"]])
    return float(np.abs(rows.conj() @ v).max())


def incline_ops(scale: inputs.Scale, seed: int, info: dict, state: dict) -> list[Op]:
    import inclined.search as search
    import inclined.serialize as serialize

    rows = _unit_rows(json.loads(Path("vectors.json").read_text()))
    reachable, frontier = scale.reachable_bound, scale.frontier_bound

    def check_certificate(stdout, files):
        cert = json.loads(files["out/certificate.json"])["certificate"]
        errors = []
        if cert["status"] != "ok" or cert["achieved"] > reachable:
            errors.append(f"certificate status {cert['status']} achieved {cert['achieved']}")
        if abs(_worst_inner(rows, cert["candidate"]) - cert["achieved"]) > MATCH_TOL:
            errors.append("certificate achieved value does not match its candidate")
        return errors

    def reverify() -> tuple[int, str]:
        obj = serialize.read_json("out/certificate.json")
        cert = serialize.inclination_from_obj(obj["certificate"])
        vectors = serialize.vectors_from_obj(serialize.read_json("vectors.json"))
        try:
            achieved = search.verify_inclination(cert, vectors)
        except ValueError as exc:
            return 1, str(exc)
        return 0, repr(float(achieved))

    def check_reverify(stdout, files):
        achieved = float(stdout)
        return [] if achieved <= reachable else [f"re-verified value {achieved} above {reachable}"]

    def check_frontier(stdout, files):
        cert = json.loads(files["out/frontier.json"])["certificate"]
        errors = []
        if cert["status"] != "failed" or cert["iterations_used"] != scale.frontier_budget:
            errors.append(f"frontier run used {cert['iterations_used']} of {scale.frontier_budget} "
                          f"evaluations with status {cert['status']}")
        if cert["achieved"] < info["floor"] - MATCH_TOL:
            errors.append(f"frontier value {cert['achieved']} below the provable floor {info['floor']}")
        if abs(_worst_inner(rows, cert["candidate"]) - cert["achieved"]) > MATCH_TOL:
            errors.append("frontier achieved value does not match its candidate")
        state["bound_reached"] = cert["achieved"]
        return errors

    s = str(seed)
    return [
        Op("incline", "certify",
           ["incline", "vectors.json", "--bound", str(reachable), "--seed", s,
            "--out", "out/certificate.json"], 0, ("out/certificate.json",), check_certificate),
        Op("incline verify", "verify", None, 0, (), check_reverify, call=reverify),
        Op("frontier", "query",
           ["incline", "vectors.json", "--bound", str(frontier), "--budget",
            str(scale.frontier_budget), "--seed", s, "--out", "out/frontier.json"],
           1, ("out/frontier.json",), check_frontier),
    ]


def family_ops(branches, build_args, verify_args, n_members, regime, state) -> list[Op]:
    """Build and verify each branch, then intersect every pair and triple."""
    built: dict[str, float] = {}
    state["bound_reached"] = 0.0

    def check_build(branch):
        def check(stdout, files):
            cert = json.loads(files[f"out/family_{branch}.json"])["certificate"]
            errors = []
            if cert["regime"] != regime or len(cert["diagonals"]) != n_members:
                errors.append(f"certificate has regime {cert['regime']} and "
                              f"{len(cert['diagonals'])} of {n_members} diagonals")
            if max(cert["diagonals"]) != cert["max_diagonal"] or cert["max_diagonal"] > SUPPRESSION_BOUND:
                errors.append(f"max diagonal {cert['max_diagonal']} above {SUPPRESSION_BOUND}")
            built[branch] = cert["max_diagonal"]
            state["bound_reached"] = max(built.values())
            return errors
        return check

    def check_verify(branch):
        def check(stdout, files):
            result = json.loads(stdout)
            if not result.get("ok") or abs(result["max_diagonal"] - built.get(branch, -1.0)) > MATCH_TOL:
                return [f"verify of {branch} gave {result}"]
            return []
        return check

    def check_intersect(group, name):
        def check(stdout, files):
            out = json.loads(files[name])
            errors = []
            expected_level = next(m for m in range(1, len(group[0]) + 1)
                                  if len({b[:m] for b in group}) == len(group))
            if out["branches"] != list(group) or out["separating_level"] != expected_level:
                errors.append(f"intersection of {group} at level {out['separating_level']}")
            if out["max_residual"] > INTERSECT_TOL:
                errors.append(f"intersection residual {out['max_residual']} above {INTERSECT_TOL}")
            vec = np.array(out["vector"]["entries"])
            if abs(np.linalg.norm(vec) - 1.0) > MATCH_TOL:
                errors.append("intersection vector is not a unit vector")
            return errors
        return check

    ops = []
    for b in branches:
        path = f"out/family_{b}.json"
        ops.append(Op(f"build {b}", "certify",
                      ["family", "build", "--branch", b, *build_args, "--out", path],
                      0, (path,), check_build(b)))
    for b in branches:
        ops.append(Op(f"verify {b}", "verify",
                      ["family", "verify", f"out/family_{b}.json", *verify_args],
                      0, (), check_verify(b)))
    for size in (2, 3):
        for group in combinations(branches, size):
            name = f"out/intersect_{'_'.join(group)}.json"
            ops.append(Op(f"intersect {' '.join(group)}", "query",
                          ["family", "intersect", *[f"out/family_{b}.json" for b in group],
                           "--out", name], 0, (name,), check_intersect(group, name)))
    return ops


def make_ops(workload: str, scale: inputs.Scale, seed: int, info: dict, state: dict) -> list[Op]:
    if workload == "incline":
        return incline_ops(scale, seed, info, state)
    if workload == "family_toy":
        return family_ops(scale.toy_branches,
                          ["--stage", "stage.json", "--basis", "random", "--rho", str(RHO),
                           "--seed", str(seed)],
                          [], info["dim"], "toy", state)
    return family_ops(("0", "1"),
                      ["--stage", "stage.json", "--basis", "basis.json", "--rho", str(RHO),
                       "--seed", str(seed)],
                      ["--basis", "basis.json"], scale.paper_members, "paper", state)


# ------------------------------------------------------------- running

class Runner:
    def __init__(self, ops: list[Op], expected: dict[str, str]):
        self.ops = ops
        self.expected = expected  # output digests of earlier runs of this program and seed
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None
        self.traced_ops: list[dict] = []

    def _invoke(self, op: Op) -> tuple[int | None, str, str]:
        import inclined.cli as cli

        if op.call is not None:
            return (*op.call(), "")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op.argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue(), err.getvalue()

    def run_op(self, op: Op, run_id: str) -> float:
        self.attempted += 1
        errors: list[str] = []
        root = None
        if self.tracer is not None:
            self.tracer.run_id = run_id
            root = self.tracer.open(op.label, CLI_LAYER)
        t0 = time.perf_counter()
        try:
            rc, stdout, stderr = self._invoke(op)
        except Exception:  # an uncaught error breaks the exit-code contract
            rc, stdout, stderr = None, "", traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if root is not None:
            self.tracer.close(root)
            times, counts = self.tracer.buckets(root)
            self.traced_ops.append({"run_id": run_id, "op": op.label, "wall_s": elapsed,
                                    "self_s": times, "counts": counts})
        if rc != op.expect_rc:
            errors.append(f"exit code {rc}, expected {op.expect_rc}: {stderr.strip()[-500:]}")
        else:
            errors += self._check(op, stdout)
        if errors:
            self.failures.append(f"{run_id} {op.label}: {'; '.join(errors)}")
        return elapsed

    def _check(self, op: Op, stdout: str) -> list[str]:
        files = {}
        for name in op.outputs:
            try:
                files[name] = Path(name).read_bytes()
            except OSError as exc:
                return [f"missing output {name}: {exc}"]
        try:
            errors = op.check(stdout, files)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        digest = hashlib.sha256(stdout.encode())
        for name in op.outputs:
            digest.update(hashlib.sha256(files[name]).digest())
        digest = digest.hexdigest()
        first = self.reference.setdefault(op.key, digest)
        if digest != first:
            errors.append("output bytes differ from the first pass with the same seed")
        elif op.key in self.expected and self.expected[op.key] != digest:
            errors.append("output bytes differ from an earlier run of this program with the same seed")
        return errors

    def run_pass(self, tag: str) -> list[float]:
        """Seconds taken by each op, in order."""
        return [self.run_op(op, f"{tag}.op{i}") for i, op in enumerate(self.ops)]


def _median(values):
    return statistics.median(values) if values else 0.0


def timed_run(runner: Runner, seconds: float, certs_per_pass: int) -> dict:
    """Whole passes while the next one fits in `seconds` (at least two).

    A calibration runs between consecutive ops.  Each op's time is also
    given in reference seconds: its seconds times REF_S over the mean of the
    calibrations just before and just after it, which takes out most of the
    slowdowns that other tenants of a shared machine cause."""
    ops = runner.ops
    durations: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    calibrations = [calibration()]

    pass_times, pass_scaled = [], []
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            durations[i].append(runner.run_op(op, f"p{len(pass_times)}.op{i}"))
            calibrations.append(calibration())
            speed = (calibrations[-2] + calibrations[-1]) / 2 / REF_S
            scaled[i].append(durations[i][-1] / speed)
        pass_times.append(sum(d[-1] for d in durations))
        pass_scaled.append(sum(d[-1] for d in scaled))
        elapsed = time.perf_counter() - start
        if len(pass_times) >= MIN_PASSES and elapsed + statistics.mean(pass_times) > seconds:
            break

    def by_kind(columns):
        out: dict[str, list[float]] = {}
        for op, column in zip(ops, columns):
            out.setdefault(op.kind, []).extend(column)
        return out

    return {
        "passes": len(pass_times),
        "pass_s": pass_times,
        "samples_s": by_kind(durations),
        "samples_ref_s": by_kind(scaled),
        "calibration_s": calibrations,
        "certs_per_s": _median([certs_per_pass / t for t in pass_times]),
        "certs_per_ref_s": _median([certs_per_pass / t for t in pass_scaled]),
    }


# The calibration: a fixed mix of the work the program spends its time on
# (float formatting and parsing in JSON, hashing, a small matrix product).
# It builds no container objects, so it never triggers the garbage collector.
_rng = np.random.default_rng(0)
_CAL_PAIRS = _rng.standard_normal((12000, 2)).tolist()
_CAL_TEXT = json.dumps(_rng.standard_normal(24000).tolist())
_CAL_MAT = _rng.standard_normal((160, 160))
REF_S = 0.03  # the calibration's time on an idle 2-core Xeon VM (see README.md)


def calibration() -> float:
    t0 = time.perf_counter()
    text = json.dumps(_CAL_PAIRS)
    hashlib.sha256(text.encode()).digest()
    json.loads(_CAL_TEXT)
    _CAL_MAT @ _CAL_MAT
    return time.perf_counter() - t0


LAYER_METRICS = (
    "cli.other", "serialize.read", "serialize.digest", "serialize.write", "hilbert.basis",
    "family.gram", "family.build_self", "family.verify_self", "family.masses",
    "tensor_index.blocks", "family.intersect", "tensor_projection.apply",
    "search.search", "search.recompute",
)


def layer_metrics(traced_ops: list[dict]) -> dict[str, float]:
    times: dict[str, float] = {}
    counts: dict[str, float] = {}
    for op in traced_ops:
        for k, v in op["self_s"].items():
            times[k] = times.get(k, 0.0) + v
        for k, v in op["counts"].items():
            counts[k] = counts.get(k, 0) + v
    out = {f"{layer}_s": times.get(layer, 0.0) for layer in LAYER_METRICS}
    out["serialize.digests"] = counts.get("digests", 0)
    out["serialize.hashed_mb"] = counts.get("hashed_bytes", 0) / 1e6
    out["family.leaked"] = counts.get("leaked", 0)
    out["search.evals"] = counts.get("evals", 0)
    out["search.rows"] = counts.get("rows", 0)
    search_s = times.get("search.search", 0.0)
    out["search.evals_per_s"] = counts.get("evals", 0) / search_s if search_s > 0 else 0.0
    return out


def traced_run(runner: Runner, seconds: float) -> dict:
    runner.run_pass("warmup")
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(sum(runner.run_pass(f"u{len(untraced)}")))
        runner.tracer = Tracer()
        install_wrappers(runner.tracer)
        runner.traced_ops = []
        try:
            traced.append(sum(runner.run_pass(f"t{len(traced)}")))
        finally:
            runner.tracer.uninstall()
        per_pass.append(layer_metrics(runner.traced_ops))
        spans = [s.as_dict() for s in runner.tracer.spans]
        ops = runner.traced_ops
        runner.tracer = None
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(untraced) + statistics.mean(traced) > seconds:
            break
    metrics = {k: _median([p[k] for p in per_pass]) for k in per_pass[0]}
    metrics["trace.overhead_s"] = _median(traced) - _median(untraced)
    return {"metrics": metrics, "untraced_s": untraced, "traced_s": traced,
            "ops": ops, "spans": spans}


# ------------------------------------------------------------- tracing

def _bound(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


def install_wrappers(tracer: Tracer) -> None:
    import inclined.cli as cli
    import inclined.family as family
    import inclined.tensor_index as tensor_index

    bind_build = _bound(family.build_branch_projection)
    bind_verify = _bound(family.verify_suppression)

    def probe_blocks(stage, basis, branch, member_sets):
        mat = np.asarray(basis)
        span = tracer.open("probe.blocks_matrix", "tensor_index.blocks", probe=True)
        try:
            for lv, members in zip(stage.levels, member_sets):
                space, sl, sigma = lv.space, stage.level_slice(lv.m), branch[:lv.m]
                for k in members:
                    tensor_index.blocks_matrix(space, mat[k, sl], sigma)
        finally:
            tracer.close(span)

    def after_build(tracer, args, kwargs):
        a = bind_build(args, kwargs)
        stage, basis = a["stage"], a["basis"]
        span = tracer.open("probe.level_leakage_sets", "family.masses", probe=True)
        try:
            leaked = family.level_leakage_sets(stage, basis)
        finally:
            tracer.close(span)
        span.counts["leaked"] = sum(len(s) for s in leaked)
        everyone = range(len(basis))
        # build_branch_projection extracts blocks of the leaked members for the search
        # and of every member for the diagonals.
        probe_blocks(stage, basis, a["branch"],
                     [list(s) + list(everyone) for s in leaked])

    def after_verify(tracer, args, kwargs):
        a = bind_verify(args, kwargs)
        spec = a["spec"]
        everyone = range(len(a["basis"]))
        probe_blocks(spec.stage, a["basis"], spec.branch, [everyone] * spec.stage.depth)

    def hashed(args, result):
        return {"digests": 1, "hashed_bytes": len(args[0])}  # canonical JSON is ASCII

    def searched(args, result):
        return {"rows": int(args[0].shape[0]), "evals": int(result[2])}

    read, digest, write = "serialize.read", "serialize.digest", "serialize.write"
    cli_only = ("inclined.cli",)
    tracer.install([
        {"home": "inclined.serialize", "name": "read_json", "layer": read},
        {"home": "inclined.serialize", "name": "vectors_from_obj", "layer": read},
        {"home": "inclined.serialize", "name": "inclination_from_obj", "layer": read},
        {"home": "inclined.serialize", "name": "branch_spec_from_obj", "layer": read},
        {"home": "inclined.serialize", "name": "digest_vectors", "layer": digest},
        {"home": "inclined.serialize", "name": "sha256_hex", "layer": digest, "count": hashed},
        {"home": "inclined.serialize", "name": "vectors_to_obj", "layer": digest},
        # In the CLI, a list is only encoded to digest a vector family; dicts
        # are encoded for output.
        {"home": "inclined.serialize", "name": "canonical_json", "only": cli_only,
         "layer": lambda args: digest if isinstance(args[0], list) else write},
        {"home": "inclined.serialize", "name": "write_json", "layer": write},
        {"home": "inclined.serialize", "name": "vector_to_obj", "only": cli_only, "layer": write},
        {"home": "inclined.serialize", "name": "branch_spec_to_obj", "layer": write},
        {"home": "inclined.serialize", "name": "suppression_to_obj", "layer": write},
        {"home": "inclined.serialize", "name": "inclination_to_obj", "layer": write},
        {"home": "inclined.hilbert", "name": "random_orthonormal_basis", "layer": "hilbert.basis"},
        {"home": "inclined.family", "name": "basis_matrix", "layer": "family.gram"},
        {"home": "inclined.family", "name": "build_branch_projection", "layer": "family.build_self",
         "after": after_build},
        {"home": "inclined.family", "name": "verify_suppression", "layer": "family.verify_self",
         "after": after_verify},
        {"home": "inclined.family", "name": "branch_intersection", "layer": "family.intersect"},
        {"home": "inclined.tensor_projection", "name": "apply_axis", "layer": "tensor_projection.apply"},
        {"home": "inclined.search", "name": "minimize_max_group_norm", "layer": "search.search",
         "count": searched},
        {"home": "inclined.search", "name": "recompute_achieved", "layer": "search.recompute"},
    ])
    loads = tracer.wrap("cli.json.loads", json.loads, read)
    tracer.patch(cli, "json", ModuleProxy(json, loads=loads))


# ---------------------------------------------------------- environment

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),  # set by run.py
        "nproc": os.cpu_count(),
    }


def program_digest() -> str:
    """sha256 over the program's source files.  Outputs pinned by one version
    of the program are only ever held against that same version."""
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


# ----------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(inputs.SCALES), default="full")
    parser.add_argument("--inputs", type=Path, required=True)
    args = parser.parse_args(argv)

    import inclined.cli

    src = (ROOT / "src").resolve()
    if src not in Path(inclined.cli.__file__).resolve().parents:
        print(f"error: inclined was imported from {inclined.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    os.chdir(args.inputs)
    Path("out").mkdir(exist_ok=True)
    scale = inputs.SCALES[args.scale]
    info = json.loads(Path("inputs.json").read_text())
    state: dict = {}
    ops = make_ops(args.workload, scale, args.seed, info, state)
    expected_path = Path(f"expected-{program_digest()[:16]}.json")
    expected = json.loads(expected_path.read_text()) if expected_path.is_file() else {}
    runner = Runner(ops, expected)

    result: dict = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
                    "env": environment()}
    if args.trace:
        traced = traced_run(runner, args.seconds)
        result["metrics"] = traced.pop("metrics")
        Path("spans.json").write_text(json.dumps(traced.pop("spans")))
        result["trace"] = traced
    else:
        timed = timed_run(runner, args.seconds, sum(op.kind == "certify" for op in ops))
        result["timed"] = timed
        scaled = timed["samples_ref_s"]
        result["metrics"] = {
            "certify_s": _median(scaled["certify"]),
            "verify_s": _median(scaled["verify"]),
            "query_s": _median(scaled["query"]),
            "certs_per_s": timed["certs_per_ref_s"],
            "bound_reached": state["bound_reached"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["seconds"] = {kind: _median(v) for kind, v in timed["samples_s"].items()}
        result["seconds"]["certs_per_s"] = timed["certs_per_s"]
    result["attempted"] = runner.attempted
    result["failed_ops"] = runner.failures
    if not runner.failures:
        expected_path.write_text(json.dumps({**runner.reference, **expected}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
