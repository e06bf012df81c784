"""Command-line front end emitting reproducible JSON certificates.

Commands: parameter queries (params), inclined-vector search (incline),
covering-witness experiments (cover), projection-family build / verify /
intersect (family ...), and an end-to-end demo.

Exit codes distinguish outcomes:
  0  success
  1  verified negative / failed bound (a definite answer at this budget)
  2  input or usage error, including a file that cannot be read or written
  3  family build or demo ran out of search budget (build names the level)

Every output file embeds a manifest (command, argument vector, root seed,
artifact version, input digests) and is written as canonical JSON, so
rerunning with identical inputs and seed reproduces each file byte for
byte.  Wall-clock durations are reported on stderr only; putting them into
the files would break that reproducibility.
"""

from __future__ import annotations

import argparse
import decimal
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .family import (
    SuppressionFailure,
    apply_branch_projection,
    branch_intersection,
    build_branch_projection,
    min_level_dimension,
    predicate_sides,
    separating_level,
    toy_stage,
    verify_suppression,
    MIN_PAPER_ALPHABET,
)
from .hilbert import random_orthonormal_basis
from .search import BudgetExhausted, cover_witness, find_inclined_vector
from .serialize import (
    branch_spec_from_obj,
    branch_spec_to_obj,
    derive_seed,
    digest_vectors,
    inclination_to_obj,
    read_json,
    read_vectors,
    sha256_hex,
    stage_from_obj,
    suppression_to_obj,
    vector_to_obj,
    write_json,
    canonical_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

DEFAULT_SUPPRESSION_BOUND = 19.0 / 20.0


def _manifest(command: str, argv: list[str], root_seed: int | None,
              input_digests: dict[str, str]) -> dict:
    return {
        "command": command,
        "argv": list(argv),
        "root_seed": root_seed,
        "version": __version__,
        "input_digests": input_digests,
    }


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _positive_finite_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _open_unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def _load_vectors(path: str) -> tuple[np.ndarray, str]:
    vectors = read_vectors(path)
    return vectors, digest_vectors(vectors)


def _digits(n: int) -> str:
    # str(int) refuses more than 4300 digits (sys.set_int_max_str_digits);
    # Decimal gives the same digits without that limit.
    return str(decimal.Decimal(n))


def cmd_params(args, argv) -> int:
    t0 = time.perf_counter()
    d_min = min_level_dimension(args.m)
    trace: dict = {"first_success": None, "last_fail": None}
    lhs, rhs = predicate_sides(args.m, d_min)
    trace["first_success"] = {"d": d_min, "lhs": _digits(lhs), "rhs": _digits(rhs)}
    if d_min > MIN_PAPER_ALPHABET:
        lhs, rhs = predicate_sides(args.m, d_min - 1)
        trace["last_fail"] = {"d": d_min - 1, "lhs": _digits(lhs), "rhs": _digits(rhs)}
    out = {
        "manifest": _manifest("params", argv, None, {}),
        "m": args.m,
        "d_min": d_min,
        "min_alphabet": MIN_PAPER_ALPHABET,
        "trace": trace,
    }
    if args.out:
        write_json(args.out, out)
    print(canonical_json(out))
    print(f"[inclined] params finished in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_incline(args, argv) -> int:
    try:
        vectors, digest = _load_vectors(args.input)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read vectors from {args.input}: {exc}", EXIT_INPUT)
    t0 = time.perf_counter()
    manifest = _manifest("incline", argv, args.seed, {"input": digest})
    try:
        cert = find_inclined_vector(vectors, args.bound, args.budget, args.seed,
                                    family_digest=digest)
    except BudgetExhausted as exc:
        payload = {
            "manifest": manifest,
            "certificate": {
                "d": int(exc.best_candidate.size),
                "family_digest": digest,
                "candidate": vector_to_obj(exc.best_candidate),
                "achieved": float(exc.best_achieved),
                "bound": float(args.bound),
                "seed": args.seed,
                "iterations_used": int(exc.iterations_used),
                "status": "failed",
            },
        }
        if args.out:
            write_json(args.out, payload)
        print(canonical_json(payload))
        print(f"[inclined] incline failed the bound in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
        return EXIT_NEGATIVE
    payload = {"manifest": manifest, "certificate": {**inclination_to_obj(cert), "status": "ok"}}
    if args.out:
        write_json(args.out, payload)
    print(canonical_json(payload))
    print(f"[inclined] incline succeeded in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_cover(args, argv) -> int:
    try:
        points, digest = _load_vectors(args.input)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read points from {args.input}: {exc}", EXIT_INPUT)
    t0 = time.perf_counter()
    witness = cover_witness(points, args.radius, args.trials, args.seed)
    payload = {
        "manifest": _manifest("cover", argv, args.seed, {"input": digest}),
        "radius": args.radius,
        "trials": args.trials,
        "witness": None if witness is None else vector_to_obj(witness.astype(np.complex128)),
        "status": "witness" if witness is not None else "none-found-in-budget",
    }
    if args.out:
        write_json(args.out, payload)
    print(canonical_json(payload))
    print(f"[inclined] cover finished in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return EXIT_OK if witness is not None else EXIT_NEGATIVE


def _resolve_basis(args, stage, root_seed: int):
    """Returns (matrix, basis_record, digest) for --basis FILE|random."""
    if args.basis == "random":
        basis_seed = derive_seed(root_seed, "basis")
        basis = random_orthonormal_basis(stage.dim, basis_seed)
        record = {"kind": "random", "seed": basis_seed, "n": stage.dim}
        return basis, record, digest_vectors(basis)
    basis, digest = _load_vectors(args.basis)
    return basis, {"kind": "file", "digest": digest}, digest


def cmd_family_build(args, argv) -> int:
    try:
        stage = stage_from_obj(read_json(args.stage))
        basis, basis_record, basis_digest = _resolve_basis(args, stage, args.seed)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    c = float(np.sqrt(args.rho))
    t0 = time.perf_counter()
    try:
        spec, cert = build_branch_projection(
            stage, basis, args.branch, c, args.budget, args.seed, basis_digest=basis_digest)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except BudgetExhausted as exc:
        print(f"error: budget exhausted at level {exc.level}: best achieved "
              f"{exc.best_achieved:.6g}", file=sys.stderr)
        return EXIT_BUDGET
    payload = {
        "manifest": _manifest("family build", argv, args.seed, {"basis": basis_digest}),
        **branch_spec_to_obj(spec),
        "basis": basis_record,
        "rho": args.rho,
        "certificate": suppression_to_obj(cert),
    }
    write_json(args.out, payload)
    print(canonical_json({"out": str(args.out), "max_diagonal": cert.max_diagonal, "bound": cert.bound}))
    print(f"[inclined] family build finished in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return EXIT_OK


def _load_family(path: str):
    obj = read_json(path)
    spec = branch_spec_from_obj(obj)
    return obj, spec


def cmd_family_verify(args, argv) -> int:
    try:
        obj, spec = _load_family(args.family)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read family file: {exc}", EXIT_INPUT)
    basis_record = obj.get("basis", {})
    try:
        if basis_record.get("kind") == "random":
            basis = random_orthonormal_basis(int(basis_record["n"]), int(basis_record["seed"]))
            basis_digest = digest_vectors(basis)
        elif args.basis is not None:
            basis, basis_digest = _load_vectors(args.basis)
        else:
            return _fail("family was built from a basis file; pass it with --basis", EXIT_INPUT)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    stored = obj.get("certificate", {})
    if stored.get("basis_digest") != basis_digest:
        return _fail("basis digest mismatch: supplied basis is not the certified one", EXIT_INPUT)
    t0 = time.perf_counter()
    try:
        cert = verify_suppression(spec, basis, args.bound, basis_digest=basis_digest)
    except SuppressionFailure as exc:
        print(canonical_json({"ok": False, "max_diagonal": exc.max_diagonal, "bound": exc.bound}))
        print(f"[inclined] family verify failed in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
        return EXIT_NEGATIVE
    # The stored diagonals must match the recomputation; tampering with the
    # directions or the recorded values shows up here.
    recorded = np.asarray(stored.get("diagonals", []), dtype=float)
    if recorded.size != len(cert.diagonals) or np.abs(recorded - np.asarray(cert.diagonals)).max() > 1e-10:
        print(canonical_json({"ok": False, "reason": "certificate mismatch"}))
        return EXIT_NEGATIVE
    print(canonical_json({"ok": True, "max_diagonal": cert.max_diagonal, "bound": args.bound}))
    print(f"[inclined] family verify finished in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_family_intersect(args, argv) -> int:
    if len(args.families) < 2:
        return _fail("need at least two family files", EXIT_INPUT)
    specs = []
    digests = {}
    try:
        for path in args.families:
            _, spec = _load_family(path)
            specs.append(spec)
            digests[path] = sha256_hex(Path(path).read_bytes())
        vec = branch_intersection(specs)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    residuals = {
        s.branch: float(np.linalg.norm(apply_branch_projection(s, vec) - vec)) for s in specs
    }
    payload = {
        "manifest": _manifest("family intersect", argv, None, digests),
        "branches": [s.branch for s in specs],
        "separating_level": separating_level([s.branch for s in specs]),
        "vector": vector_to_obj(vec),
        "residuals": residuals,
        "max_residual": max(residuals.values()),
    }
    if args.out:
        write_json(args.out, payload)
    print(canonical_json({"branches": payload["branches"],
                          "separating_level": payload["separating_level"],
                          "max_residual": payload["max_residual"]}))
    return EXIT_OK


def cmd_demo(args, argv) -> int:
    """End-to-end chain: inclined search, family build over a toy stage,
    and all pairwise/triple intersections, all derived from one root seed."""
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    root = args.seed
    t0 = time.perf_counter()
    written: dict[str, str] = {}

    # Inclined search at full dimension: 1000 directions in C^128.
    fam_rng = np.random.default_rng(derive_seed(root, "demo", "incline", "vectors"))
    z = fam_rng.standard_normal((1000, 128)) + 1j * fam_rng.standard_normal((1000, 128))
    vectors = z / np.linalg.norm(z, axis=1, keepdims=True)
    search_seed = derive_seed(root, "demo", "incline", "search")
    cert = find_inclined_vector(vectors, 0.9, 10_000, search_seed)
    incline_payload = {
        "manifest": _manifest("demo", argv, root, {}),
        "certificate": {**inclination_to_obj(cert), "status": "ok"},
    }
    path = outdir / "incline_certificate.json"
    write_json(path, incline_payload)
    written[path.name] = sha256_hex(path.read_bytes())

    # Toy stage, shared random basis, all eight depth-3 branches.
    stage = toy_stage([4, 4, 2])
    basis_seed = derive_seed(root, "demo", "basis")
    basis = random_orthonormal_basis(stage.dim, basis_seed)
    basis_digest = digest_vectors(basis)
    build_seed = derive_seed(root, "demo", "family")
    rho = 0.9
    c = float(np.sqrt(rho))
    specs = []
    for bits in itertools.product("01", repeat=stage.depth):
        branch = "".join(bits)
        spec, scert = build_branch_projection(
            stage, basis, branch, c, 10_000, build_seed, basis_digest=basis_digest)
        specs.append(spec)
        payload = {
            "manifest": _manifest("demo", argv, root, {"basis": basis_digest}),
            **branch_spec_to_obj(spec),
            "basis": {"kind": "random", "seed": basis_seed, "n": stage.dim},
            "rho": rho,
            "certificate": suppression_to_obj(scert),
        }
        path = outdir / f"family_{branch}.json"
        write_json(path, payload)
        written[path.name] = sha256_hex(path.read_bytes())

    # Common fixed vectors for every pair and triple of branches.
    entries = []
    for size in (2, 3):
        for combo in itertools.combinations(specs, size):
            vec = branch_intersection(combo)
            residual = max(
                float(np.linalg.norm(apply_branch_projection(s, vec) - vec)) for s in combo)
            entries.append({
                "branches": [s.branch for s in combo],
                "separating_level": separating_level([s.branch for s in combo]),
                "vector_digest": digest_vectors([vec]),
                "max_residual": residual,
            })
    inter_payload = {"manifest": _manifest("demo", argv, root, {"basis": basis_digest}),
                     "intersections": entries}
    path = outdir / "intersections.json"
    write_json(path, inter_payload)
    written[path.name] = sha256_hex(path.read_bytes())

    summary = {
        "manifest": _manifest("demo", argv, root, {"basis": basis_digest}),
        "files": written,
        "incline_achieved": cert.achieved,
        "max_diagonal": max(
            float(max(json.loads(Path(outdir / f).read_text())["certificate"]["diagonals"]))
            for f in written if f.startswith("family_")),
        "max_intersection_residual": max(e["max_residual"] for e in entries),
    }
    write_json(outdir / "demo_summary.json", summary)
    print(canonical_json({"outdir": str(outdir), "files": sorted(written)}))
    print(f"[inclined] demo finished in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inclined",
        description="Certified inclined-vector search and projection-family construction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="minimal alphabet size for a level index")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("incline", help="search for an inclined unit vector")
    p.add_argument("input", help="JSON array of vectors")
    p.add_argument("--bound", type=_open_unit_float, required=True)
    p.add_argument("--budget", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("cover", help="search for a point missed by a candidate net")
    p.add_argument("input", help="JSON array of vectors (net points)")
    p.add_argument("--radius", type=_positive_finite_float, required=True)
    p.add_argument("--trials", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", type=str, default=None)

    fam = sub.add_parser("family", help="build / verify / intersect branch projections")
    fam_sub = fam.add_subparsers(dest="family_command", required=True)

    p = fam_sub.add_parser("build")
    p.add_argument("--stage", required=True, help="stage JSON file")
    p.add_argument("--branch", required=True, help="binary branch string")
    p.add_argument("--basis", required=True, help="basis JSON file, or 'random'")
    p.add_argument("--rho", type=_open_unit_float, default=0.9, help="target squared leakage ratio")
    p.add_argument("--budget", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = fam_sub.add_parser("verify")
    p.add_argument("family", help="family JSON file")
    p.add_argument("--basis", default=None, help="basis JSON file (if not seed-recorded)")
    p.add_argument("--bound", type=_open_unit_float, default=DEFAULT_SUPPRESSION_BOUND)

    p = fam_sub.add_parser("intersect")
    p.add_argument("families", nargs="+", help="two or more family JSON files")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("demo", help="chained end-to-end run with one root seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", type=str, default="demo_out")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    # Whatever a command leaves uncaught still maps to the exit-code contract;
    # an uncaught traceback would exit 1 and read as a verified negative.
    try:
        return _run(args, argv)
    except OSError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except BudgetExhausted as exc:
        return _fail(str(exc), EXIT_BUDGET)
    except SuppressionFailure as exc:
        return _fail(str(exc), EXIT_NEGATIVE)


def _run(args, argv: list[str]) -> int:
    if args.command == "params":
        return cmd_params(args, argv)
    if args.command == "incline":
        return cmd_incline(args, argv)
    if args.command == "cover":
        return cmd_cover(args, argv)
    if args.command == "family":
        if args.family_command == "build":
            return cmd_family_build(args, argv)
        if args.family_command == "verify":
            return cmd_family_verify(args, argv)
        return cmd_family_intersect(args, argv)
    return cmd_demo(args, argv)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
