"""Command-line front end emitting reproducible JSON certificates.

Commands: parameter queries (params), inclined-vector search (incline),
covering-witness experiments (cover), projection-family build / verify /
intersect (family ...), and an end-to-end demo.

Exit codes distinguish outcomes (main alone maps exceptions, argparse's
SystemExit included, to them, and returns the code):
  0  success, or -h
  1  verified negative, or incline's "failed" certificate (best in budget)
  2  input or usage error, including a file that cannot be read or written,
     or work too large to run: refused before it starts, or out of memory
  3  family build, demo or cover ran out of budget (build names the level)

Every output file embeds a manifest (command, argument vector, root seed,
artifact version, input digests) and is written as canonical JSON, so
rerunning with identical inputs and seed reproduces each file byte for
byte.  Wall-clock durations are reported on stderr only; putting them into
the files would break that reproducibility.
"""

from __future__ import annotations

import argparse
import functools
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
from .search import VERIFY_TOL, BudgetExhausted, cover_witness, find_inclined_vector
from .serialize import (
    _json_int,
    _json_number,
    _json_str,
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
    write_json,
    canonical_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _manifest(command: str, argv: list[str], root_seed: int | None,
              input_digests: dict[str, str]) -> dict:
    return {
        "command": command,
        "argv": list(argv),
        "root_seed": root_seed,
        "version": __version__,
        "input_digests": input_digests,
    }


def _checked(convert, holds, what: str):
    """An argparse type: convert(text), refused unless holds(value).  It takes
    convert's name, which argparse names in "invalid int value: 'x'"."""
    def check(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must {what}, got {text}")
        return value

    check.__name__ = convert.__name__
    return check


_positive_int = _checked(int, lambda n: n >= 1, "be a positive integer")
_nonnegative_int = _checked(int, lambda n: n >= 0, "be a non-negative integer")
_positive_finite_float = _checked(float, lambda x: math.isfinite(x) and x > 0.0,
                                  "be a positive finite number")
_open_unit_float = _checked(float, lambda x: 0.0 < x < 1.0, "lie in (0, 1)")


def _load_basis(record, path: str | None, dim: int) -> tuple[np.ndarray, dict]:
    """The basis a basis record names, and the record that identifies it.

    A "phase-dft" record is identified by its integer seed alone: the basis
    of C^dim, dim the stage's, is redrawn from it without being hashed, and
    a ``path`` beside it is refused, not ignored.  A "file" record is
    identified by the digest of the basis read from ``path``; comparing the
    returned record with a recorded one compares those digests.
    """
    if not isinstance(record, dict):
        raise TypeError(f"a basis record must be a JSON object, got {record!r}")
    if record["kind"] == "phase-dft":
        if path is not None:
            raise ValueError("family records a seeded basis; it takes no --basis file")
        seed = _json_int(record["seed"], "seed")
        return random_orthonormal_basis(dim, seed), {"kind": "phase-dft", "seed": seed}
    if record["kind"] != "file":
        raise ValueError(f"basis kind must be 'phase-dft' or 'file', got {record['kind']!r}")
    if path is None:
        raise ValueError("family was built from a basis file; pass it with --basis")
    basis = read_vectors(path)
    return basis, {"kind": "file", "digest": digest_vectors(basis)}


def _incline_payload(manifest: dict, cert) -> dict:
    return {"manifest": manifest, "certificate": inclination_to_obj(cert)}


def _family_payload(manifest: dict, spec, basis_record: dict, rho: float, cert) -> dict:
    return {
        "manifest": manifest,
        **branch_spec_to_obj(spec),
        "basis": basis_record,
        "rho": rho,
        "certificate": suppression_to_obj(spec, cert),
    }


def cmd_params(args, argv) -> int:
    d_min = min_level_dimension(args.m)
    trace = {}
    # d_min > 2^7 for every m (see min_level_dimension), so d_min - 1 is a failure.
    for key, d in (("first_success", d_min), ("last_fail", d_min - 1)):
        lhs, rhs = predicate_sides(args.m, d)  # exact, in base 16: int(s, 16) reads them back
        trace[key] = {"d": d, "lhs": hex(lhs), "rhs": hex(rhs)}
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
    return EXIT_OK


def cmd_incline(args, argv) -> int:
    cert = find_inclined_vector(read_vectors(args.input), args.bound, args.budget, args.seed)
    payload = _incline_payload(
        _manifest("incline", argv, args.seed, {"input": cert.family_digest}), cert)
    if args.out:
        write_json(args.out, payload)
    print(canonical_json(payload))
    return EXIT_OK if cert.status == "ok" else EXIT_NEGATIVE


def cmd_cover(args, argv) -> int:
    points = read_vectors(args.input)
    digest = digest_vectors(points)
    witness = cover_witness(points, args.radius, args.trials, args.seed)
    payload = {
        "manifest": _manifest("cover", argv, args.seed, {"input": digest}),
        "radius": args.radius,
        "trials": args.trials,
        "witness": witness,
        "status": "witness" if witness is not None else "none-found-in-budget",
    }
    if args.out:
        write_json(args.out, payload)
    print(canonical_json(payload))
    return EXIT_OK if witness is not None else EXIT_BUDGET


def cmd_family_build(args, argv) -> int:
    stage = stage_from_obj(read_json(args.stage))
    if args.basis == "random":
        request = {"kind": "phase-dft", "seed": derive_seed(args.seed, "basis")}
        path = None
    else:
        request, path = {"kind": "file"}, args.basis
    basis, basis_record = _load_basis(request, path, stage.dim)
    spec, cert = build_branch_projection(
        stage, basis, args.branch, float(np.sqrt(args.rho)), args.budget, args.seed)
    # a drawn basis is no input file; its record names it
    digests = {} if path is None else {"basis": basis_record["digest"]}
    manifest = _manifest("family build", argv, args.seed, digests)
    write_json(args.out, _family_payload(manifest, spec, basis_record, args.rho, cert))
    print(canonical_json({"out": str(args.out), "max_diagonal": cert.max_diagonal, "bound": cert.bound}))
    return EXIT_OK


def cmd_family_verify(args, argv) -> int:
    obj = read_json(args.family)
    spec = branch_spec_from_obj(obj)
    stored = obj["certificate"]
    if not isinstance(stored, dict):
        raise TypeError(f"the certificate must be a JSON object, got {stored!r}")
    _json_str(stored["regime"], "regime")
    if not isinstance(stored["diagonals"], list):
        raise TypeError("the certificate's diagonals must be a JSON array")
    recorded = np.array([_json_number(x, "diagonals") for x in stored["diagonals"]])
    max_diagonal = _json_number(stored["max_diagonal"], "max_diagonal")
    bound = _json_number(stored["bound"], "bound")
    rho = _json_number(obj["rho"], "rho")
    if not 0.0 < rho < 1.0:  # (1 + rho) / 2 >= 1 would bound nothing
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    # only the fields the loader returns; the "n" of older records is not read
    basis, basis_record = _load_basis(obj["basis"], args.basis, spec.stage.dim)
    if not basis_record.items() <= obj["basis"].items():
        raise ValueError("basis mismatch: the supplied basis is not the one the family records")
    cert = verify_suppression(spec, basis, bound)
    # Every stored field must pass its check, in order (tampering with the
    # directions or with any recorded value shows up); the first miss is named.
    checks = [
        ("bound", abs(bound - (1.0 + rho) / 2.0) <= VERIFY_TOL),
        ("max_diagonal", max_diagonal <= bound),
        ("diagonals", recorded.size == len(cert.diagonals)
         and np.abs(recorded - cert.diagonals).max() <= VERIFY_TOL),
        ("max_diagonal", cert.max_diagonal <= bound
         and abs(max_diagonal - cert.max_diagonal) <= VERIFY_TOL),
        ("regime", stored["regime"] == spec.stage.regime),
    ]
    failed = [name for name, passed in checks if not passed]
    if failed:
        print(canonical_json({"ok": False, "reason": "certificate mismatch", "check": failed[0]}))
        return EXIT_NEGATIVE
    print(canonical_json({"ok": True, "max_diagonal": cert.max_diagonal, "bound": bound}))
    return EXIT_OK


def cmd_family_intersect(args, argv) -> int:
    specs = []
    digests = {}
    for path in args.families:
        raw = Path(path).read_bytes()
        # UTF-8 only, as every reader takes its files; json.loads(bytes) also takes UTF-16 and -32
        specs.append(branch_spec_from_obj(json.loads(raw.decode("utf-8"))))
        digests[path] = sha256_hex(raw)
    vec, residuals = branch_intersection(specs)
    payload = {
        "manifest": _manifest("family intersect", argv, None, digests),
        "branches": [s.branch for s in specs],
        "separating_level": separating_level([s.branch for s in specs]),
        "vector": vec,
        "residuals": residuals,
        "max_residual": max(residuals.values()),
    }
    if args.out:
        write_json(args.out, payload)
    print(canonical_json({k: payload[k] for k in ("branches", "separating_level", "max_residual")}))
    return EXIT_OK


def cmd_demo(args, argv) -> int:
    """End-to-end chain: inclined search, family build over a toy stage,
    and all pairwise/triple intersections, all derived from one root seed."""
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    root = args.seed
    written: dict[str, str] = {}

    def write(name: str, payload: dict) -> None:
        write_json(outdir / name, payload)
        written[name] = sha256_hex((outdir / name).read_bytes())

    # Inclined search at full dimension: 1000 directions in C^128.
    fam_rng = np.random.default_rng(derive_seed(root, "demo", "incline", "vectors"))
    z = fam_rng.standard_normal((1000, 128)) + 1j * fam_rng.standard_normal((1000, 128))
    vectors = z / np.linalg.norm(z, axis=1, keepdims=True)
    search_seed = derive_seed(root, "demo", "incline", "search")
    cert = find_inclined_vector(vectors, 0.9, 10_000, search_seed)
    if cert.status != "ok":
        raise BudgetExhausted(f"no inclined vector within budget 10000 (best {cert.achieved:.6g})")
    write("incline_certificate.json", _incline_payload(_manifest("demo", argv, root, {}), cert))

    # Toy stage, shared seeded basis, all eight depth-3 branches.
    stage = toy_stage([4, 4, 2])
    request = {"kind": "phase-dft", "seed": derive_seed(root, "demo", "basis")}
    basis, basis_record = _load_basis(request, None, stage.dim)
    manifest = _manifest("demo", argv, root, {})
    build_seed = derive_seed(root, "demo", "family")
    rho = 0.9
    specs = []
    max_diagonal = 0.0
    for bits in itertools.product("01", repeat=stage.depth):
        spec, scert = build_branch_projection(
            stage, basis, "".join(bits), float(np.sqrt(rho)), 10_000, build_seed)
        specs.append(spec)
        max_diagonal = max(max_diagonal, scert.max_diagonal)
        write(f"family_{spec.branch}.json",
              _family_payload(manifest, spec, basis_record, rho, scert))

    # Common fixed vectors for every pair and triple of branches.
    entries = []
    for size in (2, 3):
        for combo in itertools.combinations(specs, size):
            vec, residuals = branch_intersection(combo)
            entries.append({
                "branches": [s.branch for s in combo],
                "separating_level": separating_level([s.branch for s in combo]),
                "vector_digest": digest_vectors([vec]),
                "max_residual": max(residuals.values()),
            })
    write("intersections.json", {"manifest": manifest, "intersections": entries})

    summary = {
        "manifest": manifest,
        "files": written,
        "incline_achieved": cert.achieved,
        "max_diagonal": max_diagonal,
        "max_intersection_residual": max(e["max_residual"] for e in entries),
    }
    write_json(outdir / "demo_summary.json", summary)
    print(canonical_json({"outdir": str(outdir), "files": sorted(written)}))
    return EXIT_OK


@functools.cache  # built once per process; parse_args returns a fresh Namespace each call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inclined",
        description="Certified inclined-vector search and projection-family construction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="minimal alphabet size for a level index")
    p.set_defaults(run=cmd_params)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("incline", help="search for an inclined unit vector")
    p.set_defaults(run=cmd_incline)
    p.add_argument("input", help="JSON array of vectors")
    p.add_argument("--bound", type=_open_unit_float, required=True)
    p.add_argument("--budget", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("cover", help="search for a point missed by a candidate net")
    p.set_defaults(run=cmd_cover)
    p.add_argument("input", help="JSON array of vectors (net points)")
    p.add_argument("--radius", type=_positive_finite_float, required=True)
    p.add_argument("--trials", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", type=str, default=None)

    fam = sub.add_parser("family", help="build / verify / intersect branch projections")
    fam_sub = fam.add_subparsers(dest="family_command", required=True)

    p = fam_sub.add_parser("build")
    p.set_defaults(run=cmd_family_build)
    p.add_argument("--stage", required=True, help="stage JSON file")
    p.add_argument("--branch", required=True, help="binary branch string")
    p.add_argument("--basis", required=True, help="basis JSON file, or 'random' (seeded phase-DFT)")
    p.add_argument("--rho", type=_open_unit_float, default=0.9, help="target squared leakage ratio")
    p.add_argument("--budget", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = fam_sub.add_parser("verify")
    p.set_defaults(run=cmd_family_verify)
    p.add_argument("family", help="family JSON file")
    p.add_argument("--basis", default=None, help="basis JSON file (if not seed-recorded)")

    p = fam_sub.add_parser("intersect")
    p.set_defaults(run=cmd_family_intersect)
    p.add_argument("families", nargs="+", help="two or more family JSON files")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("demo", help="chained end-to-end run with one root seed")
    p.set_defaults(run=cmd_demo)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", type=str, default="demo_out")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    This is the only place where an exception becomes an exit code, with one
    `error:` line on stderr; an uncaught traceback would exit 1 and read as
    a verified negative.  A usage error returns 2 after argparse's usage and
    `error:` lines, and -h returns 0 after the help.  A last stderr line
    gives a command's code and wall time.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    command = " ".join(filter(None, (args.command, getattr(args, "family_command", None))))
    t0 = time.perf_counter()
    message = None
    try:
        code = args.run(args, argv)
    except KeyError as exc:
        message, code = f"missing field {exc}", EXIT_INPUT
    # ValueError includes json.JSONDecodeError; OverflowError is a JSON
    # integer too large for a float.
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        message, code = str(exc), EXIT_INPUT
    except RecursionError:  # JSON nested deeper than the decoder recurses
        message, code = "input nested too deeply", EXIT_INPUT
    except MemoryError:  # work below every cap that still does not fit
        message, code = "out of memory", EXIT_INPUT
    except BudgetExhausted as exc:
        message, code = str(exc), EXIT_BUDGET
    except SuppressionFailure as exc:
        message, code = str(exc), EXIT_NEGATIVE
    if message is not None:
        print(f"error: {message}", file=sys.stderr)
    print(f"[inclined] {command} exited {code} in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
