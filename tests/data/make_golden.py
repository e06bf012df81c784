"""Write the golden digests of a fixed command set for this environment.

    PYTHONPATH=src python tests/data/make_golden.py

golden.json holds the package version and, per environment key (numpy's
version and the name and version of the BLAS it was built with), the exit
code and stdout digest of every command in COMMANDS and the sha256 of every
file they leave, all run in one fresh directory.  tests/test_golden.py
reruns the set under one and two BLAS threads and on one CPU and compares.
This script is the only way the file changes: a change that alters output
bytes reruns it, and the entries it prints as changed go into CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from inclined import __version__
from inclined import cli
from inclined.serialize import vectors_to_obj, write_json

GOLDEN = Path(__file__).with_name("golden.json")

# Two builds whose level searches descend, as no benchmark build does: level 2
# of toy [2, 2, 2] at rho 0.7, and both branches of six members of the paper
# stage d = 347 at rho 0.015 (tests/test_cli.py counts their evaluations).
DESCENDING_BUILDS = [
    ["family", "build", "--stage", "toy.json", "--branch", "101", "--basis", "random",
     "--rho", "0.7", "--seed", "3", "--out", "toy_101.json"],
    *(["family", "build", "--stage", "paper.json", "--branch", branch, "--basis", "members.json",
       "--rho", "0.015", "--seed", "11", "--out", f"paper_low_{branch}.json"] for branch in "01"),
]

# The demo; a parameter query; a bound below reach that spends the whole
# frontier budget (exit 1); two toy [4, 4, 2] families, one verified, and
# their intersection; and a small cover that finds a witness.  Then the
# descending builds, verified; the paper-stage members built and verified at
# rho 0.9, where every level search ends at its first evaluation, and
# intersected (a 5.6 MB vector); and a wide cover that finds a witness.
COMMANDS = [
    ["demo", "--seed", "0", "--outdir", "demo"],
    ["params", "--m", "3", "--out", "params.json"],
    ["incline", "vectors.json", "--bound", "0.05", "--budget", "20000", "--seed", "3",
     "--out", "frontier.json"],
    *(["family", "build", "--stage", "stage.json", "--branch", branch, "--basis", "random",
       "--seed", "1", "--out", f"family_{branch}.json"] for branch in ("000", "101")),
    ["family", "verify", "family_101.json"],
    ["family", "intersect", "family_000.json", "family_101.json", "--out", "intersect.json"],
    ["cover", "net.json", "--radius", "1.0", "--trials", "2000", "--seed", "3",
     "--out", "cover.json"],
    *DESCENDING_BUILDS,
    ["family", "verify", "toy_101.json"],
    *(argv for branch in "01" for argv in (
        ["family", "verify", f"paper_low_{branch}.json", "--basis", "members.json"],
        ["family", "build", "--stage", "paper.json", "--branch", branch, "--basis", "members.json",
         "--seed", "11", "--out", f"paper_{branch}.json"],
        ["family", "verify", f"paper_{branch}.json", "--basis", "members.json"])),
    ["family", "intersect", "paper_0.json", "paper_1.json", "--out", "paper_intersect.json"],
    ["cover", "net40.json", "--radius", "1.15", "--trials", "20000", "--seed", "3",
     "--out", "cover40.json"],
]


def environment_key() -> str:
    """numpy's version and its BLAS's, read as perfbench/worker.py's environment() reads them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return f"numpy {np.__version__} / {blas.get('name')} {blas.get('version')}"


def _unit_rows(seed: int, n: int, d: int) -> dict:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return vectors_to_obj(z / np.linalg.norm(z, axis=1, keepdims=True))


def phase_dft_rows(seed: int, n: int, count: int) -> np.ndarray:
    """The first ``count`` rows of the basis random_orthonormal_basis(n, seed) draws, row k
    as d0_k d2 * F(d1 * F e_k): no n x n matrix, and no BLAS to round by thread count."""
    d0, d1, d2 = np.exp(2j * np.pi * np.random.default_rng(seed).random((3, n)))
    e = np.eye(count, n, dtype=np.complex128)
    return d0[:count, None] * d2 * np.fft.fft(d1 * np.fft.fft(e, norm="ortho"), norm="ortho")


# COMMANDS' input files, each by the function that makes its JSON object.
INPUTS = {
    "vectors.json": lambda: _unit_rows(77, 1000, 128),
    "net.json": lambda: _unit_rows(5, 300, 8),
    "stage.json": lambda: {"regime": "toy", "levels": [
        {"m": 1, "d": 4}, {"m": 2, "d": 4}, {"m": 3, "d": 2}]},
    "toy.json": lambda: {"regime": "toy", "levels": [{"m": m, "d": 2} for m in (1, 2, 3)]},
    "paper.json": lambda: {"regime": "paper", "levels": [{"m": 1, "d": 347}]},
    "members.json": lambda: vectors_to_obj(phase_dft_rows(11, 347 ** 2, 6)),  # 33.7 MB
    "net40.json": lambda: _unit_rows(5, 3000, 40),
}


def write_inputs(workdir: Path, names=INPUTS) -> None:
    for name in names:
        write_json(workdir / name, INPUTS[name]())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_set(workdir: Path) -> dict:
    """Write the inputs to the empty ``workdir``, run COMMANDS there in this
    process, and return each command's exit code and stdout digest and every
    file's digest."""
    write_inputs(workdir)
    commands = {}
    cwd = os.getcwd()
    os.chdir(workdir)  # records hold the argv, so the paths stay relative
    try:
        for argv in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            commands[" ".join(argv)] = {"exit": code, "stdout": _sha256(out.getvalue().encode())}
    finally:
        os.chdir(cwd)
    files = {path.relative_to(workdir).as_posix(): _sha256(path.read_bytes())
             for path in sorted(workdir.rglob("*")) if path.is_file()}
    return {"commands": commands, "files": files}


def changed(expected: dict, digests: dict) -> list[str]:
    """The commands and files of two run_set results whose digests differ or
    that only one of them has, commands first."""
    return [name for part in ("commands", "files")
            for name in sorted(expected[part].keys() | digests[part].keys())
            if expected[part].get(name) != digests[part].get(name)]


def load() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"version": None, "sets": {}}


def main() -> int:
    golden = load()
    key = environment_key()
    previous = golden["sets"].get(key)
    # sets recorded for another version hold that version's bytes
    sets = golden["sets"] if golden["version"] == __version__ else {}
    with tempfile.TemporaryDirectory() as tmp:
        sets[key] = run_set(Path(tmp))
    GOLDEN.write_text(json.dumps({"version": __version__, "sets": sets}, indent=1, sort_keys=True)
                      + "\n")
    print(f"{GOLDEN}: {key}", file=sys.stderr)
    if previous is not None:
        for name in changed(previous, sets[key]):
            print(f"changed: {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
