"""Write the golden digests of a fixed command set for this environment.

    PYTHONPATH=src python tests/data/make_golden.py

golden.json holds the package version and, per environment key (numpy's
version and the name and version of the BLAS it was built with), the exit
code and stdout digest of every command in COMMANDS and the sha256 of every
file they leave, all run in one fresh directory.  tests/test_golden.py
reruns the set and compares.  This script is the only way the file changes:
a change that alters output bytes reruns it and says so.
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

# The demo; a parameter query; the frontier fixture of tests/test_cli.py, a
# bound below reach that spends the whole budget (exit 1); two toy [4, 4, 2]
# families, one verified, and their intersection; and a small cover that
# finds a witness.
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_set(workdir: Path) -> dict:
    """Write the inputs to the empty ``workdir``, run COMMANDS there in this
    process, and return each command's exit code and stdout digest and every
    file's digest."""
    write_json(workdir / "vectors.json", _unit_rows(77, 1000, 128))
    write_json(workdir / "net.json", _unit_rows(5, 300, 8))
    write_json(workdir / "stage.json", {"regime": "toy", "levels": [
        {"m": 1, "d": 4}, {"m": 2, "d": 4}, {"m": 3, "d": 2}]})
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


def load() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"version": None, "sets": {}}


def main() -> int:
    golden = load()
    # sets recorded for another version hold that version's bytes
    sets = golden["sets"] if golden["version"] == __version__ else {}
    with tempfile.TemporaryDirectory() as tmp:
        sets[environment_key()] = run_set(Path(tmp))
    GOLDEN.write_text(json.dumps({"version": __version__, "sets": sets}, indent=1, sort_keys=True)
                      + "\n")
    print(f"{GOLDEN}: {environment_key()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
