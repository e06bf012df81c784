"""Seeded inputs for the three workloads, cached per (workload, scale, seed).

The cache directory is named after the values of the scale too, so a change
to SCALES never reuses inputs made for the old sizes.

The program sees only the files written here, in its own JSON schemas:

  vectors file  [{"dim": d, "entries": [[re, im], ...]}, ...]
  stage file    {"regime": "toy"|"paper", "levels": [{"m": 1, "d": 4}, ...]}

Each workload's dense arrays are sized before anything is allocated, and a
workload whose largest array would pass MEMORY_CAP_BYTES is refused: a full
random basis for the toy stage [3, 3, 3] (dim 6651) needs 708 MB per copy
and was killed for lack of memory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# Largest single dense complex array that a workload may ask for, counting
# both the generator's arrays and the ones the program builds from the inputs.
MEMORY_CAP_BYTES = 256 * 2 ** 20
COMPLEX_BYTES = 16

WORKLOADS = ("incline", "family_toy", "paper_slice")


@dataclass(frozen=True)
class Scale:
    """Input sizes of one scale; "full" is the benchmark, "tiny" the smoke test."""

    n_vectors: int
    vector_dim: int
    reachable_bound: float
    frontier_bound: float
    frontier_budget: int
    toy_alphabets: tuple[int, ...]
    toy_branches: tuple[str, ...]
    paper_alphabet: int
    paper_members: int
    setup_repeats: int


SCALES = {
    "full": Scale(
        n_vectors=1000, vector_dim=128, reachable_bound=0.25, frontier_bound=0.05,
        frontier_budget=20_000, toy_alphabets=(4, 4, 2),
        toy_branches=("000", "001", "011", "101"), paper_alphabet=347,
        paper_members=4, setup_repeats=11),
    "tiny": Scale(
        n_vectors=64, vector_dim=16, reachable_bound=0.6, frontier_bound=0.05,
        frontier_budget=300, toy_alphabets=(2, 2, 2),
        toy_branches=("000", "001", "011", "101"), paper_alphabet=347,
        paper_members=1, setup_repeats=2),
}


class InputRefused(ValueError):
    """The requested inputs break a stated limit; nothing was allocated."""


def _vector_obj(v: np.ndarray) -> dict:
    pairs = np.stack([v.real, v.imag], axis=1).tolist()
    return {"dim": int(v.size), "entries": pairs}


def _write(path: Path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text + "\n", encoding="utf-8")
    tmp.replace(path)


def _check_cap(label: str, shape: tuple[int, ...]) -> None:
    need = math.prod(shape) * COMPLEX_BYTES
    if need > MEMORY_CAP_BYTES:
        raise InputRefused(
            f"{label}: a dense complex array of shape {shape} needs {need / 2 ** 20:.0f} MiB, "
            f"above the {MEMORY_CAP_BYTES / 2 ** 20:.0f} MiB cap")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def frontier_floor(rows: np.ndarray) -> float:
    """sqrt(lambda_min(V^H V) / N): no unit vector has a smaller worst
    normalized inner product against the N unit rows of V, because the
    worst one is at least the root mean square, sqrt(v^H V^H V v / N)."""
    gram = rows.conj().T @ rows
    return float(math.sqrt(max(np.linalg.eigvalsh(gram)[0], 0.0) / rows.shape[0]))


def toy_dim(alphabets) -> int:
    return sum(d ** (2 ** m) for m, d in enumerate(alphabets, start=1))


def _gen_incline(scale: Scale, seed: int, out: Path) -> dict:
    n, d = scale.n_vectors, scale.vector_dim
    _check_cap("incline vectors", (n, d))
    rng = _rng("incline", seed)
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    floor = frontier_floor(z)
    if not scale.frontier_bound < floor:
        raise InputRefused(
            f"frontier bound {scale.frontier_bound} is not below the floor {floor:.6f}, "
            "so the frontier run could stop before its budget")
    _write(out / "vectors.json", [_vector_obj(v) for v in z])
    return {"floor": floor}


def _gen_family_toy(scale: Scale, seed: int, out: Path) -> dict:
    dim = toy_dim(scale.toy_alphabets)
    # The program draws its seed-recorded random basis as one dim x dim matrix.
    _check_cap("toy random basis", (dim, dim))
    levels = [{"m": m, "d": d} for m, d in enumerate(scale.toy_alphabets, start=1)]
    _write(out / "stage.json", {"regime": "toy", "levels": levels})
    return {"dim": dim}


def _gen_paper_slice(scale: Scale, seed: int, out: Path) -> dict:
    dim = scale.paper_alphabet ** 2
    _check_cap("paper members", (dim, scale.paper_members))
    rng = _rng("paper_slice", seed)
    z = rng.standard_normal((dim, scale.paper_members)) + 1j * rng.standard_normal((dim, scale.paper_members))
    q, _ = np.linalg.qr(z)  # reduced QR: orthonormal columns, never dim x dim
    _write(out / "stage.json", {"regime": "paper", "levels": [{"m": 1, "d": scale.paper_alphabet}]})
    _write(out / "basis.json", [_vector_obj(np.ascontiguousarray(q[:, j])) for j in range(q.shape[1])])
    return {"dim": dim}


GENERATORS = {"incline": _gen_incline, "family_toy": _gen_family_toy, "paper_slice": _gen_paper_slice}


def ensure_inputs(workdir: Path, workload: str, scale_name: str, seed: int) -> Path:
    """Directory holding the inputs of (workload, scale, seed), generated once."""
    scale = SCALES[scale_name]
    values = hashlib.sha256(json.dumps(asdict(scale), sort_keys=True).encode()).hexdigest()
    out = workdir / f"{workload}-{scale_name}-{values[:12]}-s{seed}"
    marker = out / "inputs.json"
    if marker.is_file():
        return out
    out.mkdir(parents=True, exist_ok=True)
    info = GENERATORS[workload](scale, seed, out)
    _write(marker, {"workload": workload, "scale": scale_name, "seed": seed, **info})
    return out
