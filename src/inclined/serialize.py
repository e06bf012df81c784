"""Canonical JSON schemas, content digests and seed derivation.

Every file this package reads or writes is UTF-8 JSON with sorted keys and
compact separators, so identical data always produces identical bytes and
digests.  All randomness flows from one root seed through derive_seed, which
hashes the canonical encoding of (root, *tags); parallel execution therefore
cannot change any result.

Schemas:
  vector        {"dim": d, "entries": [[re, im], ...]}
  vectors file  [vector, ...], all of one dimension
  stage         {"regime": "toy"|"paper", "levels": [{"m": 1, "d": 4}, ...]}
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import signal
import tempfile
from itertools import chain
from pathlib import Path
from typing import IO, Any, Callable

import numpy as np


def canonical_json(obj: Any) -> str:
    # The payloads hold no cycles, so the encoder's cycle check (same bytes,
    # more time) is skipped.  A 1-D array is encoded as its vector object.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False, check_circular=False, default=_vector_default)


def _vector_default(o: Any) -> dict:
    if isinstance(o, np.ndarray) and o.ndim == 1:
        return vector_to_obj(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derive_seed(root: int, *tags) -> int:
    """Child seed for a named component, stable across runs and platforms."""
    digest = hashlib.sha256(canonical_json([int(root), *tags]).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# Names the digest scheme; changing how digest_vectors hashes a family means
# changing this tag, so old and new digests can never collide.
DIGEST_SCHEME = "inclined.digest_vectors/2"


def _json_int(value: Any, name: str) -> int:
    """A field that must be a JSON integer; int() would also take 4.9,
    "4" or true."""
    if type(value) is not int:
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_number(value: Any, name: str) -> float:
    """A field that must be a finite JSON number; float() would also take "0.5"
    or true, and json.loads reads NaN, Infinity and 1e400 as non-finite floats."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise TypeError(f"{name} must be a finite JSON number, got {value!r}")
    return float(value)


def _json_str(value: Any, name: str) -> str:
    """A field that must be a JSON string; str() would also take 5, null or
    a list."""
    if type(value) is not str:
        raise TypeError(f"{name} must be a JSON string, got {value!r}")
    return value


def vector_to_obj(v: np.ndarray) -> dict:
    arr = np.asarray(v, dtype=np.complex128)
    return {"dim": int(arr.size), "entries": np.stack([arr.real, arr.imag], 1).tolist()}


def vector_from_obj(obj: Any) -> np.ndarray:
    return vectors_from_obj([obj])[0]


def vectors_to_obj(vectors) -> list:
    return [vector_to_obj(v) for v in vectors]


def vectors_from_obj(obj: Any) -> np.ndarray:
    """Decode a vectors file to one (n, d) complex128 array, bit for bit.

    The [re, im] pairs become a flat float64 array viewed as complex;
    building re + 1j*im instead would turn a -0.0 imaginary part into +0.0.
    Every member must have the same dimension, a JSON integer, and every
    entry must be a JSON number.  The entries are joined into one flat list
    and the lengths of the members and pairs are checked: numpy infers the
    list's type, so a string, null, all-boolean entry or integer beyond 64
    bits shows in its dtype, and a scan of its types finds a boolean among
    numbers (which would decode to 0.0 or 1.0).  Neither check costs more
    on some values than on others, and converting the flat list costs less
    than converting the nested one.
    """
    if not isinstance(obj, list) or not obj:
        raise ValueError("expected a nonempty JSON array of vectors")
    if not all(isinstance(v, dict) and "dim" in v and "entries" in v for v in obj):
        raise ValueError("vector object must have 'dim' and 'entries'")
    try:
        dims = sorted({_json_int(v["dim"], "dim") for v in obj})
        if len(dims) == 1:
            rows = [v["entries"] for v in obj]
            pairs = list(chain.from_iterable(rows))
            lengths = (sorted(set(map(len, rows))), sorted(set(map(len, pairs))))
            entries = list(chain.from_iterable(pairs))
            flat = np.array(entries)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed vectors: {exc}") from None
    if len(dims) != 1:
        raise ValueError(f"vectors differ in dimension: {dims}")
    if flat.dtype.kind not in "iuf":
        raise ValueError("vector entries must be JSON numbers")
    (dim,) = dims
    if dim < 1 or lengths != ([dim], [2]) or flat.shape != (len(obj) * dim * 2,):
        raise ValueError(f"expected {len(obj)} vectors of dim={dim} as [re, im] pairs, got "
                         f"entries of lengths {lengths[0]} and pairs of lengths {lengths[1]}")
    flat = flat.astype(np.float64, copy=False)
    if not np.isfinite(flat).all():
        raise ValueError("vector has non-finite entries")
    if bool in set(map(type, entries)):
        raise ValueError("vector entries must be JSON numbers, got a boolean")
    return flat.view(np.complex128).reshape(len(obj), dim)


def digest_vectors(vectors) -> str:
    """Content digest of a vector family, the one place its scheme is defined.

    sha256 over the ASCII header "<DIGEST_SCHEME> <c16 <n>x<d>" and a newline,
    followed by the family as an (n, d) little-endian complex128 array in
    row-major order.  A list of rows and an array of any memory order give
    the same digest; the same bytes under another shape do not.  A
    C-contiguous <c16 array is hashed where it lies, without a copy.
    """
    mat = np.asarray(vectors, dtype="<c16", order="C")
    if mat.ndim != 2:
        raise ValueError(f"a vector family is an (n, d) array, got shape {mat.shape}")
    n, d = mat.shape
    h = hashlib.sha256(f"{DIGEST_SCHEME} <c16 {n}x{d}\n".encode("ascii"))
    h.update(mat)
    return h.hexdigest()


def stage_to_obj(stage) -> dict:
    return {
        "regime": stage.regime,
        "levels": [{"m": lv.m, "d": lv.d} for lv in stage.levels],
    }


def stage_from_obj(obj: Any):
    from .family import LevelSpec, StageParameters

    if not isinstance(obj, dict) or "regime" not in obj or "levels" not in obj:
        raise ValueError("stage object must have 'regime' and 'levels'")
    levels = tuple(LevelSpec(_json_int(lv["m"], "m"), _json_int(lv["d"], "d"))
                   for lv in obj["levels"])
    return StageParameters(levels=levels, regime=obj["regime"])


def branch_spec_to_obj(spec) -> dict:
    return {
        "stage": stage_to_obj(spec.stage),
        "branch": spec.branch,
        "levels": [{"direction": vector_to_obj(v)} for v in spec.directions],
    }


def branch_spec_from_obj(obj: Any):
    """The spec a family record holds, its directions in level order."""
    from .family import BranchProjectionSpec

    stage = stage_from_obj(obj["stage"])
    directions = tuple(vector_from_obj(lv["direction"]) for lv in obj["levels"])
    return BranchProjectionSpec(stage=stage, branch=obj["branch"], directions=directions)


def suppression_to_obj(spec, cert) -> dict:
    """The certificate record of a family: cert's values and the regime of
    spec.  The branch and the basis are recorded once, beside it."""
    return {
        "diagonals": list(cert.diagonals),
        "max_diagonal": float(cert.max_diagonal),
        "bound": float(cert.bound),
        "regime": spec.stage.regime,
    }


def inclination_to_obj(cert) -> dict:
    return {
        "family_digest": cert.family_digest,
        "candidate": vector_to_obj(cert.candidate),
        "achieved": float(cert.achieved),
        "bound": float(cert.bound),
        "seed": int(cert.seed),
        "iterations_used": int(cert.iterations_used),
        "status": cert.status,
    }


def inclination_from_obj(obj: Any):
    """The certificate an incline record holds, each field of its JSON type;
    the candidate's length is its dimension (the "d" of older records is not read)."""
    from .search import InclinationCertificate

    return InclinationCertificate(
        family_digest=_json_str(obj["family_digest"], "family_digest"),
        candidate=vector_from_obj(obj["candidate"]),
        achieved=_json_number(obj["achieved"], "achieved"),
        bound=_json_number(obj["bound"], "bound"),
        seed=_json_int(obj["seed"], "seed"),
        iterations_used=_json_int(obj["iterations_used"], "iterations_used"),
        status=obj["status"],
    )


def write_json(path: str | Path, obj: Any) -> None:
    """Write canonical_json(obj) and a newline, the same bytes on every
    platform.  The text goes to a temporary file beside path, which replaces
    path once it is whole, so a failed write leaves path as it was and no
    temporary file behind.  A link is followed; what path names must be a
    regular file or nothing, since a device or a pipe cannot be replaced."""
    path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        raise ValueError(f"cannot write {path}: not a regular file")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            _write(f, obj)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write(f, obj: Any) -> None:
    """Write canonical_json(obj) and a newline to the binary file f; the
    top-level 1-D arrays of a dict with string keys go through _write_entries,
    so that no process holds the text of a whole array."""
    if not (isinstance(obj, dict) and all(type(k) is str for k in obj)):
        f.write(canonical_json(obj).encode() + b"\n")
        return
    f.write(b"{")
    for i, k in enumerate(sorted(obj)):
        f.write(b"," * (i > 0) + canonical_json(k).encode() + b":")
        v = obj[k]
        if isinstance(v, np.ndarray) and v.ndim == 1:
            f.write(b'{"dim":%d,"entries":[' % v.size)
            _write_entries(f, v)
            f.write(b"]}")
        else:
            f.write(canonical_json(v).encode())
    f.write(b"}\n")


# The pairs of an array that _entries formats at a time: a chunk's floats and
# text take a few MB however long the array is.
_CHUNK_PAIRS = 1 << 14


def _entries(v: np.ndarray):
    """The entries of vector_to_obj(v) as canonical_json writes them, less
    the brackets: ASCII bytes, one chunk of _CHUNK_PAIRS pairs at a time.
    Each chunk formats the float64 view of its complex128 entries with
    float.__repr__, as json does, and a non-finite one raises json's own
    ValueError."""
    for start in range(0, v.size, _CHUNK_PAIRS):
        part = np.ascontiguousarray(v[start:start + _CHUNK_PAIRS], dtype=np.complex128)
        part = part.view(np.float64)
        if not np.isfinite(part).all():
            canonical_json(part[~np.isfinite(part)].tolist())  # raises json's ValueError
        text = ",".join(["[%r,%r]"] * (part.size // 2)) % tuple(part.tolist())
        yield (text if start == 0 else "," + text).encode()


def _write_entries(f, v: np.ndarray) -> None:
    """f.writelines(_entries(v)); when v has two entries or more, _in_two's
    child formats the second half meanwhile into a file beside f, which the
    parent copies in after its own (the size is v's text, about 44 bytes a
    pair).  When _in_two gives no halves or its child fails, v is written in
    one part."""
    half, start = v.size // 2, f.tell()
    try:
        halves = None if v.size < 2 else _in_two(
            44 * v.size, lambda: f.writelines(_entries(v[:half])),
            lambda rest: rest.writelines(_entries(v[half:])), dir=Path(f.name).parent)
    except ChildProcessError:
        halves = None
    if halves is None:
        f.seek(start)
        f.truncate()
        f.writelines(_entries(v))
        return
    with halves[1] as rest:
        f.write(b",")
        shutil.copyfileobj(rest, f)


def _loads(text: str) -> Any:
    """json.loads with the cyclic garbage collector paused.

    Decoding creates no reference cycles, yet a large vectors file allocates
    millions of lists and floats, which would trigger many needless
    collection passes.  The collector's previous state is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()


def read_json(path: str | Path) -> Any:
    """Parse a JSON file with the cyclic garbage collector paused."""
    return _loads(Path(path).read_text(encoding="utf-8"))


# What the canonical layout [{"dim":d,"entries":[[re,im],...]},...] keeps once
# numbers, quotes, colons, the newline and the two key names are deleted.
_SKELETON_DELETE = b'0123456789.eE+-":\ndimentrs'


def _read_canonical_vectors(raw: bytes) -> np.ndarray:
    """Decode a vectors file in the compact layout write_json produces.

    Raises ValueError when the bytes are in any other layout or anything
    about them is in doubt; the caller then decodes them the general way.  On a
    canonical file every pair boundary "],[" lies inside an entries list, so
    turning it into "," leaves entries [[re, im, re, im, ...]]: one float
    list per member, which json builds without a list per entry.
    """
    skeleton = raw.translate(None, _SKELETON_DELETE)
    n = skeleton.count(b"{")
    d = (skeleton.find(b"}") - 4) // 4  # a member is "{,[" + d "[,]" joined by "," + "]}"
    if n < 1 or d < 1 or raw.count(b'"') != 4 * n:  # no strings besides the keys
        raise ValueError("not in the canonical layout")
    member = b"{,[" + b",".join([b"[,]"] * d) + b"]}"
    if skeleton != b"[" + b",".join([member] * n) + b"]":
        raise ValueError("not in the canonical layout")
    obj = json.loads(raw.replace(b"],[", b","))
    if not all(type(v) is dict and v.keys() == {"dim", "entries"}
               and type(v["dim"]) is int and v["dim"] == d for v in obj):
        raise ValueError("not in the canonical layout")
    flat = np.array([v["entries"] for v in obj])  # an integer past 64 bits is an object
    if flat.dtype.kind not in "iuf" or flat.shape != (n, 1, 2 * d) or not np.isfinite(flat).all():
        raise ValueError("not in the canonical layout")
    return flat.astype(np.float64, copy=False).view(np.complex128).reshape(n, d)


# Below this many bytes of JSON a canonical file is decoded, and a vector
# encoded, in one process: forking, handing over a temporary file and joining
# cost more than half the work saves (see CHANGES.md).
_SPLIT_MIN_BYTES = 1 << 20
_MEMBER_START = b'},{"dim":'
# Where a container sees its own cgroup, which holds any CPU quota it was
# started with (cgroup v2 cpu.max, or v1 cpu.cfs_quota_us).
_CGROUP_ROOT = Path("/sys/fs/cgroup")


def _cpu_quota() -> float | None:
    """The CPU quota of this process's cgroup in CPUs, or None when none is
    set or none can be read.

    A process started with, say, --cpus=1 on a host with many CPUs still has
    them all in its affinity; only the quota shows it gets one CPU's time.
    """
    try:
        quota, period = (_CGROUP_ROOT / "cpu.max").read_text().split()  # "max 100000"
    except (OSError, ValueError):
        try:
            quota = (_CGROUP_ROOT / "cpu" / "cpu.cfs_quota_us").read_text()  # "-1" when none
            period = (_CGROUP_ROOT / "cpu" / "cpu.cfs_period_us").read_text()
        except OSError:
            return None
    try:
        return int(quota) / int(period) if int(quota) > 0 else None
    except (ValueError, ZeroDivisionError):
        return None


def _two_cpus() -> bool:
    """Whether a forked child can run beside this process: two CPUs, both in
    the affinity and within the cgroup's CPU quota, and Python < 3.12, from
    which os.fork warns in a process with threads (numpy starts one)."""
    import sys

    return (sys.version_info < (3, 12) and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and (_cpu_quota() or 2) >= 2)


def _split_point(raw: bytes) -> int | None:
    """The member boundary nearest raw's middle, or None when raw has none."""
    mid = len(raw) // 2
    before = raw.rfind(_MEMBER_START, 0, mid + len(_MEMBER_START))
    after = raw.find(_MEMBER_START, mid)
    cuts = [c for c in (before, after) if c >= 0]
    return min(cuts, key=lambda c: abs(c - mid), default=None)


def _in_two(size: int, parent: Callable, child: Callable, dir=None) -> tuple[Any, IO] | None:
    """(parent(), the TemporaryFile in dir that child(file) wrote meanwhile
    in one forked child, rewound); None when no child can run: size under
    _SPLIT_MIN_BYTES, no _two_cpus(), a refused file or fork.  ChildProcessError
    when child raises.  The child leaves through os._exit and is reaped before
    this returns or raises, killed first (and the file closed) if parent() does."""
    if size < _SPLIT_MIN_BYTES or not _two_cpus():
        return None
    try:
        file = tempfile.TemporaryFile(dir=dir)
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        file.close()
        return None
    if pid == 0:
        try:
            child(file)
            file.flush()
            os._exit(0)
        finally:
            os._exit(1)
    try:
        first = parent()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        file.close()
        raise
    if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0:
        file.close()
        raise ChildProcessError("the second process failed")
    file.seek(0)
    return first, file


def _read_canonical_in_two(raw: bytes) -> np.ndarray | None:
    """_read_canonical_vectors(raw), the members after the _split_point
    decoded and np.saved by _in_two's child: raw is canonical exactly when
    raw[:cut + 1] + "]" and "[" + raw[cut + 2:] are, with one dimension.
    ValueError when the first half is not or the dimensions differ,
    ChildProcessError when the second is not, None with no halves."""
    cut = _split_point(raw)
    halves = None if cut is None else _in_two(
        len(raw), lambda: _read_canonical_vectors(raw[:cut + 1] + b"]"),
        lambda file: np.save(file, _read_canonical_vectors(b"[" + raw[cut + 2:])))
    if halves is None:
        return None
    first, file = halves
    with file:
        second = np.load(file, allow_pickle=False)
    if second.dtype != first.dtype or second.shape[1:] != first.shape[1:]:
        raise ValueError("the two halves differ in dimension")
    return np.concatenate([first, second])


def read_vectors(path: str | Path) -> np.ndarray:
    """Read a vectors file as one (n, d) complex128 array.

    A file in the canonical layout takes a fast decode, in two processes
    when the file is large, holds two members or more and a second CPU is
    free, else in one.  Any other layout, and any file the fast decode
    refuses, goes through vectors_from_obj on the JSON of the same bytes,
    which alone raises the errors.  All give the same array bit for bit.  A
    boolean never passes the fast decode, and vectors_from_obj refuses it.
    """
    raw = Path(path).read_bytes()
    try:
        vectors = _read_canonical_in_two(raw)
        return _read_canonical_vectors(raw) if vectors is None else vectors
    except (ValueError, TypeError, OverflowError, ChildProcessError):
        pass  # the refusal, and what its frames hold, go before the general decode
    return vectors_from_obj(_loads(raw.decode("utf-8")))
