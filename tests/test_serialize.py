import contextlib
import errno
import gc
import itertools
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inclined
from inclined import cli
from inclined import (
    BranchProjectionSpec,
    canonical_json,
    derive_seed,
    digest_vectors,
    find_inclined_vector,
    toy_stage,
)
from inclined import serialize
from inclined.serialize import (
    branch_spec_from_obj,
    branch_spec_to_obj,
    inclination_from_obj,
    inclination_to_obj,
    read_json,
    read_vectors,
    stage_from_obj,
    stage_to_obj,
    vector_from_obj,
    vector_to_obj,
    vectors_from_obj,
    vectors_to_obj,
    write_json,
)

# Pinned so that any change to the digest scheme fails here: reruns compare
# digests only within one version and would not notice.
GOLDEN_DIGEST = "da3fee8ff73c6b5c6e8dd2557dc8344d5f9dd24f3102241bad85f0f862312939"


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == '{"a":[2,{"c":4,"d":3}],"b":1}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_canonical_json_encodes_a_1d_array_as_its_vector_object():
    v = np.array([1.5 - 2.25j, -0.0 + 5e-324j])
    assert canonical_json({"v": v}) == canonical_json({"v": vector_to_obj(v)})
    assert canonical_json([np.array([1.0, 2.0])]) == '[{"dim":2,"entries":[[1.0,0.0],[2.0,0.0]]}]'
    for other in (np.eye(2), np.float32(1.0), {1, 2}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json({"x": other})


def test_derive_seed_is_deterministic_and_tag_sensitive():
    assert derive_seed(7, "level", 1) == derive_seed(7, "level", 1)
    assert derive_seed(7, "level", 1) != derive_seed(7, "level", 2)
    assert derive_seed(7, "level", 1) != derive_seed(8, "level", 1)
    assert 0 <= derive_seed(0) < 2 ** 64


def test_vector_round_trip():
    v = np.array([1.5 - 2.25j, 0.0 + 1e-17j, -3.0], dtype=complex)
    obj = vector_to_obj(v)
    assert obj["dim"] == 3
    np.testing.assert_array_equal(vector_from_obj(obj), v)
    # the canonical encoding round-trips through text exactly
    again = vector_from_obj(json.loads(canonical_json(obj)))
    np.testing.assert_array_equal(again, v)


def test_vector_from_obj_rejects_malformed_input():
    with pytest.raises(ValueError):
        vector_from_obj({"dim": 2, "entries": [[1, 0]]})
    with pytest.raises(ValueError):
        vector_from_obj([1, 2, 3])
    with pytest.raises(ValueError):
        vector_from_obj({"dim": 1, "entries": [[float("inf"), 0]]})


@pytest.mark.parametrize("vectors", [np.ones(3), np.ones((2, 2, 2))], ids=["1-d", "3-d"])
def test_digest_vectors_refuses_what_is_not_a_family(vectors):
    with pytest.raises(ValueError, match=r"a vector family is an \(n, d\) array, got shape"):
        digest_vectors(vectors)


def test_vectors_from_obj_requires_nonempty_list():
    with pytest.raises(ValueError):
        vectors_from_obj([])


def test_digest_is_content_addressed():
    a = [np.array([1.0, 2.0 + 1j])]
    b = [np.array([1.0, 2.0 + 1j])]
    c = [np.array([1.0, 2.0 - 1j])]
    assert digest_vectors(a) == digest_vectors(b)
    assert digest_vectors(a) != digest_vectors(c)


def test_stage_round_trip():
    stage = toy_stage([4, 4, 2])
    again = stage_from_obj(stage_to_obj(stage))
    assert again == stage


def test_vectors_round_trip_is_bit_exact():
    tiny = np.nextafter(0.0, 1.0)  # smallest subnormal
    family = np.array([[-0.0 + 0.0j, complex(0.0, -0.0), complex(-0.0, -0.0)],
                       [complex(tiny, -tiny), complex(-2.5e-310, 1e-320), 1.5 - 2.25j],
                       [complex(1e308, -1e308), complex(-1.7976931348623157e308, 0.1), 1e-17j]])
    again = vectors_from_obj(json.loads(canonical_json(vectors_to_obj(family))))
    assert again.shape == family.shape and again.dtype == np.complex128
    assert again.tobytes() == family.tobytes()


def test_digest_golden_value():
    family = np.array([[1.0, -0.0, 2.5 - 1j], [1j, -3.0, 0.5 + 0.25j]])
    assert digest_vectors(family) == GOLDEN_DIGEST


def test_digest_depends_on_shape():
    flat = np.arange(4, dtype=complex)
    assert digest_vectors(flat.reshape(1, 4)) != digest_vectors(flat.reshape(2, 2))


def test_digest_ignores_container_and_memory_order():
    rng = np.random.default_rng(4)
    family = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    wide = np.zeros((3, 10), dtype=complex)
    wide[:, ::2] = family
    digests = {digest_vectors(list(family)),
               digest_vectors(np.ascontiguousarray(family)),
               digest_vectors(np.asfortranarray(family)),
               digest_vectors(wide[:, ::2])}
    assert len(digests) == 1


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == inclined.__version__


def test_branch_spec_round_trip():
    stage = toy_stage([3, 2])
    rng = np.random.default_rng(1)
    dirs = tuple(rng.standard_normal(lv.d) + 1j * rng.standard_normal(lv.d) for lv in stage.levels)
    spec = BranchProjectionSpec(stage=stage, branch="01", directions=dirs)
    again = branch_spec_from_obj(json.loads(canonical_json(branch_spec_to_obj(spec))))
    assert again.branch == spec.branch
    assert again.stage == spec.stage
    for u, v in zip(again.directions, spec.directions):
        np.testing.assert_array_equal(u, v)


def test_inclination_certificate_round_trip():
    rng = np.random.default_rng(2)
    family = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(5)]
    cert = find_inclined_vector(family, 0.9, 200, 3)
    again = inclination_from_obj(json.loads(canonical_json(inclination_to_obj(cert))))
    assert again.achieved == cert.achieved
    assert again.family_digest == cert.family_digest
    assert again.status == "ok"
    np.testing.assert_array_equal(again.candidate, cert.candidate)
    failed = find_inclined_vector(family, 0.01, 20, 3)
    again = inclination_from_obj(json.loads(canonical_json(inclination_to_obj(failed))))
    assert (again.status, again.achieved) == ("failed", failed.achieved)
    obj = inclination_to_obj(cert)
    obj["status"] = "undecided"
    with pytest.raises(ValueError, match="status"):
        inclination_from_obj(obj)


@pytest.mark.parametrize("field, value", [
    ("achieved", "0.5"), ("bound", True), ("seed", "3"), ("iterations_used", 4.9),
    ("family_digest", 5), ("family_digest", None),
    # json.loads reads these tokens and literals as non-finite floats
    ("achieved", json.loads("NaN")), ("bound", json.loads("NaN")),
    ("bound", json.loads("Infinity")), ("achieved", json.loads("1e400"))])
def test_inclination_fields_take_json_types_strictly(field, value):
    cert = find_inclined_vector([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 0.9, 200, 3)
    obj = json.loads(canonical_json(inclination_to_obj(cert)))
    inclination_from_obj(obj)  # the unedited record is accepted
    obj[field] = value
    with pytest.raises(TypeError, match=field):
        inclination_from_obj(obj)


def test_a_boolean_entry_is_refused_beside_numbers():
    assert vectors_from_obj([{"dim": 2, "entries": [[1.0, 0.0], [0, 1]]}]).tolist() == [[1, 1j]]
    with pytest.raises(ValueError, match="boolean"):
        vectors_from_obj([{"dim": 2, "entries": [[0.5, 0.0], [True, 0.0]]}])
    cert = find_inclined_vector([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 0.9, 200, 3)
    obj = json.loads(canonical_json(inclination_to_obj(cert)))
    obj["candidate"]["entries"][1] = [False, 0.25]
    with pytest.raises(ValueError, match="boolean"):
        inclination_from_obj(obj)


def test_zero_one_entries_decode_bit_for_bit_and_one_boolean_among_them_is_refused():
    eye = np.eye(1000, 128, dtype=np.complex128)
    obj = json.loads(canonical_json(vectors_to_obj(eye)))
    assert vectors_from_obj(obj).tobytes() == eye.tobytes()
    # the same entries as tuples decode alike
    as_tuples = [{"dim": v["dim"], "entries": tuple(map(tuple, v["entries"]))} for v in obj[:3]]
    assert vectors_from_obj(as_tuples).tobytes() == eye[:3].tobytes()
    zeros = json.loads(canonical_json(vectors_to_obj(np.zeros((1000, 128)))))
    zeros[999]["entries"][127][1] = True
    with pytest.raises(ValueError, match="boolean"):
        vectors_from_obj(zeros)


@pytest.mark.parametrize("enabled", [True, False])
def test_read_json_restores_the_collector_state(tmp_path, enabled):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('[{"dim": 1, "entries": [[1.0, 0.0]]}]', encoding="utf-8")
    bad.write_text("[1,", encoding="utf-8")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert read_json(good) == [{"dim": 1, "entries": [[1.0, 0.0]]}]
        assert gc.isenabled() == enabled
        with pytest.raises(json.JSONDecodeError):
            read_json(bad)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


# ------------------------------------------------------- read_vectors

_SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e-320, 1e308, -1e308, 1.7976931348623157e308,
            0.1 + 2 ** -56, 1 / 3, -2 / 3, 1.0000000000000002, 123456789.01234567]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _families(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    values = draw(st.lists(_FLOATS, min_size=2 * n * d, max_size=2 * n * d))
    return np.array(values, dtype=np.float64).view(np.complex128).reshape(n, d)


def _general(text: str):
    """The reference decode of a vectors file, or None where it rejects one."""
    try:
        return vectors_from_obj(json.loads(text))
    except ValueError:
        return None


@contextlib.contextmanager
def _split_floor(split_min_bytes: int):
    """read_vectors with this size floor, as on a machine with two CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_SPLIT_MIN_BYTES", split_min_bytes)
        mp.setattr(serialize, "_cpu_quota", lambda: None)
        if hasattr(os, "fork"):
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield


def _read(text: str, split_min_bytes: int = serialize._SPLIT_MIN_BYTES):
    with tempfile.TemporaryDirectory() as tmp, _split_floor(split_min_bytes):
        path = Path(tmp) / "v.json"
        path.write_bytes(text.encode("utf-8"))
        try:
            return read_vectors(path)
        except ValueError:
            return None


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Each file is read with the real size floor, in one part, and with a floor
# of 0 bytes, in two parts when it holds two members or more (from Python
# 3.12 on, always in one).
_FLOORS = (serialize._SPLIT_MIN_BYTES, 0)
_FORKS = sys.version_info < (3, 12) and hasattr(os, "fork")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(family=_families())
def test_read_vectors_matches_the_general_decode(family):
    text = canonical_json(vectors_to_obj(family)) + "\n"
    for split_min_bytes in _FLOORS:
        got = _read(text, split_min_bytes)
        assert _same(got, _general(text))
        assert got.tobytes() == family.tobytes()
    if _FORKS:
        with _split_floor(0):
            assert (serialize._split_point(text.encode()) is not None) == (len(family) > 1)


_MUTATION_BYTES = '[]{},:"0123456789.eE+- \n'


@settings(max_examples=400, deadline=None, derandomize=True)
@given(family=_families(), data=st.data())
def test_mutated_files_decode_alike_or_fail_alike(family, data):
    text = canonical_json(vectors_to_obj(family)) + "\n"
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text) - 1))
        byte = data.draw(st.sampled_from(_MUTATION_BYTES))
        kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "insert":
            text = text[:at] + byte + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + byte + text[at + 1:]
    for split_min_bytes in _FLOORS:
        assert _same(_read(text, split_min_bytes), _general(text))


_PAIRS = [[1.5, -0.0], [0.25, 2.0]]


@pytest.mark.parametrize("text", [
    json.dumps([{"dim": 2, "entries": _PAIRS}], indent=2),
    json.dumps([{"entries": _PAIRS, "dim": 2}], separators=(",", ":")),
    canonical_json([{"dim": 2, "entries": _PAIRS, "extra": 1}]),
    json.dumps([{"dim": 2, "entries": _PAIRS}, {"dim": 2, "entries": _PAIRS}]),
    json.dumps([{"dim": 2, "entries": [[1.0, float("nan")], [0.0, 1.0]]}], separators=(",", ":")),
    '[{"dim":2,"entries":[[1e400,0.0],[0.0,1.0]]}]',
    '[{"dim":2.0,"entries":[[1.0,0.0],[0.0,1.0]]}]',
    '[{"dim":2,"entries":[["1.0",0.0],[0.0,1.0]]}]',
    '[{"dim":1,"entries":[[18446744073709551616,0]]}]',
], ids=["indent-2", "entries-first", "extra-key", "spaces", "nan", "1e400",
        "float-dim", "string-entry", "int-2**64"])
def test_non_canonical_layouts_take_the_general_decode(text):
    with pytest.raises(ValueError):
        serialize._read_canonical_vectors(text.encode("utf-8"))
    assert _same(_read(text), _general(text))


def test_canonical_files_take_the_fast_decode(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    family = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    path = tmp_path / "v.json"
    write_json(path, vectors_to_obj(family))

    def general_decode(*args):
        raise AssertionError("a canonical vectors file fell back to the general decode")

    for name in ("read_json", "_loads", "vectors_from_obj"):
        monkeypatch.setattr(serialize, name, general_decode)
    for split_min_bytes in _FLOORS:  # one part, then two
        with _split_floor(split_min_bytes):
            got = read_vectors(path)
        assert got.shape == (3, 7) and got.tobytes() == family.tobytes()


def test_a_non_canonical_file_is_read_once(tmp_path, monkeypatch):
    path = tmp_path / "v.json"
    path.write_text(json.dumps([{"dim": 1, "entries": [[1.0, 0.0]]}], indent=1), encoding="utf-8")
    read_bytes = Path.read_bytes

    def read_then_replace(self):
        raw = read_bytes(self)
        self.write_text(json.dumps([{"dim": 1, "entries": [[2.0, 0.0]]}], indent=1),
                        encoding="utf-8")
        return raw

    monkeypatch.setattr(Path, "read_bytes", read_then_replace)
    assert read_vectors(path).tolist() == [[1.0 + 0.0j]]


# ------------------------------------------------------- two-part decode

_needs_fork = pytest.mark.skipif(not _FORKS, reason="the decode forks only before Python 3.12")


def _counted_forks(monkeypatch, fork=os.fork) -> list:
    forks = []

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _parent_decodes(monkeypatch) -> list:
    """The length of each input _read_canonical_vectors gets in this process
    from now on, not in a forked child."""
    parent, decode, lengths = os.getpid(), serialize._read_canonical_vectors, []

    def recorded(raw):
        if os.getpid() == parent:
            lengths.append(len(raw))
        return decode(raw)

    monkeypatch.setattr(serialize, "_read_canonical_vectors", recorded)
    return lengths


@_needs_fork
def test_a_large_canonical_file_decodes_in_two_parts_bit_for_bit(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    family = rng.standard_normal((200, 128)) + 1j * rng.standard_normal((200, 128))
    family.real[0, :len(_SPECIAL)] = _SPECIAL
    family.imag[-1, :len(_SPECIAL)] = _SPECIAL
    path = tmp_path / "v.json"
    write_json(path, vectors_to_obj(family))
    raw = path.read_bytes()
    assert len(raw) > serialize._SPLIT_MIN_BYTES
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(serialize, "_cpu_quota", lambda: None)
    forks = _counted_forks(monkeypatch)
    decode = serialize._read_canonical_vectors
    parent_decodes = _parent_decodes(monkeypatch)
    got = read_vectors(path)
    assert len(forks) == 1
    assert parent_decodes == [serialize._split_point(raw) + 2]  # the first half, and only it
    assert _same(got, decode(raw))
    assert got.tobytes() == family.tobytes()
    _assert_no_child_left()


@_needs_fork
@pytest.mark.parametrize("second_half", ["bad-number", "other-dim"])
def test_a_second_half_in_doubt_gives_one_part_and_leaves_no_child(second_half, monkeypatch):
    # The file goes to the general decode at once: the parent decodes its
    # own half, and not the whole file again.
    family = np.arange(16, dtype=np.float64).view(np.complex128).reshape(4, 2) + 0.5
    if second_half == "bad-number":  # the child refuses its half
        text = canonical_json(vectors_to_obj(family)) + "\n"
        at = text.rindex(".")
        text = text[:at] + "." + text[at:]  # "7..5": the layout stays canonical, the JSON does not
        refusal = ChildProcessError
    else:  # two members of dim 2, then one of dim 4: each half is canonical
        text = canonical_json(vectors_to_obj(family[:2]) + vectors_to_obj(family[2:].reshape(1, 4)))
        refusal = ValueError
    raw = text.encode("utf-8")
    with _split_floor(0), pytest.raises(refusal):
        serialize._read_canonical_in_two(raw)
    _assert_no_child_left()
    forks, parent_decodes = _counted_forks(monkeypatch), _parent_decodes(monkeypatch)
    assert _read(text, 0) is None and _general(text) is None
    assert len(forks) == 1
    assert parent_decodes == [serialize._split_point(raw) + 2]
    _assert_no_child_left()


@_needs_fork
def test_an_exception_in_the_parents_half_kills_and_reaps_the_child(tmp_path, monkeypatch):
    # Each child's half is more than a pipe holds, so it would wait on its write.
    family = np.ones((2, 8192), dtype=np.complex128)
    path = tmp_path / "v.json"
    write_json(path, vectors_to_obj(family))
    parent, decode, entries = os.getpid(), serialize._read_canonical_vectors, serialize._entries

    def failing_in_the_parent(real):
        def fails(arg):
            if os.getpid() == parent:
                raise RuntimeError("parent's half")
            return real(arg)
        return fails

    monkeypatch.setattr(serialize, "_read_canonical_vectors", failing_in_the_parent(decode))
    monkeypatch.setattr(serialize, "_entries", failing_in_the_parent(entries))
    with _split_floor(0):
        with pytest.raises(RuntimeError, match="parent's half"):
            read_vectors(path)
        _assert_no_child_left()
        with pytest.raises(RuntimeError, match="parent's half"):
            write_json(tmp_path / "w.json", {"vector": family.ravel()})
        _assert_no_child_left()
    assert not (tmp_path / "w.json").exists()


def _made_files(monkeypatch) -> list:
    """Each (dir, file) of a tempfile.TemporaryFile call from now on."""
    made, temporary_file = [], tempfile.TemporaryFile

    def recorded(*args, dir=None, **kwargs):
        file = temporary_file(*args, dir=dir, **kwargs)
        made.append((dir, file))
        return file

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    return made


@_needs_fork
def test_a_child_no_longer_wanted_is_killed_at_once(monkeypatch):
    def parent():
        raise RuntimeError("parent's half")

    made = _made_files(monkeypatch)
    start = time.monotonic()
    with _split_floor(0), pytest.raises(RuntimeError, match="parent's half"):
        serialize._in_two(0, parent, lambda file: time.sleep(60))
    assert time.monotonic() - start < 30  # the child was not waited for
    _assert_no_child_left()
    assert len(made) == 1 and made[0][1].closed


@_needs_fork
def test_the_reads_file_goes_to_the_temporary_directory_and_the_writes_beside_its_target(
        tmp_path, monkeypatch):
    # An input directory may be read-only; the output's is written anyway.
    family = np.arange(8, dtype=np.float64).view(np.complex128).reshape(2, 2)
    path, out = tmp_path / "in" / "v.json", tmp_path / "out" / "w.json"
    path.parent.mkdir()
    out.parent.mkdir()
    write_json(path, vectors_to_obj(family))
    made = _made_files(monkeypatch)
    with _split_floor(0):
        assert read_vectors(path).tobytes() == family.tobytes()
        write_json(out, {"vector": family.ravel()})
    assert [d if d is None else Path(d) for d, _ in made] == [None, out.parent.resolve()]
    assert all(file.closed for _, file in made)
    assert out.read_text() == canonical_json({"vector": family.ravel()}) + "\n"


def test_a_first_half_that_is_not_canonical_goes_straight_to_the_general_decode(
        tmp_path, monkeypatch):
    path = tmp_path / "v.json"
    path.write_text('[{"dim":2,"entries":[[1e400,0.0],[0.0,1.0]]},'
                    '{"dim":2,"entries":[[1.0,0.0],[0.0,1.0]]}]\n')
    parent_decodes = _parent_decodes(monkeypatch)
    forks = _counted_forks(monkeypatch)
    with _split_floor(0), pytest.raises(ValueError, match="non-finite"):
        read_vectors(path)
    assert len(parent_decodes) == 1  # the first half when forked, else the whole file
    assert len(forks) == _FORKS
    _assert_no_child_left()


def _fork_refused():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def _temporary_file_refused(*args, **kwargs):
    raise OSError(errno.EMFILE, "Too many open files")


@pytest.mark.parametrize("limit", ["fork-refused", "one-cpu", "one-cpu-quota",
                                   "no-temporary-file"])
def test_without_a_second_process_the_decode_takes_one_part(limit, tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    family = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    family /= np.linalg.norm(family, axis=1, keepdims=True)
    path = tmp_path / "v.json"
    write_json(path, vectors_to_obj(family))
    monkeypatch.setattr(serialize, "_SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if limit == "one-cpu" else {0, 1},
                        raising=False)
    monkeypatch.setattr(serialize, "_cpu_quota", lambda: 1.0 if limit == "one-cpu-quota" else None)
    forks = _counted_forks(monkeypatch, fork=_fork_refused if limit == "fork-refused" else os.fork)
    if limit == "no-temporary-file":
        monkeypatch.setattr(tempfile, "TemporaryFile", _temporary_file_refused)
    assert read_vectors(path).tobytes() == family.tobytes()
    assert cli.main(["incline", str(path), "--bound", "0.9", "--seed", "1",
                     "--out", str(tmp_path / "cert.json")]) == 0
    payload = {"vector": family.ravel(), "max_residual": 1e-17}
    write_json(tmp_path / "w.json", payload)  # the write, too
    assert (tmp_path / "w.json").read_text() == canonical_json(payload) + "\n"
    assert len(forks) == (3 if limit == "fork-refused" and _FORKS else 0)


# ------------------------------------------------------- two-part write

def _payload(entries: int) -> dict:
    """An intersect-like payload whose vector holds the awkward floats."""
    rng = np.random.default_rng(entries)
    v = rng.standard_normal(entries) + 1j * rng.standard_normal(entries)
    v /= np.linalg.norm(v)
    awkward = [-0.0, 5e-324, 1e16, 1e-05, -1e-05, 1e-320, 0.1, 1 / 3]
    v.real[:len(awkward)] = awkward[:entries]
    v.imag[-len(awkward):] = awkward[-entries:]
    return {"manifest": {"command": "family intersect", "inputs": {"a.json": "0" * 64}},
            "branches": ["01", "10"], "separating_level": 1, "vector": v,
            "residuals": {"01": 2e-16, "10": 0.0}, "max_residual": 2e-16, "\u00fcber": True}


# Past the real floor (about 44 bytes a pair), odd; odd and short; one entry.
_WRITE_SIZES = (serialize._SPLIT_MIN_BYTES // 44 + 1000, 8191, 1)
# The real chunk, and one that cuts every size but the last into several.
_CHUNKS = (serialize._CHUNK_PAIRS, 1000)


def _vectors(v: np.ndarray) -> dict:
    """v as each kind of array the writer takes: complex, a strided view of
    twice its length, float64 and integer."""
    wide = np.zeros(2 * v.size, dtype=np.complex128)
    wide[::2] = v
    return {"complex": v, "strided": wide[::2], "float64": v.real.copy(),
            "int": np.arange(v.size) - v.size // 2}


@pytest.mark.parametrize("entries", _WRITE_SIZES)
def test_write_json_of_a_vector_is_canonical_json_byte_for_byte(entries, tmp_path, monkeypatch):
    payload = _payload(entries)
    parent, real_entries = os.getpid(), serialize._entries
    for kind, v in _vectors(payload["vector"]).items():
        payload["vector"] = v
        expected = canonical_json({**payload, "vector": vector_to_obj(v)}) + "\n"
        assert canonical_json(payload) + "\n" == expected
        for split_min_bytes, chunk_pairs in itertools.product(_FLOORS, _CHUNKS):
            forks, formatted = _counted_forks(monkeypatch), []

            def recorded(v):
                if os.getpid() == parent:
                    formatted.append(len(v))
                return real_entries(v)

            monkeypatch.setattr(serialize, "_entries", recorded)
            monkeypatch.setattr(serialize, "_CHUNK_PAIRS", chunk_pairs)
            with _split_floor(split_min_bytes):
                write_json(tmp_path / "w.json", payload)
            assert (tmp_path / "w.json").read_bytes() == expected.encode(), kind
            two = _FORKS and entries > 1 and 44 * entries >= split_min_bytes
            assert len(forks) == two
            assert formatted == ([entries // 2] if two else [entries])  # the parent's half alone
            _assert_no_child_left()
    assert sorted(tmp_path.iterdir()) == [tmp_path / "w.json"]


@pytest.mark.parametrize("half", ["one-part", "parents-half"])
def test_a_non_finite_entry_fails_the_write_and_leaves_no_file(half, tmp_path, monkeypatch):
    payload = _payload(9)
    payload["vector"][0] = complex(1.0, np.inf) if half == "one-part" else np.nan
    forks = _counted_forks(monkeypatch)
    with _split_floor(serialize._SPLIT_MIN_BYTES if half == "one-part" else 0):
        with pytest.raises(ValueError, match="Out of range float"):
            write_json(tmp_path / "w.json", payload)
    assert len(forks) == (half == "parents-half" and _FORKS)
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()
    (tmp_path / "w.json").write_text("old")
    with pytest.raises(ValueError, match="Out of range float"):
        write_json(tmp_path / "w.json", payload)
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [("w.json", "old")]


def test_a_dict_with_other_keys_than_strings_is_written_in_one_part(tmp_path, monkeypatch):
    payload = {10: _payload(5)["vector"], 2: 1.0}  # json sorts 2 before 10, then writes "10", "2"
    forks = _counted_forks(monkeypatch)
    with _split_floor(0):
        write_json(tmp_path / "w.json", payload)
    assert (tmp_path / "w.json").read_text() == canonical_json(payload) + "\n"
    assert forks == []


@_needs_fork
def test_a_failed_writing_child_gives_the_one_part_write(tmp_path, monkeypatch):
    payload = _payload(9)
    payload["vector"][-1] = np.nan  # in the child's half: its encode refuses it
    forks = _counted_forks(monkeypatch)
    with _split_floor(0), pytest.raises(ValueError, match="Out of range float"):
        write_json(tmp_path / "w.json", payload)
    assert len(forks) == 1
    _assert_no_child_left()


def test_write_json_replaces_a_links_target_and_refuses_what_is_no_file(tmp_path):
    (tmp_path / "target.json").write_text("old")
    (tmp_path / "link.json").symlink_to("target.json")
    write_json(tmp_path / "link.json", {"a": 1})
    assert (tmp_path / "link.json").is_symlink()
    assert (tmp_path / "target.json").read_text() == '{"a":1}\n'
    os.mkfifo(tmp_path / "fifo")
    with pytest.raises(ValueError, match="not a regular file"):
        write_json(tmp_path / "fifo", {"a": 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.json", "target.json"]


@_needs_fork
def test_a_child_that_fails_after_the_parents_half_gives_the_one_part_bytes(tmp_path, monkeypatch):
    payload = _payload(9)
    parent, entries = os.getpid(), serialize._entries

    def failing_in_the_child(v):
        if os.getpid() != parent:
            raise RuntimeError("child's half")
        return entries(v)

    monkeypatch.setattr(serialize, "_entries", failing_in_the_child)
    forks = _counted_forks(monkeypatch)
    with _split_floor(0):
        write_json(tmp_path / "w.json", payload)
    assert len(forks) == 1
    _assert_no_child_left()
    assert (tmp_path / "w.json").read_text() == canonical_json(payload) + "\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "w.json"]


@pytest.mark.parametrize("files, quota", [
    ({}, None),
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu.max": "100000 100000\n"}, 1.0),
    ({"cpu.max": "250000 100000\n"}, 2.5),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "150000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1.5),
    ({"cpu/cpu.cfs_quota_us": "150000\n"}, None),
], ids=["none", "v2-max", "v2-one", "v2-two-and-a-half", "v1-unlimited", "v1-one-and-a-half",
        "v1-no-period"])
def test_the_cgroup_cpu_quota_is_read(files, quota, tmp_path, monkeypatch):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(serialize, "_CGROUP_ROOT", tmp_path)
    assert serialize._cpu_quota() == quota
