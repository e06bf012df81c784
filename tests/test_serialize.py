import gc
import json
from pathlib import Path

import numpy as np
import pytest

import inclined
from inclined import (
    BranchProjectionSpec,
    canonical_json,
    derive_seed,
    digest_vectors,
    find_inclined_vector,
    toy_stage,
)
from inclined.serialize import (
    branch_spec_from_obj,
    branch_spec_to_obj,
    inclination_from_obj,
    inclination_to_obj,
    read_json,
    stage_from_obj,
    stage_to_obj,
    vector_from_obj,
    vector_to_obj,
    vectors_from_obj,
    vectors_to_obj,
)

# Pinned so that any change to the digest scheme fails here: reruns compare
# digests only within one version and would not notice.
GOLDEN_DIGEST = "da3fee8ff73c6b5c6e8dd2557dc8344d5f9dd24f3102241bad85f0f862312939"


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == '{"a":[2,{"c":4,"d":3}],"b":1}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


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
    digests = {digest_vectors(list(family)),
               digest_vectors(np.ascontiguousarray(family)),
               digest_vectors(np.asfortranarray(family))}
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


def test_branch_spec_from_obj_rejects_wrong_sigma():
    stage = toy_stage([2])
    spec = BranchProjectionSpec(
        stage=stage, branch="0", directions=(np.array([1, 0], dtype=complex),))
    obj = branch_spec_to_obj(spec)
    obj["levels"][0]["sigma"] = "1"
    with pytest.raises(ValueError, match="prefix"):
        branch_spec_from_obj(obj)


def test_inclination_certificate_round_trip():
    rng = np.random.default_rng(2)
    family = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(5)]
    cert = find_inclined_vector(family, 0.9, 200, 3)
    again = inclination_from_obj(json.loads(canonical_json(inclination_to_obj(cert))))
    assert again.achieved == cert.achieved
    assert again.family_digest == cert.family_digest
    np.testing.assert_array_equal(again.candidate, cert.candidate)


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
