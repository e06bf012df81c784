import contextlib
import copy
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inclined
from inclined import cli
from inclined.cli import main
from inclined.family import BranchProjectionSpec, SuppressionFailure, predicate_sides, toy_stage
from inclined.search import InclinationCertificate
from inclined import serialize
from inclined.serialize import branch_spec_from_obj, branch_spec_to_obj, vectors_to_obj, write_json
import make_golden
from oracles import branch_diagonals

RHO_DEFAULT_BOUND = 19 / 20


def _write_vectors(path, vectors):
    write_json(path, vectors_to_obj(vectors))


@pytest.fixture
def basis2(tmp_path):
    path = tmp_path / "basis2.json"
    _write_vectors(path, list(np.eye(2, dtype=complex)))
    return str(path)


@pytest.fixture
def toy_stage_file(tmp_path):
    path = tmp_path / "toy2.json"
    write_json(path, {"regime": "toy", "levels": [{"m": 1, "d": 4}, {"m": 2, "d": 4}]})
    return str(path)


# ------------------------------------------------------------- params

def test_params_reports_minimum_and_trace(capsys):
    assert main(["params", "--m", "1"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    assert out["d_min"] == 347
    trace = out["trace"]
    assert trace["last_fail"]["d"] == 346
    assert trace["first_success"]["d"] == 347
    assert int(trace["last_fail"]["lhs"], 16) >= int(trace["last_fail"]["rhs"], 16)
    assert int(trace["first_success"]["lhs"], 16) < int(trace["first_success"]["rhs"], 16)


def test_params_beyond_the_int_string_limit(capsys):
    # The sides at m = 4 have more decimal digits than str(int) converts by
    # default; base 16 has no such limit.
    assert main(["params", "--m", "4"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    assert out["d_min"] == 4228
    for key, d in (("first_success", 4228), ("last_fail", 4227)):
        lhs, rhs = predicate_sides(4, d)
        assert out["trace"][key] == {"d": d, "lhs": hex(lhs), "rhs": hex(rhs)}


@pytest.mark.parametrize("m", range(1, 9))
def test_params_trace_reads_back_to_the_predicate_sides(m, capsys):
    assert main(["params", "--m", str(m)]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    sides = {}
    for key in ("first_success", "last_fail"):
        entry = out["trace"][key]
        sides[key] = int(entry["lhs"], 16), int(entry["rhs"], 16)
        assert sides[key] == predicate_sides(m, entry["d"])
    assert out["trace"]["first_success"]["d"] == out["d_min"]
    assert out["trace"]["last_fail"]["d"] == out["d_min"] - 1
    lhs, rhs = sides["first_success"]
    assert lhs < rhs
    lhs, rhs = sides["last_fail"]
    assert lhs >= rhs


# ------------------------------------------------------------ incline

def test_incline_standard_basis(basis2, tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    rc = main(["incline", basis2, "--bound", "0.9", "--seed", "1", "--out", str(out_file)])
    assert rc == 0
    payload = json.loads(out_file.read_text())
    cert = payload["certificate"]
    assert cert["status"] == "ok"
    assert 1 / math.sqrt(2) - 1e-9 <= cert["achieved"] <= 0.9
    assert payload["manifest"]["command"] == "incline"
    assert payload["manifest"]["root_seed"] == 1


def test_incline_infeasible_bound_exits_one(basis2, tmp_path):
    out_file = tmp_path / "cert.json"
    rc = main(["incline", basis2, "--bound", "0.0001", "--budget", "300",
               "--seed", "1", "--out", str(out_file)])
    assert rc == 1
    cert = json.loads(out_file.read_text())["certificate"]
    assert cert["status"] == "failed"
    assert cert["achieved"] >= 1 / math.sqrt(2) - 1e-9


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-320, 1.7e308 + 1.7e308j])
def test_a_member_whose_squared_norm_leaves_the_float_range_constrains(scale, tmp_path):
    # Normalized by a norm of inf or 0, the member scale * e_0 became a zero
    # row, and a phase times e_0 was certified at 0.0.  So did it when divided
    # by a largest modulus that is subnormal (1e-320, whose reciprocal is inf)
    # or itself inf (|1.7e308 + 1.7e308j|).
    vectors = np.array([[0, 1], [scale, 0]], dtype=complex)
    _write_vectors(tmp_path / "v.json", vectors)
    assert main(["incline", str(tmp_path / "v.json"), "--bound", "0.5", "--budget", "100",
                 "--seed", "1", "--out", str(tmp_path / "cert.json")]) == 1
    # a "failed" certificate: no unit vector is below 1/sqrt(2) against both e_0 and e_1
    achieved = json.loads((tmp_path / "cert.json").read_text())["certificate"]["achieved"]
    assert achieved >= 1 / math.sqrt(2) - 1e-9
    old = InclinationCertificate(
        family_digest=serialize.digest_vectors(vectors), achieved=0.0, bound=0.5, seed=1,
        candidate=np.array([0.7227690004350709 + 0.6910896989610599j, 0]), iterations_used=2,
        status="ok")
    with pytest.raises(ValueError, match="differs from recomputed"):
        inclined.verify_inclination(old, vectors)


_NUMBER_VECTORS = [{"dim": 2, "entries": [[0.6, 0], [1, 0]]},
                   {"dim": 2, "entries": [[0, 1], [0.5, 0.5]]}]


@pytest.mark.parametrize("text, code", [
    ('[{"dim":2,"entries":[[0.6,0],[true,false]]},{"dim":2,"entries":[[0,1],[0.5,0.5]]}]', 2),
    (json.dumps(_NUMBER_VECTORS, indent=2), 0),
    (json.dumps([{**_NUMBER_VECTORS[0], "note": "true"}, _NUMBER_VECTORS[1]]), 0),
], ids=["booleans", "indented-numbers", "true-in-a-string"])
def test_incline_refuses_boolean_entries(text, code, tmp_path):
    path = tmp_path / "vectors.json"
    path.write_text(text)
    assert main(["incline", str(path), "--bound", "0.99"]) == code


@pytest.mark.parametrize("command", ["verify", "intersect"])
def test_a_boolean_direction_entry_exits_two(command, tmp_path, toy_stage_file, capsys):
    # true decodes to 1.0 beside a number, which verify would otherwise
    # report as a certificate mismatch and intersect would use
    _, other = _build(tmp_path, toy_stage_file, "00")
    _, fam = _build(tmp_path, toy_stage_file, "10")
    payload = json.loads(fam.read_text())
    payload["levels"][0]["direction"]["entries"][0] = [True, 0.0]
    write_json(fam, payload)
    capsys.readouterr()
    argv = {"verify": ["family", "verify", str(fam)],
            "intersect": ["family", "intersect", str(fam), str(other)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


def test_incline_reruns_are_byte_identical(tmp_path):
    rng = np.random.default_rng(5)
    fam = rng.standard_normal((50, 16)) + 1j * rng.standard_normal((50, 16))
    src = tmp_path / "family.json"
    _write_vectors(src, list(fam))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["incline", str(src), "--bound", "0.9", "--seed", "42", "--out", str(out_a)]) == 0
    assert main(["incline", str(src), "--bound", "0.9", "--seed", "42", "--out", str(out_b)]) == 0
    # the certificates coincide; only the manifests' argv differ (the --out path)
    cert_a = json.loads(out_a.read_text())["certificate"]
    cert_b = json.loads(out_b.read_text())["certificate"]
    assert cert_a == cert_b
    # exact byte identity when the full argument vector matches
    first = out_a.read_bytes()
    assert main(["incline", str(src), "--bound", "0.9", "--seed", "42", "--out", str(out_a)]) == 0
    assert out_a.read_bytes() == first


# -------------------------------------------------------------- cover

def test_cover_single_point_finds_witness(tmp_path, capsys):
    src = tmp_path / "one.json"
    _write_vectors(src, [np.array([1.0, 0, 0], dtype=complex)])
    # a complex-typed point is realified; witness lives on the real sphere
    assert main(["cover", str(src), "--radius", "0.9", "--trials", "5000", "--seed", "0"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    assert out["status"] == "witness"


def test_cover_radius_two_finds_nothing(basis2, tmp_path):
    # a budget miss, not a covering proof
    src = tmp_path / "one.json"
    _write_vectors(src, [np.array([1.0, 0, 0], dtype=complex)])
    assert main(["cover", str(src), "--radius", "2.0", "--trials", "2000", "--seed", "0"]) == 3
    assert main(["cover", basis2, "--radius", "2.0"]) == 3


# ------------------------------------------------------------- family

def _build(tmp_path, toy_stage_file, branch, seed="7"):
    out = tmp_path / f"fam{branch}.json"
    rc = main(["family", "build", "--stage", toy_stage_file, "--branch", branch,
               "--basis", "random", "--seed", seed, "--out", str(out)])
    return rc, out


def test_family_build_verify_round_trip(tmp_path, toy_stage_file, capsys):
    rc, fam = _build(tmp_path, toy_stage_file, "01")
    assert rc == 0
    payload = json.loads(fam.read_text())
    assert payload["certificate"]["max_diagonal"] <= RHO_DEFAULT_BOUND
    assert payload["certificate"]["regime"] == "toy"
    capsys.readouterr()
    assert main(["family", "verify", str(fam)]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[0])
    assert out["ok"] is True
    assert out["bound"] == payload["certificate"]["bound"]


def test_family_verify_tampered_direction_exits_one(tmp_path, toy_stage_file):
    _, fam = _build(tmp_path, toy_stage_file, "01")
    payload = json.loads(fam.read_text())
    entries = payload["levels"][1]["direction"]["entries"]
    payload["levels"][1]["direction"]["entries"] = [[1.0, 0.0]] + [[0.0, 0.0]] * (len(entries) - 1)
    fam.write_text(json.dumps(payload))
    assert main(["family", "verify", str(fam)]) == 1


def _scaled_direction(fam, scale):
    # the record at fam, its level-1 direction times scale, rewritten and returned
    payload = json.loads(fam.read_text())
    direction = payload["levels"][0]["direction"]
    direction["entries"] = [[scale * x for x in pair] for pair in direction["entries"]]
    write_json(fam, payload)
    return payload


def test_a_direction_of_huge_magnitude_is_normalized_not_zeroed(tmp_path, toy_stage_file,
                                                                capsys):
    # Scaled by 1e200, the level-1 direction's squared norm overflows (the record
    # still verifies, as the next test shows).  Divided by that norm of inf, it
    # became zero, and a record of the zero direction's diagonals verified too.
    _, fam = _build(tmp_path, toy_stage_file, "01")
    payload = _scaled_direction(fam, 1e200)
    spec = branch_spec_from_obj(payload)
    zeroed = SimpleNamespace(stage=spec.stage, sigma=spec.sigma,
                             directions=(np.zeros(4), spec.directions[1]))
    forged = branch_diagonals(zeroed, inclined.random_orthonormal_basis(
        spec.stage.dim, payload["basis"]["seed"]))
    payload["certificate"].update(diagonals=forged.tolist(), max_diagonal=float(forged.max()))
    write_json(fam, payload)
    capsys.readouterr()
    assert main(["family", "verify", str(fam)]) == 1
    assert json.loads(capsys.readouterr().out)["check"] == "diagonals"


def test_inputs_of_extreme_magnitude_exit_as_in_a_plain_run_under_warnings_as_errors(
        tmp_path, toy_stage_file):
    # numpy's overflow warnings, which -W error turns into exceptions, stay in
    # the arithmetic that meets them: each command exits as it does without
    # the flags, not with a traceback and exit 1.  The records whose direction
    # is only scaled, by 1e200 (its squared norm overflows) or by 1e-200 (it
    # underflows), verify.  A subnormal member constrains and a subnormal
    # direction is normalized, instead of a divide by it that overflows.
    _write_vectors(tmp_path / "huge.json", np.array([[0, 1], [1e200, 0]]))
    _write_vectors(tmp_path / "subnormal.json", np.array([[5e-324, 0], [0, 1]]))
    _write_vectors(tmp_path / "basis.json", 1e200 * np.eye(16 + 256))
    _, fam = _build(tmp_path, toy_stage_file, "01")
    _, other = _build(tmp_path, toy_stage_file, "10")
    tiny, subnormal = tmp_path / "tiny.json", tmp_path / "subnormal_direction.json"
    tiny.write_bytes(fam.read_bytes())
    payload = json.loads(fam.read_text())
    payload["levels"][0]["direction"]["entries"] = [[5e-324, 0.0]] + [[0.0, 0.0]] * 3
    write_json(subnormal, payload)
    _scaled_direction(fam, 1e200)
    _scaled_direction(tiny, 1e-200)
    env = dict(os.environ, PYTHONPATH=str(Path(inclined.__file__).parents[1]))
    for argv, code in [
            (["incline", "huge.json", "--bound", "0.5", "--budget", "100", "--seed", "1"], 1),
            (["incline", "subnormal.json", "--bound", "0.5", "--budget", "100", "--seed", "1"], 1),
            (["cover", "huge.json", "--radius", "1.0", "--trials", "10", "--seed", "1"], 0),
            (["family", "build", "--stage", toy_stage_file, "--branch", "01", "--basis",
              "basis.json", "--out", "f.json"], 2),
            (["family", "verify", fam.name], 0),
            (["family", "verify", tiny.name], 0),
            (["family", "intersect", subnormal.name, other.name], 0)]:
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "inclined.cli",
                               *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=60)
        assert (done.returncode, "Traceback" in done.stderr) == (code, False), (argv, done.stderr)


def _eye_family(tmp_path):
    """Toy stage [2] built at rho 0.99 on the standard basis of C^4: the
    family file and its basis file."""
    write_json(tmp_path / "stage.json", {"regime": "toy", "levels": [{"m": 1, "d": 2}]})
    _write_vectors(tmp_path / "basis.json", list(np.eye(4, dtype=complex)))
    fam = tmp_path / "fam.json"
    assert main(["family", "build", "--stage", str(tmp_path / "stage.json"), "--branch", "0",
                 "--basis", str(tmp_path / "basis.json"), "--rho", "0.99", "--seed", "3",
                 "--out", str(fam)]) == 0
    return fam, str(tmp_path / "basis.json")


@pytest.mark.parametrize("basis", ["seeded", "file"])
def test_a_family_record_holds_no_copied_field(basis, tmp_path, toy_stage_file):
    # Each key records a fact once: a level's index is its place in the list,
    # and a seeded basis takes its size from the stage.
    if basis == "seeded":
        fam = _build(tmp_path, toy_stage_file, "01")[1]
    else:
        fam = _eye_family(tmp_path)[0]
    obj = json.loads(fam.read_text())
    assert obj.keys() == {"manifest", "stage", "branch", "levels", "basis", "rho", "certificate"}
    assert [lv.keys() for lv in obj["levels"]] == [{"direction"}] * len(obj["stage"]["levels"])
    assert obj["basis"].keys() == ({"kind", "seed"} if basis == "seeded" else {"kind", "digest"})
    assert obj["certificate"].keys() == {"diagonals", "max_diagonal", "bound", "regime"}


def test_family_verify_checks_the_recorded_bound_of_any_rho(tmp_path, capsys):
    # bound (1 + 0.99) / 2 = 0.995, above the 19/20 of the default rho
    fam, basis = _eye_family(tmp_path)
    cert = json.loads(fam.read_text())["certificate"]
    assert cert["bound"] == 0.995 and cert["max_diagonal"] > RHO_DEFAULT_BOUND
    capsys.readouterr()
    assert main(["family", "verify", str(fam), "--basis", basis]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "ok": True, "max_diagonal": cert["max_diagonal"], "bound": 0.995}


def test_family_verify_of_a_diagonal_over_the_bound_names_the_check(tmp_path, capsys):
    # The direction edited to e_0 gives e_0 the diagonal 1 > 0.995; the
    # recomputation is compared like any other, and the first miss is named.
    fam, basis = _eye_family(tmp_path)
    payload = json.loads(fam.read_text())
    payload["levels"][0]["direction"]["entries"] = [[1.0, 0.0], [0.0, 0.0]]
    write_json(fam, payload)
    capsys.readouterr()
    assert main(["family", "verify", str(fam), "--basis", basis]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "reason": "certificate mismatch",
                                                   "check": "diagonals"}


def test_family_verify_of_a_maximum_just_over_the_bound_names_max_diagonal(
        tmp_path, toy_stage_file, monkeypatch, capsys):
    # Recomputed diagonals 5e-11 above the bound match recorded ones at the
    # bound within 1e-10, yet the recomputed maximum must not exceed it.
    _, fam = _build(tmp_path, toy_stage_file, "01")
    payload = json.loads(fam.read_text())
    cert = payload["certificate"]
    cert.update(diagonals=[cert["bound"]] * len(cert["diagonals"]), max_diagonal=cert["bound"])
    write_json(fam, payload)
    monkeypatch.setattr("inclined.family._diagonals",
                        lambda spec, mat: np.full(mat.shape[0], cert["bound"] + 5e-11))
    capsys.readouterr()
    assert main(["family", "verify", str(fam)]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "reason": "certificate mismatch",
                                                   "check": "max_diagonal"}


def test_family_build_over_its_own_bound_exits_one_and_writes_nothing(
        tmp_path, toy_stage_file, monkeypatch, capsys):
    # diagonals above (1 + 0.9) / 2: only the build raises SuppressionFailure
    monkeypatch.setattr("inclined.family._diagonals", lambda spec, mat: np.full(mat.shape[0], 0.96))
    rc, fam = _build(tmp_path, toy_stage_file, "01")
    assert rc == 1
    assert not fam.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: diagonal suppression fails: max 0.96 > bound 0.95"]


def test_family_verify_prints_the_maximum_build_printed(tmp_path, capsys):
    # Directions keep the bits the search gave them, so verify recomputes
    # every diagonal exactly as build certified it.
    write_json(tmp_path / "stage.json", {"regime": "toy", "levels": [
        {"m": 1, "d": 4}, {"m": 2, "d": 4}, {"m": 3, "d": 2}]})
    for branch in ("000", "001", "011", "101"):
        fam = tmp_path / f"family_{branch}.json"
        assert main(["family", "build", "--stage", str(tmp_path / "stage.json"), "--branch", branch,
                     "--basis", "random", "--seed", "1", "--out", str(fam)]) == 0
        built = json.loads(capsys.readouterr().out)["max_diagonal"]
        assert main(["family", "verify", str(fam)]) == 0
        assert repr(json.loads(capsys.readouterr().out)["max_diagonal"]) == repr(built)


# Families built by earlier versions.  A file is added only when a record's
# schema or arithmetic changes; one that differs from the last only in
# `version` tests nothing new.
# - family_v060.json by 0.6.0, which normalized every direction once more;
# - family_v0100.json by 0.10.0: `inclined demo --seed 0 --outdir out`, whose
#   out/family_101.json it is;
# - family_v0110.json by 0.11.0 (commit 81c04e6): `inclined demo --seed 11
#   --outdir out`, whose out/family_101.json it is;
# - family_v0120.json by 0.12.0 (commit 143c9a1): `inclined demo --seed 12
#   --outdir out`, whose out/family_101.json it is;
# - family_v0130.json by 0.13.0 (commit c5fca04): `inclined demo --seed 13
#   --outdir out`, whose out/family_101.json it is;
# - family_v0140.json by 0.14.0 (commit 257ae79), the last version to write
#   levels[].sigma, certificate.branch and certificate.basis_digest:
#   `inclined demo --seed 14 --outdir out`, whose out/family_101.json it is;
# - family_v0150.json by 0.15.0 (commit 4481a70), the last version to write
#   levels[].m and basis.n: `inclined demo --seed 15 --outdir out`, whose
#   out/family_101.json it is;
# - family_v0160.json by 0.16.0 (commit 45fb98a), the first version to write
#   neither: `inclined demo --seed 16 --outdir out`, whose out/family_101.json
#   it is.
@pytest.mark.parametrize("name", ["family_v060", "family_v0100", "family_v0110", "family_v0120",
                                  "family_v0130", "family_v0140", "family_v0150",
                                  "family_v0160"])
def test_family_written_by_an_earlier_version_reproduces_its_diagonals(name, capsys):
    fam = Path(__file__).parent / "data" / f"{name}.json"
    obj = json.loads(fam.read_text())
    cert = obj["certificate"]
    assert main(["family", "verify", str(fam)]) == 0
    assert json.loads(capsys.readouterr().out)["max_diagonal"] == cert["max_diagonal"]
    spec = branch_spec_from_obj(obj)
    basis = inclined.random_orthonormal_basis(spec.stage.dim, obj["basis"]["seed"])
    diagonals = branch_diagonals(spec, basis)
    assert diagonals.tolist() == cert["diagonals"]


def test_a_recorded_basis_size_is_not_read(tmp_path, monkeypatch):
    # The seeded basis takes the stage's size: an "n" that 0.15.0 recorded,
    # here edited far past it, is neither drawn nor compared.
    obj = json.loads((Path(__file__).parent / "data" / "family_v0150.json").read_text())
    obj["basis"]["n"] = 6000
    write_json(tmp_path / "fam.json", obj)
    sizes, draw = [], cli.random_orthonormal_basis
    monkeypatch.setattr(cli, "random_orthonormal_basis",
                        lambda n, seed: sizes.append(n) or draw(n, seed))
    assert main(["family", "verify", str(tmp_path / "fam.json")]) == 0
    assert sizes == [528]


def test_family_verify_other_basis_seed_exits_one(tmp_path, toy_stage_file, capsys):
    _, fam = _build(tmp_path, toy_stage_file, "01")
    payload = json.loads(fam.read_text())
    payload["basis"]["seed"] += 1
    write_json(fam, payload)
    capsys.readouterr()
    assert main(["family", "verify", str(fam)]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "reason": "certificate mismatch",
                                                   "check": "diagonals"}


def test_seeded_verify_survives_a_one_ulp_redraw(tmp_path, toy_stage_file, monkeypatch, capsys):
    # A platform whose FFT or exp rounds differently redraws the seeded basis
    # a few ulps apart; its diagonals still agree within 1e-10, so the family
    # verifies.
    _, fam = _build(tmp_path, toy_stage_file, "01")
    recorded = json.loads(capsys.readouterr().out)["max_diagonal"]
    draw, redrawn = cli.random_orthonormal_basis, []

    def redraw(n, seed):
        b = draw(n, seed)
        b[0, 0] = np.nextafter(b[0, 0].real, np.inf) + 1j * b[0, 0].imag
        redrawn.append(b)
        return b

    monkeypatch.setattr(cli, "random_orthonormal_basis", redraw)
    assert main(["family", "verify", str(fam)]) == 0
    assert len(redrawn) == 1
    assert abs(json.loads(capsys.readouterr().out)["max_diagonal"] - recorded) <= 1e-10


def test_only_a_basis_read_from_a_file_is_hashed(tmp_path, toy_stage_file, monkeypatch, capsys):
    # A seeded basis is named by its {kind, seed, n} record; only a basis file
    # is hashed, once, and its digest is the build's one input digest.
    hashed, digest = [], cli.digest_vectors
    monkeypatch.setattr(cli, "digest_vectors", lambda v: hashed.append(np.shape(v)) or digest(v))
    _, fam = _build(tmp_path, toy_stage_file, "01")
    assert main(["family", "verify", str(fam)]) == 0
    assert hashed == []
    assert json.loads(fam.read_text())["manifest"]["input_digests"] == {}
    assert main(["demo", "--seed", "0", "--outdir", str(tmp_path / "demo")]) == 0
    assert hashed and set(hashed) <= {(1, 16), (1, 256)}  # intersection vectors
    hashed.clear()
    basis = tmp_path / "basis.json"
    _write_vectors(basis, inclined.random_orthonormal_basis(16 + 256, 9))
    assert main(["family", "build", "--stage", toy_stage_file, "--branch", "01",
                 "--basis", str(basis), "--out", str(fam)]) == 0
    assert hashed == [(16 + 256, 16 + 256)]
    built = json.loads(fam.read_text())
    assert built["manifest"]["input_digests"] == {"basis": built["basis"]["digest"]}


# Runs argv[1:] as the only child of a fresh interpreter, then prints that
# child's peak RSS from os.wait4 as a last stderr line.  A command forked from
# the test process itself would count that process's resident pages as its own.
_PEAK_LAUNCHER = """import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _cli_in_subprocess(argv, cwd, blas_threads, timeout=120, preexec_fn=None, peak=False):
    """``python -m inclined.cli argv`` in ``cwd``, with OPENBLAS_NUM_THREADS
    ``blas_threads`` (None: unset); with ``peak``, the result's ``peak_kib`` is
    the command's peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(Path(inclined.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    launcher = [sys.executable, "-c", _PEAK_LAUNCHER] if peak else []
    done = subprocess.run([*launcher, sys.executable, "-m", "inclined.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=timeout,
                          preexec_fn=preexec_fn)
    if peak:
        done.stderr, _, kib = done.stderr.rstrip("\n").rpartition("\n")
        done.peak_kib = int(kib)
    return done


def test_the_cli_starts_without_fractions_or_decimal(tmp_path):
    # They served only the capacity arithmetic, which the tests keep in
    # oracles.py; a fresh start of the CLI must not load them again.
    probe = "import sys, inclined.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(Path(inclined.__file__).parents[1])),
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


_REUSE_ARGV = [
    ["family", "build", "--stage", "stage.json", "--branch", "000", "--basis", "random",
     "--seed", "3", "--out", "f000.json"],
    ["family", "build", "--stage", "stage.json", "--branch", "001"],  # usage error
    ["family", "build", "--stage", "stage.json", "--branch", "001", "--basis", "random",
     "--out", "f001.json"],
    ["family", "verify", "f001.json"],
    ["family", "intersect", "f000.json", "f001.json", "--out", "common.json"],
]


def test_commands_in_one_process_match_one_process_each(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; no option value, default or
    # error carries from one call to the next.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal width
    stage = {"regime": "toy", "levels": [{"m": m, "d": 2} for m in (1, 2, 3)]}
    runs = {}
    for where in ("in_process", "subprocess"):
        workdir = tmp_path / where
        workdir.mkdir()
        write_json(workdir / "stage.json", stage)
        monkeypatch.chdir(workdir)
        results = []
        for argv in _REUSE_ARGV:
            if where == "subprocess":
                done = _cli_in_subprocess(argv, workdir, blas_threads=1)
                rc, out, err = done.returncode, done.stdout, done.stderr
            else:
                rc = main(argv)
                out, err = capsys.readouterr()
            # stderr only for the usage error: a command's last line holds its wall time
            results.append((rc, out, err if rc == 2 else None))
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        runs[where] = results, files
    results, files = runs["in_process"]
    assert [rc for rc, _, _ in results] == [0, 2, 0, 0, 0]
    usage_error = results[1][2]
    assert "Traceback" not in usage_error
    assert sum("error:" in line for line in usage_error.splitlines()) == 1
    assert json.loads(files["f001.json"])["manifest"]["root_seed"] == 0
    assert runs["in_process"] == runs["subprocess"]


def test_main_returns_argparse_exit_codes(capsys):
    assert main(["--help"]) == 0
    assert "usage: inclined" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["params", "--m", "x"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error:") == 2


def test_importing_the_cli_loads_no_process_machinery():
    # The two-process vectors decode uses os.fork alone, so start-up stays as lean.
    code = ("import sys, inclined.cli; "
            "print([m for m in ('multiprocessing', 'subprocess', 'concurrent') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(inclined.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def paper_inputs(tmp_path_factory):
    """The golden set's toy [2, 2, 2] and paper stages and six paper members (33.7 MB)."""
    root = tmp_path_factory.mktemp("inputs")
    make_golden.write_inputs(root, ("toy.json", "paper.json", "members.json"))
    return root


def test_descending_builds_search_past_their_first_evaluation(paper_inputs, monkeypatch, capsys):
    # The golden set's descending builds in this process, each level search's
    # evaluations counted; the golden set holds their bytes.
    results = []
    search = inclined.family.minimize_max_group_norm
    monkeypatch.setattr(inclined.family, "minimize_max_group_norm",
                        lambda *args: results.append(search(*args)) or results[-1])
    monkeypatch.chdir(paper_inputs)
    for argv in make_golden.DESCENDING_BUILDS:
        assert main(argv) == 0
    capsys.readouterr()
    # toy levels 1-3, then the paper stage's one level on each branch
    evals = [result[2] for result in results]
    assert len(evals) == 5 and min(evals[1], evals[3], evals[4]) > 1, evals


@pytest.mark.parametrize("argv", [
    ["incline", "deep.json", "--bound", "0.5"],
    ["family", "build", "--stage", "deep.json", "--branch", "0", "--basis", "random",
     "--out", "f.json"],
    ["family", "verify", "deep.json"],
    ["family", "intersect", "deep.json", "deep.json"],
], ids=["incline", "family-build", "family-verify", "family-intersect"])
def test_deeply_nested_json_exits_two(argv, tmp_path):
    (tmp_path / "deep.json").write_text("[" * 3000 + "]" * 3000)
    done = _cli_in_subprocess(argv, tmp_path, blas_threads=1, timeout=20)
    assert done.returncode == 2
    assert done.stderr.count("error:") == 1 and "Traceback" not in done.stderr


def test_family_build_from_basis_file_and_verify(tmp_path, toy_stage_file):
    from inclined import random_orthonormal_basis

    basis = random_orthonormal_basis(16 + 256, 9)
    basis_file = tmp_path / "basis.json"
    _write_vectors(basis_file, basis)
    fam = tmp_path / "fam.json"
    rc = main(["family", "build", "--stage", toy_stage_file, "--branch", "10",
               "--basis", str(basis_file), "--seed", "3", "--out", str(fam)])
    assert rc == 0
    # file-based basis must be supplied again for verification
    assert main(["family", "verify", str(fam)]) == 2
    assert main(["family", "verify", str(fam), "--basis", str(basis_file)]) == 0
    # a different basis is rejected as an input error
    other = tmp_path / "other.json"
    _write_vectors(other, random_orthonormal_basis(16 + 256, 10))
    assert main(["family", "verify", str(fam), "--basis", str(other)]) == 2


@pytest.mark.parametrize("edit, check", [
    (lambda payload: payload["certificate"].update(max_diagonal=0.01), "max_diagonal"),
    (lambda payload: payload["certificate"].update(bound=0.1), "bound"),
    (lambda payload: payload["certificate"].update(regime="paper"), "regime"),
    (lambda payload: payload.update(rho=0.5), "bound"),
    (lambda payload: payload["certificate"]["diagonals"].pop(), "diagonals"),
    (lambda payload: payload["certificate"]["diagonals"].__setitem__(0, 0.5), "diagonals"),
], ids=["max-diagonal", "bound", "regime", "rho", "diagonals-size", "diagonals-value"])
def test_family_verify_edited_certificate_field_exits_one(edit, check, tmp_path, toy_stage_file,
                                                          capsys):
    from inclined import random_orthonormal_basis

    basis = str(tmp_path / "basis.json")
    _write_vectors(basis, random_orthonormal_basis(16 + 256, 9))
    fam = tmp_path / "fam.json"
    assert main(["family", "build", "--stage", toy_stage_file, "--branch", "01",
                 "--basis", basis, "--seed", "3", "--out", str(fam)]) == 0
    payload = json.loads(fam.read_text())
    edit(payload)
    write_json(fam, payload)
    capsys.readouterr()
    assert main(["family", "verify", str(fam), "--basis", basis]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "reason": "certificate mismatch",
                                                   "check": check}


def test_paper_stage_with_a_huge_alphabet_is_decided_at_once(tmp_path):
    # The growth predicate for d = 10^8 would form 91^d; deciding the level
    # by min_level_dimension does not, so the stage passes at once and the
    # random basis of C^(10^16) is refused before anything is drawn.
    write_json(tmp_path / "huge.json", {"regime": "paper", "levels": [{"m": 1, "d": 10 ** 8}]})
    done = _cli_in_subprocess(["family", "build", "--stage", "huge.json", "--branch", "0",
                               "--basis", "random", "--out", "f.json"],
                              tmp_path, blas_threads=1, timeout=20)
    assert done.returncode == 2
    assert done.stderr.count("error:") == 1 and "Traceback" not in done.stderr


def _limit_address_space(nbytes):
    """`ulimit -v`: an allocation beyond ``nbytes`` fails at once instead of
    exhausting the machine's memory."""
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (nbytes, nbytes))


def test_intersect_of_an_oversized_stage_is_refused_before_allocating(tmp_path):
    # Toy stage [2, 2, 2, 2, 2]: branches 00000 and 00001 separate at level 5,
    # whose 2^32 coordinates would take 64 GiB; intersecting needs no basis.
    # Branches 00000 and 10000 separate at level 1, whose vector has 4 entries.
    stage = toy_stage([2] * 5)
    e0 = np.array([1, 0], dtype=complex)
    for branch in ("00000", "00001", "10000"):
        spec = BranchProjectionSpec(stage=stage, branch=branch, directions=(e0,) * 5)
        write_json(tmp_path / f"{branch}.json", branch_spec_to_obj(spec))
    done = _cli_in_subprocess(["family", "intersect", "00000.json", "00001.json"], tmp_path,
                              blas_threads=1, timeout=60,
                              preexec_fn=_limit_address_space(3 * 2 ** 30))
    assert done.returncode == 2, done.stderr
    assert done.stderr.count("error:") == 1 and "Traceback" not in done.stderr
    assert "level 5" in done.stderr
    done = _cli_in_subprocess(["family", "intersect", "00000.json", "10000.json", "--out",
                               "i.json"], tmp_path, blas_threads=1, timeout=60,
                              preexec_fn=_limit_address_space(3 * 2 ** 30))
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "i.json").read_text())
    assert record["separating_level"] == 1 and record["vector"]["dim"] == 4
    assert len(record["vector"]["entries"]) == 4


@pytest.mark.skipif(sys.platform == "darwin", reason="macOS does not enforce RLIMIT_AS")
def test_an_intersect_writes_where_it_computes_and_exits_two_below(tmp_path):
    # Toy stage [7, 7, 7]: branches 000 and 001 separate at level 3, whose
    # vector has 7^8 = 5 764 801 entries (88 MiB), below the 1 GiB cap.  Its
    # JSON write formats a bounded chunk at a time.  With one BLAS thread on
    # Linux x86-64 (Python 3.11, numpy 2.4) the intersection ran at 400 MiB of
    # address space and failed at 380, with or without --out; writing the
    # entries as Python lists had needed 680.  At 530 MiB the write runs and
    # gives the bytes of an unlimited run; at 300 the intersection itself
    # runs out of memory and exits 2.
    stage = toy_stage([7, 7, 7])
    e0 = np.eye(1, 7, dtype=complex)[0]
    for branch in ("000", "001"):
        spec = BranchProjectionSpec(stage=stage, branch=branch, directions=(e0,) * 3)
        write_json(tmp_path / f"{branch}.json", branch_spec_to_obj(spec))
    argv = ["family", "intersect", "000.json", "001.json", "--out", "i.json"]
    done = _cli_in_subprocess(argv, tmp_path, blas_threads=1)
    assert done.returncode == 0, done.stderr
    unlimited = (tmp_path / "i.json").read_bytes()
    (tmp_path / "i.json").unlink()
    done = _cli_in_subprocess(argv, tmp_path, blas_threads=1,
                              preexec_fn=_limit_address_space(530 * 2 ** 20))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "i.json").read_bytes() == unlimited
    done = _cli_in_subprocess(argv, tmp_path, blas_threads=1,
                              preexec_fn=_limit_address_space(300 * 2 ** 20))
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert errors == ["error: out of memory"]


@pytest.mark.skipif(sys.platform == "darwin", reason="macOS does not enforce RLIMIT_AS")
def test_cover_of_the_paper_basis_runs_in_a_bounded_address_space(paper_inputs):
    # cover draws one row block of trials at a time: one trial of 240 818
    # floats here, where one batch of 1 024 trials took 1.84 GiB.  Radius 1.5
    # is beyond reach, so it spends its budget and exits 3.
    done = _cli_in_subprocess(["cover", "members.json", "--radius", "1.5", "--trials", "1024"],
                              paper_inputs, blas_threads=1,
                              preexec_fn=_limit_address_space(2_000_000 * 1024))
    assert done.returncode == 3, done.stderr


@pytest.mark.skipif(sys.platform == "darwin", reason="ru_maxrss is in bytes on macOS, not KiB")
def test_a_seeded_toy_build_and_verify_hold_about_one_basis_copy(tmp_path):
    # Toy stage [4, 7, 2]: n = 2673, so one basis copy is 2673^2 * 16 bytes
    # (109 MiB) above `params --m 1`, the interpreter with numpy loaded.
    # Built a whole level at a time, the build held about 3.2 copies above
    # that, and about 2.3 while it kept every block of its toy search groups.
    write_json(tmp_path / "stage.json", {"regime": "toy", "levels": [
        {"m": 1, "d": 4}, {"m": 2, "d": 7}, {"m": 3, "d": 2}]})
    base = _cli_in_subprocess(["params", "--m", "1"], tmp_path, blas_threads=None, peak=True)
    assert base.returncode == 0, base.stderr
    commands = [["family", "build", "--stage", "stage.json", "--branch", "010", "--basis",
                 "random", "--seed", "5", "--out", "family.json"],
                ["family", "verify", "family.json"]]
    limit = base.peak_kib + 1.6 * 2673 ** 2 * 16 / 1024
    for threads in (1, 2):
        for argv in commands:
            done = _cli_in_subprocess(argv, tmp_path, blas_threads=threads, peak=True)
            assert done.returncode == 0, (argv, done.stderr)
            assert done.peak_kib < limit, (argv, threads, done.peak_kib, limit)


@pytest.mark.parametrize("argv, stage", [
    (["params", "--m", "30"], None),
    (["family", "build", "--stage", "deep.json", "--branch", "0" * 30, "--basis", "random",
      "--out", "f.json"], "paper"),
    (["family", "build", "--stage", "deep.json", "--branch", "0" * 30, "--basis", "random",
      "--out", "f.json"], "toy"),
], ids=["params-m-30", "paper-stage-30-levels", "toy-stage-30-levels"])
def test_levels_beyond_the_deepest_are_refused_at_once(argv, stage, tmp_path):
    # m = 30 would form d^(3 * 2^30 - 1) in the growth predicate, and a toy
    # level 2^30 axis labels; both are refused before that work.
    if stage is not None:
        write_json(tmp_path / "deep.json",
                   {"regime": stage, "levels": [{"m": m, "d": 400} for m in range(1, 31)]})
    done = _cli_in_subprocess(argv, tmp_path, blas_threads=1, timeout=20)
    assert done.returncode == 2
    assert done.stderr.count("error:") == 1 and "Traceback" not in done.stderr


def test_family_build_budget_exhausted_exits_three(tmp_path, capsys):
    stage_file = tmp_path / "tiny.json"
    write_json(stage_file, {"regime": "toy", "levels": [{"m": 1, "d": 2}]})
    basis_file = tmp_path / "std.json"
    _write_vectors(basis_file, list(np.eye(4, dtype=complex)))
    fam = tmp_path / "fam.json"
    rc = main(["family", "build", "--stage", str(stage_file), "--branch", "0",
               "--basis", str(basis_file), "--rho", "0.25", "--budget", "200",
               "--seed", "0", "--out", str(fam)])
    assert rc == 3
    assert "level 1" in capsys.readouterr().err


def test_family_intersect(tmp_path, toy_stage_file, capsys, monkeypatch):
    _, fam_a = _build(tmp_path, toy_stage_file, "01")
    _, fam_b = _build(tmp_path, toy_stage_file, "10")
    # The level-1 vector (16 entries, under 1 KB) is written in one process
    # at the real size floor and, on two CPUs before Python 3.12, in two at a
    # floor of 0.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(serialize, "_cpu_quota", lambda: None)
    forks, fork = [], os.fork if hasattr(os, "fork") else None
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork(), raising=False)
    out = tmp_path / "inter.json"
    written = []
    for floor in (serialize._SPLIT_MIN_BYTES, 0):
        monkeypatch.setattr(serialize, "_SPLIT_MIN_BYTES", floor)
        capsys.readouterr()
        rc = main(["family", "intersect", str(fam_a), str(fam_b), "--out", str(out)])
        assert rc == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert len(forks) == (sys.version_info < (3, 12) and fork is not None)
    payload = json.loads(out.read_text())
    assert payload["separating_level"] == 1
    assert payload["max_residual"] <= 1e-10
    vec = payload["vector"]
    norm = math.sqrt(sum(re * re + im * im for re, im in vec["entries"]))
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_family_intersect_projects_each_branch_once_at_the_separating_level(
        tmp_path, toy_stage_file, monkeypatch):
    # Branches 00, 01 and 10 first separate at level 2 (4^4 = 256 coordinates);
    # the vector is zero on level 1, which is never projected.
    families = [str(_build(tmp_path, toy_stage_file, b)[1]) for b in ("00", "01", "10")]
    calls = []
    original = inclined.family.apply_axis

    def counting(space, axis, direction, x):
        calls.append((axis, x.size))
        return original(space, axis, direction, x)

    monkeypatch.setattr(inclined.family, "apply_axis", counting)
    assert main(["family", "intersect", *families]) == 0
    assert sorted(calls) == [("00", 256), ("01", 256), ("10", 256)]


def test_family_intersect_refuses_a_utf16_family_file(tmp_path, toy_stage_file, capsys):
    # UTF-8 only, as family verify and build read their files
    _, fam = _build(tmp_path, toy_stage_file, "01")
    _, other = _build(tmp_path, toy_stage_file, "10")
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(other.read_text().encode("utf-16"))
    capsys.readouterr()
    assert main(["family", "intersect", str(fam), str(utf16)]) == 2
    assert "'utf-8' codec can't decode" in capsys.readouterr().err


# --------------------------------------------------------- input errors

def _ragged_family():
    return [{"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]},
            {"dim": 3, "entries": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}]


def _scalar_entry_family():
    return [{"dim": 2, "entries": [[1.0, 0.0], 5]}]


# Edits of a valid family file, each written to the file named by its key.
_FAMILY_EDITS = {
    # a seeded basis record on the paper stage d = 347, whose basis of
    # C^(347^2) is past the 1 GiB cap
    "bigfam": lambda payload: payload.update(
        stage={"regime": "paper", "levels": [{"m": 1, "d": 347}]}, branch="1",
        levels=[{"direction": {"dim": 347, "entries": [[1.0, 0.0]] * 347}}],
        basis={"kind": "phase-dft", "seed": 5}),
    # a seeded basis record as version 0.4.0 wrote it
    "v040_random": lambda payload: payload.update(basis={"kind": "random", "seed": 5, "n": 272}),
    "seed_null": lambda payload: payload["basis"].update(seed=None),
    "cert_str": lambda payload: payload.update(certificate="x"),
    "stage_d_str": lambda payload: payload["stage"]["levels"][0].update(d="4"),
    "stage_m_float": lambda payload: payload["stage"]["levels"][1].update(m=2.7),
    "dim_float": lambda payload: payload["levels"][1]["direction"].update(dim=4.9),
    "bound_huge": lambda payload: payload["certificate"].update(bound=10 ** 400),
    # rho outside (0, 1), with the bound (1 + rho) / 2 it implies: below the
    # maximum, or at least 1, which bounds nothing
    "rho_negative": lambda payload: (payload.update(rho=-0.9),
                                     payload["certificate"].update(bound=0.05)),
    "rho_above_one": lambda payload: (payload.update(rho=1.5),
                                      payload["certificate"].update(bound=1.25)),
    "branch_number": lambda payload: payload.update(branch=int(payload["branch"])),
    # certificate fields of the wrong JSON type, not edited values
    "cert_regime_null": lambda payload: payload["certificate"].update(regime=None),
    # iterated, the empty string would read as no diagonals and exit 1
    "cert_diagonals_str": lambda payload: payload["certificate"].update(diagonals=""),
    "cert_diagonal_true": lambda payload: payload["certificate"]["diagonals"].__setitem__(0, True),
    # json.loads reads the token NaN (which write_json never writes) as a float
    "cert_max_diagonal_nan": lambda payload: payload["certificate"].update(max_diagonal=math.nan),
    "cert_diagonal_nan": lambda payload: payload["certificate"]["diagonals"].__setitem__(0, math.nan),
    "cert_diagonal_infinity":
        lambda payload: payload["certificate"]["diagonals"].__setitem__(0, math.inf),
}


@pytest.mark.parametrize("family, argv", [
    (None, ["incline", "{notjson}", "--bound", "0.9"]),
    (None, ["incline", "{v}", "--bound", "0.9", "--budget", "0"]),
    (None, ["cover", "{v}", "--radius", "0.5", "--trials", "0"]),
    (_ragged_family(), ["incline", "{v}", "--bound", "0.9"]),
    (_ragged_family(), ["cover", "{v}", "--radius", "0.5"]),
    (_scalar_entry_family(), ["incline", "{v}", "--bound", "0.9"]),
    ([{"dim": 2, "entries": [["0.6", 0], [True, False]]}], ["incline", "{v}", "--bound", "0.9"]),
    ([{"dim": 2, "entries": [[True, False], [False, True]]}], ["incline", "{v}", "--bound", "0.9"]),
    ([{"dim": 2, "entries": [[1.0, 0.0], [None, 1.0]]}], ["incline", "{v}", "--bound", "0.9"]),
    # written in the canonical layout, which has its own decode
    ([{"dim": 1, "entries": [[2 ** 64, 0]]}], ["incline", "{v}", "--bound", "0.9"]),
    (None, ["cover", "{v}", "--radius", "nan"]),
    (None, ["cover", "{v}", "--radius", "0"]),
    (None, ["params", "--m", "0"]),
    (None, ["incline", "{v}", "--bound", "0.9", "--seed", "-1"]),
    (None, ["cover", "{v}", "--radius", "0.5", "--seed", "-1"]),
    (None, ["incline", "{v}", "--bound", "0.25", "--out", "{missing}/c.json"]),
    (None, ["family", "build", "--stage", "{stage}", "--branch", "01", "--basis", "random",
            "--out", "{missing}/f.json"]),
    (None, ["family", "build", "--stage", "{paper}", "--branch", "0", "--basis", "random",
            "--out", "{out}/f.json"]),
    # a basis of C^2 for the toy stage of dimension 272
    (None, ["family", "build", "--stage", "{stage}", "--branch", "01", "--basis", "{v}",
            "--out", "{out}/f.json"]),
    (None, ["family", "verify", "{bigfam}"]),
    (None, ["family", "verify", "{v040_random}"]),
    (None, ["family", "verify", "{seed_null}"]),
    (None, ["family", "verify", "{cert_str}"]),
    (None, ["family", "verify", "{stage_d_str}"]),
    (None, ["family", "verify", "{stage_m_float}"]),
    (None, ["family", "verify", "{dim_float}"]),
    (None, ["family", "verify", "{bound_huge}"]),
    (None, ["family", "verify", "{rho_negative}"]),
    (None, ["family", "verify", "{rho_above_one}"]),
    (None, ["family", "verify", "{branch_number}"]),
    (None, ["family", "verify", "{cert_regime_null}"]),
    (None, ["family", "verify", "{cert_diagonals_str}"]),
    (None, ["family", "verify", "{cert_diagonal_true}"]),
    (None, ["family", "verify", "{cert_max_diagonal_nan}"]),
    (None, ["family", "verify", "{cert_diagonal_nan}"]),
    (None, ["family", "verify", "{cert_diagonal_infinity}"]),
    # a seeded family takes no basis file
    (None, ["family", "verify", "{fam}", "--basis", "{v}"]),
    (None, ["family", "intersect", "{fam}", "{fam}"]),
], ids=["incline-malformed-json", "budget-0", "trials-0", "incline-ragged", "cover-ragged",
        "scalar-entry", "string-entry", "bool-entry", "null-entry", "int-2**64-entry",
        "radius-nan", "radius-0", "params-m-0", "incline-seed-negative", "cover-seed-negative",
        "incline-out-missing-dir", "build-out-missing-dir", "build-random-basis-too-large",
        "build-stage-basis-mismatch",
        "verify-random-basis-too-large", "verify-0.4.0-random-basis", "verify-basis-seed-null",
        "verify-certificate-string", "verify-stage-d-string", "verify-stage-m-float",
        "verify-direction-dim-float", "verify-bound-too-large-for-float",
        "verify-rho-negative", "verify-rho-above-one", "verify-branch-number",
        "verify-certificate-regime-null", "verify-certificate-diagonals-string",
        "verify-certificate-diagonal-true", "verify-certificate-max-diagonal-nan",
        "verify-certificate-diagonal-nan", "verify-certificate-diagonal-infinity",
        "verify-seeded-family-with-basis-file", "intersect-duplicate-branch"])
def test_bad_input_exits_two_with_one_error_line(family, argv, basis2, toy_stage_file, tmp_path,
                                                 capsys):
    path = basis2
    if family is not None:
        path = str(tmp_path / "bad.json")
        write_json(path, family)
    families = {}
    if any(arg.strip("{}") in {"fam", *_FAMILY_EDITS} for arg in argv):
        # a valid family, so only the bad input can fail; its branch has no
        # leading 0, so the branch_number edit keeps every digit
        rc, families["fam"] = _build(tmp_path, toy_stage_file, "10")
        assert rc == 0
        capsys.readouterr()
        for name, edit in _FAMILY_EDITS.items():
            payload = json.loads(families["fam"].read_text())
            edit(payload)
            families[name] = tmp_path / f"{name}.json"
            families[name].write_text(json.dumps(payload))  # json.dumps writes NaN
    paper = tmp_path / "paper.json"
    write_json(paper, {"regime": "paper", "levels": [{"m": 1, "d": 347}]})
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{not json")
    rc = main([arg.format(v=path, stage=toy_stage_file, paper=paper, notjson=notjson,
                          out=tmp_path, missing=tmp_path / "missing", **families)
               for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _failed_certificate(vectors, c, budget, seed):
    return InclinationCertificate(family_digest="x", candidate=np.ones(1),
                                  achieved=1.0, bound=c, seed=seed, iterations_used=budget,
                                  status="failed")


@pytest.mark.parametrize("target, run, argv, code", [
    ("find_inclined_vector", _failed_certificate, ["demo", "--outdir", "{out}"], 3),
    ("build_branch_projection",
     _raise(SuppressionFailure("over the bound")),
     ["family", "build", "--stage", "{stage}", "--branch", "01", "--basis", "random",
      "--out", "{out}/f.json"], 1),
    ("build_branch_projection", _raise(MemoryError()),
     ["family", "build", "--stage", "{stage}", "--branch", "01", "--basis", "random",
      "--out", "{out}/f.json"], 2),
], ids=["demo-budget", "build-suppression", "build-out-of-memory"])
def test_uncaught_outcomes_keep_the_exit_code_contract(target, run, argv, code, toy_stage_file,
                                                       tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, target, run)
    assert main([arg.format(stage=toy_stage_file, out=tmp_path) for arg in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].split("error:", 1)[1].strip()


# ----------------------------------------------------- fuzzed families

@pytest.fixture(scope="module")
def valid_families(tmp_path_factory):
    """Two valid toy families, built once: branch 01 to edit and branch 10."""
    workdir = tmp_path_factory.mktemp("fuzz")
    stage = workdir / "stage.json"
    write_json(stage, {"regime": "toy", "levels": [{"m": 1, "d": 4}, {"m": 2, "d": 4}]})
    paths = []
    for branch in ("01", "10"):
        paths.append(workdir / f"fam{branch}.json")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["family", "build", "--stage", str(stage), "--branch", branch,
                         "--basis", "random", "--seed", "7", "--out", str(paths[-1])]) == 0
    return workdir, json.loads(paths[0].read_text()), paths[1]


_JSON_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=8),
    "array": st.lists(st.integers() | st.text(max_size=2), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


# Integers outside every field's range: not positive, or past 2^31.
_OUT_OF_RANGE = st.integers(max_value=0) | st.integers(min_value=2 ** 31)


def _replace_one_value(data, payload, out_of_range=False):
    """Replace one value of ``payload`` in place with a value of another
    JSON type or, where ``out_of_range`` is set and the value is a number,
    with an out-of-range integer."""
    # Walk down from the root, stopping at each container with chance 1/3,
    # so every field of the file is reached, not mostly the long lists.
    parent, key = None, None
    value = payload
    while isinstance(value, (dict, list)) and value and (
            parent is None or data.draw(st.integers(0, 2), label="descend")):
        parent = value
        key = data.draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                        else range(len(value))), label="key")
        value = parent[key]
    kinds = sorted(set(_JSON_VALUES) - {_json_type(value)})
    if out_of_range and _json_type(value) == "number":
        kinds.insert(0, "out-of-range")  # first: hypothesis favours early entries
    kind = data.draw(st.sampled_from(kinds))
    parent[key] = data.draw(_JSON_VALUES.get(kind, _OUT_OF_RANGE), label="replacement")


def _exit_code_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_family_files_keep_the_exit_code_contract(valid_families, data):
    workdir, payload, other = valid_families
    payload = copy.deepcopy(payload)
    _replace_one_value(data, payload)
    fuzzed = workdir / "fuzzed.json"
    fuzzed.write_text(json.dumps(payload))
    for argv in (["family", "verify", str(fuzzed)],
                 ["family", "intersect", str(fuzzed), str(other)]):
        rc, err = _exit_code_and_stderr(argv)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_vectors_files_keep_the_exit_code_contract(tmp_path_factory, data):
    rng = np.random.default_rng(3)
    payload = vectors_to_obj(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    _replace_one_value(data, payload, out_of_range=True)
    fuzzed = tmp_path_factory.mktemp("fuzz") / "vectors.json"
    fuzzed.write_text(json.dumps(payload))
    rc, err = _exit_code_and_stderr(["incline", str(fuzzed), "--bound", "0.9", "--budget", "200"])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_stage_files_keep_the_exit_code_contract(tmp_path_factory, data):
    payload = {"regime": "toy", "levels": [{"m": 1, "d": 2}, {"m": 2, "d": 2}]}
    _replace_one_value(data, payload, out_of_range=True)
    workdir = tmp_path_factory.mktemp("fuzz")
    (workdir / "stage.json").write_text(json.dumps(payload))
    rc, err = _exit_code_and_stderr(["family", "build", "--stage", str(workdir / "stage.json"),
                                     "--branch", "01", "--basis", "random", "--budget", "200",
                                     "--out", str(workdir / "fam.json")])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The bytes of tiny input files for fuzzed argv, by name."""
    workdir = tmp_path_factory.mktemp("argv-inputs")
    write_json(workdir / "stage.json", {"regime": "toy", "levels": [{"m": 1, "d": 2},
                                                                  {"m": 2, "d": 2}]})
    _write_vectors(workdir / "vectors.json", list(np.eye(2, dtype=complex)))
    _write_vectors(workdir / "basis.json", list(np.eye(20, dtype=complex)))
    (workdir / "bad.json").write_text("{")
    for branch, name in (("01", "family.json"), ("10", "family2.json")):
        rc, _ = _exit_code_and_stderr(["family", "build", "--stage", str(workdir / "stage.json"),
                                       "--branch", branch, "--basis", "random",
                                       "--out", str(workdir / name)])
        assert rc == 0
    return {path.name: path.read_bytes() for path in workdir.iterdir()}


# One valid argv per command except demo; fuzzing edits them with _ARGV_TOKENS.
_VALID_ARGV = (
    ("params", "--m", "2"),
    ("incline", "vectors.json", "--bound", "0.9"),
    ("cover", "vectors.json", "--radius", "0.5"),
    ("family", "build", "--stage", "stage.json", "--branch", "01", "--basis", "random",
     "--out", "out.json"),
    ("family", "build", "--stage", "stage.json", "--branch", "10", "--basis", "basis.json",
     "--out", "out.json"),
    ("family", "verify", "family.json"),
    ("family", "intersect", "family.json", "family2.json"),
)

# Real subcommands, options and file names, and junk.  No number here lies
# in 4..8, so a --m that is accepted is at most 3.
_ARGV_OPTIONS = (
    "--m", "--out", "--bound", "--budget", "--seed", "--radius", "--trials", "--stage",
    "--branch", "--basis", "--rho", "-h", "--", "--unknown",
)
_ARGV_VALUES = (
    "0", "1", "2", "3", "-1", "0.1", "0.5", "0.9", "200", "1e400", "nan", "inf", "9" * 20,
    "", "x", "01", "10", "0101", "random", "\u00e9",
    "vectors.json", "stage.json", "basis.json", "family.json", "family2.json", "bad.json",
    "missing.json", ".", "out.json",
)
_ARGV_TOKENS = ("params", "incline", "cover", "family", "build", "verify", "intersect",
                *_ARGV_OPTIONS, *_ARGV_VALUES)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_argv_keeps_the_exit_code_contract(argv_files, tmp_path_factory, data):
    argv = list(data.draw(st.sampled_from(_VALID_ARGV), label="valid argv"))
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        at = data.draw(st.integers(0, len(argv)), label="at")
        edit = data.draw(st.sampled_from(("append", "insert", "replace", "delete")), label="edit")
        if edit == "append":  # an option and a value: the edit most likely to parse
            argv += [data.draw(st.sampled_from(_ARGV_OPTIONS), label="option"),
                     data.draw(st.sampled_from(_ARGV_VALUES), label="value")]
            continue
        token = data.draw(st.sampled_from(_ARGV_TOKENS), label="token")
        if edit == "insert" or not argv:
            argv.insert(at, token)
        elif edit == "replace":
            argv[min(at, len(argv) - 1)] = token
        else:
            del argv[min(at, len(argv) - 1)]
    # The last occurrence of an option wins, so these cap every search.
    cap = data.draw(st.sampled_from(("200", "1")), label="cap")
    if "incline" in argv or "build" in argv:
        argv += ["--budget", cap]
    if "cover" in argv:
        argv += ["--trials", cap]
    workdir = tmp_path_factory.mktemp("argv")
    for name, raw in argv_files.items():
        (workdir / name).write_bytes(raw)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        rc, err = _exit_code_and_stderr(argv)
    finally:
        os.chdir(cwd)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err


# --------------------------------------------------------------- demo

def test_demo_writes_expected_files(tmp_path, capsys):
    outdir = tmp_path / "demo"
    assert main(["demo", "--seed", "5", "--outdir", str(outdir)]) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert "incline_certificate.json" in names
    assert "intersections.json" in names
    assert "demo_summary.json" in names
    assert sum(1 for n in names if n.startswith("family_")) == 8
    summary = json.loads((outdir / "demo_summary.json").read_text())
    assert summary["max_diagonal"] <= RHO_DEFAULT_BOUND
    assert summary["max_intersection_residual"] <= 1e-10
    assert summary["incline_achieved"] <= 0.9
    # the summary's digests are those of the files' bytes
    assert summary["files"] == {name: serialize.sha256_hex((outdir / name).read_bytes())
                                for name in names if name != "demo_summary.json"}
    capsys.readouterr()
    # Every demo family verifies from its seeded basis record (no --basis)
    # and prints exactly the max_diagonal it records.
    for name in names:
        if name.startswith("family_"):
            assert main(["family", "verify", str(outdir / name)]) == 0, name
            printed = json.loads(capsys.readouterr().out)["max_diagonal"]
            recorded = json.loads((outdir / name).read_text())["certificate"]["max_diagonal"]
            assert printed == recorded, name
