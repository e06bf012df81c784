import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from inclined import (
    BranchProjectionSpec,
    BudgetExhausted,
    blocks_matrix,
    branch_intersection,
    build_branch_projection,
    digest_vectors,
    min_level_dimension,
    paper_stage,
    random_orthonormal_basis,
    separating_level,
    stage_predicate,
    toy_stage,
    verify_suppression,
)
from inclined import cli, family, hilbert
from inclined.family import (
    LEAKAGE_COEFF, MAX_LEVEL, LevelSpec, StageParameters, basis_matrix, level_axes,
    level_leakage_sets, level_masses)
from inclined.serialize import suppression_to_obj, vectors_to_obj, write_json
from inclined.tensor_projection import joint_fixed_vector
from oracles import (
    apply_branch_projection, branch_diagonals, embed_intersection, inner, leakage_set)

RHO = 0.9
C = math.sqrt(RHO)

# frozen regression values; criterion 10 (tests/test_acceptance.py) confirms
# MIN_D_LEVEL_1 against its exact-arithmetic oracle
MIN_D_LEVEL_1 = 347
MIN_D_LEVEL_2 = 837


# ----------------------------------------------------- growth predicate

def test_min_level_dimension_frozen_values():
    assert min_level_dimension(1) == MIN_D_LEVEL_1
    assert min_level_dimension(2) == MIN_D_LEVEL_2
    assert [min_level_dimension(m) for m in range(1, MAX_LEVEL + 1)] == [
        347, 837, 1902, 4228, 9273, 20147, 43448, 93134]


def _linear_scan(m: int) -> int:
    d = 128
    while not stage_predicate(m, d):
        d += 1
    return d


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_min_level_dimension_matches_the_linear_scan(m):
    assert min_level_dimension(m) == _linear_scan(m)


def test_min_level_dimension_validation():
    with pytest.raises(ValueError):
        min_level_dimension(0)
    with pytest.raises(ValueError, match="1..8"):
        min_level_dimension(MAX_LEVEL + 1)


@pytest.mark.parametrize("m", [MAX_LEVEL + 1, 30])
def test_levels_deeper_than_max_level_are_refused(m):
    # refused before 2^m axis labels or d^(2^m) coordinates are formed
    with pytest.raises(ValueError, match="deepest level"):
        LevelSpec(m, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: stage_predicate(0, 200), "m and d must be >= 1"),
    (lambda: LevelSpec(1, 0), "level index and alphabet size must be >= 1"),
    (lambda: toy_stage([2, 2]).level_slice(3), "level 3 not in stage of depth 2"),
    (lambda: BranchProjectionSpec(stage=toy_stage([2, 2]), branch="01", directions=([1, 0],)),
     "need exactly one direction per level"),
    (lambda: BranchProjectionSpec(stage=toy_stage([2]), branch="0", directions=([1, 0],)).sigma(2),
     "level 2 not in stage of depth 1"),
    (lambda: build_branch_projection(toy_stage([2]), np.eye(4), "0", 1.0, 100, 0),
     r"bound c must lie in \(0, 1\), got 1.0"),
    (lambda: build_branch_projection(toy_stage([2]), np.eye(4), "2", C, 100, 0),
     "branch must be a binary string of length 1, got '2'"),
], ids=["predicate-m-0", "level-d-0", "level-slice-3", "one-direction-for-two-levels",
        "sigma-2", "build-c-1", "build-branch-2"])
def test_bad_arguments_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ------------------------------------------------------------- stages

def test_level_axes_are_binary_strings():
    assert level_axes(1) == ("0", "1")
    assert level_axes(2) == ("00", "01", "10", "11")


def test_toy_stage_dimensions_and_slices():
    stage = toy_stage([4, 4, 2])
    assert [lv.dim for lv in stage.levels] == [16, 256, 256]
    assert stage.dim == 528
    assert stage.level_slice(1) == slice(0, 16)
    assert stage.level_slice(2) == slice(16, 272)
    assert stage.level_slice(3) == slice(272, 528)


def test_stage_requires_consecutive_levels():
    with pytest.raises(ValueError, match="consecutively"):
        StageParameters(levels=(LevelSpec(1, 4), LevelSpec(3, 4)), regime="toy")


def test_paper_stage_validates_growth_predicate():
    with pytest.raises(ValueError, match="d >= 128"):
        paper_stage([64])
    with pytest.raises(ValueError, match="predicate fails"):
        paper_stage([200])  # >= 128 but below the predicate threshold
    stage = paper_stage([MIN_D_LEVEL_1])
    assert stage.dim == MIN_D_LEVEL_1 ** 2


def test_paper_stage_decides_each_level_at_its_minimum_dimension():
    with pytest.raises(ValueError, match="predicate fails at level 1"):
        paper_stage([MIN_D_LEVEL_1 - 1])
    with pytest.raises(ValueError, match="predicate fails at level 2"):
        paper_stage([MIN_D_LEVEL_1, MIN_D_LEVEL_2 - 1])
    assert paper_stage([MIN_D_LEVEL_1, MIN_D_LEVEL_2]).depth == 2


def test_unknown_regime_rejected():
    with pytest.raises(ValueError, match="regime"):
        StageParameters(levels=(LevelSpec(1, 4),), regime="huge")


# ------------------------------------------------------------ leakage

def test_leakage_set_single_basis_direction():
    basis = np.eye(4, dtype=complex)
    project = lambda x: np.array([x[0], 0, 0, 0], dtype=complex)
    assert leakage_set(basis, project, 0.5) == [0]


def test_leakage_set_balanced_direction_below_threshold():
    basis = np.eye(2, dtype=complex)
    f = np.array([1, 1], dtype=complex) / np.sqrt(2)
    project = lambda x: np.vdot(f, x) * f
    assert leakage_set(basis, project, 0.6) == []


def test_leakage_set_threshold_is_inclusive():
    # boundary mass exactly representable: e_0 leaks mass 1.0 at eps = 1.0
    basis = np.eye(2, dtype=complex)
    project = lambda x: np.array([x[0], 0], dtype=complex)
    assert leakage_set(basis, project, 1.0) == [0]


def test_leakage_set_random_subspaces_respect_cardinality_bound():
    rng = np.random.default_rng(20)
    n = 64
    basis = np.stack(random_orthonormal_basis(n, 21))
    for _ in range(20):
        r = int(rng.integers(1, 9))
        g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        q, _ = np.linalg.qr(g)
        dense = q @ q.conj().T
        project = lambda x: dense @ x
        for eps in (0.5, 0.1, 0.02):
            leaked = leakage_set(basis, project, eps)
            assert len(leaked) <= r * r / eps
            for k in range(n):
                mass = np.linalg.norm(dense @ basis[k]) ** 2
                if k not in leaked:
                    assert mass < eps


def test_leakage_set_rejects_non_orthonormal_basis():
    bad = np.array([[1, 0], [1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="orthonormal"):
        leakage_set(bad, lambda x: x, 0.5)


def _tilted(basis, i, j):
    """``basis`` with row i tilted 1e-6 towards row j, still of unit norm."""
    bad = basis.copy()
    bad[i] += 1e-6 * bad[j]
    bad[i] /= np.linalg.norm(bad[i])
    return bad


def _stretched(basis, i):
    """``basis`` with row i of norm 1 + 1e-6."""
    bad = basis.copy()
    bad[i] *= 1 + 1e-6
    return bad


@pytest.mark.parametrize("defect", [
    pytest.param(lambda b: _tilted(b, 200, 5), id="pair-across-strips"),
    pytest.param(lambda b: _tilted(b, 270, 290), id="pair-in-the-last-partial-strip"),
    pytest.param(lambda b: _stretched(b, 150), id="row-of-norm-1+1e-6"),
])
def test_basis_matrix_finds_every_defect(defect):
    basis = random_orthonormal_basis(300, 8)  # strips of 128, 128 and 44 rows
    basis_matrix(basis)
    with pytest.raises(ValueError, match="basis is not orthonormal"):
        basis_matrix(defect(basis))


@pytest.fixture(scope="module")
def basis_1024():
    return random_orthonormal_basis(1024, 2)


@pytest.fixture(scope="module")
def toy_452():
    # n = 897; at branch 010 the whole-level diagonals copied level 2
    stage = toy_stage([4, 5, 2])
    basis = random_orthonormal_basis(stage.dim, 2)
    return basis, build_branch_projection(stage, basis, "010", C, 10_000, 1)[0]


@pytest.mark.parametrize("on_toy, step, copies", [
    pytest.param(False, lambda b, spec: random_orthonormal_basis(len(b), 2), 1.2, id="draw"),
    pytest.param(False, lambda b, spec: digest_vectors(b), 0.05, id="digest"),
    pytest.param(False, lambda b, spec: basis_matrix(b), 0.5, id="gram"),
    pytest.param(True, lambda b, spec: build_branch_projection(spec.stage, b, spec.branch, C, 10_000, 1),
                 0.6, id="build"),
    pytest.param(True, lambda b, spec: verify_suppression(spec, b, (1 + RHO) / 2), 0.6, id="verify"),
])
def test_family_command_steps_hold_few_basis_copies(basis_1024, toy_452, on_toy, step, copies):
    # numpy reports its data buffers to tracemalloc; the draw's own result
    # is one of its copies, and build and verify are measured above the
    # basis they are given (toy [4, 5, 2], whose level 2 holds 70% of it).
    basis, spec = toy_452 if on_toy else (basis_1024, None)
    tracemalloc.start()
    try:
        step(basis, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= copies * basis.nbytes


# ------------------------------------------------ row blocks keep the bits
# The whole-level arithmetic the row-block passes replace, as first written
# (the diagonals' is oracles.branch_diagonals).

def _reference_masses(stage, mat):
    out = np.empty((stage.depth, mat.shape[0]))
    for i, lv in enumerate(stage.levels):
        out[i] = (np.abs(mat[:, stage.level_slice(lv.m)]) ** 2).sum(axis=1)
    return out


def _reference_groups(stage, mat, masses, leaked, lv, sigma):
    # The one rule for all leaked rows at once: their blocks C-ordered, as
    # groups of one block (paper) or of a whole row (toy), a group of more
    # blocks than columns as the R factor of its blocks, each times the
    # reciprocal of its norm, the block's or sqrt of the row's level mass.
    blocks = np.ascontiguousarray(blocks_matrix(lv.space, mat[leaked, stage.level_slice(lv.m)], sigma))
    if stage.regime == "paper":
        groups = blocks.reshape(-1, 1, lv.d)
        norms = np.linalg.norm(groups[:, 0], axis=1)
    else:
        groups = blocks
        norms = np.sqrt(masses[leaked])
    if groups.shape[1] > lv.d:
        groups = np.linalg.qr(groups, mode="r")
    keep = norms > 0.0
    return groups[keep] * (1.0 / norms[keep])[:, None, None]


def _paper_members(count):
    """``count`` orthonormal members of the paper stage d = 347, one row
    block each (a row takes 1.8 MiB)."""
    stage = paper_stage([MIN_D_LEVEL_1])
    assert len(list(hilbert._row_blocks(count, stage.dim))) == count
    rng = np.random.default_rng(13)
    g = rng.standard_normal((stage.dim, count)) + 1j * rng.standard_normal((stage.dim, count))
    return stage, np.ascontiguousarray(np.linalg.qr(g)[0].T)


def _paper_members_and_a_basis_vector():
    """A member and e_0, whose blocks along either axis are all zero but
    one, so they give a single group."""
    stage, mat = _paper_members(2)
    mat[1] = 0.0
    mat[1, 0] = 1.0
    return stage, mat


@pytest.fixture(params=["real-budget", "one-row-blocks"])
def row_budget(request, monkeypatch):
    if request.param == "one-row-blocks":
        monkeypatch.setattr(hilbert, "_ROW_BLOCK_BYTES", 1)
    return request.param


@pytest.mark.parametrize("make", [
    pytest.param(lambda ds=ds: (toy_stage(ds), random_orthonormal_basis(toy_stage(ds).dim, 3)), id=str(ds))
    for ds in ([2, 2, 2], [4, 4, 2], [4, 5, 2])
] + [
    pytest.param(lambda: _paper_members(3), id="paper-347-3"),
    pytest.param(lambda: _paper_members(1), id="paper-347-1"),
    pytest.param(_paper_members_and_a_basis_vector, id="paper-347-e0"),
])
def test_row_blocks_keep_the_whole_level_bits(make, row_budget):
    stage, mat = make()
    masses = family._masses(stage, mat)
    assert masses.tobytes() == _reference_masses(stage, mat).tobytes()
    leakage = family._leakage_from_masses(stage, masses)
    rng = np.random.default_rng(4)
    for bits in itertools.product("01", repeat=stage.depth):
        branch = "".join(bits)
        for i, lv in enumerate(stage.levels):
            got = family._level_groups(stage, mat, masses[i], leakage[i], lv, branch[: lv.m])
            want = _reference_groups(stage, mat, masses[i], leakage[i], lv, branch[: lv.m])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (branch, lv.m)
        dirs = rng.standard_normal((stage.depth, 2, max(lv.d for lv in stage.levels)))
        spec = BranchProjectionSpec(stage, branch, tuple(
            z[0, :lv.d] + 1j * z[1, :lv.d] for z, lv in zip(dirs, stage.levels)))
        assert family._diagonals(spec, mat).tobytes() == branch_diagonals(spec, mat).tobytes()


@pytest.mark.parametrize("ds", [[2, 2, 2], [4, 4, 2], [4, 5, 2]], ids=str)
def test_compressed_toy_groups_keep_every_energy(ds):
    # From level 2 on a toy group is the d x d R factor of its r > d blocks;
    # R* R must be the blocks' G* G, so the search sees the same energies.
    stage = toy_stage(ds)
    mat = random_orthonormal_basis(stage.dim, 3)
    masses = family._masses(stage, mat)
    leakage = family._leakage_from_masses(stage, masses)
    rng = np.random.default_rng(5)
    for i, lv in enumerate(stage.levels[1:], start=1):
        sigma = "1" * lv.m
        got = family._level_groups(stage, mat, masses[i], leakage[i], lv, sigma)
        leaked = leakage[i]
        assert leaked and got.shape == (len(leaked), lv.d, lv.d)
        whole = (blocks_matrix(lv.space, mat[leaked, stage.level_slice(lv.m)], sigma)
                 / np.sqrt(masses[i, leaked])[:, None, None])
        assert whole.shape[1] > lv.d
        gram = lambda g: np.einsum("kji,kjl->kil", g.conj(), g)
        assert np.abs(gram(got) - gram(whole)).max() <= 1e-12, (ds, lv.m)
        z = rng.standard_normal((2, 20, lv.d))
        for v in z[0] + 1j * z[1]:
            v /= np.linalg.norm(v)
            energy = lambda g: (np.abs(g @ v.conj()) ** 2).sum(axis=1)
            assert np.abs(energy(got) - energy(whole)).max() <= 1e-12, (ds, lv.m)


def test_a_members_paper_groups_do_not_depend_on_the_other_members(row_budget):
    # Alone, a member's blocks may be a transposed view of its row; they are
    # laid out C-ordered either way, so its groups keep their bits.
    stage, mat = _paper_members(3)
    lv = stage.levels[0]
    n_blocks = lv.dim // lv.d
    for sigma in lv.space.axes:
        together = family._level_groups(stage, mat, family._masses(stage, mat)[0], [0, 1, 2], lv, sigma)
        assert together.shape == (3 * n_blocks, 1, lv.d)
        for k in range(3):
            alone = mat[k:k + 1]
            got = family._level_groups(stage, alone, family._masses(stage, alone)[0], [0], lv, sigma)
            assert got.tobytes() == together[k * n_blocks:(k + 1) * n_blocks].tobytes(), (sigma, k)


def _whole_levels(mp):
    """Put the whole-level references in place of the row-block passes."""
    mp.setattr(family, "_masses", _reference_masses)
    mp.setattr(family, "_level_groups", _reference_groups)
    mp.setattr(family, "_diagonals", branch_diagonals)


def test_family_files_and_verify_output_match_the_whole_level_arithmetic(
        tmp_path, row_budget, monkeypatch, capsys):
    write_json(tmp_path / "stage.json", {"regime": "toy", "levels": [
        {"m": 1, "d": 4}, {"m": 2, "d": 5}, {"m": 3, "d": 2}]})
    monkeypatch.chdir(tmp_path)  # build records its argv
    runs = []
    for whole in (False, True):
        with monkeypatch.context() as mp:
            if whole:
                _whole_levels(mp)
            for branch in ("000", "110"):
                assert cli.main(["family", "build", "--stage", "stage.json", "--branch", branch,
                                 "--basis", "random", "--seed", "4", "--out", "fam.json"]) == 0
                assert cli.main(["family", "verify", "fam.json"]) == 0
                runs.append((Path("fam.json").read_bytes(), capsys.readouterr().out))
    assert runs[:2] == runs[2:]


def test_paper_certificates_match_the_whole_level_arithmetic(monkeypatch):
    stage, mat = _paper_members(3)
    certs = []
    for whole in (False, True):
        with monkeypatch.context() as mp:
            if whole:
                _whole_levels(mp)
            spec, cert = build_branch_projection(stage, mat, "0", C, 2_000, 5)
            certs.append((spec.directions[0].tobytes(), cert, verify_suppression(spec, mat, cert.bound)))
    assert certs[0] == certs[1]


def test_level_masses_standard_basis():
    stage = toy_stage([2, 2])  # dims 4, 16
    masses = level_masses(stage, np.eye(20, dtype=complex))
    np.testing.assert_allclose(masses.sum(axis=0), np.ones(20))
    np.testing.assert_array_equal(masses[0][:4], np.ones(4))
    np.testing.assert_array_equal(masses[1][4:], np.ones(16))


def test_level_leakage_standard_basis_marks_home_level():
    stage = toy_stage([2, 2])
    sets = level_leakage_sets(stage, np.eye(20, dtype=complex))
    assert sets[0] == list(range(4))
    assert sets[1] == list(range(4, 20))


def test_off_leakage_mass_bounded_by_half():
    stage = toy_stage([3, 2])  # dims 9, 16
    basis = np.stack(random_orthonormal_basis(stage.dim, 22))
    masses = level_masses(stage, basis)
    sets = level_leakage_sets(stage, basis)
    np.testing.assert_allclose(masses.sum(axis=0), np.ones(stage.dim), atol=1e-12)
    for k in range(stage.dim):
        off = sum(masses[i][k] for i in range(stage.depth) if k not in sets[i])
        assert off <= 0.5 + 1e-12
    # thresholds delimit the sets exactly
    for i, lv in enumerate(stage.levels):
        threshold = LEAKAGE_COEFF / lv.m ** 2
        expected = [k for k in range(stage.dim) if masses[i][k] > threshold]
        assert sets[i] == expected


# -------------------------------------------------------------- build

def test_uniform_direction_on_standard_basis():
    stage = toy_stage([4])
    basis = np.eye(16, dtype=complex)
    uniform = np.full(4, 0.5, dtype=complex)
    spec = BranchProjectionSpec(stage=stage, branch="0", directions=(uniform,))
    diag = branch_diagonals(spec, basis)
    np.testing.assert_allclose(diag, np.full(16, 0.25), atol=1e-12)
    cert = verify_suppression(spec, basis, 19 / 20)
    assert cert.max_diagonal == pytest.approx(0.25)


def test_build_round_trip_toy_stage():
    stage = toy_stage([4, 4])
    basis = np.stack(random_orthonormal_basis(stage.dim, 23))
    spec, cert = build_branch_projection(stage, basis, "01", C, 10_000, 24)
    assert cert.max_diagonal <= 19 / 20
    assert cert.bound == pytest.approx((1 + RHO) / 2)
    assert suppression_to_obj(spec, cert)["regime"] == "toy"
    # re-verify diagonals by direct application, one index at a time
    for k in range(0, stage.dim, 37):
        px = apply_branch_projection(spec, basis[k])
        assert inner(px, basis[k]).real == pytest.approx(cert.diagonals[k], abs=1e-10)
    again = verify_suppression(spec, basis, 19 / 20)
    assert again.max_diagonal == pytest.approx(cert.max_diagonal, abs=1e-12)


def test_a_level_without_leaked_members_records_e0():
    stage = toy_stage([4, 4, 2])
    basis = random_orthonormal_basis(stage.dim, 1)
    assert level_leakage_sets(stage, basis)[0] == []
    spec, _ = build_branch_projection(stage, basis, "000", C, 10_000, 1)
    assert spec.directions[0].tolist() == [1, 0, 0, 0]


def test_shared_prefix_levels_get_identical_directions():
    stage = toy_stage([4, 4])
    basis = np.stack(random_orthonormal_basis(stage.dim, 25))
    spec_a, _ = build_branch_projection(stage, basis, "00", C, 10_000, 26)
    spec_b, _ = build_branch_projection(stage, basis, "01", C, 10_000, 26)
    np.testing.assert_array_equal(spec_a.directions[0], spec_b.directions[0])
    # past the shared prefix the projections act along different axes
    assert spec_a.sigma(2) == "00" and spec_b.sigma(2) == "01"


def test_build_is_deterministic():
    stage = toy_stage([4, 4])
    basis = np.stack(random_orthonormal_basis(stage.dim, 27))
    one = build_branch_projection(stage, basis, "10", C, 10_000, 28)
    two = build_branch_projection(stage, basis, "10", C, 10_000, 28)
    for u, v in zip(one[0].directions, two[0].directions):
        np.testing.assert_array_equal(u, v)
    assert one[1].diagonals == two[1].diagonals


def test_build_budget_exhaustion_names_level():
    # standard basis of a d=2 level forces max(|v_0|, |v_1|)^2 >= 1/2 per
    # leaked vector, so a target below 1/sqrt(2) is unreachable
    stage = toy_stage([2])
    basis = np.eye(4, dtype=complex)
    with pytest.raises(BudgetExhausted, match="level 1:") as info:
        build_branch_projection(stage, basis, "0", 0.5, 300, 0)
    best = float(str(info.value).split("best achieved ")[1].split(" ")[0])  # to 6 digits
    assert best >= 1 / math.sqrt(2) - 1e-6


def test_adversarial_basis_direction_fails_verification():
    stage = toy_stage([2, 2])
    basis = np.eye(20, dtype=complex)
    e0 = np.array([1, 0], dtype=complex)
    spec = BranchProjectionSpec(stage=stage, branch="00", directions=(e0, e0))
    # basis contains e_t with t(sigma) = 0 at each level, so some diagonal is 1;
    # verification returns the certificate, and its bound does not hold
    cert = verify_suppression(spec, basis, 19 / 20)
    assert cert.max_diagonal == pytest.approx(1.0)
    assert cert.max_diagonal > cert.bound == 19 / 20


def test_diagonals_always_in_unit_interval():
    rng = np.random.default_rng(29)
    stage = toy_stage([3, 2])
    basis = np.stack(random_orthonormal_basis(stage.dim, 30))
    dirs = tuple(rng.standard_normal(lv.d) + 1j * rng.standard_normal(lv.d) for lv in stage.levels)
    spec = BranchProjectionSpec(stage=stage, branch="10", directions=dirs)
    diag = branch_diagonals(spec, basis)
    assert diag.min() >= 0.0
    assert diag.max() <= 1.0 + 1e-10


def test_branch_spec_names_the_level_of_a_zero_direction():
    stage = toy_stage([2, 3])
    e0 = np.array([1, 0], dtype=complex)
    with pytest.raises(ValueError, match="level 2"):
        BranchProjectionSpec(stage=stage, branch="01", directions=(e0, np.zeros(3)))
    spec = BranchProjectionSpec(stage=stage, branch="01", directions=(2 * e0, [0, 3, 4]))
    np.testing.assert_allclose(spec.directions[1], [0, 0.6, 0.8], atol=1e-15)
    assert not spec.directions[1].flags.writeable
    # a direction of norm within 1e-12 of 1 keeps its bits
    near_unit = np.array([0, 0.6, 0.8 + 1e-13])
    spec = BranchProjectionSpec(stage=stage, branch="01", directions=(e0, near_unit))
    assert spec.directions[1].tolist() == near_unit.tolist()


def test_verify_dimension_mismatch():
    stage = toy_stage([2])
    spec = BranchProjectionSpec(
        stage=stage, branch="0", directions=(np.array([1, 0], dtype=complex),))
    with pytest.raises(ValueError):
        verify_suppression(spec, np.eye(7, dtype=complex), 0.95)


@pytest.mark.parametrize("basis_digest", [None, "0" * 64])
def test_non_finite_basis_is_rejected(basis_digest, tmp_path, capsys):
    stage = toy_stage([2])
    basis = np.full((4, 4), np.nan, dtype=complex)
    spec = BranchProjectionSpec(
        stage=stage, branch="0", directions=(np.array([1, 0], dtype=complex),))
    with pytest.raises(ValueError, match="non-finite"):
        build_branch_projection(stage, basis, "0", C, 100, 0)
    with pytest.raises(ValueError, match="non-finite"):
        verify_suppression(spec, basis, 0.95)
    # through the CLI a basis file is read, and refused, before its digest is
    # compared with the one the family's basis record holds, whatever that is
    write_json(tmp_path / "stage.json", {"regime": "toy", "levels": [{"m": 1, "d": 2}]})
    write_json(tmp_path / "eye.json", vectors_to_obj(np.eye(4, dtype=complex)))
    (tmp_path / "nan.json").write_text(json.dumps(vectors_to_obj(basis)))  # writes NaN
    fam = tmp_path / "fam.json"
    build = ["family", "build", "--stage", str(tmp_path / "stage.json"), "--branch", "0",
             "--rho", "0.99", "--seed", "3", "--out", str(fam), "--basis"]
    assert cli.main(build + [str(tmp_path / "nan.json")]) == 2
    assert cli.main(build + [str(tmp_path / "eye.json")]) == 0
    payload = json.loads(fam.read_text())
    payload["basis"]["digest"] = basis_digest
    fam.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["family", "verify", str(fam), "--basis", str(tmp_path / "nan.json")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_paper_regime_build_at_level_one():
    # full per-block certification at the true minimal alphabet size; the
    # orthonormal family spans only a slice of the 347^2-dimensional stage
    stage = paper_stage([MIN_D_LEVEL_1])
    rng = np.random.default_rng(31)
    g = rng.standard_normal((stage.dim, 12)) + 1j * rng.standard_normal((stage.dim, 12))
    q, _ = np.linalg.qr(g)
    basis = np.ascontiguousarray(q.T)
    spec, cert = build_branch_projection(stage, basis, "1", C, 2_000, 32)
    assert suppression_to_obj(spec, cert)["regime"] == "paper"
    assert cert.max_diagonal <= 19 / 20
    # per-block guarantee: every block of every family member is suppressed
    v = spec.directions[0]
    blocks = blocks_matrix(stage.levels[0].space, basis[:, stage.level_slice(1)], "1")
    scores = np.abs(blocks.conj() @ v)
    norms = np.linalg.norm(blocks, axis=2)
    mask = norms > 0
    assert np.all(scores[mask] <= C * norms[mask])


# ------------------------------------------------------- intersections

def test_separating_level_examples():
    assert separating_level(["0", "1"]) == 1
    assert separating_level(["00", "01", "10"]) == 2
    assert separating_level(["000", "001"]) == 3
    with pytest.raises(ValueError, match="colliding"):
        separating_level(["01", "01"])


def test_branch_intersection_depth_one():
    stage = toy_stage([3])
    basis = np.stack(random_orthonormal_basis(stage.dim, 33))
    spec_a, _ = build_branch_projection(stage, basis, "0", C, 10_000, 34)
    spec_b, _ = build_branch_projection(stage, basis, "1", C, 10_000, 34)
    w, _ = branch_intersection([spec_a, spec_b])
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    for s in (spec_a, spec_b):
        assert np.linalg.norm(apply_branch_projection(s, w) - w) <= 1e-10


def test_branch_intersection_three_branches():
    stage = toy_stage([2, 2])
    basis = np.stack(random_orthonormal_basis(stage.dim, 35))
    specs = [build_branch_projection(stage, basis, b, C, 10_000, 36)[0]
             for b in ("00", "01", "10")]
    x, _ = branch_intersection(specs)
    assert x.size == stage.levels[1].dim  # the separating level 2 alone
    w = embed_intersection(specs, x)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    for s in specs:
        assert np.linalg.norm(apply_branch_projection(s, w) - w) <= 1e-10


def test_branch_intersection_reports_each_branch_residual():
    stage = toy_stage([2, 2])
    basis = np.stack(random_orthonormal_basis(stage.dim, 35))
    specs = [build_branch_projection(stage, basis, b, C, 10_000, 36)[0]
             for b in ("10", "00", "01")]
    x, residuals = branch_intersection(specs)
    w = embed_intersection(specs, x)
    assert list(residuals) == ["10", "00", "01"]
    for s in specs:
        assert residuals[s.branch] == pytest.approx(
            np.linalg.norm(apply_branch_projection(s, w) - w), rel=1e-12, abs=1e-18)


@pytest.mark.parametrize("sizes", [[2, 2, 2], [4, 4, 2]])
def test_branch_intersection_matches_the_full_stage_formula_bit_for_bit(sizes):
    # The vector is the level-m elementary tensor bit for bit, and each
    # residual, taken on level m alone, equals the whole-stage computation on
    # the vector placed in the stage exactly.
    stage = toy_stage(sizes)
    rng = np.random.default_rng(41)
    specs = [BranchProjectionSpec(stage, "".join(bits), tuple(
        rng.standard_normal(lv.d) + 1j * rng.standard_normal(lv.d) for lv in stage.levels))
        for bits in itertools.product("01", repeat=stage.depth)]
    for size in (2, 3):
        for group in itertools.combinations(specs, size):
            vec, residuals = branch_intersection(group)
            m = separating_level([s.branch for s in group])
            lv = stage.levels[m - 1]
            e0 = np.eye(lv.d, dtype=complex)[0]
            dirs = dict.fromkeys(lv.space.axes, e0) | {s.sigma(m): s.directions[m - 1]
                                                       for s in group}
            assert vec.tobytes() == joint_fixed_vector(lv.space, dirs).tobytes()
            whole = embed_intersection(group, vec)
            for s in group:
                gap = apply_branch_projection(s, whole) - whole
                assert residuals[s.branch] == math.sqrt(float((gap.real ** 2 + gap.imag ** 2).sum()))


def test_branch_intersection_allocates_its_separating_level_only():
    # Toy stage [7, 7, 7] has 5 767 251 coordinates (88 MiB as complex128);
    # branches 000 and 100 separate at level 1, which has 49.
    stage = toy_stage([7, 7, 7])
    e0 = np.eye(1, 7, dtype=complex)[0]
    specs = [BranchProjectionSpec(stage, b, (e0,) * 3) for b in ("000", "100")]
    tracemalloc.start()
    try:
        vec, _ = branch_intersection(specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vec.size == stage.levels[0].dim == 49
    assert peak < 2 ** 20


def test_branch_intersection_rejects_duplicates_and_mixed_stages():
    stage = toy_stage([2, 2])
    basis = np.stack(random_orthonormal_basis(stage.dim, 37))
    spec, _ = build_branch_projection(stage, basis, "00", C, 10_000, 38)
    with pytest.raises(ValueError, match="colliding"):
        branch_intersection([spec, spec])
    other_stage = toy_stage([2, 3])
    other_basis = np.stack(random_orthonormal_basis(other_stage.dim, 39))
    other, _ = build_branch_projection(other_stage, other_basis, "11", C, 10_000, 40)
    with pytest.raises(ValueError, match="stages"):
        branch_intersection([spec, other])


# ------------------------------------------------ block-diagonal action

def test_apply_branch_preserves_level_support():
    stage = toy_stage([2, 2])
    rng = np.random.default_rng(41)
    dirs = tuple(rng.standard_normal(lv.d) + 1j * rng.standard_normal(lv.d) for lv in stage.levels)
    spec = BranchProjectionSpec(stage=stage, branch="01", directions=dirs)
    x = np.zeros(stage.dim, dtype=complex)
    x[stage.level_slice(1)] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    out = apply_branch_projection(spec, x)
    assert np.linalg.norm(out[stage.level_slice(2)]) == 0.0


def test_apply_branch_norm_splits_over_levels():
    from inclined import apply_axis

    stage = toy_stage([3, 2])
    rng = np.random.default_rng(42)
    dirs = tuple(rng.standard_normal(lv.d) + 1j * rng.standard_normal(lv.d) for lv in stage.levels)
    spec = BranchProjectionSpec(stage=stage, branch="10", directions=dirs)
    x = rng.standard_normal(stage.dim) + 1j * rng.standard_normal(stage.dim)
    out = apply_branch_projection(spec, x)
    per_level = 0.0
    for lv in stage.levels:
        sl = stage.level_slice(lv.m)
        px = apply_axis(lv.space, spec.sigma(lv.m), spec.directions[lv.m - 1], x[sl])
        per_level += np.linalg.norm(px) ** 2
    assert np.linalg.norm(out) ** 2 == pytest.approx(per_level, abs=1e-12)
