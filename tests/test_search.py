import dataclasses
import hashlib
import math
import tracemalloc
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclined import cover_witness, find_inclined_vector, recompute_achieved, verify_inclination
from inclined import hilbert, search
from inclined.search import _STEP_SCHEDULE, InclinationCertificate, minimize_max_group_norm
from inclined.serialize import inclination_from_obj, read_json, read_vectors
from oracles import (
    capacity, complexify, four_copies, inclination_bound, inner, rank_one_apply, realify)

TIE_SHARE, TIE_MAX_GROUPS = 0.1, 16  # the kernel's tie-step constants, restated

E2 = np.eye(2, dtype=complex)


# ---------------------------------------------------------------- realify

def test_realify_examples():
    np.testing.assert_array_equal(realify([1]), [1.0, 0.0])
    np.testing.assert_array_equal(realify([1j]), [0.0, 1.0])
    z = realify([0.6 + 0.8j])
    np.testing.assert_allclose(z, [0.6, 0.8])
    assert np.linalg.norm(z) == pytest.approx(1.0)


def test_complexify_inverse_and_errors():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    np.testing.assert_allclose(complexify(realify(x)), x)
    with pytest.raises(ValueError, match="even-length"):
        complexify([1.0, 2.0, 3.0])


def test_realify_preserves_twisted_distances():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for alpha in (1, -1, 1j, -1j):
        assert np.linalg.norm(x - alpha * y) == pytest.approx(
            np.linalg.norm(realify(x) - realify(alpha * y)), abs=1e-12)


def test_four_copies_examples():
    copies = four_copies([1])
    np.testing.assert_array_equal(copies[0], [1.0, 0.0])
    np.testing.assert_array_equal(copies[1], [-1.0, 0.0])
    np.testing.assert_array_equal(copies[2], [0.0, 1.0])
    np.testing.assert_array_equal(copies[3], [0.0, -1.0])


def test_four_copies_equal_norms():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    x /= np.linalg.norm(x)
    for c in four_copies(x):
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)


def test_four_copies_match_complex_side_distances():
    # distance from realify(x) to the copies of y equals the four twisted
    # complex distances, computed directly on the complex side
    rng = np.random.default_rng(3)
    x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    y = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    z = realify(x)
    copies = four_copies(y)
    expected = [x - y, x + y, x - 1j * y, x + 1j * y]
    for c, e in zip(copies, expected):
        assert np.linalg.norm(z - c) == pytest.approx(np.linalg.norm(e), abs=1e-12)


def test_four_copies_pairwise_distances_exact():
    # realification is an isometry, so pairwise distances among the four
    # copies of one vector match the complex side without any rounding
    rng = np.random.default_rng(30)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    copies = four_copies(x)
    twists = (1, -1, 1j, -1j)
    for i in range(4):
        for j in range(4):
            real_side = np.linalg.norm(copies[i] - copies[j])
            complex_side = np.linalg.norm(twists[i] * x - twists[j] * x)
            assert real_side == complex_side


# ----------------------------------------------------- inclination bound

def test_inclination_bound_at_nine_tenths():
    # independent high-precision oracle for sqrt(2) * (1 - (9/10)^2 / 2)
    getcontext().prec = 50
    oracle = float(Decimal(2).sqrt() * (1 - Decimal(81) / Decimal(200)))
    value = inclination_bound(9 / 10)
    assert value == pytest.approx(oracle, abs=1e-12)
    assert value <= 9 / 10


def test_inclination_bound_endpoints_and_monotonicity():
    assert inclination_bound(0.0) == pytest.approx(math.sqrt(2.0))
    assert inclination_bound(math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-15)
    grid = np.linspace(0.0, math.sqrt(2.0), 100)
    values = [inclination_bound(t) for t in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_inclination_bound_domain():
    with pytest.raises(ValueError):
        inclination_bound(-0.1)
    with pytest.raises(ValueError):
        inclination_bound(1.5)


def test_parallelogram_identity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        for alpha in (1, -1, 1j, -1j):
            lhs = np.linalg.norm(x + alpha * y) ** 2
            rhs = 4 - np.linalg.norm(x - alpha * y) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_polarization_bound_on_random_pairs():
    rng = np.random.default_rng(5)
    violations = 0
    for _ in range(2000):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        eps = min(np.linalg.norm(x - a * y) for a in (1, -1, 1j, -1j))
        if abs(inner(x, y)) > inclination_bound(min(eps, math.sqrt(2.0))) + 1e-10:
            violations += 1
    assert violations == 0


# -------------------------------------------------------------- capacity

def test_capacity_single_dimension():
    report = capacity(1)
    assert report.net_lower_bound_exact == Fraction(50, 91)
    assert report.net_lower_bound == pytest.approx(50 / 91, abs=1e-12)


def test_capacity_quarter_relation_exact():
    for d in (1, 7, 128, 500):
        report = capacity(d)
        assert report.inclined_capacity_exact * 4 == report.net_lower_bound_exact


def test_capacity_large_dimension():
    report = capacity(128)
    assert report.inclined_capacity == pytest.approx(2.19e4, rel=1e-2)
    assert report.inclined_capacity >= 2e4


def test_capacity_floats_are_lower_bounds():
    for d in (1, 13, 128, 300):
        report = capacity(d)
        assert Fraction(report.net_lower_bound) <= report.net_lower_bound_exact
        assert Fraction(report.inclined_capacity) <= report.inclined_capacity_exact


# ------------------------------------------------- find_inclined_vector

def test_single_constraint_search():
    cert = find_inclined_vector([E2[0]], 0.9, 100, 0)
    assert cert.achieved <= 0.9 - 1e-9
    assert abs(np.linalg.norm(cert.candidate) - 1.0) <= 1e-12
    assert cert.candidate.size == 2


def test_orthonormal_pair_minimax_floor():
    # any unit x has max(|x_0|, |x_1|) >= 1/sqrt(2)
    cert = find_inclined_vector([E2[0], E2[1]], 0.9, 1000, 3)
    assert 1 / math.sqrt(2) - 1e-9 <= cert.achieved <= 0.9 - 1e-9


def test_search_is_deterministic():
    rng = np.random.default_rng(6)
    family = [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(40)]
    a = find_inclined_vector(family, 0.9, 500, 11)
    b = find_inclined_vector(family, 0.9, 500, 11)
    np.testing.assert_array_equal(a.candidate, b.candidate)
    assert a.achieved == b.achieved
    assert a.iterations_used == b.iterations_used


def test_zero_vectors_impose_no_constraint():
    cert = find_inclined_vector([np.zeros(2, dtype=complex), E2[0]], 0.9, 100, 0)
    alone = find_inclined_vector([E2[0]], 0.9, 100, 0)
    np.testing.assert_array_equal(cert.candidate, alone.candidate)


def test_search_input_validation():
    with pytest.raises(ValueError):
        find_inclined_vector([E2[0]], 1.5, 10, 0)
    with pytest.raises(ValueError):
        find_inclined_vector([E2[0], np.zeros(3, dtype=complex)], 0.9, 10, 0)
    with pytest.raises(ValueError):
        find_inclined_vector([], 0.9, 10, 0)


def test_budget_exhaustion_reports_best():
    cert = find_inclined_vector([E2[0], E2[1]], 0.0001, 300, 1)
    assert cert.status == "failed"
    assert cert.achieved >= 1 / math.sqrt(2) - 1e-9
    assert cert.achieved == recompute_achieved(cert.candidate, [E2[0], E2[1]])
    assert cert.iterations_used <= 300
    assert abs(np.linalg.norm(cert.candidate) - 1.0) <= 1e-12
    # a failed certificate is not a disproof, and it certifies nothing
    with pytest.raises(ValueError, match="failed"):
        verify_inclination(cert, [E2[0], E2[1]])


def test_certificate_roundtrip_and_tamper_detection():
    rng = np.random.default_rng(7)
    family = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(10)]
    cert = find_inclined_vector(family, 0.9, 500, 2)
    assert verify_inclination(cert, family) == pytest.approx(cert.achieved, abs=1e-10)
    # candidate tampered: recomputed achieved will not match the stored one
    tampered = InclinationCertificate(
        family_digest=cert.family_digest,
        candidate=np.roll(cert.candidate, 1), achieved=cert.achieved,
        bound=cert.bound, seed=cert.seed, iterations_used=cert.iterations_used)
    with pytest.raises(ValueError):
        verify_inclination(tampered, family)
    # wrong family: digest mismatch
    with pytest.raises(ValueError, match="digest"):
        verify_inclination(cert, family[:-1])


def test_a_nan_achieved_or_bound_fails_verification():
    # NaN compares false both ways, so only pass conditions refuse it
    rng = np.random.default_rng(7)
    family = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(10)]
    cert = find_inclined_vector(family, 0.9, 500, 2)
    for field in ("achieved", "bound"):
        with pytest.raises(ValueError):
            verify_inclination(dataclasses.replace(cert, **{field: math.nan}), family)


# Certificates built by earlier versions.  A file is added only when a
# record's schema or arithmetic changes; one that differs from the last only
# in `version` tests nothing new.
# - incline_v090 by 0.9.0: `incline incline_v090_vectors.json --bound 0.45 --seed 9`;
# - incline_v0100 by 0.10.0: `inclined incline incline_v0100_vectors.json
#   --bound 0.45 --seed 10 --out incline_v0100.json`, on 40 unit rows in C^8,
#   the rows of z / ||z|| for z = rng.standard_normal((40, 8))
#   + 1j * rng.standard_normal((40, 8)), rng = np.random.default_rng(100),
#   written by serialize.write_json(path, vectors_to_obj(...));
# - incline_v0110 by 0.11.0 (commit 81c04e6): `inclined incline
#   incline_v0110_vectors.json --bound 0.45 --seed 11 --out incline_v0110.json`,
#   on rows made as for incline_v0100 with rng = np.random.default_rng(110);
# - incline_v0120 by 0.12.0 (commit 143c9a1): `inclined incline
#   incline_v0120_vectors.json --bound 0.45 --seed 12 --out incline_v0120.json`,
#   on rows made as for incline_v0100 with rng = np.random.default_rng(120);
# - incline_v0130 by 0.13.0 (commit c5fca04): `inclined incline
#   incline_v0130_vectors.json --bound 0.45 --seed 13 --out incline_v0130.json`,
#   on rows made as for incline_v0100 with rng = np.random.default_rng(130);
# - incline_v0140 by 0.14.0 (commit 257ae79), the last version to write `d`:
#   `inclined incline incline_v0140_vectors.json --bound 0.45 --seed 14
#   --out incline_v0140.json`, on rows made as for incline_v0100 with
#   rng = np.random.default_rng(140).
@pytest.mark.parametrize("name", ["incline_v090", "incline_v0100", "incline_v0110",
                                  "incline_v0120", "incline_v0130", "incline_v0140"])
def test_incline_certificate_written_by_an_earlier_version_verifies(name):
    data = Path(__file__).parent / "data"
    cert = inclination_from_obj(read_json(data / f"{name}.json")["certificate"])
    achieved = verify_inclination(cert, read_vectors(data / f"{name}_vectors.json"))
    assert abs(achieved - cert.achieved) <= 1e-10


def test_certificate_invariants_enforced():
    with pytest.raises(ValueError):
        InclinationCertificate(family_digest="x", candidate=E2[0],
                               achieved=0.95, bound=0.9, seed=0, iterations_used=1)
    with pytest.raises(ValueError):
        InclinationCertificate(family_digest="x", candidate=2 * E2[0],
                               achieved=0.1, bound=0.9, seed=0, iterations_used=1)
    with pytest.raises(ValueError, match="status"):
        InclinationCertificate(family_digest="x", candidate=E2[0],
                               achieved=0.1, bound=0.9, seed=0, iterations_used=1,
                               status="undecided")
    # a NaN passes no comparison, so it cannot slip through a fail condition
    with pytest.raises(ValueError, match="exceeds bound"):
        InclinationCertificate(family_digest="x", candidate=E2[0],
                               achieved=math.nan, bound=0.9, seed=0, iterations_used=1)
    with pytest.raises(ValueError, match="exceeds bound"):
        InclinationCertificate(family_digest="x", candidate=E2[0],
                               achieved=0.1, bound=math.nan, seed=0, iterations_used=1)
    with pytest.raises(ValueError, match="unit vector"):
        InclinationCertificate(family_digest="x", candidate=np.array([1.0, math.nan]),
                               achieved=0.1, bound=0.9, seed=0, iterations_used=1)
    # a failed certificate records a best value above its bound
    InclinationCertificate(family_digest="x", candidate=E2[0],
                           achieved=0.95, bound=0.9, seed=0, iterations_used=1, status="failed")


def test_moderate_dimension_search_with_independent_reverification():
    rng = np.random.default_rng(8)
    family = rng.standard_normal((300, 64)) + 1j * rng.standard_normal((300, 64))
    family /= np.linalg.norm(family, axis=1, keepdims=True)
    cert = find_inclined_vector(list(family), 0.9, 10_000, 9)
    assert cert.achieved < 0.5
    # independent re-verification, one inner product at a time
    worst = max(abs(np.vdot(v, cert.candidate)) / np.linalg.norm(v) for v in family)
    assert worst == pytest.approx(cert.achieved, abs=1e-12)
    # rank-one leakage bound implied by the certificate
    for v in family[:20]:
        proj = rank_one_apply(cert.candidate, v)
        assert np.linalg.norm(proj) ** 2 <= cert.achieved ** 2 * np.linalg.norm(v) ** 2 + 1e-10


def test_recompute_achieved_skips_zero_members():
    family = [np.zeros(2, dtype=complex), E2[0]]
    assert recompute_achieved(E2[1], family) == 0.0
    assert recompute_achieved(E2[1], [np.zeros(2, dtype=complex)]) == 0.0


def test_recompute_achieved_matches_a_loop_over_members():
    rng = np.random.default_rng(12)
    family = rng.standard_normal((30, 6)) + 1j * rng.standard_normal((30, 6))
    family[[3, 17]] = 0.0
    cand = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    cand /= np.linalg.norm(cand)
    loop = max(abs(np.vdot(v, cand)) / np.linalg.norm(v) for v in family if np.linalg.norm(v) > 0)
    assert recompute_achieved(cand, family) == pytest.approx(loop, abs=1e-15)


# ------------------------------------------------------- search kernel

def _energies(groups, v):
    """q_k = sum_j |inner(v, groups[k, j])|^2, by bincount over group ids."""
    n, r, dim = groups.shape
    s = groups.reshape(n * r, dim) @ v.conj()
    return np.bincount(np.repeat(np.arange(n), r), weights=np.abs(s) ** 2, minlength=n)


def _reference_kernel(groups, target, budget, seed, tie_steps=True, incumbent_restarts=True):
    """The kernel written the plain way: a full mat-vec for every evaluation
    and groups picked by index.  ``tie_steps=False`` ends a restart where no
    step on the active group improves, as the kernel did before it took tie
    steps; ``incumbent_restarts=False`` starts every restart at the fresh
    random point, as the kernel did before it restarted from the incumbent.
    Test oracle only."""
    dim = groups.shape[2]
    rng = np.random.default_rng(seed)

    def evaluate(v):
        q = _energies(groups, v)
        return float(np.sqrt(q.max())), q

    def group_gradient(k, v):
        return groups[k].T @ (groups[k].conj() @ v)

    def first_improving_step(v, f, grad, scale):
        nonlocal evals
        for eta in _STEP_SCHEDULE:
            if evals >= budget:
                return None
            w = v - eta * scale * grad
            wn = np.linalg.norm(w)
            if wn == 0.0:
                continue
            w /= wn
            fw, qw = evaluate(w)
            evals += 1
            if fw < f:
                return w, fw, qw
        return None

    evals = 0
    best_f, best_v = math.inf, None
    while evals < budget:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = z / np.linalg.norm(z)
        if incumbent_restarts and best_v is not None:
            v = best_v + best_f * v
            v /= np.linalg.norm(v)
        f, q = evaluate(v)
        evals += 1
        while f > target and evals < budget:
            stepped = first_improving_step(v, f, group_gradient(int(np.argmax(q)), v), 1.0)
            if stepped is None and tie_steps and evals < budget:
                tied = [k for k in np.argsort(-q, kind="stable") if q[k] >= (1 - TIE_SHARE) * q.max()]
                tied = tied[:TIE_MAX_GROUPS]
                if len(tied) >= 2 and q.max() > 0.0:
                    grad = sum(group_gradient(k, v) for k in tied)
                    scale = np.vdot(v, grad).real / np.vdot(grad, grad).real
                    stepped = first_improving_step(v, f, grad, scale)
            if stepped is None:
                break
            v, f, q = stepped
        if f < best_f:
            best_f, best_v = f, v
        if f <= target:
            return v, f, evals, True
    return best_v, best_f, evals, False


def _grouped_rows(n, r, dim, seed):
    """n random groups of r rows in C^dim as an (n, r, dim) array, each
    group scaled to unit Frobenius norm (as the toy regime scales by level
    mass)."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n * r, dim)) + 1j * rng.standard_normal((n * r, dim))
    groups = rows.reshape(n, r, dim)
    norms = np.sqrt((np.abs(rows) ** 2).sum(axis=1).reshape(n, r).sum(axis=1))
    return groups / norms[:, None, None]


def _direct_value(groups, v):
    return float(np.sqrt(_energies(groups, v).max()))


def _assert_matches_reference(groups, target, budget, seed):
    v, f, evals, ok = minimize_max_group_norm(groups, target, budget, seed)
    ref_v, ref_f, ref_evals, ref_ok = _reference_kernel(groups, target, budget, seed)
    assert (evals, ok) == (ref_evals, ref_ok)
    assert f == pytest.approx(ref_f, abs=1e-9)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    # The returned value is a direct evaluation, and the kernel sums each
    # group in row order, as bincount does, so the two agree bit for bit.
    assert f == _direct_value(groups, v)
    assert not ok or f <= target
    return evals, ok


@pytest.mark.parametrize("seed", [0, 1, 2])
# 0.4 is reached after descent steps; 0.3 after incumbent restarts for seed 1
# and out of reach for seeds 0 and 2.
@pytest.mark.parametrize("target", [0.4, 0.3])
def test_kernel_matches_reference_on_single_row_groups(seed, target):
    _assert_matches_reference(_grouped_rows(80, 1, 12, seed), target, 1500, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("target", [0.6, 0.45])  # reached after descent steps; out of reach
def test_kernel_matches_reference_on_toy_shaped_groups(seed, target):
    # as in the toy regime: one group of n_blocks rows per leaked vector
    _assert_matches_reference(_grouped_rows(25, 4, 4, seed), target, 1500, seed)


# Each first target is reached after descent steps, each second is out of
# reach; tie steps change the path of all four.
@pytest.mark.parametrize("r, dim, target", [(16, 2, 0.76), (16, 2, 0.73), (64, 4, 0.52),
                                            (64, 4, 0.50)])
def test_kernel_matches_reference_on_wide_toy_groups(r, dim, target):
    # the toy stage [4, 4, 2] searches groups of 64 blocks at level 2 and
    # of 128 at level 3
    _assert_matches_reference(_grouped_rows(12, r, dim, 3), target, 600, 3)


@pytest.mark.parametrize("seed, target", [(0, 0.5610826091145884), (1, 0.5269247092280528)])
def test_success_is_confirmed_directly(seed, target):
    # Each target lies between a descent point's kept value and its direct
    # value (on numpy 2.4 with OpenBLAS), so only the direct confirmation
    # keeps rounding drift from reporting a miss as a success.  The target
    # sits on a rounding boundary, so the reference path may differ here.
    groups = _grouped_rows(60, 1, 8, seed)
    v, f, evals, ok = minimize_max_group_norm(groups, target, 1000, seed)
    assert ok
    assert f == _direct_value(groups, v) <= target


def test_reactivated_single_rows_match_reference():
    # 200 members in C^12 and a target out of reach: most descent steps
    # reactivate a member whose Gram column is already kept.
    _assert_matches_reference(_grouped_rows(200, 1, 12, 9), 0.0, 3000, 9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_screened_single_rows_match_reference(seed):
    # 300 members, well above the 32 largest groups on which each descent
    # scores its trials first, so most trials are rejected on those alone.
    _assert_matches_reference(_grouped_rows(300, 1, 32, seed), 0.0, 5000, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_screened_toy_shaped_groups_match_reference(seed):
    # 60 groups of 4 rows: the screened trials sum each group in row order.
    _assert_matches_reference(_grouped_rows(60, 4, 4, seed), 0.0, 1500, seed)


def test_screened_search_keeps_the_pinned_result():
    # Pinned before trials were screened on the largest groups (on numpy
    # 2.4 with OpenBLAS): the screen rejects only trials that a full pass
    # rejects, so the path and every bit of the result stay.
    v, f, evals, ok = minimize_max_group_norm(_grouped_rows(300, 1, 32, 0), 0.0, 5000, 0)
    assert (f, evals, ok) == (0.20830841685413468, 5000, False)
    assert hashlib.sha256(v.tobytes()).hexdigest() == (
        "ffaf6558543ea7da3847ea38b278b61e5d570051f7458a4e3ac932e8f8bace3f")


def test_frontier_sized_search_keeps_the_pinned_result():
    # 1000 unit rows in C^128 at target 0.05 and budget 20 000, the shape of
    # the benchmark's frontier run: screened trials, kept Gram columns, tie
    # steps over 1000 rows and restarts from the incumbent.  Pinned before the
    # descent's passes over the inner products were cut (on numpy 2.4 with
    # OpenBLAS): the path and every bit of the result stay.
    v, f, evals, ok = minimize_max_group_norm(_grouped_rows(1000, 1, 128, 1), 0.05, 20000, 1)
    assert (f, evals, ok) == (0.10047189888497926, 20000, False)
    assert hashlib.sha256(v.tobytes()).hexdigest() == (
        "0154db6779e67ffb45563f35e366a84ffbfcc9b7752e00e7e4b3a5df6d01c1a5")


def test_grouped_search_keeps_the_pinned_result():
    # 200 groups of 4 rows in C^8 at a target out of reach: 71 restarts and
    # 185 tie steps, each trial's energies summed over a group's rows.
    # Pinned while the descent still wrote into scratch arrays (on numpy 2.4
    # with OpenBLAS): fresh arrays keep the path and every bit of the result.
    v, f, evals, ok = minimize_max_group_norm(_grouped_rows(200, 4, 8, 1), 0.0, 5000, 1)
    assert (f, evals, ok) == (0.4249981242193701, 5000, False)
    assert hashlib.sha256(v.tobytes()).hexdigest() == (
        "458b1951050c7f19c6b44f8baa4001bd38784e79c4c39100d6d3ec7f17494ddc")


def _repeated_rows():
    # 4 unit rows 25 times each, then 40 others: tie steps whose cut falls
    # among equal energies beyond the 32 largest groups
    return np.concatenate([np.repeat(_grouped_rows(4, 1, 8, 0), 25, axis=0), _grouped_rows(40, 1, 8, 7)])


def _swapped_row_pairs():
    # 10 groups of 2 rows and the same groups with their rows swapped, each
    # twice, shuffled: groups of exactly equal energy, whose rows a tie step
    # sums in another order if it takes the groups in another order
    base = _grouped_rows(10, 2, 6, 0)
    groups = np.concatenate([base, base[:, ::-1]] * 2)
    return groups[np.random.default_rng(0).permutation(len(groups))]


@pytest.mark.parametrize("args", [
    (_grouped_rows(300, 1, 32, 0), 0.0, 5000, 0),
    (_grouped_rows(60, 4, 4, 0), 0.0, 1500, 0),
    (_repeated_rows(), 0.0, 1500, 0),
    (_swapped_row_pairs(), 0.0, 600, 0),
], ids=["300x32", "60x4x4", "repeated-rows", "swapped-row-pairs"])
def test_the_screen_only_filters(monkeypatch, args):
    # One screened group, the default 32, and all groups: the screen and the
    # tie sets read from it change no bit of the result.
    results = []
    for screened in (1, 32, 10 ** 6):
        monkeypatch.setattr(search, "_SCREEN_GROUPS", screened)
        v, *rest = minimize_max_group_norm(*args)
        results.append((v.tobytes(), *rest))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("args", [(_repeated_rows(), 0.0, 1500, 0), (_swapped_row_pairs(), 0.0, 600, 0)],
                         ids=["repeated-rows", "swapped-row-pairs"])
def test_groups_of_equal_energy_match_reference(args):
    # Groups of exactly equal energy are tied in index order, as the
    # reference ties them over all groups.
    _assert_matches_reference(*args)


@pytest.mark.parametrize("cache_bytes", [0, 5 * 200 * 16])  # no column kept; full after five
def test_gram_cache_limit_keeps_the_result(monkeypatch, cache_bytes):
    args = (_grouped_rows(200, 1, 12, 9), 0.0, 3000, 9)
    _, f, evals, ok = minimize_max_group_norm(*args)
    monkeypatch.setattr(search, "_GRAM_CACHE_BYTES", cache_bytes)
    _, f_capped, evals_capped, ok_capped = minimize_max_group_norm(*args)
    assert (evals_capped, ok_capped) == (evals, ok)
    assert f_capped == pytest.approx(f, abs=1e-12)


def test_tie_steps_reach_lower_on_the_same_budget():
    # 80 unit rows in C^12 and a target out of reach: without tie steps,
    # every restart ends where no step on the single active row descends.
    # Both runs start each restart at a fresh random point, as the kernel
    # did when tie steps were added, so the gain is the tie steps' alone.
    args = (_grouped_rows(80, 1, 12, 0), 0.3, 1500, 0)
    _, f, evals, ok = _reference_kernel(*args, incumbent_restarts=False)
    _, f_without, evals_without, ok_without = _reference_kernel(
        *args, tie_steps=False, incumbent_restarts=False)
    assert (evals, ok) == (evals_without, ok_without) == (1500, False)
    assert f < 0.9 * f_without
    # With restarts from the incumbent, tie steps still end lower.
    assert minimize_max_group_norm(*args)[1] < _reference_kernel(*args, tie_steps=False)[1]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n, dim, budget", [(80, 12, 1500), (300, 32, 5000)])
def test_incumbent_restarts_reach_lower_on_the_same_budget(n, dim, budget, seed):
    # n unit rows in C^dim and a target out of reach: every restart stalls,
    # and restarting from the incumbent ends lower than restarting from a
    # fresh random point.
    args = (_grouped_rows(n, 1, dim, seed), 0.0, budget, seed)
    _, f, evals, ok = minimize_max_group_norm(*args)
    _, f_fresh, evals_fresh, ok_fresh = _reference_kernel(*args, incumbent_restarts=False)
    assert (evals, ok) == (evals_fresh, ok_fresh) == (budget, False)
    assert f < f_fresh


def test_success_before_any_stall_keeps_the_pinned_result():
    # This search reaches its target before any restart stalls, so no tie
    # step is taken and the result is the one pinned before tie steps
    # existed (on numpy 2.4 with OpenBLAS).
    v, f, evals, ok = minimize_max_group_norm(_grouped_rows(80, 1, 12, 0), 0.4, 1500, 0)
    assert (f, evals, ok) == (0.3937710498660465, 46, True)
    assert hashlib.sha256(v.tobytes()).hexdigest() == (
        "d7256a26b0b9dce40bdad05c0d4d2112a5ab3f2d4266947b996d99914e917e19")


def test_unreachable_target_spends_exactly_the_budget():
    groups = _grouped_rows(40, 1, 6, 3)
    for budget in (1, 2, 7, 333):
        v, f, evals, ok = minimize_max_group_norm(groups, 0.0, budget, 5)
        assert (evals, ok) == (budget, False)
        assert f == pytest.approx(_direct_value(groups, v), abs=1e-12)
    # 200 rows, above the screened groups: budgets that run out in the
    # middle of a descent, with trials rejected on the largest groups alone.
    groups = _grouped_rows(200, 1, 12, 3)
    for budget in (1, 2, 7, 333, 2999):
        v, f, evals, ok = minimize_max_group_norm(groups, 0.0, budget, 5)
        assert (evals, ok) == (budget, False)
        assert f == _direct_value(groups, v)


def test_a_group_the_step_annihilates_stays_finite():
    # M_k = I: the full step v - grad cancels to rounding noise, so the
    # trial is formed and evaluated directly; every point scores 1.
    v, f, evals, ok = minimize_max_group_norm(np.eye(3, dtype=complex)[None], 0.5, 40, 0)
    assert (evals, ok) == (40, False)
    assert f == pytest.approx(1.0, abs=1e-12)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


@pytest.mark.parametrize("shape", [(6, 3), (2, 1, 3, 3), (3,)])
def test_groups_that_are_not_three_dimensional_are_rejected(shape):
    with pytest.raises(ValueError, match=r"\(n, r, d\)"):
        minimize_max_group_norm(np.ones(shape, dtype=complex), 0.5, 10, 0)


def _verify_a_certificate_just_below_its_recomputation():
    # achieved and bound 5e-11 below the recomputed value: within the 1e-10
    # agreement, so only the bound check refuses it
    rng = np.random.default_rng(7)
    family = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(10)]
    cert = find_inclined_vector(family, 0.9, 500, 2)
    low = recompute_achieved(cert.candidate, family) - 5e-11
    verify_inclination(dataclasses.replace(cert, achieved=low, bound=low), family)


@pytest.mark.parametrize("call, message", [
    (lambda: minimize_max_group_norm(np.eye(3, dtype=complex)[None], 0.5, 0, 0),
     "budget must be >= 1"),
    (_verify_a_certificate_just_below_its_recomputation, "recomputed achieved .* exceeds bound"),
    (lambda: cover_witness([np.array([1.0, 0.0])], 0.5, 0, 0), "trials must be >= 1"),
], ids=["search-budget-0", "verify-achieved-above-bound", "cover-trials-0"])
def test_bad_arguments_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_an_all_zero_group_imposes_no_constraint():
    groups = _grouped_rows(2, 3, 3, 0)
    with_zero = np.concatenate([groups, np.zeros((1, 3, 3), dtype=complex)])
    v, f, evals, ok = minimize_max_group_norm(with_zero, 0.2, 200, 4)
    alone = minimize_max_group_norm(groups, 0.2, 200, 4)
    np.testing.assert_array_equal(v, alone[0])
    assert (f, evals, ok) == alone[1:]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), r=st.integers(1, 4), dim=st.integers(2, 6),
       seed=st.integers(0, 2 ** 32 - 1), target=st.floats(0.05, 0.9),
       budget=st.integers(1, 300))
def test_kernel_follows_the_reference_path(n, r, dim, seed, target, budget):
    evals, ok = _assert_matches_reference(_grouped_rows(n, r, dim, seed), target, budget, seed)
    assert evals <= budget
    assert ok or evals == budget


# --------------------------------------------------------- cover witness

def test_cover_witness_single_point():
    w = cover_witness([np.array([1.0, 0.0, 0.0])], 0.9, 1000, 0)
    assert w is not None
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(w - np.array([1.0, 0.0, 0.0])) > 0.9


def test_cover_witness_never_beyond_diameter():
    assert cover_witness([np.array([1.0, 0.0, 0.0])], 2.0, 2000, 0) is None


def test_cover_witness_dense_circle_net():
    angles = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    points = [np.array([np.cos(t), np.sin(t)]) for t in angles]
    # adjacent spacing 2*sin(pi/100) ~ 0.0628, so radius 0.9 covers the circle
    assert cover_witness(points, 0.9, 100_000, 1) is None


def test_cover_witness_complex_points_are_realified():
    w = cover_witness([np.array([1.0 + 0.0j, 0.0 + 0.0j])], 0.9, 2000, 2)
    assert w is not None
    assert w.shape == (4,)


def test_cover_witness_does_not_depend_on_the_batch_size(monkeypatch):
    points = np.random.default_rng(4).standard_normal((40, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    w = cover_witness(points, 0.7, 1000, 5)
    assert w is not None
    # 40 float64 entries a trial, as wide as 20 complex128 ones: 3 trials a block
    monkeypatch.setattr(hilbert, "_ROW_BLOCK_BYTES", 3 * 16 * 20)
    np.testing.assert_array_equal(cover_witness(points, 0.7, 1000, 5), w)


def test_cover_witness_batch_memory_is_bounded_on_a_large_net():
    # 1024 trials against 20 000 points would form 160 MB temporaries.
    points = np.random.default_rng(0).standard_normal((20_000, 1))
    tracemalloc.start()
    try:
        assert cover_witness(points, 0.5, 2048, 0) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_cover_witness_memory_is_bounded_in_a_large_dimension():
    # A trial is 10 000 floats wide here; 1024 trials a batch held 156 MiB.
    points = np.eye(4, 5000, dtype=complex)
    tracemalloc.start()
    try:
        assert cover_witness(points, 1.5, 1100, 0) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_cover_witness_realifies_a_complex_net_at_once():
    rng = np.random.default_rng(6)
    net = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    net /= np.linalg.norm(net, axis=1, keepdims=True)
    per_point = np.stack([realify(p) for p in net])
    for points in (net, list(net), np.asfortranarray(net)):
        assert search._net_matrix(points).tobytes() == per_point.tobytes()
    w = cover_witness(net, 0.7, 2000, 7)
    assert w is not None
    np.testing.assert_array_equal(w, cover_witness(per_point, 0.7, 2000, 7))


def test_realify_returns_a_copy():
    x = np.array([1 + 2j, 3 - 4j])
    z = realify(x)
    z[0] = 9.0
    assert x[0] == 1 + 2j


@pytest.mark.parametrize("points, match", [
    ([np.ones(2), np.ones(3)], None),  # numpy refuses points of different lengths
    ([np.ones(2, dtype=complex), np.ones(3, dtype=complex)], None),
    ([np.ones((2, 2))], "1-D vectors"),
    (np.ones((0, 3)), "nonempty"),
    ([np.array([1.0, np.nan * 1j])], "non-finite"),
    # a real net is checked like a complex one
    ([np.array([1.0, np.nan])], "non-finite"),
    ([np.array([np.inf, 0.0])], "non-finite"),
])
def test_cover_witness_rejects_a_malformed_net(points, match):
    with pytest.raises(ValueError, match=match):
        cover_witness(points, 0.5, 10, 0)


def test_cover_witness_validation():
    with pytest.raises(ValueError):
        cover_witness([], 0.5, 10, 0)
    with pytest.raises(ValueError):
        cover_witness([np.array([1.0, 0.0])], -1.0, 10, 0)
