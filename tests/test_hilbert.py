import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inclined import InclinationCertificate, hilbert, random_orthonormal_basis
from inclined.hilbert import RANDOM_BASIS_CAP_BYTES, UNIT_TOL, frozen_unit
from inclined.search import _unit_rows
from oracles import inner, norm, random_unit_vector, rank_one_apply

E2 = np.eye(2, dtype=complex)


def test_inner_orthogonal_basis_vectors():
    assert inner([1, 0], [0, 1]) == 0


def test_inner_first_slot_linearity():
    # linear in the first argument: <i, 1> = i, not -i
    assert inner([1j], [1]) == 1j
    assert inner([1], [1j]) == -1j


def test_inner_unit_self_product():
    v = [3 / 5, 4 / 5]
    assert inner(v, v) == pytest.approx(1.0)


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert inner(x, y) == pytest.approx(np.conj(inner(y, x)), abs=1e-12)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        inner([1, 0], [1, 0, 0])


def test_rank_one_fixed_vector():
    np.testing.assert_allclose(rank_one_apply(E2[0], E2[0]), E2[0])


def test_rank_one_orthogonal_input():
    np.testing.assert_allclose(rank_one_apply(E2[0], E2[1]), np.zeros(2))


def test_rank_one_hand_computed():
    v = (E2[0] + E2[1]) / np.sqrt(2)
    np.testing.assert_allclose(rank_one_apply(v, E2[0]), (E2[0] + E2[1]) / 2, atol=1e-15)


def test_rank_one_rejects_zero_direction():
    with pytest.raises(ValueError, match="zero"):
        rank_one_apply([0, 0], [1, 0])


def test_rank_one_unnormalized_direction_same_projection():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    np.testing.assert_allclose(rank_one_apply(v, x), rank_one_apply(3.7j * v, x), atol=1e-12)


def test_rank_one_idempotent_contractive_and_quadratic_form():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(1, 40))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        px = rank_one_apply(v, x)
        assert np.linalg.norm(rank_one_apply(v, px) - px) <= 1e-10 * max(norm(x), 1)
        assert norm(px) <= norm(x) + 1e-12
        # <Px, x> equals ||Px||^2 for an orthogonal projection
        assert abs(inner(px, x) - norm(px) ** 2) <= 1e-10 * norm(x) ** 2


def test_random_unit_vector_dim_one_is_unit_scalar():
    v = random_unit_vector(1, 5)
    assert abs(abs(v[0]) - 1.0) <= 1e-12


def test_random_unit_vector_normalized():
    v = random_unit_vector(128, 42)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_random_unit_vector_deterministic():
    a = random_unit_vector(17, 9)
    b = random_unit_vector(17, 9)
    np.testing.assert_array_equal(a, b)
    c = random_unit_vector(17, 10)
    assert np.linalg.norm(a - c) > 1e-3


def test_random_unit_vector_rejects_bad_dim():
    with pytest.raises(ValueError):
        random_unit_vector(0, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: hilbert.as_vector(np.ones((2, 2))), r"expected a nonempty 1-D vector, got shape \(2, 2\)"),
    (lambda: hilbert.as_vector([]), r"expected a nonempty 1-D vector, got shape \(0,\)"),
    (lambda: random_orthonormal_basis(0, 1), "n must be >= 1"),
], ids=["vector-2d", "vector-empty", "basis-n-0"])
def test_bad_arguments_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_random_basis_above_the_cap_is_refused_before_drawing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a random matrix")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    n = math.isqrt(RANDOM_BASIS_CAP_BYTES // 16) + 1
    with pytest.raises(ValueError, match="cap"):
        random_orthonormal_basis(n, 0)
    with pytest.raises(ValueError, match="cap"):
        random_orthonormal_basis(347 ** 2, 0)  # the paper stage at d = 347


@pytest.mark.parametrize("n", [1, 2, 64, 528])
def test_random_basis_gram_residual(n):
    mat = random_orthonormal_basis(n, 5)
    assert mat.shape == (n, n)
    assert np.abs(mat @ mat.conj().T - np.eye(n)).max() < 1e-12


def test_random_basis_same_seed_same_bits():
    assert random_orthonormal_basis(528, 42).tobytes() == random_orthonormal_basis(528, 42).tobytes()
    assert random_orthonormal_basis(528, 42).tobytes() != random_orthonormal_basis(528, 43).tobytes()


def test_random_basis_uses_no_factorisation(monkeypatch):
    def no_qr(*args, **kwargs):
        raise AssertionError("factorised a matrix")
    monkeypatch.setattr(np.linalg, "qr", no_qr)
    mat = random_orthonormal_basis(64, 1)
    assert np.abs(mat @ mat.conj().T - np.eye(64)).max() < 1e-12


def _reference_draw(n, seed):
    # The draw as first written: both DFTs out of place.
    d0, d1, d2 = np.exp(2j * np.pi * np.random.default_rng(seed).random((3, n)))
    u = np.fft.fft(np.diag(d2), axis=0, norm="ortho") * d1[:, None]
    return np.fft.fft(u, axis=0, norm="ortho") * d0[:, None]


def test_random_basis_matches_the_out_of_place_draw_bit_for_bit():
    # n = 1 is where an in-place phase multiply already changes the bits.
    for n in [*range(1, 71), 127, 256, 347, 528, 1021]:
        for seed in (0, 1, 5, 12345):
            got = random_orthonormal_basis(n, seed)
            assert got.tobytes() == _reference_draw(n, seed).tobytes(), (n, seed)


@pytest.mark.parametrize("budget", [16, 16 * 3 * 64 + 15])  # one row a block; three rows at n = 64
def test_random_basis_in_small_row_blocks_matches_the_out_of_place_draw(budget, monkeypatch):
    monkeypatch.setattr(hilbert, "_ROW_BLOCK_BYTES", budget)
    for n in [1, 2, 3, 64, 65, 347]:
        for seed in (0, 5):
            assert random_orthonormal_basis(n, seed).tobytes() == _reference_draw(n, seed).tobytes(), (n, seed)


def test_row_blocks_cover_the_rows_in_order(monkeypatch):
    monkeypatch.setattr(hilbert, "_ROW_BLOCK_BYTES", 16 * 10 * 3)  # three rows of width 10
    assert list(hilbert._row_blocks(7, 10)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert list(hilbert._row_blocks(0, 10)) == []
    assert list(hilbert._row_blocks(2, 10 ** 9)) == [slice(0, 1), slice(1, 2)]  # at least one row


def _unit_forms(x):
    # the row x as _unit_rows makes it a search row and frozen_unit a direction
    return _unit_rows(x[None])[0], frozen_unit(x, x.size)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_unit_scaling_is_exact_and_total(data):
    # Any finite part, subnormal or near the float maximum, may occur.
    d = data.draw(st.integers(1, 4))
    parts = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                        min_size=2 * d, max_size=2 * d)))
    assume(parts.any())
    x = parts.view(np.complex128)
    forms = _unit_forms(x)
    for u in forms:
        assert np.all(np.isfinite(u)) and abs(np.linalg.norm(u) - 1.0) <= UNIT_TOL
    # x * 2^k finite and without subnormal parts, each part f * 2^E times 2^k
    # within [2^-1022, 2^1024): then both forms keep their bits.
    exps = np.frexp(np.abs(parts[parts != 0]))[1]
    lo, hi = int(-1021 - exps.min()), int(1024 - exps.max())
    assume(lo <= hi)
    y = np.ldexp(parts, data.draw(st.integers(lo, hi))).view(np.complex128)
    shifted = _unit_forms(y)
    assert shifted[0].tobytes() == forms[0].tobytes()
    # a row already of unit norm keeps its own bits, which a shift of it does not
    if not hilbert.pow2_scaled(x)[2] and not hilbert.pow2_scaled(y)[2]:
        assert shifted[1].tobytes() == forms[1].tobytes()
    # The unit direction passes as a certificate candidate, and times 2^600,
    # whose squared norm overflows, is refused without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = dict(family_digest="x", achieved=0.1, bound=0.9, seed=0, iterations_used=1)
        InclinationCertificate(candidate=forms[1], **cert)
        with pytest.raises(ValueError, match="not a unit vector"):
            InclinationCertificate(
                candidate=np.ldexp(forms[1].view(np.float64), 600).view(np.complex128), **cert)
