import itertools

import numpy as np
import pytest

from inclined import TensorIndexSpace, apply_axis, block_view, blocks_matrix, joint_fixed_vector
from oracles import (
    apply_product, dense_materialize, dense_rank_one, inner, kron_basis_vector, rank_one_apply)


def _random_space(rng, max_axes=3, max_d=4):
    n = int(rng.integers(1, max_axes + 1))
    d = int(rng.integers(2, max_d + 1))
    return TensorIndexSpace(tuple(f"a{i}" for i in range(n)), d)


def _random_direction(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _round_trip_apply_axis(space, axis, v, x):
    # Reference: the blocks -> outer product -> unblocks round trip that
    # apply_axis replaced by a write through block_view.
    d, n = space.alphabet_size, len(space.axes)
    coeff = np.einsum("...j,j->...", blocks_matrix(space, x, axis), v.conj())
    cube = np.multiply.outer(coeff, v).reshape((d,) * n)
    return np.moveaxis(cube, -1, space.axis_position(axis)).reshape(-1)


def test_apply_axis_fixes_matching_basis_vector():
    sp = TensorIndexSpace(("a", "b"), 2)
    x = kron_basis_vector((0, 1), 2)
    np.testing.assert_allclose(apply_axis(sp, "a", np.array([1, 0], dtype=complex), x), x)


def test_apply_axis_kills_orthogonal_basis_vector():
    sp = TensorIndexSpace(("a", "b"), 2)
    x = kron_basis_vector((1, 1), 2)
    np.testing.assert_allclose(apply_axis(sp, "a", np.array([1, 0], dtype=complex), x), np.zeros(4))


def test_apply_axis_basic_vector_identity():
    # On e_{s | (a,b)} the action is (R_v e_b) placed in the block at s.
    sp = TensorIndexSpace(("a", "b", "c"), 3)
    rng = np.random.default_rng(7)
    v = _random_direction(rng, 3)
    for t in [(0, 2, 1), (2, 0, 0)]:
        out = apply_axis(sp, "b", v, kron_basis_vector(t, 3))
        blocks = block_view(sp, out, "b")
        s_key = (t[0], t[2])
        e_b = np.zeros(3, dtype=complex)
        e_b[t[1]] = 1.0
        np.testing.assert_allclose(blocks[s_key], rank_one_apply(v, e_b), atol=1e-12)
        for key in itertools.product(range(3), repeat=2):
            if key != s_key:
                np.testing.assert_array_equal(blocks[key], np.zeros(3))


def test_apply_axis_is_bit_identical_to_the_round_trip():
    rng = np.random.default_rng(16)
    for _ in range(60):
        sp = _random_space(rng, max_axes=3, max_d=5)
        axis = sp.axes[int(rng.integers(len(sp.axes)))]
        v = _random_direction(rng, sp.alphabet_size)
        x = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        np.testing.assert_array_equal(apply_axis(sp, axis, v, x), _round_trip_apply_axis(sp, axis, v, x))


def test_apply_axis_dimension_mismatch():
    sp = TensorIndexSpace(("a", "b"), 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_axis(sp, "a", np.array([1, 0], dtype=complex), np.zeros(3, dtype=complex))


_BAD_DIRECTIONS = [
    (np.zeros(2, dtype=complex), "zero vector"),
    (np.array([1, np.nan], dtype=complex), "non-finite"),
    (np.array([1, 0, 0], dtype=complex), "dimension mismatch"),
]


def test_apply_axis_rejects_unknown_axis_and_bad_directions():
    sp = TensorIndexSpace(("a", "b"), 2)
    x = kron_basis_vector((0, 1), 2)
    with pytest.raises(ValueError, match="not in"):
        apply_axis(sp, "z", np.array([1, 0], dtype=complex), x)
    for v, message in _BAD_DIRECTIONS:
        with pytest.raises(ValueError, match=message):
            apply_axis(sp, "a", v, x)


def test_joint_fixed_vector_rejects_unknown_axis_and_bad_directions():
    sp = TensorIndexSpace(("a", "b"), 2)
    e = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="not in"):
        joint_fixed_vector(sp, {"a": e[0], "b": e[1], "z": e[0]})
    for v, message in _BAD_DIRECTIONS:
        with pytest.raises(ValueError, match=message):
            joint_fixed_vector(sp, {"a": e[0], "b": v})


def test_apply_product_joint_eigenvector():
    sp = TensorIndexSpace(("a", "b"), 2)
    e = np.eye(2, dtype=complex)
    dirs = {"a": e[0], "b": e[1]}
    x = kron_basis_vector((0, 1), 2)
    np.testing.assert_allclose(apply_product(sp, dirs, x), x)
    y = kron_basis_vector((1, 1), 2)
    np.testing.assert_allclose(apply_product(sp, dirs, y), np.zeros(4))


def test_apply_product_order_independent():
    sp = TensorIndexSpace(("a0", "a1", "a2"), 3)
    rng = np.random.default_rng(8)
    dirs = {a: _random_direction(rng, 3) for a in sp.axes}
    x = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    results = []
    for order in itertools.permutations(sp.axes):
        out = x
        for a in order:
            out = apply_axis(sp, a, dirs[a], out)
        results.append(out)
    for out in results[1:]:
        assert np.abs(out - results[0]).max() <= 1e-12
    np.testing.assert_allclose(apply_product(sp, dirs, x), results[0], atol=1e-12)


def test_joint_fixed_vector_basis_directions():
    sp = TensorIndexSpace(("a", "b"), 2)
    e = np.eye(2, dtype=complex)
    v = joint_fixed_vector(sp, {"a": e[0], "b": e[1]})
    np.testing.assert_allclose(v, kron_basis_vector((0, 1), 2))


def test_joint_fixed_vector_expansion():
    sp = TensorIndexSpace(("a", "b"), 2)
    e = np.eye(2, dtype=complex)
    v = joint_fixed_vector(sp, {"a": (e[0] + e[1]) / np.sqrt(2), "b": e[0]})
    expected = (kron_basis_vector((0, 0), 2) + kron_basis_vector((1, 0), 2)) / np.sqrt(2)
    np.testing.assert_allclose(v, expected, atol=1e-15)


def test_joint_fixed_vector_missing_axis():
    sp = TensorIndexSpace(("a", "b"), 2)
    with pytest.raises(ValueError, match="missing"):
        joint_fixed_vector(sp, {"a": np.array([1, 0], dtype=complex)})
    with pytest.raises(ValueError, match="missing"):
        joint_fixed_vector(sp, {})


def test_dense_single_axis_is_rank_one_matrix():
    sp = TensorIndexSpace(("a",), 3)
    rng = np.random.default_rng(10)
    v = _random_direction(rng, 3)
    np.testing.assert_allclose(
        dense_materialize(sp, {"a": v}), dense_rank_one(v), atol=1e-14)


def test_dense_two_axes_diagonal():
    sp = TensorIndexSpace(("a", "b"), 2)
    dense = dense_materialize(sp, {"a": np.array([1, 0], dtype=complex)})
    np.testing.assert_allclose(dense, np.diag([1, 1, 0, 0]).astype(complex))


def test_dense_product_agrees_and_is_projection():
    rng = np.random.default_rng(12)
    sp = TensorIndexSpace(("a", "b", "c"), 3)
    dirs = {a: _random_direction(rng, 3) for a in ("a", "c")}
    mat = dense_materialize(sp, dirs)
    x = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    np.testing.assert_allclose(mat @ x, apply_product(sp, dirs, x), atol=1e-10)
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-10)
    np.testing.assert_allclose(mat @ mat, mat, atol=1e-10)


def test_dense_refuses_oversized_space():
    sp = TensorIndexSpace(tuple(f"a{i}" for i in range(13)), 2)  # dim 8192
    with pytest.raises(ValueError, match="cap"):
        dense_materialize(sp, {"a0": np.array([1, 0], dtype=complex)})


def test_projection_invariants_on_random_specs():
    rng = np.random.default_rng(13)
    for _ in range(40):
        sp = _random_space(rng)
        axis = sp.axes[int(rng.integers(len(sp.axes)))]
        v = _random_direction(rng, sp.alphabet_size)
        x = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        y = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        px = apply_axis(sp, axis, v, x)
        # idempotence, contraction, self-adjointness via the bilinear form
        assert np.linalg.norm(apply_axis(sp, axis, v, px) - px) <= 1e-10 * max(np.linalg.norm(x), 1)
        assert np.linalg.norm(px) <= np.linalg.norm(x) + 1e-12
        assert inner(px, y) == pytest.approx(inner(x, apply_axis(sp, axis, v, y)), abs=1e-10)


def test_product_dominated_by_each_factor():
    rng = np.random.default_rng(14)
    for _ in range(20):
        sp = _random_space(rng)
        k = int(rng.integers(1, len(sp.axes) + 1))
        chosen = list(rng.choice(len(sp.axes), size=k, replace=False))
        dirs = {sp.axes[i]: _random_direction(rng, sp.alphabet_size) for i in chosen}
        x = rng.standard_normal(sp.dim) + 1j * rng.standard_normal(sp.dim)
        full = np.linalg.norm(apply_product(sp, dirs, x))
        for a, v in dirs.items():
            single = np.linalg.norm(apply_axis(sp, a, v, x))
            assert full <= single + 1e-12


def test_distinct_axis_projections_commute():
    rng = np.random.default_rng(15)
    sp = TensorIndexSpace(("a", "b", "c"), 3)
    for _ in range(20):
        a1, a2 = rng.choice(3, size=2, replace=False)
        v1, v2 = _random_direction(rng, 3), _random_direction(rng, 3)
        x = rng.standard_normal(27) + 1j * rng.standard_normal(27)
        one = apply_axis(sp, sp.axes[a1], v1, apply_axis(sp, sp.axes[a2], v2, x))
        two = apply_axis(sp, sp.axes[a2], v2, apply_axis(sp, sp.axes[a1], v1, x))
        assert np.abs(one - two).max() <= 1e-12
