import itertools

import numpy as np
import pytest

from inclined import TensorIndexSpace, block_view, blocks_matrix
from oracles import kron_basis_vector


def test_space_validation():
    with pytest.raises(ValueError):
        TensorIndexSpace((), 2)
    with pytest.raises(ValueError):
        TensorIndexSpace(("a", "a"), 2)
    with pytest.raises(ValueError):
        TensorIndexSpace(("a",), 0)


@pytest.mark.parametrize("n, d", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_every_index_sits_where_the_kronecker_order_puts_it(n, d):
    # e_t = e_{t(a0)} (x) ... (x) e_{t(a_{n-1})} sits at ravel_multi_index(t),
    # and splitting t = s | (axis, b) puts it in block row s, column b
    sp = TensorIndexSpace(tuple(f"a{i}" for i in range(n)), d)
    for t in itertools.product(range(d), repeat=n):
        x = kron_basis_vector(t, d)
        assert np.flatnonzero(x).tolist() == [np.ravel_multi_index(t, (d,) * n)]
        for pos, axis in enumerate(sp.axes):
            s = t[:pos] + t[pos + 1:]
            expected = np.zeros((d ** (n - 1), d), dtype=complex)
            expected[np.ravel_multi_index(s, (d,) * (n - 1)) if s else 0, t[pos]] = 1.0
            np.testing.assert_array_equal(blocks_matrix(sp, x, axis), expected)
            np.testing.assert_array_equal(block_view(sp, x, axis)[s], np.eye(d)[t[pos]])


def test_linearize_round_trip_all_indices():
    # every index of a (4, 4) space has its own position, and the position
    # gives the index back
    sp = TensorIndexSpace(("a", "b"), 4)
    shape = (sp.alphabet_size,) * len(sp.axes)
    seen = set()
    for t in itertools.product(range(sp.alphabet_size), repeat=len(sp.axes)):
        i = int(np.ravel_multi_index(t, shape))
        seen.add(i)
        assert tuple(int(b) for b in np.unravel_index(i, shape)) == t
        assert np.flatnonzero(kron_basis_vector(t, sp.alphabet_size)).tolist() == [i]
    assert seen == set(range(sp.dim))


def test_function_indices_enumeration_is_lexicographic():
    # enumerating indices in itertools.product order walks the positions
    # 0, 1, ..., dim - 1 of the Kronecker order
    sp = TensorIndexSpace(("a", "b"), 3)
    indices = list(itertools.product(range(sp.alphabet_size), repeat=len(sp.axes)))
    assert indices == sorted(indices)
    order = [int(np.flatnonzero(kron_basis_vector(t, 3))[0]) for t in indices]
    assert order == list(range(9))
    stacked = np.array([kron_basis_vector(t, 3) for t in indices])
    np.testing.assert_array_equal(stacked, np.eye(9))


def test_block_view_basis_vector():
    sp = TensorIndexSpace(("a", "b"), 3)
    x = kron_basis_vector((0, 1), 3)
    blocks = block_view(sp, x, "a")
    np.testing.assert_array_equal(blocks[(1,)], [1, 0, 0])  # e_0 at s = {b: 1}
    for key in itertools.product(range(3), repeat=1):
        if key != (1,):
            np.testing.assert_array_equal(blocks[key], np.zeros(3))


def test_block_view_parseval():
    sp = TensorIndexSpace(("a", "b", "c"), 3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    for axis in sp.axes:
        blocks = block_view(sp, x, axis)
        total = sum(np.linalg.norm(blocks[s]) ** 2 for s in itertools.product(range(3), repeat=2))
        assert total == pytest.approx(np.linalg.norm(x) ** 2, abs=1e-12)


def test_block_view_layout_matches_ravel_multi_index():
    # with axes (a, b) and the first axis most significant, splitting along b
    # groups consecutive entries
    sp = TensorIndexSpace(("a", "b"), 2)
    x = np.array([0, 1, 2, 3], dtype=complex)
    blocks = block_view(sp, x, "b")
    np.testing.assert_array_equal(blocks[(0,)], [0, 1])
    np.testing.assert_array_equal(blocks[(1,)], [2, 3])
    for t in itertools.product(range(2), repeat=2):
        assert blocks[(t[0],)][t[1]] == x[np.ravel_multi_index(t, (2, 2))]


def test_block_view_single_axis_space():
    sp = TensorIndexSpace(("a",), 4)
    x = np.arange(4, dtype=complex)
    blocks = block_view(sp, x, "a")
    assert blocks.shape == (4,)
    np.testing.assert_array_equal(blocks[()], x)


def test_block_view_dimension_mismatch():
    sp = TensorIndexSpace(("a", "b"), 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        block_view(sp, np.zeros(5, dtype=complex), "a")


def test_basis_vectors_have_exactly_one_standard_block():
    sp = TensorIndexSpace(("a", "b", "c"), 2)
    for t in itertools.product(range(2), repeat=3):
        x = kron_basis_vector(t, 2)
        for axis in sp.axes:
            mat = blocks_matrix(sp, x, axis)
            nonzero = mat[np.linalg.norm(mat, axis=1) > 0]
            assert len(nonzero) == 1
            assert sorted(np.abs(nonzero[0])) == [0] * (sp.alphabet_size - 1) + [1]


def test_blocks_matrix_round_trip():
    # writing the rows of blocks_matrix back through block_view restores x
    sp = TensorIndexSpace(("a", "b", "c"), 3)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    for axis in sp.axes:
        mat = blocks_matrix(sp, x, axis)
        out = np.empty_like(x)
        view = block_view(sp, out, axis)
        view[...] = mat.reshape(view.shape)
        np.testing.assert_array_equal(out, x)


def test_blocks_matrix_batch_axes():
    sp = TensorIndexSpace(("a", "b"), 3)
    rng = np.random.default_rng(6)
    xs = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    for axis in sp.axes:
        batched = blocks_matrix(sp, xs, axis)
        assert batched.shape == (4, 3, 3)
        for k in range(4):
            np.testing.assert_array_equal(batched[k], blocks_matrix(sp, xs[k], axis))


def test_blocks_matrix_rejects_non_finite_and_unknown_axis():
    sp = TensorIndexSpace(("a", "b"), 2)
    with pytest.raises(ValueError, match="non-finite"):
        blocks_matrix(sp, np.array([0, 1, np.nan, 0]), "a")
    with pytest.raises(ValueError, match="not in"):
        blocks_matrix(sp, np.zeros(4), "z")
