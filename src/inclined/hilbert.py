"""Complex vectors and vector families, and seeded orthonormal bases.

Convention used everywhere in this package: the inner product is linear in
the FIRST argument and conjugate-linear in the second,

    inner(x, y) = sum_k x_k * conj(y_k).

All vectors are 1-D complex128 numpy arrays. Values are treated as immutable
after construction, so everything here is pure and safe to share across
threads.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# A vector whose norm is within this of 1 counts as a unit vector.
UNIT_TOL = 1e-12

# Largest (n, n) complex128 basis random_orthonormal_basis will draw: 1 GiB,
# n <= 8192.  The draw holds one such matrix plus one row block of scratch.
RANDOM_BASIS_CAP_BYTES = 2 ** 30

# Scratch for one block of rows in the passes that go over a matrix a row
# block at a time (the draw's phase multiplies, family's masses, search
# groups and diagonals, and cover_witness's trials).
_ROW_BLOCK_BYTES = 2 ** 20


def _row_blocks(n_rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices covering range(n_rows), each of
    max(1, _ROW_BLOCK_BYTES // (16 * width)) rows (the last may be shorter):
    a block of complex128 rows ``width`` wide fits the scratch budget."""
    step = max(1, _ROW_BLOCK_BYTES // (16 * width))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a 1-D complex128 array, optionally checking its length."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def as_family(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a C-contiguous (n, d) complex128 array of finite
    entries, n, d >= 1, optionally checking the width d: as_vector for a
    family of vectors.  Members of different lengths raise ValueError from
    numpy."""
    mat = np.ascontiguousarray(x, dtype=np.complex128)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"expected a nonempty (n, d) family of 1-D vectors, got shape {mat.shape}")
    if dim is not None and mat.shape[1] != dim:
        raise ValueError(f"family vectors have dimension {mat.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("family has non-finite entries")
    return mat


def random_orthonormal_basis(n: int, seed: int) -> np.ndarray:
    """Seeded orthonormal basis of C^n: the rows of D_0 F D_1 F D_2.

    F is the unitary DFT and D_0, D_1, D_2 are diagonals of unit phases
    drawn from ``default_rng(seed)``.  The basis is not Haar-distributed;
    the constructions here must work against any orthonormal basis.  It
    uses no BLAS, so its bits do not depend on the BLAS thread count.
    Both DFTs run in place (``out=``, numpy >= 2.0).  Each phase multiply
    goes a row block at a time into fresh scratch, which is then copied
    back: a multiply whose output is its own input can take another of
    numpy's complex loops and round differently (at n = 1 already), while
    a product into separate memory has the bits of the whole-matrix product
    and a copy moves them exactly.  So one n x n matrix plus one row block
    (``_ROW_BLOCK_BYTES``) is alive at once.
    Raises ValueError, before drawing anything, when the n x n complex128
    matrix (n * n * 16 bytes) passes ``RANDOM_BASIS_CAP_BYTES`` (1 GiB,
    n <= 8192).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n * n * 16 > RANDOM_BASIS_CAP_BYTES:
        raise ValueError(f"a random basis of C^{n} needs {n * n * 16 / 2 ** 30:.3g} GiB per copy, "
                         f"above the {RANDOM_BASIS_CAP_BYTES / 2 ** 30:.3g} GiB cap")
    d0, d1, d2 = np.exp(2j * np.pi * np.random.default_rng(seed).random((3, n)))
    u = np.diag(d2)
    for phases in (d1, d0):
        np.fft.fft(u, axis=0, norm="ortho", out=u)
        for rows in _row_blocks(n, n):
            u[rows] = u[rows] * phases[rows, None]
    return u
