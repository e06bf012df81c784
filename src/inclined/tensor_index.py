"""Index bookkeeping for the tensor power l2(B^A).

The index set is B^A, the functions from a finite ordered axis set A into the
alphabet B = {0, ..., d-1}.  Coordinates are laid out lexicographically in
(axis order, symbol), with the first axis most significant; that order is
fixed once so the dense Kronecker oracle is unambiguous.

A function index t in B^A is represented as a plain dict mapping each axis
label to its symbol.  Splitting off one axis writes t = s | {(a, b)} with s a
function index on the remaining axes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np



@dataclass(frozen=True)
class TensorIndexSpace:
    """The labeled index set B^A: ordered axis labels plus alphabet size d."""

    axes: tuple[str, ...]
    alphabet_size: int

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if len(self.axes) < 1:
            raise ValueError("need at least one axis")
        if len(set(self.axes)) != len(self.axes):
            raise ValueError(f"axis labels must be distinct: {self.axes}")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")

    @property
    def dim(self) -> int:
        return self.alphabet_size ** len(self.axes)

    def axis_position(self, axis: str) -> int:
        try:
            return self.axes.index(axis)
        except ValueError:
            raise ValueError(f"axis {axis!r} not in {self.axes}") from None

    def without_axis(self, axis: str) -> "TensorIndexSpace":
        pos = self.axis_position(axis)
        if len(self.axes) == 1:
            raise ValueError("cannot drop the only axis")
        return TensorIndexSpace(self.axes[:pos] + self.axes[pos + 1:], self.alphabet_size)

    def check_index(self, t: Mapping[str, int]) -> None:
        if set(t) != set(self.axes):
            raise ValueError(f"index {dict(t)} is not total on axes {self.axes}")
        for a, b in t.items():
            if not 0 <= b < self.alphabet_size:
                raise ValueError(f"symbol {b} at axis {a!r} out of range [0, {self.alphabet_size})")

    def linearize(self, t: Mapping[str, int]) -> int:
        """Position of e_t in the lexicographic coordinate layout."""
        self.check_index(t)
        i = 0
        for a in self.axes:
            i = i * self.alphabet_size + t[a]
        return i

    def delinearize(self, i: int) -> dict[str, int]:
        if not 0 <= i < self.dim:
            raise ValueError(f"linear index {i} out of range [0, {self.dim})")
        t: dict[str, int] = {}
        for a in reversed(self.axes):
            t[a] = i % self.alphabet_size
            i //= self.alphabet_size
        return {a: t[a] for a in self.axes}

    def function_indices(self) -> Iterator[dict[str, int]]:
        """All of B^A in enumeration (lexicographic) order."""
        for symbols in itertools.product(range(self.alphabet_size), repeat=len(self.axes)):
            yield dict(zip(self.axes, symbols))


def split(t: Mapping[str, int], axis: str) -> tuple[dict[str, int], int]:
    """Write t = s | {(axis, b)} and return (s, b)."""
    if axis not in t:
        raise ValueError(f"axis {axis!r} not present in index {dict(t)}")
    s = {a: b for a, b in t.items() if a != axis}
    return s, t[axis]


def join(s: Mapping[str, int], axis: str, symbol: int) -> dict[str, int]:
    """Inverse of split: extend s by (axis, symbol)."""
    if axis in s:
        raise ValueError(f"axis {axis!r} already present in index {dict(s)}")
    t = dict(s)
    t[axis] = symbol
    return t


def basis_vector(space: TensorIndexSpace, t: Mapping[str, int]) -> np.ndarray:
    """The standard basis vector e_t of l2(B^A)."""
    e = np.zeros(space.dim, dtype=np.complex128)
    e[space.linearize(t)] = 1.0
    return e


def blocks_matrix(space: TensorIndexSpace, x, axis: str) -> np.ndarray:
    """Coordinates of x arranged as a (d^(|A|-1), d) matrix of blocks.

    Row s holds the block x(s), x(s)_b = x_{s | {(axis, b)}}, with the rows
    ordered like the enumeration of the reduced space without ``axis``.
    Leading axes of x are batch axes: x of shape (..., dim) gives blocks of
    shape (..., d^(|A|-1), d).
    """
    d = space.alphabet_size
    n = len(space.axes)
    xv = np.asarray(x, dtype=np.complex128)
    if xv.ndim == 0 or xv.shape[-1] != space.dim:
        raise ValueError(f"dimension mismatch: expected (..., {space.dim}), got shape {xv.shape}")
    if not np.all(np.isfinite(xv)):
        raise ValueError("vector has non-finite entries")
    pos = space.axis_position(axis)
    batch = xv.shape[:-1]
    cube = xv.reshape(batch + (d,) * n)
    return np.moveaxis(cube, len(batch) + pos, -1).reshape(batch + (space.dim // d, d))


def unblocks_matrix(space: TensorIndexSpace, blocks: np.ndarray, axis: str) -> np.ndarray:
    """Inverse of blocks_matrix: reassemble the flat coordinate vector."""
    d = space.alphabet_size
    n = len(space.axes)
    pos = space.axis_position(axis)
    expected = (space.dim // d, d)
    if blocks.shape != expected:
        raise ValueError(f"blocks shape {blocks.shape} != {expected}")
    cube = blocks.reshape((d,) * (n - 1) + (d,))
    return np.moveaxis(cube, -1, pos).reshape(-1)


def block_view(space: TensorIndexSpace, x, axis: str) -> dict[tuple[int, ...], np.ndarray]:
    """The blocks x(s) keyed by s, for s ranging over B^(A minus {axis}).

    Keys are the symbol tuples of the remaining axes in their original order,
    i.e. the enumeration order of ``space.without_axis(axis)``.  Reassembling
    all blocks reproduces x exactly, so sum_s ||x(s)||^2 = ||x||^2.
    """
    mat = blocks_matrix(space, x, axis)
    reduced_len = len(space.axes) - 1
    keys = itertools.product(range(space.alphabet_size), repeat=reduced_len)
    return {key: mat[i] for i, key in enumerate(keys)}
