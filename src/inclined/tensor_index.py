"""Coordinate layout of the tensor power l2(B^A).

The index set is B^A, the functions from a finite ordered axis set A into the
alphabet B = {0, ..., d-1}.  Coordinates are laid out lexicographically in
(axis order, symbol), with the first axis most significant: e_t is the
Kronecker product of the standard vectors e_{t(a)} in axis order, at position
``np.ravel_multi_index(t, (d,) * |A|)``.  That order is fixed once so the
dense Kronecker oracle is unambiguous, and this module is the only one that
knows it.

Splitting off one axis writes t = s | {(a, b)}; the coordinates of x with s
fixed form the block x(s) in C^d.  ``block_view`` exposes the blocks in place,
indexed by the symbol tuple s, and ``blocks_matrix`` stacks them as the rows
of the mode-a unfolding.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def block_view(space: TensorIndexSpace, x: np.ndarray, axis: str) -> np.ndarray:
    """The blocks of x in place: ``view[s]`` is the block x(s) along ``axis``.

    s is the tuple of symbols on the other axes, in their original order, and
    the last view axis is the symbol at ``axis``.  Leading axes of x are batch
    axes.  For a contiguous x the result is a view, so writing to it writes
    the coordinates of x.
    """
    if x.ndim == 0 or x.shape[-1] != space.dim:
        raise ValueError(f"dimension mismatch: expected (..., {space.dim}), got shape {x.shape}")
    batch = x.shape[:-1]
    cube = x.reshape(batch + (space.alphabet_size,) * len(space.axes))
    return np.moveaxis(cube, len(batch) + space.axis_position(axis), -1)


def blocks_matrix(space: TensorIndexSpace, x, axis: str) -> np.ndarray:
    """Coordinates of x arranged as a (d^(|A|-1), d) matrix of blocks.

    Row s holds the block x(s), x(s)_b = x_{s | {(axis, b)}}, with the rows
    ordered like the enumeration of the reduced space without ``axis``.
    Leading axes of x are batch axes: x of shape (..., dim) gives blocks of
    shape (..., d^(|A|-1), d).
    """
    xv = np.asarray(x, dtype=np.complex128)
    blocks = block_view(space, xv, axis)
    if not np.all(np.isfinite(xv)):
        raise ValueError("vector has non-finite entries")
    d = space.alphabet_size
    return blocks.reshape(xv.shape[:-1] + (space.dim // d, d))
