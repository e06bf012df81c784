"""Axis projections on tensor powers and their products.

An axis projection acts as the rank-one projection R_v on one tensor factor
and as the identity on every other factor.  ``apply_axis`` applies one
block-wise, given the space, the axis label and the direction, because the
interesting spaces are far too large to materialize; ``joint_fixed_vector``
gives the unit vector fixed by a product of them, one direction per axis.
A direction that is not a unit vector is normalized first; scaling it does
not change the projection.  The dense Kronecker oracle the tests compare
against lives in tests/oracles.py.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .hilbert import UNIT_TOL, as_vector
from .tensor_index import TensorIndexSpace, block_view, blocks_matrix


def _frozen_unit(v, dim: int) -> np.ndarray:
    """A read-only unit copy of v; a zero v raises.  A v of norm within
    ``UNIT_TOL`` of 1 keeps its bits, so a direction is rounded once, where
    it is made.  A v whose squared norm leaves the float range (a norm of
    inf, or of 0 for a nonzero v) is divided by its largest modulus first."""
    u = as_vector(v, dim=dim)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.linalg.norm(u)
    if not np.isfinite(n) or (n == 0.0 and u.any()):
        u = u / np.abs(u).max()
        n = np.linalg.norm(u)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    u = u.copy() if abs(n - 1.0) <= UNIT_TOL else u / n
    u.flags.writeable = False
    return u


def apply_axis(space: TensorIndexSpace, axis: str, direction, x) -> np.ndarray:
    """Apply R_direction to every block x(s) along ``axis``; an unknown axis raises."""
    v = _frozen_unit(direction, space.alphabet_size)
    # inner(x(s), v) per block, on blocks_matrix (sums over the strided view
    # can round differently) by einsum (BLAS rounds by thread count).
    coeff = np.einsum("...j,j->...", blocks_matrix(space, x, axis), v.conj())
    out = np.empty(space.dim, dtype=np.complex128)
    blocks = block_view(space, out, axis)
    np.multiply.outer(coeff.reshape(blocks.shape[:-1]), v, out=blocks)
    return out


def joint_fixed_vector(space: TensorIndexSpace, directions: Mapping[str, np.ndarray]) -> np.ndarray:
    """Unit vector fixed by every factor of a full product projection.

    Requires a direction for every axis and refuses an unknown one; the
    coordinates are the products v_t = prod_a v_{a, t(a)}, i.e. the
    elementary tensor of the directions.  Witnesses that the product
    projection is nonzero.
    """
    for axis in directions:
        space.axis_position(axis)  # raises if the axis is unknown
    missing = [a for a in space.axes if a not in directions]
    if missing:
        raise ValueError(f"missing directions for axes {missing}")
    out = np.ones(1, dtype=np.complex128)
    for a in space.axes:
        out = np.multiply.outer(out, _frozen_unit(directions[a], space.alphabet_size)).reshape(-1)
    return out
