"""Axis projections on tensor powers and their products.

An axis projection acts as the rank-one projection R_v on one tensor factor
and as the identity on every other factor.  Specs are stored structurally
(axis label + direction) and applied block-wise, because the interesting
spaces are far too large to materialize; the dense Kronecker oracle the
tests compare against lives in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .hilbert import as_vector, normalized
from .tensor_index import TensorIndexSpace, block_view, blocks_matrix


def _frozen_unit(v, dim: int) -> np.ndarray:
    """A read-only unit copy of v.  A v of norm within 1e-12 of 1 keeps its
    bits, so a direction is rounded once, where it is made."""
    u = as_vector(v, dim=dim)
    u = u.copy() if abs(np.linalg.norm(u) - 1.0) <= 1e-12 else normalized(u)
    u.flags.writeable = False
    return u


@dataclass(frozen=True)
class AxisProjectionSpec:
    """Projection acting as R_direction on ``axis`` and identity elsewhere.

    A direction that is not a unit vector is normalized on construction;
    scaling a direction does not change the projection.
    """

    space: TensorIndexSpace
    axis: str
    direction: np.ndarray

    def __post_init__(self):
        self.space.axis_position(self.axis)  # raises if the axis is unknown
        object.__setattr__(
            self, "direction", _frozen_unit(self.direction, self.space.alphabet_size)
        )


@dataclass(frozen=True)
class ProductProjectionSpec:
    """Product of axis projections over a set of distinct axes."""

    space: TensorIndexSpace
    directions: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.directions:
            raise ValueError("need at least one axis direction")
        normed = {}
        for axis, v in self.directions.items():
            self.space.axis_position(axis)
            normed[axis] = _frozen_unit(v, self.space.alphabet_size)
        object.__setattr__(self, "directions", normed)


def apply_axis(spec: AxisProjectionSpec, x) -> np.ndarray:
    """Apply R_v to every block x(s) along the spec's axis."""
    v = spec.direction
    # inner(x(s), v) per block, on blocks_matrix (sums over the strided view
    # can round differently) by einsum (BLAS rounds by thread count).
    coeff = np.einsum("...j,j->...", blocks_matrix(spec.space, x, spec.axis), v.conj())
    out = np.empty(spec.space.dim, dtype=np.complex128)
    blocks = block_view(spec.space, out, spec.axis)
    np.multiply.outer(coeff.reshape(blocks.shape[:-1]), v, out=blocks)
    return out


def joint_fixed_vector(spec: ProductProjectionSpec) -> np.ndarray:
    """Unit vector fixed by every factor of a full product projection.

    Requires a direction for every axis; the coordinates are the products
    v_t = prod_a v_{a, t(a)}, i.e. the elementary tensor of the directions.
    Witnesses that the product projection is nonzero.
    """
    missing = [a for a in spec.space.axes if a not in spec.directions]
    if missing:
        raise ValueError(f"missing directions for axes {missing}")
    out = np.ones(1, dtype=np.complex128)
    for a in spec.space.axes:
        out = np.multiply.outer(out, spec.directions[a]).reshape(-1)
    return out

