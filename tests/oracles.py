"""Test oracles: the references the tests check the package against.

Dense Kronecker matrices, projections applied vector by vector, the
rank-one and inner-product arithmetic they are built from, and the
paper's capacity arithmetic in exact rationals.  No command and no
certificate check uses any of it, so it lives beside the tests, which
import it as ``oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from inclined.family import BranchProjectionSpec, basis_matrix, separating_level
from inclined.hilbert import as_family, as_vector
from inclined.tensor_index import TensorIndexSpace, blocks_matrix
from inclined.tensor_projection import apply_axis

# Dense operators exist only as test oracles; above this size they are refused.
DENSE_ORACLE_CAP = 4096

CAPACITY_BASE = Fraction(100, 91)


# ------------------------------------------------------------ hilbert

def inner(x, y) -> complex:
    """Inner product, linear in the first slot: sum_k x_k * conj(y_k)."""
    xv = as_vector(x)
    yv = as_vector(y, dim=xv.size)
    # np.vdot conjugates its first argument, so the slots are swapped here.
    return complex(np.vdot(yv, xv))


def norm(x) -> float:
    return float(np.linalg.norm(as_vector(x)))


def rank_one_apply(v, x) -> np.ndarray:
    """Apply the orthogonal projection onto the line spanned by ``v``.

    Returns (inner(x, v) / inner(v, v)) * v.  Idempotent and self-adjoint.
    """
    vv = as_vector(v)
    xv = as_vector(x, dim=vv.size)
    vnorm2 = np.vdot(vv, vv).real
    if vnorm2 == 0.0:
        raise ValueError("cannot project onto the zero vector")
    coeff = np.vdot(vv, xv) / vnorm2  # inner(x, v) / inner(v, v)
    return coeff * vv


def dense_rank_one(v) -> np.ndarray:
    """Dense matrix v v* / ||v||^2 of rank_one_apply; oracle use only."""
    vv = as_vector(v)
    vnorm2 = np.vdot(vv, vv).real
    if vnorm2 == 0.0:
        raise ValueError("cannot project onto the zero vector")
    return np.outer(vv, vv.conj()) / vnorm2


def random_unit_vector(dim: int, seed: int) -> np.ndarray:
    """Uniformly random unit vector (normalized complex Gaussian).

    Deterministic given ``seed``; the distribution is invariant under any
    unitary change of basis.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


# -------------------------------------------------- tensor projections

def kron_basis_vector(t, d):
    """e_t in the dense oracle's Kronecker order, first axis most significant."""
    out = np.ones(1, dtype=complex)
    for b in t:
        out = np.kron(out, np.eye(d, dtype=complex)[b])
    return out


def apply_product(space: TensorIndexSpace, directions: Mapping[str, np.ndarray], x) -> np.ndarray:
    """Apply the axis projections R_v, one per (axis, v) of ``directions``,
    sequentially.

    The factors act on distinct axes, so they commute and any application
    order gives the same result.
    """
    out = as_vector(x, dim=space.dim)
    for axis, v in directions.items():
        out = apply_axis(space, axis, v, out)
    return out


def dense_materialize(space: TensorIndexSpace, directions: Mapping[str, np.ndarray]) -> np.ndarray:
    """Dense Kronecker-product matrix of the product of the axis projections
    in ``directions`` (identity on the other axes), for cross-checking only.

    Kronecker factors follow the coordinate layout: first axis most
    significant.  Refuses total dimension above DENSE_ORACLE_CAP.
    """
    if space.dim > DENSE_ORACLE_CAP:
        raise ValueError(f"total dimension {space.dim} exceeds dense oracle cap {DENSE_ORACLE_CAP}")
    d = space.alphabet_size
    out = np.ones((1, 1), dtype=np.complex128)
    for a in space.axes:
        factor = dense_rank_one(directions[a]) if a in directions else np.eye(d, dtype=np.complex128)
        out = np.kron(out, factor)
    return out


# ------------------------------------------------------------- family

def leakage_set(basis, subspace_projector: Callable[[np.ndarray], np.ndarray], eps: float) -> list[int]:
    """Indices whose basis vector leaks squared mass >= eps into the subspace.

    For every k outside the returned set, ||P_F(e_k)||^2 < eps.  When the
    basis is orthonormal and P_F has rank r, the set has at most r^2 / eps
    elements (the leaked masses sum to the trace r).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return [k for k, e in enumerate(basis_matrix(basis))
            if float(np.linalg.norm(subspace_projector(e)) ** 2) >= eps]


def apply_branch_projection(spec: BranchProjectionSpec, x) -> np.ndarray:
    """Block-diagonal action: each level block is projected independently."""
    xv = as_vector(x, dim=spec.stage.dim)
    out = np.zeros_like(xv)
    for lv in spec.stage.levels:
        sl = spec.stage.level_slice(lv.m)
        out[sl] = apply_axis(lv.space, spec.sigma(lv.m), spec.directions[lv.m - 1], xv[sl])
    return out


def embed_intersection(specs, x) -> np.ndarray:
    """The vector x of branch_intersection(specs), which lives on the specs'
    separating level m, as a vector of the whole stage: x at
    stage.level_slice(m), zero on every other level."""
    stage = specs[0].stage
    out = np.zeros(stage.dim, dtype=np.complex128)
    out[stage.level_slice(separating_level([s.branch for s in specs]))] = x
    return out


def branch_diagonals(spec: BranchProjectionSpec, basis) -> np.ndarray:
    """All diagonal values <P e_k, e_k> = ||P e_k||^2 of the rows of
    ``basis``, orthonormal or not, each level over all rows at once: the
    whole-level arithmetic whose bits family._diagonals, which goes a row
    block at a time, must keep.

    For a unit direction v the level contribution is the summed |inner(block, v)|^2
    over the blocks along the level's axis.
    """
    mat = as_family(basis, spec.stage.dim)
    diag = np.zeros(mat.shape[0])
    for lv in spec.stage.levels:
        blocks = blocks_matrix(lv.space, mat[:, spec.stage.level_slice(lv.m)], spec.sigma(lv.m))
        coeff = np.einsum("...j,j->...", blocks, spec.directions[lv.m - 1].conj())
        diag += (np.abs(coeff) ** 2).sum(axis=1)
    return diag


# ------------------------------------------------ capacity arithmetic

@dataclass(frozen=True)
class CapacityReport:
    """Exponential capacities governing how many directions can be avoided."""

    d: int
    net_lower_bound: float
    inclined_capacity: float
    net_lower_bound_exact: Fraction
    inclined_capacity_exact: Fraction


def realify(x) -> np.ndarray:
    """C^d -> R^(2d), x_k = z_{2k} + i z_{2k+1}.  Norm-preserving."""
    return np.array(as_vector(x)).view(np.float64)  # a copy: re, im interleaved


def complexify(z) -> np.ndarray:
    """Inverse of realify."""
    zv = np.asarray(z, dtype=np.float64)
    if zv.ndim != 1 or zv.size % 2 != 0 or zv.size == 0:
        raise ValueError(f"expected an even-length 1-D real vector, got shape {zv.shape}")
    return zv[0::2] + 1j * zv[1::2]


def four_copies(x) -> list[np.ndarray]:
    """Realifications of x, -x, ix, -ix; all four share the norm of x."""
    xv = as_vector(x)
    return [realify(xv), realify(-xv), realify(1j * xv), realify(-1j * xv)]


def inclination_bound(eps: float) -> float:
    """Upper bound sqrt(2) * (1 - eps^2 / 2) on |<x, y>| for unit vectors
    whose four distances ||x +- y||, ||x +- iy|| are all at least eps.

    Monotone decreasing on [0, sqrt(2)], from sqrt(2) down to 0.
    """
    if not 0.0 <= eps <= math.sqrt(2.0) + 1e-15:
        raise ValueError(f"eps must lie in [0, sqrt(2)], got {eps}")
    return math.sqrt(2.0) * (1.0 - eps * eps / 2.0)


def _float_lower(frac: Fraction) -> float:
    """Largest double <= frac (float() rounds to nearest, possibly up)."""
    f = float(frac)
    while Fraction(f) > frac:
        f = math.nextafter(f, -math.inf)
    return f


def capacity(d: int) -> CapacityReport:
    """Net-size lower bound (100/91)^d / 2 and inclined capacity (100/91)^d / 8.

    Evaluated exactly; the float fields are guaranteed lower bounds (rounded
    toward zero).  The inclined capacity is exactly a quarter of the net
    bound.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    power = CAPACITY_BASE ** d
    net = power / 2
    inclined = power / 8
    return CapacityReport(
        d=d,
        net_lower_bound=_float_lower(net),
        inclined_capacity=_float_lower(inclined),
        net_lower_bound_exact=net,
        inclined_capacity_exact=inclined,
    )
