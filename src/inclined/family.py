"""Finite-stage projection families with certified diagonal suppression.

A stage is the finite direct sum over levels m = 1..M of the tensor powers
l2(B_m^{A_m}) with A_m = {0,1}^m (axis labels are the binary strings of
length m) and |B_m| = d(m).  A branch is a binary string alpha of length M;
its projection acts block-diagonally, at each level as the axis projection
along the length-m prefix of alpha with some unit direction v_m.

Given an orthonormal family (e_k), the builder chooses the v_m so that every
diagonal value <P_alpha e_k, e_k> stays below (1 + rho)/2, where rho bounds
the per-vector squared leakage ratio at every level.  With rho = 9/10 the
certified bound is 19/20.  The argument: indices whose level-m mass exceeds
3/(pi^2 m^2) form the leakage set X_m; the total mass a fixed index puts
into levels where it is NOT leaked is at most (3/pi^2) * sum 1/m^2 = 1/2,
and on leaked levels the searched direction suppresses the ratio to rho, so
each diagonal is at most rho*(1 - a) + a <= (1 + rho)/2 for off-leakage
mass a <= 1/2.

Each level's direction is searched against groups built by one rule: a
group is a set of blocks along the branch-prefix axis scaled to unit norm,
and its energy must stay below rho.  The regime picks what a group is:
  paper  -- alphabet sizes satisfy the exact growth predicate
            32 m^2 (d^(2^m))^2 d^(2^m - 1) < (100/91)^d with d >= 2^7, so
            a search against every single BLOCK is guaranteed to succeed
            by capacity counting; a group is one block.
  toy    -- small alphabets for which no direction can clear the per-block
            bound once the block family outgrows the capacity; a group is
            all blocks of one leaked VECTOR scaled by its level norm (from
            level 2 on stored as the d x d R factor of those blocks, which
            has the same energy on every direction), so the builder
            certifies the per-vector ratio directly (a strictly weaker
            requirement that is all the diagonal bound needs), and the
            certificate records what the search actually achieved.

The regime is stamped into every family record.  The growth predicate is
decided purely in integer arithmetic; floating point never touches it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import RANDOM_BASIS_CAP_BYTES, _row_blocks, as_family
from .search import CERT_MARGIN, BudgetExhausted, minimize_max_group_norm
from .serialize import derive_seed
from .tensor_index import TensorIndexSpace, blocks_matrix
from .tensor_projection import _frozen_unit, apply_axis, joint_fixed_vector

MIN_PAPER_ALPHABET = 2 ** 7

# Deepest level index accepted.  Level m has 2^m axes and d^(2^m)
# coordinates, and its growth predicate forms d^(3*2^m - 1): at m = 8 the
# two sides at d_min = 93134 have about 186 000 digits each, and every
# further level doubles the exponent.  Deeper levels are refused before
# any of that work.
MAX_LEVEL = 8

# Per-level leakage threshold 3 / (pi^2 m^2); the off-leakage masses then
# sum to at most (3/pi^2) * (pi^2/6) = 1/2.
LEAKAGE_COEFF = 3.0 / math.pi ** 2

_ORTHONORMAL_TOL = 1e-8
# Columns of the Gram matrix basis_matrix forms at a time.
_GRAM_STRIP = 128


class SuppressionFailure(RuntimeError):
    """A built branch projection has a diagonal above the bound it was built for."""


def stage_predicate(m: int, d: int) -> bool:
    """Exact growth test 32 m^2 (d^(2^m))^2 d^(2^m - 1) < (100/91)^d.

    Rearranged over the integers as 32 m^2 d^(3*2^m - 1) * 91^d < 100^d, so
    the comparison is exact for any size.
    """
    if m < 1 or d < 1:
        raise ValueError("m and d must be >= 1")
    lhs, rhs = predicate_sides(m, d)
    return lhs < rhs


def predicate_sides(m: int, d: int) -> tuple[int, int]:
    """Both integer sides of the growth comparison, for exact traces."""
    return 32 * m * m * d ** (3 * 2 ** m - 1) * 91 ** d, 100 ** d


def min_level_dimension(m: int) -> int:
    """Smallest alphabet size d >= 2^7 satisfying the growth predicate.

    With k = 3*2^m - 1 the predicate reads g(d) < 1 for
    g(d) = 32 m^2 d^k (91/100)^d.  The derivative of log g is
    k/d - log(100/91): positive below d = k / log(100/91) and negative
    above, so g rises and then falls.  g(2^7) >= 1 for every m >= 1
    (at m = 1 it is about 6e6, and it grows with m), so g >= 1 until past
    its peak, and the d >= 2^7 where the predicate holds are exactly
    [d_min, inf).  Bisection on the float log g past the peak brackets
    d_min to within rounding; the exact integer test then moves d to the
    boundary, where it holds at d and fails at d - 1, in a few tests.
    """
    if not 1 <= m <= MAX_LEVEL:
        raise ValueError(f"m must lie in 1..{MAX_LEVEL}, got {m}")
    k = 3 * 2 ** m - 1
    rate = math.log(100 / 91)

    def log_g(d: float) -> float:
        return math.log(32 * m * m) + k * math.log(d) - d * rate

    peak = max(k / rate, MIN_PAPER_ALPHABET)
    fails, holds = peak, 2.0 * peak
    while log_g(holds) >= 0.0:
        fails, holds = holds, 2.0 * holds
    while holds - fails > 0.5:
        mid = (fails + holds) / 2.0
        if log_g(mid) >= 0.0:
            fails = mid
        else:
            holds = mid
    d = math.ceil(holds)  # > 2^7, where the predicate fails, so the walk down stops
    while not stage_predicate(m, d):
        d += 1
    while stage_predicate(m, d - 1):
        d -= 1
    return d


def level_axes(m: int) -> tuple[str, ...]:
    """Axis labels of level m: the 2^m binary strings of length m, sorted."""
    return tuple("".join(bits) for bits in itertools.product("01", repeat=m))


@dataclass(frozen=True)
class LevelSpec:
    """One level: its index m and alphabet size d."""

    m: int
    d: int

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ValueError("level index and alphabet size must be >= 1")
        if self.m > MAX_LEVEL:
            raise ValueError(f"level index {self.m} exceeds the deepest level {MAX_LEVEL}")

    @property
    def space(self) -> TensorIndexSpace:
        return TensorIndexSpace(level_axes(self.m), self.d)

    @property
    def dim(self) -> int:
        return self.d ** (2 ** self.m)


@dataclass(frozen=True)
class StageParameters:
    """Levels m = 1..M of a finite stage, plus the certification regime."""

    levels: tuple[LevelSpec, ...]
    regime: str

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.regime not in ("paper", "toy"):
            raise ValueError(f"regime must be 'paper' or 'toy', got {self.regime!r}")
        if not self.levels:
            raise ValueError("stage needs at least one level")
        for i, lv in enumerate(self.levels):
            if lv.m != i + 1:
                raise ValueError(f"levels must be m = 1..M consecutively, got m={lv.m} at position {i}")
        if self.regime == "paper":
            for lv in self.levels:
                if lv.d < MIN_PAPER_ALPHABET:
                    raise ValueError(f"paper regime requires d >= {MIN_PAPER_ALPHABET} at level {lv.m}")
                # d >= 2^7 here, where the predicate holds exactly from
                # min_level_dimension on; this never forms 91^d for a huge d.
                if lv.d < min_level_dimension(lv.m):
                    raise ValueError(f"paper regime growth predicate fails at level {lv.m} with d={lv.d}")

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def dim(self) -> int:
        return sum(lv.dim for lv in self.levels)

    def level_slice(self, m: int) -> slice:
        if not 1 <= m <= self.depth:
            raise ValueError(f"level {m} not in stage of depth {self.depth}")
        start = sum(lv.dim for lv in self.levels[: m - 1])
        return slice(start, start + self.levels[m - 1].dim)


def toy_stage(alphabet_sizes: Sequence[int]) -> StageParameters:
    levels = tuple(LevelSpec(m, int(d)) for m, d in enumerate(alphabet_sizes, start=1))
    return StageParameters(levels=levels, regime="toy")


def paper_stage(alphabet_sizes: Sequence[int]) -> StageParameters:
    levels = tuple(LevelSpec(m, int(d)) for m, d in enumerate(alphabet_sizes, start=1))
    return StageParameters(levels=levels, regime="paper")


def basis_matrix(basis, dim: int | None = None) -> np.ndarray:
    """A vector family as the rows of an (n, d) array (hilbert.as_family),
    checked orthonormal.

    The Gram matrix must equal the identity within 1e-8 entrywise.  It is
    Hermitian, so only its lower triangle is formed, in strips of
    _GRAM_STRIP columns: each unordered pair of rows is checked once, and
    the check needs O(_GRAM_STRIP * n) scratch instead of the full n x n
    product.
    """
    mat = as_family(basis, dim)
    err = 0.0
    for i in range(0, mat.shape[0], _GRAM_STRIP):
        # entries of huge magnitude overflow to a residual of inf or NaN, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            strip = mat[i:] @ mat[i:i + _GRAM_STRIP].conj().T  # Gram rows i.., columns i..i+w
        diag = np.arange(strip.shape[1])
        strip[diag, diag] -= 1.0
        err = np.maximum(err, np.abs(strip).max())  # np.maximum keeps a NaN
    if not err <= _ORTHONORMAL_TOL:
        raise ValueError(f"basis is not orthonormal: max Gram residual {err:.3g}")
    return mat


def _masses(stage: StageParameters, mat: np.ndarray) -> np.ndarray:
    # Each row's sums, a row block at a time: the bits of the whole-level sums.
    out = np.empty((stage.depth, mat.shape[0]))
    for rows in _row_blocks(mat.shape[0], stage.dim):
        for i, lv in enumerate(stage.levels):
            out[i, rows] = (np.abs(mat[rows, stage.level_slice(lv.m)]) ** 2).sum(axis=1)
    return out


def _leakage_from_masses(stage: StageParameters, masses: np.ndarray) -> list[list[int]]:
    return [np.nonzero(row > LEAKAGE_COEFF / lv.m ** 2)[0].tolist()
            for row, lv in zip(masses, stage.levels)]


def level_masses(stage: StageParameters, basis) -> np.ndarray:
    """Squared level masses ||Q_m e_k||^2, shape (depth, n_vectors).

    Columns sum to 1: the stage is exactly the direct sum of its levels, so
    each unit vector decomposes exactly.
    """
    return _masses(stage, basis_matrix(basis, dim=stage.dim))


def level_leakage_sets(stage: StageParameters, basis) -> list[list[int]]:
    """Per-level leakage sets X_m = {k : ||Q_m e_k||^2 > 3/(pi^2 m^2)}.

    Strict inequality: boundary values count as off-leakage, which keeps the
    off-leakage mass bound at 1/2.
    """
    return _leakage_from_masses(stage, level_masses(stage, basis))


@dataclass(frozen=True)
class BranchProjectionSpec:
    """A branch string plus one unit direction per level.

    At level m the projection acts along the axis named by the branch's
    length-m prefix.
    """

    stage: StageParameters
    branch: str
    directions: tuple[np.ndarray, ...]

    def __post_init__(self):
        if (type(self.branch) is not str or len(self.branch) != self.stage.depth
                or any(ch not in "01" for ch in self.branch)):
            raise ValueError(f"branch must be a binary string of length {self.stage.depth}, got {self.branch!r}")
        if len(self.directions) != self.stage.depth:
            raise ValueError("need exactly one direction per level")
        frozen = []
        for lv, v in zip(self.stage.levels, self.directions):
            try:
                frozen.append(_frozen_unit(v, lv.d))
            except ValueError as exc:
                raise ValueError(f"direction at level {lv.m}: {exc}") from None
        object.__setattr__(self, "directions", tuple(frozen))

    def sigma(self, m: int) -> str:
        """The level-m axis label: the branch's length-m prefix."""
        if not 1 <= m <= self.stage.depth:
            raise ValueError(f"level {m} not in stage of depth {self.stage.depth}")
        return self.branch[:m]


@dataclass(frozen=True)
class SuppressionCertificate:
    """Diagonals <P e_k, e_k>; the bound holds when max_diagonal <= bound."""

    diagonals: tuple[float, ...]
    max_diagonal: float
    bound: float


def _diagonals(spec: BranchProjectionSpec, mat: np.ndarray) -> np.ndarray:
    # A row block at a time, levels added in order: the whole-level bits.
    stage = spec.stage
    diag = np.zeros(mat.shape[0])
    for rows in _row_blocks(mat.shape[0], stage.dim):
        for lv in stage.levels:
            blocks = blocks_matrix(lv.space, mat[rows, stage.level_slice(lv.m)], spec.sigma(lv.m))
            # einsum never calls BLAS, whose bits change with its thread count
            coeff = np.einsum("...j,j->...", blocks, spec.directions[lv.m - 1].conj())
            diag[rows] += (np.abs(coeff) ** 2).sum(axis=1)
    return diag


def _certify(spec: BranchProjectionSpec, mat: np.ndarray, bound: float) -> SuppressionCertificate:
    """Every diagonal of spec on the basis rows of mat, whatever their maximum
    (the bound holds when max_diagonal <= bound)."""
    diagonals = _diagonals(spec, mat)
    return SuppressionCertificate(
        diagonals=tuple(diagonals.tolist()), max_diagonal=float(diagonals.max()), bound=bound)


def _level_groups(stage: StageParameters, mat: np.ndarray, masses: np.ndarray,
                  leaked: list[int], lv: LevelSpec, sigma: str) -> np.ndarray:
    """The level's search groups (see build_branch_projection) as one
    (n_groups, min(r, d), d) array, written a row block of ``leaked`` at a
    time.

    A group of r > d blocks (every toy level m >= 2) is stored as the d x d
    R factor of its unscaled blocks, scaled: R* R = G* G, so the search,
    which sees a group only through v* G* G v, is unchanged, and the
    (n, r, d) array is never formed.  Zero groups impose no constraint and
    are dropped.  The blocks are taken C-ordered and every product, norm
    and factor is per group, so the bits are those of the whole-level
    arithmetic, whatever the number of rows.
    """
    leaked = np.asarray(leaked, dtype=np.intp)
    r = 1 if stage.regime == "paper" else lv.dim // lv.d
    height = min(r, lv.d)  # rows stored per group
    groups = np.empty((leaked.size * (lv.dim // lv.d) // r, height * lv.d), dtype=np.complex128)
    filled = 0
    for rows in _row_blocks(leaked.size, lv.dim):
        flat = np.ascontiguousarray(blocks_matrix(
            lv.space, mat[leaked[rows], stage.level_slice(lv.m)], sigma)).reshape(-1, r * lv.d)
        if stage.regime == "paper":
            norms = np.linalg.norm(flat, axis=1)
        else:
            norms = np.sqrt(masses[leaked[rows]])
        keep = norms > 0.0
        if not keep.all():
            flat, norms = flat[keep], norms[keep]
        if r > height:
            flat = np.linalg.qr(flat.reshape(-1, r, lv.d), mode="r").reshape(-1, height * lv.d)
        np.multiply(flat, (1.0 / norms)[:, None], out=groups[filled:filled + len(norms)])
        filled += len(norms)
        del flat  # before the next row block is gathered
    return groups[:filled].reshape(-1, height, lv.d)


def build_branch_projection(stage: StageParameters, basis, branch: str, c: float, budget: int,
                            seed: int) -> tuple[BranchProjectionSpec, SuppressionCertificate]:
    """Choose per-level directions suppressing every diagonal below (1+c^2)/2.

    At each level the leaked indices' level components are split into blocks
    along the branch-prefix axis, grouped and scaled to unit norm, and a
    direction is searched for whose energy on every group is at most c^2:

      paper regime -- a group is one block (r = 1), so every normalized block
        has inner product at most c (guaranteed findable by capacity);
      toy regime -- a group is all blocks of one leaked vector over the root
        of its level mass, so its summed block leakage stays below c^2 times
        that mass (per-vector ratio), which the diagonal bound consumes.
        From level 2 on a vector has more blocks than a block has entries,
        and the search gets the d x d R factor of its blocks instead, which
        has the same energy on every direction.

    The certificate never reads the groups: its diagonals are recomputed
    from the basis rows and the directions.  Level searches draw their
    seeds from (seed, level), so branches sharing a prefix produce identical
    directions on the shared levels.  Raises BudgetExhausted naming the
    failing level if a search does not finish, and SuppressionFailure if the
    certificate's maximum exceeds the bound (1+c^2)/2.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"bound c must lie in (0, 1), got {c}")
    if len(branch) != stage.depth or any(ch not in "01" for ch in branch):
        raise ValueError(f"branch must be a binary string of length {stage.depth}, got {branch!r}")
    mat = basis_matrix(basis, dim=stage.dim)
    masses = _masses(stage, mat)
    leakage = _leakage_from_masses(stage, masses)
    target = c - CERT_MARGIN

    directions = []
    for i, lv in enumerate(stage.levels):
        groups = _level_groups(stage, mat, masses[i], leakage[i], lv, branch[: lv.m])
        v, achieved, _, ok = minimize_max_group_norm(
            groups, target, budget, derive_seed(seed, "level", lv.m))
        del groups  # before the next level's groups are formed
        if not ok:
            raise BudgetExhausted(f"level {lv.m}: no direction found within budget {budget} "
                                  f"(best achieved {achieved:.6g} > {c})")
        directions.append(v)

    spec = BranchProjectionSpec(stage=stage, branch=branch, directions=tuple(directions))
    cert = _certify(spec, mat, (1.0 + c * c) / 2.0)
    if not cert.max_diagonal <= cert.bound:
        raise SuppressionFailure(
            f"diagonal suppression fails: max {cert.max_diagonal} > bound {cert.bound}")
    return spec, cert


def verify_suppression(spec: BranchProjectionSpec, basis, bound: float) -> SuppressionCertificate:
    """Recompute every diagonal, whatever their maximum: the bound holds when
    the returned max_diagonal <= bound.  Raises ValueError on a stage/basis
    dimension mismatch."""
    return _certify(spec, basis_matrix(basis, dim=spec.stage.dim), bound)


def separating_level(branches: Sequence[str]) -> int:
    """Smallest m at which all length-m prefixes are pairwise distinct."""
    depth = len(branches[0])
    for m in range(1, depth + 1):
        prefixes = [b[:m] for b in branches]
        if len(set(prefixes)) == len(prefixes):
            return m
    collisions = sorted({b for b in branches if branches.count(b) > 1})
    raise ValueError(f"branches are not pairwise distinct: colliding prefixes {collisions}")


def branch_intersection(specs: Sequence[BranchProjectionSpec]) -> tuple[np.ndarray, dict[str, float]]:
    """A common unit fixed vector x of branch projections P, on their
    separating level, and ||P x - x|| by branch.

    At the first level m where the branch prefixes are pairwise distinct the
    participating axis projections act on distinct axes, so the elementary
    tensor of their directions (padded with a fixed basis direction on the
    unused axes) is fixed by each of them.  x is that vector, of length
    stage.levels[m - 1].dim: at stage.level_slice(m), zero elsewhere, it is
    fixed by every full branch projection, which acts level by level, so the
    residuals are taken on level m alone.  A residual above 1e-10 raises.
    Raises ValueError, before allocating, when x (16 * dim bytes) passes
    hilbert.RANDOM_BASIS_CAP_BYTES.
    """
    if len(specs) < 2:
        raise ValueError("need at least two branch projections")
    stage = specs[0].stage
    if any(s.stage != stage for s in specs):
        raise ValueError("branch projections live on different stages")
    m = separating_level([s.branch for s in specs])
    lv = stage.levels[m - 1]
    if 16 * lv.dim > RANDOM_BASIS_CAP_BYTES:
        raise ValueError(f"an intersection vector of C^{lv.dim} needs {16 * lv.dim / 2 ** 30:.3g} GiB, "
                         f"above the {RANDOM_BASIS_CAP_BYTES / 2 ** 30:.3g} GiB cap (level {m})")
    e0 = np.eye(1, lv.d, dtype=np.complex128)[0]
    dirs = dict.fromkeys(lv.space.axes, e0) | {s.sigma(m): s.directions[m - 1] for s in specs}
    out = joint_fixed_vector(lv.space, dirs)
    residuals = {}
    for s in specs:
        gap = apply_axis(lv.space, s.sigma(m), s.directions[m - 1], out) - out
        # not np.linalg.norm: its BLAS dot rounds by thread count on long vectors
        residual = residuals[s.branch] = math.sqrt(float((gap.real ** 2 + gap.imag ** 2).sum()))
        if residual > 1e-10:  # cannot happen for distinct axes; defensive
            raise RuntimeError(
                f"intersection vector not fixed by branch {s.branch}: residual {residual:.3g}")
    return out, residuals
