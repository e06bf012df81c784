"""Certified inclined-vector search and covering-witness sampling.

Given a family of directions in C^d, an inclined vector is a unit vector
whose normalized inner product against every family member stays below a
target c.  Existence is a volume-counting fact once the family is smaller
than an exponential capacity in d; this module supplies the constructive
side: a restarted projected-subgradient search whose output is wrapped in
a self-contained certificate that anyone can re-verify from the inputs
alone, independent of how the candidate was found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import _row_blocks, as_family, as_vector, pow2_scaled
from .serialize import digest_vectors

# A certificate must clear its bound by this margin, so that independent
# re-verification in double precision cannot flip the verdict.
CERT_MARGIN = 1e-9

# A recorded value must agree with its recomputation within this.
VERIFY_TOL = 1e-10

# Step sizes tried per descent step; 1.0 annihilates the active constraint.
_STEP_SCHEDULE = (1.0, 0.5, 0.25, 0.125, 0.0625)

# A trial step is scored by linearity only while ||v - eta grad||^2 keeps at
# least this share of ||v||^2 + eta^2 ||grad||^2, which bounds the digits the
# subtraction can cancel; below it the trial point is formed and evaluated.
_LINEAR_MIN_SHARE = 1.0 / 16.0

# A descent scores its linear trials on this many largest groups before any full pass.
_SCREEN_GROUPS = 32

# Memory for the Gram columns rows @ rows[k]* that single-row searches keep
# per activated member; once it is full, further columns are computed and
# not kept.
_GRAM_CACHE_BYTES = 64 * 2 ** 20

# A restart that no step on the active group improves takes one tie step on
# all groups whose energy q_k is within this share of the largest ...
_TIE_SHARE = 0.1
# ... at most this many of them, largest first.
_TIE_MAX_GROUPS = 16

class BudgetExhausted(RuntimeError):
    """Search budget ran out before the target was met; explicitly NOT a
    disproof of existence.  A family build's message names the failing level."""


@dataclass(frozen=True)
class InclinationCertificate:
    """A candidate unit vector plus its verified worst normalized inner product.

    ``status`` "ok" certifies achieved <= bound; "failed" records the best
    candidate found within the budget, which is NOT a disproof.
    """

    family_digest: str
    candidate: np.ndarray
    achieved: float
    bound: float
    seed: int
    iterations_used: int
    status: str = "ok"

    def __post_init__(self):
        if self.status not in ("ok", "failed"):
            raise ValueError(f"status must be 'ok' or 'failed', got {self.status!r}")
        # pass conditions, which a NaN fails
        if self.status == "ok" and not self.achieved <= self.bound:
            raise ValueError(f"achieved {self.achieved} exceeds bound {self.bound}")
        if not pow2_scaled(self.candidate)[2]:
            raise ValueError("certificate candidate is not a unit vector")


def minimize_max_group_norm(groups: np.ndarray, target: float, budget: int, seed: int,
                            ) -> tuple[np.ndarray, float, int, bool]:
    """Search for a unit v with max_k sqrt(q_k(v)) <= target.

    ``groups`` is an (n, r, d) complex array and q_k(v) = v* M_k v =
    sum_j |inner(v, groups[k, j])|^2 for group k, the r rows groups[k];
    any other shape raises ValueError.

    Restarted projected subgradient descent on the active group: step along
    -M_k v, renormalize, accept the first strictly improving step size.
    Each restart draws a complex normal z.  The first starts at z / ||z||;
    every later one starts at w / ||w|| for w = v_best + f_best z / ||z||,
    the incumbent (the best point so far, of value f_best) perturbed by a
    step as long as its value (iterated local search, or basin hopping).
    Where no size improves, the active group ties with others, and one tie
    step descends along grad = sum_{k in T} M_k v instead: T is the groups
    with q_k >= (1 - ``_TIE_SHARE``) max q (0.1), at most
    ``_TIE_MAX_GROUPS`` (16) of them, largest first (lowest index first
    among equal q_k), and the step sizes are
    the schedule scaled by Re <v, grad> / <grad, grad>.  If it improves,
    ordinary steps resume; if it does not, or fewer than two groups tie, the
    restart ends.  Restarts are evaluated in order, and the first one
    reaching the target wins, so the output is deterministic given the seed.

    The inner products s of the current point with all n*r rows are kept,
    so a descent step costs one mat-vec, sg = rows grad*.  For r == 1,
    grad = conj(s_k) rows_k and sg = s_k G_k for the Gram column
    G_k = rows rows_k*; G_k is computed the first time member k is active
    and kept (up to ``_GRAM_CACHE_BYTES`` of columns, beyond which columns
    are computed and not kept), so a reactivated member's step costs one
    scaling of a length-n column.  A tie step costs one mat-vec,
    sg = rows grad*.  Each trial step size eta is scored by linearity as
    (s - eta sg) / ||v - eta grad||, the norm taken from the scalars
    <v, v>, Re <v, grad> and <grad, grad>; only an accepted trial point is
    formed.  A trial whose norm would lose too many digits to cancellation
    is formed and evaluated directly instead.  Each descent step first
    scores all its step sizes on the ``_SCREEN_GROUPS`` (32) groups of
    largest q_k alone; their trial energies have the same bits as in a full
    trial, so a trial they already keep from improving is rejected after a
    pass over those groups only, and no result changes.

    Beyond its mat-vecs, a descent step makes a fixed number of passes over
    the n*r inner products: sg, the choice of the screened groups, and for a
    trial that passes the screen s - eta sg, its energies and their argmax,
    which is the next step's active group; an accepted trial is divided by
    its norm once.  A tie step reuses its point's <v, v> and screened groups,
    and reads T from the screened groups, which no other group exceeds; only
    when the cut can fall among groups of equal q_k does it read all of q.

    ``budget`` caps the number of objective evaluations: one per restart and
    one per tried step size with nonzero norm, tie steps included.  A point
    that reaches the target is evaluated directly once more (not counted),
    so rounding drift in the kept inner products can never report a miss as
    a success; if it misses after all, the descent goes on from the direct
    values.  The returned value is always a direct evaluation of the
    returned candidate.

    Returns (candidate, achieved, evaluations_used, success).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if groups.ndim != 3:
        raise ValueError(f"expected an (n, r, d) array of groups, got shape {groups.shape}")
    n, r, dim = groups.shape
    rng = np.random.default_rng(seed)
    if n * r == 0:
        # No constraints: any unit vector qualifies; pick a deterministic one.
        v = np.zeros(dim, dtype=np.complex128)
        v[0] = 1.0
        return v, 0.0, 0, True
    rows = groups.reshape(n * r, dim)
    # complex, so that the screen's multiply casts nothing
    schedule = np.array(_STEP_SCHEDULE, dtype=np.complex128)[:, None]
    gram_cols: dict[int, np.ndarray] = {}
    max_cols = _GRAM_CACHE_BYTES // (rows.shape[0] * rows.itemsize)
    every_group = np.arange(n)

    def energies(e: np.ndarray) -> np.ndarray:
        """q_k = sum_j e_kj^2 along the last axis, summed in row order, for the
        moduli e (squared in place)."""
        np.square(e, out=e)
        return e if r == 1 else np.add.accumulate(e.reshape(*e.shape[:-1], -1, r), axis=-1)[..., -1]

    def evaluate(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, float]:
        """(s, q, argmax q, f) at v."""
        s = rows @ v.conj()
        q = energies(np.abs(s))
        k = int(q.argmax())
        return s, q, k, math.sqrt(q[k])

    def tied_groups(q: np.ndarray, q_max: float, top: np.ndarray) -> np.ndarray | None:
        """The groups with q_k >= (1 - _TIE_SHARE) max q (max q = q_max), at
        most _TIE_MAX_GROUPS of them, largest first and lowest index first
        among equals; None for fewer than two.  They are read from the
        screened groups ``top``, which no other group exceeds, unless the cut
        can fall among groups equal to the least screened one."""
        cut = (1.0 - _TIE_SHARE) * q_max
        ranked = top[np.lexsort((top, -q[top]))]
        tied = ranked[q[ranked] >= cut][:_TIE_MAX_GROUPS]
        least = q[ranked[-1]]
        if top.size < n and least >= cut and (tied.size < _TIE_MAX_GROUPS or q[tied[-1]] == least):
            tied = np.flatnonzero(q >= cut)
            tied = tied[np.argsort(-q[tied], kind="stable")][:_TIE_MAX_GROUPS]
        return None if tied.size < 2 or q_max == 0.0 else tied

    def descend(v, s, q, f, vv, top, grad, sg, tie):
        """The first step v - eta grad that strictly lowers f, as the new
        (v, s, q, argmax q, f); None if no size does or the budget runs out.
        eta runs over the step schedule, scaled by Re<v, grad> / <grad, grad>
        for a tie step.  ``vv`` is <v, v>, ``top`` the screened groups."""
        nonlocal evals
        vg = float(np.vdot(v, grad).real)  # Python floats: the same bits, faster
        gg = float(np.vdot(grad, grad).real)
        scale = vg / gg if tie else 1.0
        # Trial energies of the screened groups at every step size: some of a
        # full trial's values, with the same bits, so their max is no larger.
        if r == 1:
            s_top, sg_top = s[top], sg[top]
        else:
            s_top, sg_top = s.reshape(n, r)[top].ravel(), sg.reshape(n, r)[top].ravel()
        t = s_top - (scale * schedule if tie else schedule) * sg_top
        top_max = np.maximum.reduce(energies(np.abs(t)), axis=1)
        for eta, q_top in zip(_STEP_SCHEDULE, top_max.tolist()):
            if evals >= budget:
                return None
            eta *= scale
            wn2 = vv - 2.0 * eta * vg + eta * eta * gg  # ||v - eta grad||^2
            if wn2 >= _LINEAR_MIN_SHARE * (vv + eta * eta * gg):
                if math.sqrt(q_top / wn2) >= f:
                    evals += 1  # rejected by the screened groups alone
                    continue
                st = s - eta * sg
            else:
                w = v - eta * grad
                wn2 = float(np.vdot(w, w).real)
                if wn2 == 0.0:
                    continue
                st = rows @ w.conj()
            qt = energies(np.abs(st))
            evals += 1
            kt = int(qt.argmax())
            fw = math.sqrt(qt[kt] / wn2)
            if fw < f:
                w = v - eta * grad
                wn = _norm(w)
                # q is only compared with itself, so it needs no rescaling.
                return w / wn, st / wn, qt, kt, fw
        return None

    evals = 0
    best_f = math.inf
    best_v = None
    while evals < budget:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = z / _norm(z)
        if best_v is not None:
            w = best_v + best_f * v  # the incumbent, perturbed by its value
            v = w / _norm(w)
        s, q, k, f = evaluate(v)
        evals += 1
        while f > target and evals < budget:
            a, b = k * r, (k + 1) * r
            grad = rows[a:b].T @ s[a:b].conj()  # sum_j inner(v, r_j) r_j = M_k v
            if r == 1:
                col = gram_cols.get(k)
                if col is None:
                    col = rows @ rows[k].conj()
                    if len(gram_cols) < max_cols:
                        gram_cols[k] = col
                sg = s[k] * col  # rows @ grad*, grad = conj(s_k) rows_k
            else:
                sg = rows @ grad.conj()
            vv = float(np.vdot(v, v).real)
            # The tie step below is taken at the same point, so it screens the same groups.
            top = q.argpartition(-_SCREEN_GROUPS)[-_SCREEN_GROUPS:] if n > _SCREEN_GROUPS else every_group
            stepped = descend(v, s, q, f, vv, top, grad, sg, False)
            if stepped is None and evals < budget:
                # A tie: descend along the sum of the tied groups' M_k v.
                tied = tied_groups(q, q[k], top)
                if tied is not None:
                    grad = groups[tied].reshape(-1, dim).T @ s.reshape(n, r)[tied].ravel().conj()
                    stepped = descend(v, s, q, f, vv, top, grad, rows @ grad.conj(), True)
            if stepped is None:
                break  # local minimax point for this restart
            v, s, q, k, f = stepped
            if f <= target:
                s, q, k, f = evaluate(v)
        if f < best_f:
            best_f, best_v = f, v
        if f <= target:
            return v, f, evals, True
    return best_v, evaluate(best_v)[3], evals, False


def _norm(x: np.ndarray) -> float:
    """||x|| of a complex vector as np.linalg.norm forms it, from two real dots."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _unit_rows(vs: np.ndarray) -> np.ndarray:
    """The nonzero members of an as_family array, each pow2_scaled and
    divided by its scaled norm; zero vectors impose no constraint."""
    scaled, norms, _ = pow2_scaled(vs)
    keep = norms > 0.0
    return scaled[keep] / norms[keep, None]


def _worst_inner(rows: np.ndarray, candidate: np.ndarray) -> float:
    """max_j |inner(candidate, rows_j)| over the rows of a _unit_rows array."""
    return float(np.abs(rows @ candidate.conj()).max(initial=0.0))


def recompute_achieved(candidate, vectors) -> float:
    """max_j |inner(candidate, x_j)| / ||x_j|| over the nonzero family members."""
    vs = as_family(vectors)
    return _worst_inner(_unit_rows(vs), as_vector(candidate, dim=vs.shape[1]))


def find_inclined_vector(vectors, c: float, budget: int, seed: int) -> InclinationCertificate:
    """Search for a unit vector inclined against the whole family.

    The certificate's ``achieved`` is recomputed from the candidate in a
    single full pass over the family's unit rows, the pass
    ``recompute_achieved`` makes on the raw inputs.  Its status is "ok" when
    achieved <= c - 1e-9, so the margin absorbs any re-verification
    rounding, and "failed" otherwise, with the best candidate found within
    the budget.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"bound c must lie in (0, 1), got {c}")
    vs = as_family(vectors)
    rows = _unit_rows(vs)
    target = c - CERT_MARGIN
    cand, _, evals, ok = minimize_max_group_norm(rows[:, None, :], target, budget, seed)
    achieved = _worst_inner(rows, cand)
    return InclinationCertificate(
        family_digest=digest_vectors(vs), candidate=cand, achieved=achieved, bound=c, seed=seed,
        iterations_used=evals, status="ok" if ok and achieved <= target else "failed")


def verify_inclination(cert: InclinationCertificate, vectors) -> float:
    """Re-verify a certificate against the family it claims to cover.

    Recomputes the family digest and the achieved value from scratch;
    raises ValueError on a "failed" certificate, on digest mismatch, on
    disagreement with the stored achieved beyond ``VERIFY_TOL``, or if the
    bound is violated.
    """
    if cert.status != "ok":
        raise ValueError(f"a {cert.status!r} certificate certifies nothing")
    vs = as_family(vectors)
    digest = digest_vectors(vs)
    if digest != cert.family_digest:
        raise ValueError("family digest mismatch: certificate does not belong to these vectors")
    achieved = recompute_achieved(cert.candidate, vs)
    if not abs(achieved - cert.achieved) <= VERIFY_TOL:
        raise ValueError(f"stored achieved {cert.achieved} differs from recomputed {achieved}")
    if not achieved <= cert.bound:
        raise ValueError(f"recomputed achieved {achieved} exceeds bound {cert.bound}")
    return achieved


def _net_matrix(points) -> np.ndarray:
    """The points as the rows of one float64 matrix, complex ones realified
    (C-contiguous complex128 rows read as float64: x_k = z_{2k} + i z_{2k+1})."""
    mat = np.asarray(points)
    family = as_family(mat)
    return family.view(np.float64) if np.iscomplexobj(mat) else family.real.copy()


def cover_witness(points, radius: float, trials: int, seed: int) -> np.ndarray | None:
    """Search for a unit vector farther than ``radius`` from every point.

    Complex points are realified first (a norm-preserving identification).
    Returns the first witness in trial order, re-verified by direct distance
    computation, or None if the budget runs out (which is NOT a covering
    proof).
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mat = _net_matrix(points)
    n, dim = mat.shape
    rng = np.random.default_rng(seed)
    # Points of huge magnitude overflow to distances of inf or NaN, as they
    # would without the errstate, which only keeps the warnings quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        pts_sq = (mat ** 2).sum(axis=1)
        # standard_normal draws the same stream in any split into row blocks.  A
        # trial's widest float64 temporary has max(n, dim) entries, the bytes of
        # half as many complex128 ones, the unit _row_blocks counts in.
        for trial_rows in _row_blocks(trials, -(-max(n, dim) // 2)):
            ys = rng.standard_normal((trial_rows.stop - trial_rows.start, dim))
            ys /= np.linalg.norm(ys, axis=1, keepdims=True)
            # ||y - p||^2 = 1 - 2 y.p + ||p||^2 for unit y
            dist_sq = 1.0 - 2.0 * (ys @ mat.T) + pts_sq[None, :]
            min_dist = np.sqrt(np.maximum(dist_sq.min(axis=1), 0.0))
            hits = np.nonzero(min_dist > radius)[0]
            for i in hits:
                if np.linalg.norm(mat - ys[i], axis=1).min() > radius:  # re-verify directly
                    return ys[i]
    return None
