"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or in captured output).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import itertools
import math
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

import inclined as inc
from inclined.family import LEAKAGE_COEFF, level_leakage_sets, level_masses

import oracles

ROOT_SEED = 20250808
RHO = 0.9
C = math.sqrt(RHO)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:>2} {name}: PASS")


def _unit(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _random_vec(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def _space(rng, n_axes, d):
    return inc.TensorIndexSpace(tuple(f"x{i}" for i in range(n_axes)), d)


@pytest.fixture(scope="module")
def toy528():
    """Shared stage, basis and all eight branch projections (criteria 8, 9)."""
    stage = inc.toy_stage([4, 4, 2])
    basis = np.stack(inc.random_orthonormal_basis(stage.dim, inc.derive_seed(ROOT_SEED, "basis")))
    specs = {}
    certs = {}
    for bits in itertools.product("01", repeat=3):
        branch = "".join(bits)
        spec, cert = inc.build_branch_projection(stage, basis, branch, C, 10_000, ROOT_SEED)
        specs[branch] = spec
        certs[branch] = cert
    return stage, basis, specs, certs


def test_criterion_01_quadratic_form_identity():
    with criterion(1, "quadratic-form identity across all projection kinds"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        checked = 0

        def check(px, x):
            nonlocal checked
            assert abs(oracles.inner(px, x) - np.linalg.norm(px) ** 2) <= 1e-10 * np.linalg.norm(x) ** 2
            checked += 1

        for _ in range(250):  # rank-one
            d = int(rng.integers(1, 64))
            v, x = _random_vec(rng, d), _random_vec(rng, d)
            check(oracles.rank_one_apply(v, x), x)
        for _ in range(250):  # single axis
            sp = _space(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)))
            axis = sp.axes[int(rng.integers(len(sp.axes)))]
            v = _unit(rng, sp.alphabet_size)
            x = _random_vec(rng, sp.dim)
            check(inc.apply_axis(sp, axis, v, x), x)
        for _ in range(250):  # products over several axes
            sp = _space(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5)))
            k = int(rng.integers(1, len(sp.axes) + 1))
            axes = [sp.axes[i] for i in rng.choice(len(sp.axes), size=k, replace=False)]
            dirs = {a: _unit(rng, sp.alphabet_size) for a in axes}
            x = _random_vec(rng, sp.dim)
            check(oracles.apply_product(sp, dirs, x), x)
        stage = inc.toy_stage([3, 2])  # block-diagonal branch projections
        for i in range(250):
            dirs = tuple(_unit(rng, lv.d) for lv in stage.levels)
            branch = f"{i % 2}{(i // 2) % 2}"
            spec = inc.BranchProjectionSpec(stage=stage, branch=branch, directions=dirs)
            x = _random_vec(rng, stage.dim)
            check(oracles.apply_branch_projection(spec, x), x)

        elapsed = time.perf_counter() - start
        assert checked == 1000
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_block_application_matches_dense_oracle():
    with criterion(2, "block application agrees with the dense Kronecker oracle"):
        rng = np.random.default_rng(102)
        start = time.perf_counter()
        combos = [(n, d) for n in (1, 2, 3) for d in (1, 2, 3, 4)]
        checked = 0
        while checked < 100:
            n, d = combos[checked % len(combos)]
            sp = _space(rng, n, d)
            assert sp.dim <= 256
            axis = sp.axes[int(rng.integers(n))]
            v = _unit(rng, d)
            x = _random_vec(rng, sp.dim)
            dense = oracles.dense_materialize(sp, {axis: v})
            assert np.abs(dense @ x - inc.apply_axis(sp, axis, v, x)).max() <= 1e-10
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_03_product_projections_and_fixed_vectors():
    with criterion(3, "product projections: fixed vectors and axis-order freedom"):
        rng = np.random.default_rng(103)
        for trial in range(100):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(2, 5))
            sp = _space(rng, n, d)
            dirs = {a: _unit(rng, d) for a in sp.axes}
            w = inc.joint_fixed_vector(sp, dirs)
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
            for a in sp.axes:
                assert np.linalg.norm(inc.apply_axis(sp, a, dirs[a], w) - w) <= 1e-10
            assert np.linalg.norm(oracles.apply_product(sp, dirs, w) - w) <= 1e-10
            if trial < 20:
                x = _random_vec(rng, sp.dim)
                outs = []
                for order in itertools.permutations(sp.axes):
                    out = x
                    for a in order:
                        out = inc.apply_axis(sp, a, dirs[a], out)
                    outs.append(out)
                for out in outs[1:]:
                    assert np.abs(out - outs[0]).max() <= 1e-12


def test_criterion_04_polarization_bound():
    with criterion(4, "polarization bound value and zero violations in 1e5 trials"):
        getcontext().prec = 50
        oracle = float(Decimal(2).sqrt() * (1 - Decimal(81) / Decimal(200)))
        value = oracles.inclination_bound(9 / 10)
        assert abs(value - oracle) <= 1e-6
        assert value <= 9 / 10

        rng = np.random.default_rng(104)
        total = 0
        violations = 0
        d = 4
        while total < 100_000:
            batch = min(10_000, 100_000 - total)
            x = rng.standard_normal((batch, d)) + 1j * rng.standard_normal((batch, d))
            y = rng.standard_normal((batch, d)) + 1j * rng.standard_normal((batch, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            dists = np.stack([np.linalg.norm(x - a * y, axis=1) for a in (1, -1, 1j, -1j)])
            eps = np.minimum(dists.min(axis=0), math.sqrt(2.0))
            bound = math.sqrt(2.0) * (1.0 - eps ** 2 / 2.0)
            ip = np.abs(np.sum(x * y.conj(), axis=1))
            violations += int(np.count_nonzero(ip > bound + 1e-10))
            total += batch
        assert violations == 0
        # the vectorized bound matches the scalar routine
        for eps_val in (0.1, 0.9, 1.2):
            assert oracles.inclination_bound(eps_val) == math.sqrt(2.0) * (1.0 - eps_val ** 2 / 2.0)


def test_criterion_05_net_arithmetic_and_cover_witness():
    with criterion(5, "net arithmetic and covering witness search"):
        assert abs(float(Fraction(99, 100) ** 128) - 0.276251668) <= 1e-9
        report = oracles.capacity(128)
        assert report.inclined_capacity >= 2e4

        start = time.perf_counter()
        w = inc.cover_witness([np.array([1.0, 0.0, 0.0])], 0.9, 100_000, 105)
        elapsed = time.perf_counter() - start
        assert w is not None
        assert np.linalg.norm(w - np.array([1.0, 0.0, 0.0])) > 0.9
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        assert inc.cover_witness([np.array([1.0, 0.0, 0.0])], 2.0, 5_000, 105) is None


def test_criterion_06_inclined_vector_at_paper_dimension():
    with criterion(6, "inclined vector against 1000 directions in C^128"):
        d, n = 128, 1000
        assert n <= oracles.capacity(d).inclined_capacity_exact
        rng = np.random.default_rng(106)
        family = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        family /= np.linalg.norm(family, axis=1, keepdims=True)
        start = time.perf_counter()
        cert = inc.find_inclined_vector(list(family), 0.9, 10_000, ROOT_SEED)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        assert cert.achieved <= 0.9
        assert cert.achieved < 0.35
        assert cert.iterations_used <= 10_000
        # independent full-precision re-verification of every inner product
        worst = 0.0
        for v in family:
            worst = max(worst, abs(np.vdot(v, cert.candidate)) / np.linalg.norm(v))
        assert abs(worst - cert.achieved) <= 1e-10
        assert worst <= 0.9
        assert inc.verify_inclination(cert, list(family)) <= 0.9


def test_criterion_07_leakage_sets():
    with criterion(7, "leakage sets obey the cardinality and mass bounds"):
        rng = np.random.default_rng(107)
        n = 64
        basis = np.stack(inc.random_orthonormal_basis(n, 1070))
        for _ in range(100):
            r = int(rng.integers(1, 9))
            g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            q, _ = np.linalg.qr(g)
            dense = q @ q.conj().T
            project = lambda x: dense @ x
            for eps in (0.5, 0.1, 0.02):
                leaked = set(oracles.leakage_set(basis, project, eps))
                assert len(leaked) <= r * r / eps
                for k in range(n):
                    if k not in leaked:
                        assert np.linalg.norm(dense @ basis[k]) ** 2 < eps


def test_criterion_08_toy_stage_diagonal_suppression():
    with criterion(8, "toy-stage build certifies diagonals below 19/20"):
        start = time.perf_counter()
        stage = inc.toy_stage([4, 4, 2])
        assert [lv.dim for lv in stage.levels] == [16, 256, 256]
        assert stage.dim == 528
        basis = np.stack(inc.random_orthonormal_basis(stage.dim, inc.derive_seed(ROOT_SEED, "basis")))
        spec, cert = inc.build_branch_projection(stage, basis, "000", C, 10_000, ROOT_SEED)
        verified = inc.verify_suppression(spec, basis, 19 / 20)
        assert verified.max_diagonal <= 19 / 20

        # per-index recomputed bound rho * (1 - a_k) + a_k, with a_k the
        # off-leakage mass of index k
        masses = level_masses(stage, basis)
        leakage = level_leakage_sets(stage, basis)
        leaked = [set(s) for s in leakage]
        for i, lv in enumerate(stage.levels):
            threshold = LEAKAGE_COEFF / lv.m ** 2
            for k in range(stage.dim):
                if k not in leaked[i]:
                    assert masses[i][k] <= threshold
        for k in range(stage.dim):
            alpha = sum(masses[i][k] for i in range(stage.depth) if k not in leaked[i])
            assert alpha <= 0.5 + 1e-12
            assert verified.diagonals[k] <= RHO * (1 - alpha) + alpha + 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_09_branch_family_intersections(toy528):
    with criterion(9, "all pairs and triples of branches intersect; tails commute"):
        stage, basis, specs, certs = toy528
        assert len(specs) == 8
        for cert in certs.values():
            assert cert.max_diagonal <= 19 / 20
        rng = np.random.default_rng(109)
        all_specs = list(specs.values())
        for size in (2, 3):
            for combo in itertools.combinations(all_specs, size):
                w = oracles.embed_intersection(combo, inc.branch_intersection(combo)[0])
                assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
                for s in combo:
                    assert np.linalg.norm(oracles.apply_branch_projection(s, w) - w) <= 1e-10
        # finite commutator content: on vectors supported at levels at or
        # beyond the separating level, the two projections commute
        for s1, s2 in itertools.combinations(all_specs, 2):
            m_sep = inc.separating_level([s1.branch, s2.branch])
            x = _random_vec(rng, stage.dim)
            x[: stage.level_slice(m_sep).start] = 0.0
            one = oracles.apply_branch_projection(s1, oracles.apply_branch_projection(s2, x))
            two = oracles.apply_branch_projection(s2, oracles.apply_branch_projection(s1, x))
            assert np.abs(one - two).max() <= 1e-12


def test_criterion_10_parameter_predicate():
    with criterion(10, "exact growth predicate and minimal alphabet size"):
        start = time.perf_counter()
        d_min = inc.min_level_dimension(1)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"

        # independent exact-arithmetic oracle: rational comparison scan
        def oracle_predicate(m, d):
            return 32 * Fraction(m) ** 2 * Fraction(d) ** (3 * 2 ** m - 1) < Fraction(100, 91) ** d

        d = 128
        while not oracle_predicate(1, d):
            d += 1
        assert d == d_min
        assert not inc.stage_predicate(1, 128)
        assert inc.stage_predicate(1, 1000)
        assert not oracle_predicate(1, 128)
        assert oracle_predicate(1, 1000)


def test_criterion_11_demo_determinism(tmp_path):
    with criterion(11, "demo reruns produce byte-identical certificate files"):
        outdir = tmp_path / "demo_run"
        cmd = [sys.executable, "-m", "inclined.cli", "demo",
               "--seed", str(ROOT_SEED), "--outdir", str(outdir)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        snapshot = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert len(snapshot) == 11  # incline + 8 families + intersections + summary
        shutil.rmtree(outdir)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for name, data in snapshot.items():
            assert (outdir / name).read_bytes() == data, f"{name} differs between runs"
