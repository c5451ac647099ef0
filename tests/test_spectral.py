import math

import numpy as np
import pytest

from qpratio import core, spectral
from qpratio.core import (
    Assignment,
    QpRatioInstance,
    ValidationError,
    degrees,
    eval_normalized_qp_ratio,
    eval_qp_ratio,
    eval_weighted,
    trivial_solution,
)
from qpratio.exact import brute_force_qp_ratio
from qpratio.generators import (
    LevelGraphParams,
    gen_bipartite_gap,
    gen_level_graph,
    gen_star,
    level_graph_witness_vector,
    random_instance,
)
from qpratio.spectral import (
    ConvergenceError,
    eig_relaxation_value,
    eigen_max,
    normalized_eig,
    psd_polylog_round,
    solve_high_opt,
    top_eigenvalue_bound,
    trevisan_round,
    weighted_eig_value,
)
from qpratio.rounding import solve_general
from qpratio.util import rng_for


def reference_trevisan_round(inst, x):
    """The one-threshold-at-a-time scan that the sweep replaced."""
    xv = np.asarray(x, dtype=np.float64).ravel()
    mags = np.abs(xv)
    thresholds = np.unique(mags[mags > 0])
    signs = np.sign(xv).astype(np.int8)
    best = None
    for t in thresholds:
        y = np.where(mags >= t, signs, 0)
        a = Assignment(tuple(int(v) for v in y))
        val = eval_normalized_qp_ratio(inst, a)
        if best is None or val.value > best[1].value:
            best = (a, val)
    return best


def reference_projection(m, tol=1e-10, seed=0):
    """The seeded start projected onto the eigh eigenvectors within tol of the top."""
    w, vecs = np.linalg.eigh(m)
    top = vecs[:, w >= w[-1] - tol]
    v = top @ (top.T @ rng_for(seed, 0x51).standard_normal(m.shape[0]))
    return v / np.linalg.norm(v)


def reference_psd_polylog_round(inst, x, diag):
    """The level push that recomputed y^T A y after every coordinate, O(n^2) each."""
    n = inst.n
    xv = np.asarray(x, dtype=np.float64).ravel()
    a_full = inst.to_dense() + np.diag(np.asarray(diag, dtype=np.float64))
    scale = 1.0 + float(np.max(np.abs(a_full)))
    best = trivial_solution(inst)
    floor = 1.0 / (n * n * scale)
    mags = np.abs(xv)
    live = mags >= floor
    if not np.any(live):
        return best
    xmax = float(np.max(mags[live]))
    levels = int(math.ceil(math.log2(xmax / floor))) + 1 if xmax > floor else 1
    for k in range(levels):
        hi = xmax / (2.0**k)
        sel = live & (mags <= hi) & (mags > hi / 2.0)
        if not np.any(sel):
            continue
        y = np.where(sel, xv, 0.0)
        num_before = float(y @ a_full @ y)
        for _sweep in range(2):
            changed = False
            for i in np.nonzero(sel)[0]:
                if abs(y[i]) == hi:
                    continue
                s = float(a_full[i] @ y) - a_full[i, i] * y[i]
                y_new = hi if s >= 0 else -hi
                if y_new != y[i]:
                    y[i] = y_new
                    changed = True
                num_after = float(y @ a_full @ y)
                assert num_after >= num_before - 1e-9 * max(1.0, abs(num_before))
                num_before = num_after
            if not changed:
                break
        a = Assignment(tuple(int(v) for v in np.sign(y)))
        val = eval_qp_ratio(inst, a)
        if val.value > best[1].value:
            best = (a, val)
    return best


def normalized_matrix(inst):
    d = core.degrees(inst)
    keep = d > 0
    s = 1.0 / np.sqrt(d[keep])
    return inst.to_dense()[np.ix_(keep, keep)] * s[:, None] * s[None, :]


def overflowing_degrees():
    # degrees [inf, 1e308, 1e308]: vertex 0's sum overflows float64
    return QpRatioInstance(3, ((0, 1, 1e308), (0, 2, 1e308)))


class TestEigenMax:
    def test_two_by_two(self):
        res = eigen_max(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert res.lambda_max == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(np.abs(res.vector), 1 / math.sqrt(2), atol=1e-6)

    def test_star_adjacency(self):
        res = eigen_max(gen_star(5).to_dense())
        assert res.lambda_max == pytest.approx(math.sqrt(5), abs=1e-9)

    def test_diagonal(self):
        res = eigen_max(np.diag([3.0, 1.0]))
        assert res.lambda_max == pytest.approx(3.0, abs=1e-9)

    def test_negative_definite_returns_signed_max(self):
        res = eigen_max(np.diag([-5.0, -1.0]))
        assert res.lambda_max == pytest.approx(-1.0, abs=1e-9)

    def test_residual_contract_random(self):
        rng = rng_for(11)
        for t in range(100):
            n = int(rng.integers(2, 51))
            b = rng.uniform(-1, 1, (n, n))
            res = eigen_max((b + b.T) / 2.0, tol=1e-10, seed=t)
            assert res.residual <= 1e-10
            assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12

    def test_asymmetric_rejected(self):
        with pytest.raises(Exception):
            eigen_max(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_bad_tol_refused(self, tol):
        with pytest.raises(ValidationError, match="tol"):
            eigen_max(np.array([[0.0, 1.0], [1.0, 0.0]]), tol=tol)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_refused(self, bad):
        small = np.array([[0.0, bad], [bad, 0.0]])
        # a NaN past the first 128-row block must survive the blocked max
        large = np.zeros((300, 300))
        large[250, 260] = large[260, 250] = bad
        diagonal = np.diag([bad, 1.0])
        for m in (small, large, diagonal):
            for fn in (top_eigenvalue_bound, eigen_max):
                with pytest.raises(ValidationError, match="non-finite"):
                    fn(m)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_asymmetry_is_asymmetry(self):
        with pytest.raises(ValidationError, match="not symmetric"):
            eigen_max(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    @pytest.mark.parametrize(
        "matrix, needle",
        [
            # Hermitian with top eigenvalue 1, while its real part has top eigenvalue 0
            (np.array([[0, 1j], [-1j, 0]]), "real numeric"),
            ([["0", "1"], ["1", "0"]], "real numeric"),
            ([[0.0, None], [None, 0.0]], "real numeric"),
            (np.zeros((0, 0)), "non-empty square"),
        ],
        ids=["complex", "strings", "objects", "empty"],
    )
    def test_non_real_or_empty_matrix_refused(self, matrix, needle):
        for fn in (top_eigenvalue_bound, eigen_max):
            with pytest.raises(ValidationError, match=needle):
                fn(matrix)

    def test_bool_and_integer_matrices_accepted(self):
        for m in ([[False, True], [True, False]], np.array([[0, 1], [1, 0]], dtype=np.uint8)):
            assert eigen_max(m).lambda_max == pytest.approx(1.0, abs=1e-12)
            assert 1.0 <= top_eigenvalue_bound(m) <= 1.0 + 1e-12

    def test_nonconvergence_carries_residual(self):
        # no floating-point eigenvector has a zero residual on a dense matrix
        b = rng_for(12).uniform(-1, 1, (30, 30))
        with pytest.raises(ConvergenceError) as exc:
            eigen_max((b + b.T) / 2.0, tol=0.0)
        assert exc.value.best_residual > 0

    def test_nonconvergence_on_the_krylov_path(self):
        # a zero tolerance is never met: the Lanczos run stops at its step
        # limit and the dense path raises with its residual
        m = random_instance(400, seed=5, density=0.05).to_dense()
        with pytest.raises(ConvergenceError) as exc:
            eigen_max(m, tol=0.0)
        assert exc.value.best_residual > 0

    def test_certified_shift_brackets_lambda_min(self):
        # the psd completion's shift, the certified top eigenvalue of -A, is
        # at least -lambda_min and proves A + shift I positive definite
        rng = rng_for(14)
        mats = [(b + b.T) / 2.0 for b in (rng.uniform(-1, 1, (n, n)) for n in (1, 2, 7, 40, 120))]
        mats += [gen_level_graph(LevelGraphParams(eps=0.5)).to_dense(), gen_star(9).to_dense()]
        mats += [random_instance(400, seed=1, density=0.05).to_dense()]
        for m in mats:
            low = float(np.linalg.eigvalsh(m)[0])
            shift = top_eigenvalue_bound(-m)
            assert 0.0 <= shift + low <= 1e-11 * max(1.0, abs(low))
            np.linalg.cholesky(m + shift * np.eye(m.shape[0]))

    def test_brackets_eigvalsh(self):
        # the top eigenvalue lies within 1e-11 of eigvalsh's (relative to the
        # spectral norm), and the vector is the seeded projection onto the
        # top eigenspace whichever path computed it
        rng = rng_for(15)
        mats = []
        for n in (2, 3, 5, 8, 13, 30, 60, 120):
            for _ in range(4):
                b = rng.uniform(-1, 1, (n, n))
                mats.append((b + b.T) / 2.0)
        level = gen_level_graph(LevelGraphParams(eps=0.5))
        mats += [level.to_dense(), normalized_matrix(level)]
        for seed in (1, 2):
            inst = random_instance(120, seed=seed, density=0.3)
            mats += [inst.to_dense(), normalized_matrix(inst)]
        mats.append(normalized_matrix(gen_bipartite_gap(64, seed=3)))
        inst = random_instance(400, seed=1, density=0.05)
        mats += [inst.to_dense(), -inst.to_dense(), normalized_matrix(inst)]
        level = gen_level_graph(LevelGraphParams(eps=1.0 / 3.0))
        mats += [level.to_dense(), normalized_matrix(level)]
        for k, m in enumerate(mats):
            res = eigen_max(m, seed=k)
            w = np.linalg.eigvalsh(m)
            assert abs(res.lambda_max - w[-1]) <= 1e-11 * max(abs(w[0]), abs(w[-1]))
            assert res.residual <= 1e-10
            assert np.max(np.abs(res.vector - reference_projection(m, seed=k))) <= 1e-9

    @pytest.mark.parametrize("which", ["level-graph", "random-n800"])
    def test_krylov_path_makes_no_dense_solve(self, monkeypatch, which):
        # past _KRYLOV_MIN_N the bound and the eigenpair come from a Lanczos
        # run (whose k x k tridiagonal eigh is allowed) and one Cholesky each
        if which == "level-graph":
            inst = gen_level_graph(LevelGraphParams(eps=1.0 / 3.0))
        else:
            inst = random_instance(800, seed=1, density=0.05)
        m = inst.to_dense()
        n = inst.n
        choleskys = []

        def refuse_n_by_n(name, real):
            def call(a, *args, **kwargs):
                if np.shape(a)[0] == n:
                    raise AssertionError(f"{name} was called on an n x n matrix")
                return real(a, *args, **kwargs)

            return call

        for name in ("eigvalsh", "eigh", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse_n_by_n(name, getattr(np.linalg, name)))
        real_cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: choleskys.append(a.shape) or real_cholesky(a))

        assert eig_relaxation_value(inst) > 0
        assert choleskys == [(n, n)]
        res = eigen_max(m, seed=1)
        assert res.residual <= 1e-10 and res.iterations > 1
        assert choleskys == [(n, n)] * 2

    def test_repeated_top_eigenvalue_keeps_seeded_direction(self):
        # every vector of the top eigenspace is an eigenvector; the seed picks
        # the one a power iteration from the seeded start converges to
        for seed in (0, 5):
            r = rng_for(seed, 0x51).standard_normal(3)
            want = np.array([r[0], r[1], 0.0]) / math.hypot(r[0], r[1])
            res = eigen_max(np.diag([2.0, 2.0, 1.0]), seed=seed)
            assert res.lambda_max == 2.0
            assert np.allclose(res.vector, want, rtol=0, atol=1e-15)


class TestRelaxationValues:
    def test_star(self):
        assert eig_relaxation_value(gen_star(5)) == pytest.approx(math.sqrt(5), abs=1e-9)

    def test_single_edge(self):
        assert eig_relaxation_value(QpRatioInstance(2, ((0, 1, 1.0),))) == pytest.approx(1.0)

    def test_zero_instance(self):
        assert eig_relaxation_value(QpRatioInstance(4, ())) == 0.0

    def test_upper_bounds_brute_force(self):
        for seed in range(10):
            inst = random_instance(7, seed=seed)
            assert brute_force_qp_ratio(inst)[1].value <= eig_relaxation_value(inst) + 1e-9

    def test_normalized_single_negative_edge(self):
        inst = QpRatioInstance(2, ((0, 1, -1.0),))
        assert weighted_eig_value(inst, degrees(inst)) == pytest.approx(1.0)

    def test_normalized_star(self):
        inst = gen_star(5)
        assert weighted_eig_value(inst, degrees(inst)) == pytest.approx(1.0, abs=1e-9)

    def test_normalized_empty(self):
        inst = QpRatioInstance(3, ())
        assert weighted_eig_value(inst, degrees(inst)) == 0.0

    def test_normalized_dominates_level_witness(self):
        params = LevelGraphParams(eps=0.5)
        inst = gen_level_graph(params)
        x = level_graph_witness_vector(params)
        witness = eval_weighted(inst, x, degrees(inst)).value
        assert weighted_eig_value(inst, degrees(inst)) >= witness - 1e-9

    def test_normalized_witness_attains_the_value(self):
        # the returned vector is the Rayleigh maximizer of the degree-weighted
        # quotient, so re-evaluating it reproduces the eigenvalue
        for seed in (3, 4):
            inst = random_instance(9, seed=seed)
            val, x = normalized_eig(inst, seed=seed)
            assert eval_weighted(inst, x, degrees(inst)).value == pytest.approx(val, abs=1e-8)

    @pytest.mark.filterwarnings("error")
    def test_normalized_eig_refuses_overflowing_degrees(self):
        # refused as the normalized bound refuses them
        inst = overflowing_degrees()
        with pytest.raises(ValidationError, match="weights"):
            weighted_eig_value(inst, degrees(inst))
        with pytest.raises(ValidationError, match="weights"):
            normalized_eig(inst)

    def test_values_bracket_eigvalsh(self):
        # each bound is at or above eigvalsh's top eigenvalue, by at most
        # 1e-11 of it, and above the Rayleigh value of normalized_eig's witness
        insts = [random_instance(n, seed=n, density=0.3) for n in (5, 40, 150)]
        insts += [gen_level_graph(LevelGraphParams(eps=0.5)), gen_bipartite_gap(64, seed=3), gen_star(9)]
        insts += [random_instance(400, seed=2, density=0.05)]
        for inst in insts:
            want = float(np.linalg.eigvalsh(inst.to_dense())[-1])
            assert 0.0 <= eig_relaxation_value(inst) - want <= 1e-11 * abs(want)
            want = float(np.linalg.eigvalsh(normalized_matrix(inst))[-1])
            assert 0.0 <= weighted_eig_value(inst, degrees(inst)) - want <= 1e-11 * abs(want)
            assert normalized_eig(inst)[0] <= weighted_eig_value(inst, degrees(inst))

    def test_deterministic_given_seed(self):
        inst = random_instance(12, seed=55)
        r1 = eigen_max(inst.to_dense(), seed=4)
        r2 = eigen_max(inst.to_dense(), seed=4)
        assert r1.lambda_max == r2.lambda_max
        assert np.array_equal(r1.vector, r2.vector)


def tight_instances(count, seed):
    """Instances whose eigenvalue bound equals OPT in exact arithmetic:
    equal-weight cliques, single edges and alternating-sign cliques (sign
    switching makes them equal-weight), n = 2..6, weights in [0.1, 10]."""
    rng = rng_for(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        w = float(rng.uniform(0.1, 10.0))
        kind = int(rng.integers(3))
        if kind == 1:
            i, j = sorted(rng.choice(n, 2, replace=False).tolist())
            yield QpRatioInstance(n, ((i, j, w),))
        else:
            sign = (lambda i, j: 1.0) if kind == 0 else (lambda i, j: (-1.0) ** (i + j))
            yield QpRatioInstance(n, tuple((i, j, sign(i, j) * w) for i in range(n) for j in range(i + 1, n)))


class TestCertifiedBounds:
    """Every bound is proved: never below an attained value, and at most
    1e-11 (relative) above eigvalsh on the benchmark's instances."""

    def test_tight_instances_never_below_opt(self):
        from qpratio.exact import brute_force_normalized

        for inst in tight_instances(3000, seed=21):
            assert eig_relaxation_value(inst) >= brute_force_qp_ratio(inst)[1].value
            assert weighted_eig_value(inst, degrees(inst)) >= brute_force_normalized(inst)[1].value

    def test_triangle_value_within_bound(self):
        # eigvalsh gives 1.9999999999999996 here, below the attained 2.0
        k3 = QpRatioInstance(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        assert solve_general(k3, seed=1)[1].value <= eig_relaxation_value(k3)

    def test_margin_over_eigvalsh_on_benchmark_instances(self):
        insts = [random_instance(n, seed=s, density=0.3) for n in (60, 100, 140) for s in (1, 2)]
        insts += [gen_bipartite_gap(64, seed=s) for s in (1, 2)]
        insts += [random_instance(400, seed=s, density=0.05) for s in range(1, 7)]
        insts += [random_instance(800, seed=1, density=0.05), gen_level_graph(LevelGraphParams(eps=1.0 / 3.0))]
        for inst in insts:
            for bound, m in (
                (eig_relaxation_value(inst), inst.to_dense()),
                (weighted_eig_value(inst, degrees(inst)), normalized_matrix(inst)),
            ):
                want = float(np.linalg.eigvalsh(m)[-1])
                assert 0.0 <= bound - want <= 1e-11 * abs(want)

    def test_refused_estimate_falls_back_to_eigvalsh(self, monkeypatch):
        # an estimate far below the top eigenvalue is refused at every
        # widened shift; the bound then comes from a certified eigvalsh
        inst = random_instance(400, seed=3, density=0.05)
        want = float(np.linalg.eigvalsh(inst.to_dense())[-1])
        monkeypatch.setattr(spectral, "_krylov_top", lambda a, start, tol: (want - 1.0, None, 1))
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
        assert 0.0 <= eig_relaxation_value(inst) - want <= 1e-11 * want
        assert calls == [(400, 400)]

    def test_widened_shift_still_proves(self):
        m = random_instance(400, seed=3, density=0.05).to_dense()
        want = float(np.linalg.eigvalsh(m)[-1])
        c = spectral._offset(m)
        assert spectral._certify(m, want - 1.0) is None
        assert want <= spectral._certify(m, want - 4.0 * c) <= want + 32.0 * c

    def test_lower_ritz_pair_is_never_returned(self, monkeypatch):
        # a converged pair that is not the top one passes the residual test
        # but not the Cholesky above it, so eigen_max takes the dense path
        m = random_instance(400, seed=4, density=0.05).to_dense()
        w, vecs = np.linalg.eigh(m)
        monkeypatch.setattr(spectral, "_krylov_top", lambda a, start, tol: (float(w[-2]), vecs[:, -2].copy(), 50))
        res = eigen_max(m, seed=1)
        assert res.iterations == 1
        assert abs(res.lambda_max - w[-1]) <= 1e-12 * abs(w[-1])
        assert np.max(np.abs(res.vector - reference_projection(m, seed=1))) <= 1e-9


class TestWeightedBound:
    """weighted_eig_value bounds x^T A x / sum_i w_i x_i^2 for any weights."""

    def test_never_below_the_weighted_oracle(self):
        from qpratio.exact import _brute_force

        rng = rng_for(22)
        for n in range(6, 11):
            for seed in range(6):
                inst = random_instance(n, seed=seed, density=0.5)
                w = rng.uniform(0.05, 4.0, n)
                assert weighted_eig_value(inst, w) >= _brute_force(inst, 12, w)[1].value

    def test_no_entries_is_zero(self):
        for w in (np.ones(4), np.zeros(4), np.array([0.0, 2.0, 0.0, 1.0])):
            assert weighted_eig_value(QpRatioInstance(4, ()), w) == 0.0
        # an entry of weight 0 may touch a zero weight
        assert weighted_eig_value(QpRatioInstance(3, ((0, 1, 0.0),)), np.array([0.0, 1.0, 1.0])) < 1e-12

    def test_zero_weight_on_a_nonzero_entry_is_unbounded(self):
        inst = QpRatioInstance(3, ((0, 1, 1.0), (1, 2, -0.5)))
        assert weighted_eig_value(inst, np.array([1.0, 1.0, 0.0])) == math.inf
        assert weighted_eig_value(inst, np.array([0.0, 1.0, 1.0])) == math.inf
        # a zero-weight vertex without entries is dropped
        inst = QpRatioInstance(3, ((0, 1, 1.0),))
        assert weighted_eig_value(inst, np.array([1.0, 1.0, 0.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "weights",
        [[1.0, -1.0, 1.0], [1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]]],
    )
    def test_bad_weights_refused(self, weights):
        with pytest.raises(ValidationError, match="weights"):
            weighted_eig_value(QpRatioInstance(3, ((0, 1, 1.0),)), weights)

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_kand_base_instance_matches_the_replicated_one(self, w):
        # the n + m base instance with left weight w has the bound of the
        # w n + m replicated instance kand_to_qpratio builds
        from qpratio.core import EntryArrays
        from qpratio.exact import brute_force_weighted_bipartite
        from qpratio.hardness import gen_kand, kand_matrix, kand_to_qpratio

        for n, m, k, seed in ((4, 7, 2, 1), (5, 6, 3, 2), (20, 60, 3, 3), (40, 100, 4, 4), (40, 400, 3, 5)):
            kinst = gen_kand(n, m, k, seed)
            base = kand_matrix(kinst).T
            li, rj = np.nonzero(base)
            inst = QpRatioInstance(n + m, EntryArrays(li, n + rj, base[li, rj]))
            weights = np.repeat([float(w), 1.0], [n, m])
            bound = weighted_eig_value(inst, weights)
            assert bound == pytest.approx(eig_relaxation_value(kand_to_qpratio(kinst, 1.0 / w)[0]), rel=1e-9)
            if n + m <= 12:
                assert bound >= brute_force_weighted_bipartite(base, w)


def test_weighted_matrix_is_exactly_symmetric():
    for inst in (gen_level_graph(LevelGraphParams(eps=1.0 / 3.0)), random_instance(400, seed=1, density=0.05)):
        s, _, inv_sqrt = spectral._weighted_matrix(inst, degrees(inst))
        assert np.any(inv_sqrt != 1.0)
        assert np.array_equal(s, s.T)


def test_weighted_matrix_blocks_give_the_one_shot_bits():
    # 150 rows: two full 64-row blocks and a partial one
    inst = random_instance(150, seed=3, density=0.3)
    s, kept, inv_sqrt = spectral._weighted_matrix(inst, degrees(inst))
    assert kept.size == 150
    assert np.array_equal(s, inst.to_dense() * (inv_sqrt[:, None] * inv_sqrt))


class TestTrevisanRound:
    def test_single_negative_edge(self):
        inst = QpRatioInstance(2, ((0, 1, -1.0),))
        a, v = trevisan_round(inst, np.array([1.0, -1.0]))
        assert a.values == (1, -1)
        assert v.value == 1.0

    def test_uniform_magnitudes_single_candidate(self):
        inst = QpRatioInstance(3, ((0, 1, 1.0), (1, 2, 1.0)))
        a, _ = trevisan_round(inst, np.array([0.5, -0.5, 0.5]))
        assert a.values == (1, -1, 1)

    @pytest.mark.parametrize("inst", [
        QpRatioInstance(3, ((0, 1, 1.0), (1, 2, -2.0))),
        QpRatioInstance(4, ((0, 1, 0.0), (2, 3, 0.0))),
        QpRatioInstance(3, ()),
    ], ids=["edges", "weight-0-entries", "no-entries"])
    def test_zero_vector_gives_the_baseline(self, inst):
        # no threshold, so the single edge scored under the degrees
        a, v = trevisan_round(inst, np.zeros(inst.n))
        assert a == trivial_solution(inst)[0]
        assert v == eval_weighted(inst, a, degrees(inst))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            trevisan_round(gen_star(3), np.array([bad, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("x", [["1", "1", "0", "0"], np.array([1.0, None, 0.0, 0.0], dtype=object)])
    def test_non_real_vector_rejected(self, x):
        with pytest.raises(ValidationError, match="real numbers"):
            trevisan_round(gen_star(3), x)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_degrees_refused(self):
        with pytest.raises(ValidationError, match="weights"):
            trevisan_round(overflowing_degrees(), np.ones(3))

    def test_scan_exactness(self):
        for seed in range(50):
            inst = random_instance(8, seed=seed + 100)
            rng = rng_for(31, seed)
            x = rng.uniform(-1, 1, 8)
            _, got = trevisan_round(inst, x)
            mags = np.abs(x)
            best = -math.inf
            for t in np.unique(mags[mags > 0]):
                y = Assignment(tuple(int(v) for v in np.where(mags >= t, np.sign(x), 0)))
                best = max(best, eval_normalized_qp_ratio(inst, y).value)
            assert got.value == best

    def test_level_graph_witness_rounds_nonnegative(self):
        params = LevelGraphParams(eps=0.5)
        inst = gen_level_graph(params)
        _, v = trevisan_round(inst, level_graph_witness_vector(params))
        assert v.value >= 0.0
        assert v.value <= weighted_eig_value(inst, degrees(inst)) + 1e-9


class TestTrevisanSweep:
    """The sweep returns the cut and value of the per-threshold scan."""

    @pytest.mark.parametrize("n", [60, 140, 400])
    def test_random_instances(self, n):
        for seed in (1, 2):
            inst = random_instance(n, seed=seed, density=0.3 if n < 200 else 0.05)
            _, x = normalized_eig(inst, seed=seed)
            assert trevisan_round(inst, x) == reference_trevisan_round(inst, x)

    @pytest.mark.parametrize("eps", [1.0 / 3.0, 0.5], ids=["eps1/3", "eps1/2"])
    def test_level_graph(self, eps):
        params = LevelGraphParams(eps=eps)
        inst = gen_level_graph(params)
        _, x = normalized_eig(inst, seed=3)
        vectors = [x, level_graph_witness_vector(params)]
        if eps == 0.5:
            # last-bit noise splits the eigenvector's 4 magnitude levels
            # into more distinct thresholds; the sweep must still match
            assert np.unique(np.abs(x)).size > 4
        for v in vectors:
            assert trevisan_round(inst, v) == reference_trevisan_round(inst, v)

    def test_star_and_gap(self):
        for inst in (gen_star(30), gen_bipartite_gap(64, seed=3)):
            for seed in (1, 2):
                _, x = normalized_eig(inst, seed=seed)
                assert trevisan_round(inst, x) == reference_trevisan_round(inst, x)

    def test_ties_and_zeros(self):
        # repeated magnitudes, zero coordinates and an isolated vertex
        inst = QpRatioInstance(6, ((0, 1, 1.0), (1, 2, -1.0), (2, 3, 0.5), (0, 3, -2.0)))
        rng = rng_for(8)
        for _ in range(200):
            x = rng.integers(-2, 3, 6) * 0.5
            if not np.any(x):
                continue
            assert trevisan_round(inst, x) == reference_trevisan_round(inst, x)


class TestArrayPath:
    """The spectral path and solve_general read the instance arrays and never
    build the entries tuple, the slowest part of an instance at 10^5 entries."""

    @pytest.fixture()
    def no_entries_tuple(self, monkeypatch):
        def refuse(self, inst, owner=None):
            if inst is None:
                raise AttributeError("entries")
            raise AssertionError("the entries tuple was built")

        monkeypatch.setattr(core._EntriesField, "__get__", refuse)

    def test_level_graph_spectral_ops(self, no_entries_tuple):
        inst = gen_level_graph(LevelGraphParams(eps=1.0 / 3.0))
        assert eig_relaxation_value(inst, seed=1) > 0
        _, x = normalized_eig(inst, seed=1)
        trevisan_round(inst, x)
        solve_high_opt(inst, 0.25, seed=1)

    def test_solve_general(self, no_entries_tuple):
        solve_general(random_instance(60, seed=1, density=0.3), seed=1)

    def test_guard_sees_a_read(self, no_entries_tuple):
        with pytest.raises(AssertionError, match="tuple was built"):
            gen_star(3).entries


class TestPsdRound:
    def test_rank_one_all_ones(self):
        inst = QpRatioInstance(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        res = eigen_max(inst.to_dense() + np.eye(3))
        a, v = psd_polylog_round(inst, res.vector, diag=(1.0, 1.0, 1.0))
        assert a.support == 3
        assert v.value == pytest.approx(2.0)
        assert v.value == pytest.approx(brute_force_qp_ratio(inst)[1].value)

    def test_dominant_coordinate_takes_best_partner(self):
        inst = QpRatioInstance(3, ((0, 1, 0.1), (0, 2, 0.1), (1, 2, -0.05)))
        diag = (1.0, 0.2, 0.2)
        res = eigen_max(inst.to_dense() + np.diag(diag))
        a, v = psd_polylog_round(inst, res.vector, diag=diag)
        assert v.value == pytest.approx(brute_force_qp_ratio(inst)[1].value)
        assert a.support == 2

    def test_zero_instance(self):
        inst = QpRatioInstance(3, ())
        _, v = psd_polylog_round(inst, np.ones(3))
        assert v.value == 0.0

    def test_non_psd_rejected(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        # zero diagonal: eigenvalues +-1
        with pytest.raises(ValidationError, match=r"min eigenvalue -1\.000e\+00"):
            psd_polylog_round(inst, np.ones(2))

    @pytest.mark.parametrize("x, diag", [
        ([math.nan, 1.0, 0.0, 0.0], [2.0] * 4),
        ([math.inf, 1.0, 0.0, 0.0], [2.0] * 4),
        ([1.0, 1.0, 0.0, 0.0], [math.nan, 2.0, 2.0, 2.0]),
        ([1.0, 1.0, 0.0, 0.0], [math.inf, 2.0, 2.0, 2.0]),
    ])
    def test_non_finite_input_refused(self, x, diag):
        with pytest.raises(ValidationError, match="finite"):
            psd_polylog_round(gen_star(3), x, diag=diag)

    @pytest.mark.parametrize("x, diag", [
        (["1", "1", "0", "0"], [2.0] * 4),
        (np.array([1.0, None, 0.0, 0.0], dtype=object), [2.0] * 4),
        ([1.0, 1.0, 0.0, 0.0], ["2"] * 4),
        ([1.0, 1.0, 0.0, 0.0], np.array([2.0, None, 2.0, 2.0], dtype=object)),
    ])
    def test_non_real_input_refused(self, x, diag):
        with pytest.raises(ValidationError, match="real numbers"):
            psd_polylog_round(gen_star(3), x, diag=diag)

    def test_matches_the_recomputing_push(self):
        insts = [random_instance(n, seed=n, density=0.3) for n in (12, 60, 150)]
        insts += [gen_level_graph(LevelGraphParams(eps=0.5)), gen_bipartite_gap(64, seed=3), gen_star(20)]
        for k, inst in enumerate(insts):
            top = eigen_max(inst.to_dense(), seed=k)
            diag = np.full(inst.n, max(0.0, top_eigenvalue_bound(-inst.to_dense())))
            vectors = [top.vector, rng_for(16, k).standard_normal(inst.n)]
            for x in vectors:
                assert psd_polylog_round(inst, x, diag=diag) == reference_psd_polylog_round(inst, x, diag)


class TestSolvePsd:
    def test_lifts_by_the_certified_bound_of_minus_a(self):
        for k, inst in enumerate([random_instance(30, seed=4, density=0.3), gen_star(7), gen_bipartite_gap(16, seed=1)]):
            a = inst.to_dense()
            top = eigen_max(a, seed=k)
            diag = np.full(inst.n, max(0.0, top_eigenvalue_bound(-a)))
            assert spectral.solve_psd(inst, seed=k) == psd_polylog_round(inst, top.vector, diag=diag)

    @pytest.mark.parametrize("inst", [QpRatioInstance(3, ()), QpRatioInstance(4, ((0, 1, 0.0),))])
    def test_entry_free_or_zero_weight_gives_the_baseline(self, inst):
        assert spectral.solve_psd(inst, seed=1) == trivial_solution(inst)


class TestHighOpt:
    def test_regular_instance_matches_unfiltered_pipeline(self):
        inst = QpRatioInstance(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)))
        got_a, got_v = solve_high_opt(inst, eps=0.5, seed=2)
        _, x = normalized_eig(inst, seed=2)
        ref_a, _ = trevisan_round(inst, x)
        ref_v = eval_qp_ratio(inst, ref_a)
        from qpratio.core import trivial_solution

        base = trivial_solution(inst)
        expect = ref_v if ref_v.value >= base[1].value else base[1]
        assert got_v.value == pytest.approx(expect.value)

    def test_low_degree_vertex_filtered(self):
        inst = QpRatioInstance(
            4, ((0, 1, 5.0), (1, 2, 5.0), (0, 2, 5.0), (2, 3, 0.1))
        )
        a, _ = solve_high_opt(inst, eps=0.5, seed=1)
        assert a.values[3] == 0

    def test_dominates_trivial(self):
        for seed in range(5):
            inst = random_instance(10, seed=seed + 50)
            from qpratio.core import trivial_solution

            _, v = solve_high_opt(inst, eps=0.25, seed=seed)
            assert v.value >= trivial_solution(inst)[1].value - 1e-12

    @pytest.mark.filterwarnings("error")
    def test_overflowing_degrees_refused(self):
        with pytest.raises(ValidationError, match="weights"):
            solve_high_opt(overflowing_degrees(), 0.5)

    def test_bad_eps_rejected(self):
        with pytest.raises(Exception):
            solve_high_opt(gen_star(3), eps=0.0)

    @pytest.mark.parametrize("inst", [
        # every degree is 0
        QpRatioInstance(3, ()),
        QpRatioInstance(4, ((0, 1, 0.0), (2, 3, 0.0))),
        # the filter keeps the center alone, so no entry
        gen_star(4),
        # the filter keeps the two centers and their weight-0 entry
        QpRatioInstance(10, ((0, 1, 0.0),) + tuple((k // 6, k, 1.0) for k in range(2, 10))),
    ])
    def test_kept_entries_of_weight_0_give_the_baseline(self, inst):
        assert solve_high_opt(inst, eps=1.0, seed=1) == trivial_solution(inst)
