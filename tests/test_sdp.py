import math

import numpy as np
import pytest

from qpratio import sdp
from qpratio.core import Assignment, EntryArrays, QpRatioInstance, ValidationError, eval_qp_ratio, vector_objective
from qpratio.exact import brute_force_qp_ratio
from qpratio.generators import gen_bipartite_gap, gen_gap_sdp_certificate, gen_star, random_instance
from qpratio.sdp import (
    GramSolution,
    _ascend_stack,
    _penalized_grad,
    _repair,
    embed_assignment,
    sdp_feasibility,
    sdp_solve,
)
from qpratio.spectral import eig_relaxation_value
from qpratio.util import rng_for


class TestEmbedding:
    def test_integer_embedding_exact(self):
        inst = QpRatioInstance(3, ((0, 1, 1.0), (1, 2, -0.5)))
        a = Assignment((1, 1, -1))
        sol = embed_assignment(inst, a)
        # exact up to one ulp: 1/3 is not binary-representable
        assert sol.residual_norm1 <= 1e-15
        assert sol.residual_pair <= 1e-15
        assert sol.objective == pytest.approx(eval_qp_ratio(inst, a).value)

    def test_embedding_feasible_for_random_assignments(self):
        inst = random_instance(8, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            vals = rng.integers(-1, 2, 8)
            if not np.any(vals):
                continue
            sol = embed_assignment(inst, Assignment(tuple(int(v) for v in vals)))
            ok, _ = sdp_feasibility(sol, tol=1e-12)
            assert ok

    def test_zero_assignment_rejected(self):
        with pytest.raises(Exception):
            embed_assignment(QpRatioInstance(2, ((0, 1, 1.0),)), Assignment((0, 0)))

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_bad_tol_refused(self, tol):
        sol = embed_assignment(QpRatioInstance(2, ((0, 1, 1.0),)), Assignment((1, 1)))
        with pytest.raises(ValidationError, match="tol"):
            sdp_feasibility(sol, tol=tol)

    def test_all_zero_vectors_infeasible(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        sol = GramSolution.build(inst, np.zeros((2, 2)))
        ok, report = sdp_feasibility(sol)
        assert not ok
        assert report["residual_norm1"] == pytest.approx(1.0)


class TestSdpSolve:
    def test_single_edge_lower_bound(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        sol = sdp_solve(inst, seed=0)
        assert sol.objective >= 1.0 - 1e-12

    def test_star_sandwich(self):
        star = gen_star(5)
        opt = brute_force_qp_ratio(star)[1].value
        sol = sdp_solve(star, seed=1, warm_starts=[brute_force_qp_ratio(star)[0]])
        assert sol.objective >= opt - 1e-9
        assert sol.objective <= eig_relaxation_value(star) + 1e-6

    def test_constraint_family_bites_on_star(self):
        star = gen_star(25)
        sol = sdp_solve(star, seed=1)
        assert sol.objective <= 0.8 * eig_relaxation_value(star)
        ok, _ = sdp_feasibility(sol, tol=1e-6)
        assert ok

    def test_monotone_restarts(self):
        inst = random_instance(9, seed=7)
        objs = [sdp_solve(inst, seed=3, restarts=r).objective for r in (1, 2, 3)]
        assert objs[0] <= objs[1] + 1e-12
        assert objs[1] <= objs[2] + 1e-12

    def test_certificate_warm_start(self):
        gap = gen_bipartite_gap(16, seed=3)
        cert = gen_gap_sdp_certificate(gap)
        sol = sdp_solve(gap, seed=1, warm_starts=[cert])
        assert sol.objective >= math.sqrt(16) * 0.9

    @pytest.mark.parametrize("kwargs", [{"restarts": -1}])
    def test_bad_ascent_arguments_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            sdp_solve(random_instance(8, seed=1), seed=0, **kwargs)

    def test_degenerate_instance_returns_embedding(self):
        inst = QpRatioInstance(3, ())
        sol = sdp_solve(inst, seed=0)
        ok, _ = sdp_feasibility(sol, tol=1e-9)
        assert ok
        assert sol.objective == 0.0

    @pytest.mark.filterwarnings("error")
    def test_objective_is_scale_invariant(self):
        # the ratio problem is scale-invariant, and the float32 ascent kernel
        # must stay finite for weights past float32's range (3.4e38)
        base = random_instance(30, 1, density=0.5)
        i, j, w = base.arrays
        value = {}
        for s in (1e10, 1e40):
            inst = QpRatioInstance(base.n, EntryArrays(i, j, w * s))
            value[s] = sdp_solve(inst, seed=1).objective / s
        assert value[1e40] == pytest.approx(value[1e10], rel=1e-6)


class TestUpperCheck:
    """The warm-started relaxation objective is at least the brute-force optimum."""

    def test_random_instances(self):
        for seed in (1, 2, 3):
            inst = random_instance(6, seed=seed)
            a, opt = brute_force_qp_ratio(inst)
            sol = sdp_solve(inst, seed=seed, warm_starts=[a])
            assert opt.value <= sol.objective + 1e-6

    def test_empty_instance(self):
        inst = QpRatioInstance(2, ())
        _, opt = brute_force_qp_ratio(inst)
        sol = sdp_solve(inst, seed=0)
        assert opt.value <= sol.objective + 1e-6

    def test_single_edge_equality(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        a, opt = brute_force_qp_ratio(inst)
        sol = sdp_solve(inst, seed=0, warm_starts=[a])
        assert opt.value <= sol.objective + 1e-6
        assert sol.objective >= opt.value - 1e-9


class TestGramSolution:
    def test_objective_recomputable(self):
        inst = random_instance(6, seed=4)
        rng = np.random.default_rng(0)
        w = rng.standard_normal((6, 3))
        sol = GramSolution.build(inst, w)
        ii = [e[0] for e in inst.entries]
        jj = [e[1] for e in inst.entries]
        ww = [e[2] for e in inst.entries]
        direct = 2.0 * sum(wt * float(w[i] @ w[j]) for i, j, wt in zip(ii, jj, ww))
        assert sol.objective == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("n", [6, 40, 140])
    def test_objective_matches_vector_objective(self, n):
        # build reads the objective off its Gram matrix; the gather form stays for hardness
        inst = random_instance(n, seed=n, density=0.3)
        rng = np.random.default_rng(n)
        random = rng.standard_normal((n, 5))
        repaired = _repair(inst.to_dense(), rng.standard_normal((n, 5)))[1]
        for w in (random, repaired):
            ref = vector_objective(inst, w)
            assert GramSolution.build(inst, w).objective == pytest.approx(ref, rel=1e-12, abs=0)

    def test_pair_residual_definition(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        w = np.array([[1.0, 0.0], [0.5, 0.0]])  # <w0,w1>=0.5 > w1^2=0.25
        sol = GramSolution.build(inst, w)
        assert sol.residual_pair == pytest.approx(0.25)
        # random rows of uneven lengths, n = 1 included, against the pairwise
        # definition max(0, max_{i != j} |G_ij| - min(G_ii, G_jj)), exactly
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 7, 20, 64):
            inst = random_instance(n, seed=n)
            for d in (1, 3):
                w = rng.standard_normal((n, d)) * rng.uniform(0.1, 2.0, (n, 1))
                gram = w @ w.T
                sq = np.einsum("id,id->i", w, w)
                ref = max(
                    [0.0] + [abs(gram[i, j]) - min(sq[i], sq[j]) for i in range(n) for j in range(n) if i != j]
                )
                assert GramSolution.build(inst, w).residual_pair == ref


def reference_grad(a, w, mu):
    """Entrywise penalty gradient 2AW - mu (m + m^T) W, one restart at a time."""
    g = w @ w.T
    h = np.abs(g) - np.diag(g)[:, None]
    np.fill_diagonal(h, 0.0)
    h = np.maximum(h, 0.0)
    m = 2.0 * h * np.sign(g)
    np.fill_diagonal(m, -2.0 * np.sum(h, axis=1))
    return 2.0 * (a @ w) - mu * ((m + m.T) @ w)


class TestStackedAscent:
    def test_clip_gradient_matches_reference(self):
        n = 12
        a = random_instance(n, seed=2).to_dense()
        rng = np.random.default_rng(0)
        # dyadic rows give exact Gram entries with ties |G_ij| = G_ii next to violations
        rows = np.array([[1, 0, 0], [1, 1, 0], [0.5, 0.5, 0], [-1, -1, 0], [1, 1, 1], [0, 0, 0]])
        ties = rows[rng.permutation(n) % len(rows)]
        g = ties @ ties.T
        off = ~np.eye(n, dtype=bool)
        assert np.any((np.abs(g) == np.diag(g)[:, None]) & off & (g != 0))
        assert np.any((np.abs(g) > np.diag(g)[:, None]) & off)
        for w in (rng.standard_normal((n, 4)), ties):
            for mu in (0.25, 64.0):
                got = np.empty((1,) + w.shape)
                _penalized_grad(2.0 * a, w[None].copy(), mu, np.empty((1, n, n)), np.empty((1, n, n)), got)
                ref = reference_grad(a, w, mu)
                assert np.max(np.abs(got[0] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_float32_gradient_matches_reference(self):
        n = 40
        a = random_instance(n, seed=3, density=0.3).to_dense()
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, n, 10))
        w /= np.linalg.norm(w, axis=(1, 2), keepdims=True)
        buf = np.empty((3, n, n), dtype=np.float32)
        for mu in (0.25, 64.0, 4096.0):
            got = np.empty(w.shape, dtype=np.float32)
            _penalized_grad((2.0 * a).astype(np.float32), w.astype(np.float32), mu, buf, np.empty_like(buf), got)
            for r in range(3):
                ref = reference_grad(a, w[r], mu)
                assert np.max(np.abs(got[r] - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_restart_alone_matches_stack(self):
        inst = random_instance(30, seed=4)
        a = inst.to_dense()
        w0 = np.stack([rng_for(0, 0x5D, r).standard_normal((inst.n, 9)) for r in range(3)])
        w0 /= np.linalg.norm(w0, axis=(1, 2), keepdims=True)
        stacked = _ascend_stack(a, w0, 40)
        for r in range(3):
            alone = _ascend_stack(a, w0[r : r + 1], 40)[0]
            assert np.array_equal(alone, stacked[r])

    def test_zero_gradient_restart_stays_frozen(self):
        # vertex 2 touches no entry: vectors only on it have AW = 0 and no pair excess
        a = QpRatioInstance(3, ((0, 1, 1.0),)).to_dense()
        frozen = np.zeros((3, 3))
        frozen[2] = [0.1, 0.7, 0.3]
        frozen /= np.linalg.norm(frozen)
        live = np.random.default_rng(5).standard_normal((3, 3))
        live /= np.linalg.norm(live)
        out = _ascend_stack(a, np.stack([live, frozen, live]), 30)
        np.testing.assert_allclose(out[1], _repair(a, frozen)[1], rtol=0, atol=1e-15)
        alone = _ascend_stack(a, live[None], 30)[0]
        assert np.array_equal(out[0], alone)
        assert np.array_equal(out[2], alone)
        assert not np.allclose(alone, _repair(a, live)[1])


# objectives of the 6-phase x 300-step ascent that the 8-phase penalty ladder
# replaced, sdp_solve(inst, seed=seed) with the default rank and restarts
PREVIOUS_SCHEDULE = [
    ("random-n60", 1, 4.37629815124907),
    ("random-n60", 2, 3.8981066260243535),
    ("random-n100", 1, 5.287110959412706),
    ("random-n100", 2, 5.360923486798464),
    ("gap-n64", 1, 7.303352184521001),
    ("gap-n64", 2, 7.133295923844759),
]


# objectives of the 8 x 75-step ladder without momentum, same calls
PREVIOUS_LADDER = {
    ("random-n60", 1): 4.523630570235352,
    ("random-n60", 2): 4.008318661344609,
    ("random-n100", 1): 5.547125526164223,
    ("random-n100", 2): 5.601153945256294,
    ("gap-n64", 1): 8.170654276758977,
    ("gap-n64", 2): 8.151970361426931,
}


def schedule_instance(family, seed):
    if family == "gap-n64":
        return gen_bipartite_gap(64, seed=seed)
    return random_instance(int(family.removeprefix("random-n")), seed=seed, density=0.3)


class TestSchedule:
    @pytest.mark.parametrize("family, seed, previous", PREVIOUS_SCHEDULE)
    def test_not_below_previous_schedule(self, family, seed, previous):
        sol = sdp_solve(schedule_instance(family, seed), seed=seed)
        assert sol.objective >= previous
        assert sol.objective >= PREVIOUS_LADDER[family, seed]
        assert sol.residual_pair <= 1e-15

    def test_gradient_evaluations_per_call(self, monkeypatch):
        dtypes = []

        def counted(*args):
            dtypes.append({x.dtype for x in args if isinstance(x, np.ndarray)})
            _penalized_grad(*args)

        monkeypatch.setattr(sdp, "_penalized_grad", counted)
        sol = sdp_solve(random_instance(20, seed=1), seed=1)
        # 8 phases x 40 steps, each one float32 evaluation for the whole restart stack
        assert len(dtypes) == 320
        assert all(d == {np.dtype(np.float32)} for d in dtypes)
        assert sol.vectors.dtype == np.float64

    def test_unwarmed_below_opt_count(self):
        # random n = 8, 10, 12 at density 0.5, seeds 0-11: the previous
        # schedule ended below the brute-force optimum on 19 of these 36
        below = 0
        for n in (8, 10, 12):
            for seed in range(12):
                inst = random_instance(n, seed=seed, density=0.5)
                opt = brute_force_qp_ratio(inst)[1].value
                sol = sdp_solve(inst, seed=seed)
                assert sol.residual_pair <= 1e-15
                below += sol.objective < opt - 1e-9
        assert below <= 19
