import math

import numpy as np
import pytest

from qpratio.core import Assignment, QpRatioInstance, eval_qp_ratio, trivial_solution, vector_objective
from qpratio.exact import brute_force_qp_ratio
from qpratio.generators import (
    gen_bipartite_gap,
    gen_gap_sdp_certificate,
    gen_star,
    random_instance,
)
from qpratio.rounding import (
    _ratio,
    cap_large,
    mean_abs_signed_sum,
    preprocess_small,
    round_close_lengths,
    solve_bipartite,
    solve_general,
)
from qpratio.sdp import embed_assignment, sdp_solve
from qpratio.util import rng_for


def rank1_instance(z):
    n = len(z)
    entries = tuple((i, j, float(z[i] * z[j])) for i in range(n) for j in range(i + 1, n))
    return QpRatioInstance(n, entries)


def squared_lengths(w):
    return np.einsum("id,id->i", w, w)


def rescan_preprocess(inst, w):
    """Reference grow-or-drop pass: rescan all lengths after every change."""
    n = inst.n
    w = np.array(w, dtype=np.float64)
    a = inst.to_dense()
    floor = 1.0 / n
    for _ in range(2 * n + 1):
        sq = squared_lengths(w)
        small = np.nonzero((sq > 0) & (sq < floor * (1 - 1e-12)))[0]
        if small.size == 0:
            break
        i = int(small[0])
        if float(a[i] @ (w @ w[i])) <= 0:
            w[i] = 0.0
        else:
            w[i] *= 1.0 / (math.sqrt(n) * math.sqrt(sq[i]))
    return w


def mu_round_close_lengths(inst, w, seed=0):
    """Reference band rounding on whole working copies: undecided rows sit at
    p_i * unit_i in mu, and each visit multiplies mu by the row and its unit."""
    n = inst.n
    base = trivial_solution(inst)
    w = np.asarray(w, dtype=np.float64)
    sq = squared_lengths(w)
    nz = np.nonzero(sq > 0)[0]
    if nz.size == 0:
        return base
    ws = w / math.sqrt(float(np.max(sq[nz])))
    p = np.clip(np.sqrt(squared_lengths(ws)), 0.0, 1.0)
    units = np.zeros_like(ws)
    units[nz] = ws[nz] / p[nz, None]
    a = inst.to_dense()
    mu = ws.copy()
    den = float(np.sum(p[nz]))
    num = float(np.sum(a * (mu @ mu.T)))
    if not _ratio(num, den) > 0:
        return base
    selected = np.zeros(n, dtype=bool)
    for i in nz:
        c = a[i] @ (mu @ mu[i])
        num_drop, den_drop = num - 2.0 * float(c), den - p[i]
        num_pick, den_pick = num + 2.0 * float(a[i] @ (mu @ units[i]) - c), den - p[i] + 1.0
        if _ratio(num_pick, den_pick) >= _ratio(num_drop, den_drop):
            mu[i], selected[i] = units[i], True
            num, den = num_pick, den_pick
        else:
            mu[i] = 0.0
            num, den = num_drop, den_drop
    chosen = np.nonzero(selected)[0]
    if chosen.size == 0:
        return base
    wsel = units[chosen]
    t_scale = 2.0 * math.sqrt(math.log(max(n, 2)))
    rng = rng_for(seed, 0xC1)
    best = base
    for _ in range(int(math.ceil(8 * math.log(max(n, 2)))) + 8):
        g = rng.standard_normal(wsel.shape[1])
        z = np.clip((wsel @ g) / t_scale, -1.0, 1.0)
        u = rng.random(chosen.size)
        vals = np.zeros(n, dtype=np.int64)
        vals[chosen] = np.sign(z).astype(np.int64) * (u < np.abs(z))
        cand = Assignment(tuple(int(v) for v in vals))
        val = eval_qp_ratio(inst, cand)
        if val.value > best[1].value:
            best = (cand, val)
    return best


def selection_cases(group):
    """(instance, seed) pairs whose sdp_solve vectors feed the band rounding."""
    if group == "gap-n64":
        return [(gen_bipartite_gap(64, seed=1), 1)]
    if group == "stars":
        return [(gen_star(leaves), leaves) for leaves in range(3, 12)]
    n = int(group.removeprefix("random-n"))
    return [(random_instance(n, seed=seed, density=0.3), seed) for seed in range(3)]


class TestPreprocessSmall:
    def test_identity_when_all_long(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        sol = embed_assignment(inst, Assignment((1, 1)))
        out = preprocess_small(inst, sol.vectors)
        assert np.allclose(out, sol.vectors)

    def test_tiny_negative_crossterm_zeroed(self):
        inst = QpRatioInstance(2, ((0, 1, -1.0),))
        w = np.array([[1.0, 0.0], [0.1, 0.0]])  # cross-term of vector 1 is negative
        out = preprocess_small(inst, w)
        assert squared_lengths(out)[1] == 0.0

    def test_tiny_positive_crossterm_grown_to_floor(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        w = np.array([[1.0, 0.0], [0.1, 0.0]])
        out = preprocess_small(inst, w)
        assert squared_lengths(out)[1] == pytest.approx(0.5)  # 1/n with n=2

    def test_postconditions_on_sdp_output(self):
        for seed in range(5):
            inst = random_instance(8, seed=seed)
            sol = sdp_solve(inst, seed=seed)
            sq = squared_lengths(preprocess_small(inst, sol.vectors))
            nz = sq[sq > 0]
            if nz.size:
                assert float(np.min(nz)) >= 1.0 / inst.n - 1e-12
            assert float(np.sum(sq)) <= 2.0 + 1e-9

    def test_input_left_unchanged(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        w = np.array([[1.0, 0.0], [0.1, 0.0]])
        preprocess_small(inst, w)
        assert w[1, 0] == 0.1

    @pytest.mark.parametrize("n", [8, 20, 60])
    def test_one_pass_matches_rescan(self, n):
        shrunk = 0
        for seed in range(3):
            inst = random_instance(n, seed=seed, density=0.3)
            w = sdp_solve(inst, seed=seed).vectors
            sq = squared_lengths(w)
            shrunk += int(np.sum((sq > 0) & (sq < 1.0 / n)))
            assert np.array_equal(preprocess_small(inst, w), rescan_preprocess(inst, w))
        assert shrunk > 0, "no vector below the floor: the pass was never exercised"


class TestCapLarge:
    def test_identity_when_no_large(self):
        inst = QpRatioInstance(4, ((0, 1, 1.0),))
        w = np.full((4, 1), 0.5)
        out = cap_large(inst, w, rho=1.0 / 3.0)
        assert np.allclose(out, w)

    def test_large_vector_removed_others_kept(self):
        inst = QpRatioInstance(3, ((0, 1, 1.0),))
        w = np.array([[10.0], [0.1], [0.1]])
        sq = squared_lengths(cap_large(inst, w, rho=1.0))
        assert sq[0] == 0.0
        assert sq[1] > 0 and sq[2] > 0

    def test_survivors_keep_their_value(self):
        # small vectors carry all the objective; dropping the big one keeps it
        inst = QpRatioInstance(3, ((1, 2, 1.0),))
        w = np.array([[10.0, 0.0], [0.4, 0.0], [0.4, 0.0]])
        after = cap_large(inst, w, rho=1.0)
        assert vector_objective(inst, after) == pytest.approx(vector_objective(inst, w))
        assert float(np.max(squared_lengths(after))) < 16.0 / 3.0


class TestRoundCloseLengths:
    def test_recovers_planted_rank_one(self):
        z = [1, -1, 1, -1]
        inst = rank1_instance(z)
        planted = Assignment(tuple(z))
        sol = embed_assignment(inst, planted)
        a, v = round_close_lengths(inst, sol.vectors, seed=0)
        assert v.value == pytest.approx(eval_qp_ratio(inst, planted).value)

    def test_single_edge_exact(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        sol = embed_assignment(inst, Assignment((1, 1)))
        _, v = round_close_lengths(inst, sol.vectors, seed=1)
        assert v.value == 1.0

    @pytest.mark.parametrize("group", ["random-n8", "random-n20", "random-n60", "gap-n64", "stars"])
    def test_scale_factors_match_mu_reference(self, group):
        for inst, seed in selection_cases(group):
            w = sdp_solve(inst, seed=seed).vectors
            assert round_close_lengths(inst, w, seed=seed) == mu_round_close_lengths(inst, w, seed=seed)

    def test_never_below_trivial(self):
        for seed in range(5):
            inst = random_instance(7, seed=seed + 30)
            sol = sdp_solve(inst, seed=seed)
            _, v = round_close_lengths(inst, sol.vectors, seed=seed)
            assert v.value >= trivial_solution(inst)[1].value - 1e-12


class TestSolveGeneral:
    def test_single_edge(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        a, v = solve_general(inst, seed=0)
        assert v.value == 1.0

    def test_random_instances_within_oracle_envelope(self):
        for seed in range(10):
            inst = random_instance(8, seed=seed)
            opt = brute_force_qp_ratio(inst)[1].value
            _, v = solve_general(inst, seed=seed)
            assert v.value <= opt + 1e-9
            assert v.value >= opt / 8.0

    def test_star_nine(self):
        star = gen_star(9)
        opt = brute_force_qp_ratio(star)[1].value
        _, v = solve_general(star, seed=4)
        assert v.value >= 0.5 * opt

    def test_value_matches_recomputation(self):
        inst = random_instance(9, seed=77)
        a, v = solve_general(inst, seed=7)
        assert eval_qp_ratio(inst, a).value == v.value

    def test_empty_instance(self):
        _, v = solve_general(QpRatioInstance(3, ()), seed=0)
        assert v.value == 0.0

    def test_deterministic_given_seed(self):
        inst = random_instance(9, seed=123)
        a1, v1 = solve_general(inst, seed=9)
        a2, v2 = solve_general(inst, seed=9)
        assert a1.values == a2.values and v1.value == v2.value


class TestSolveBipartite:
    def test_single_cross_pair(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),), bipartition=((0,), (1,)))
        _, v = solve_bipartite(inst, seed=0)
        assert v.value == 1.0

    def test_gap_instance_beats_scaled_sdp(self):
        gap = gen_bipartite_gap(16, seed=3)
        cert = gen_gap_sdp_certificate(gap)
        obj = sdp_solve(gap, seed=1, warm_starts=[cert]).objective
        _, v = solve_bipartite(gap, seed=2)
        assert v.value >= obj / 16.0

    def test_missing_bipartition_rejected(self):
        with pytest.raises(Exception):
            solve_bipartite(QpRatioInstance(2, ((0, 1, 1.0),)), seed=0)


class TestMeanAbsSignedSum:
    def test_single_coordinate(self):
        assert mean_abs_signed_sum([1.0]) == 1.0

    def test_uniform_four(self):
        assert mean_abs_signed_sum(np.ones(4) / 2.0) == pytest.approx(0.75)

    def test_unit_vectors_above_twelfth(self):
        rng = rng_for(41)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            b = rng.standard_normal(n)
            b /= np.linalg.norm(b)
            assert mean_abs_signed_sum(b) >= 1.0 / 12.0
