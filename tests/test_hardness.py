import itertools
import math

import numpy as np
import pytest

from qpratio.core import (
    DimensionMismatch,
    QpIntermediateInstance,
    QpRatioInstance,
    ValidationError,
    eval_qp_intermediate,
    instance_to_bytes,
)
from qpratio.exact import (
    BudgetExceeded,
    brute_force_qp_ratio,
    brute_force_weighted_bipartite,
    grid_search_intermediate,
)
from qpratio.generators import random_instance
from qpratio.hardness import (
    BoolFn,
    KAndInstance,
    PartialLabeling,
    UgInstance,
    check_expansion,
    check_kand_concentration,
    check_linear_l1,
    check_smallball,
    check_smallball_batch,
    dictator_profile,
    embed_basic_sdp_to_csp,
    eval_ratio_ug,
    fwht,
    gen_kand,
    intermediate_to_qpratio,
    kand_matrix,
    kand_to_qpratio,
    reduction_components,
    satisfied_literal_counts,
    sign_table,
    theta_value,
    ug_eta,
    ug_to_intermediate,
)
from qpratio.sdp import GramSolution, embed_assignment
from qpratio.util import rng_for


def reference_kand_matrix(inst):
    """The per-literal loop that the clause view replaced."""
    a = np.zeros((inst.m, inst.n))
    for j, clause in enumerate(inst.clauses):
        for v, s in clause:
            a[j, v] = s / inst.m
    return a


def reference_satisfied_literal_counts(inst, x):
    """The per-clause count that the clause view replaced."""
    xv = np.asarray(x, dtype=np.float64).ravel()
    counts = np.zeros(inst.m, dtype=np.int64)
    for j, clause in enumerate(inst.clauses):
        counts[j] = sum(1 for v, s in clause if xv[v] == s)
    return counts


def reference_kand_to_qpratio(inst, alpha, meta):
    """The replicated instance built as one (i, j, w) triple per copy of each literal."""
    w = round(1.0 / alpha)
    total = w * inst.n + inst.m
    entries = []
    scale = 1.0 / (inst.m * w)
    for j, clause in enumerate(inst.clauses):
        cj = w * inst.n + j
        for v, s in clause:
            for c in range(w):
                entries.append((c * inst.n + v, cj, s * scale))
    bip = (tuple(range(w * inst.n)), tuple(range(w * inst.n, total)))
    return QpRatioInstance(total, tuple(entries), bip, meta)


def reference_intermediate_to_qpratio(inst, m, meta):
    """The split instance built as one (i, j, w) triple per copy pair."""
    entries = []
    for i, j, w in inst.entries:
        if w == 0.0:
            continue
        for ci in range(m):
            for cj in range(m):
                entries.append((i * m + ci, j * m + cj, w / m))
    for i, dv in enumerate(inst.diag):
        if dv == 0.0:
            continue
        for ci in range(m):
            for cj in range(ci + 1, m):
                entries.append((i * m + ci, i * m + cj, dv / m))
    return QpRatioInstance(inst.n * m, tuple(entries), meta=meta)


class TestFourier:
    def test_dictator(self):
        f = BoolFn.dictator(2, 0)
        c = f.fourier()
        assert c[0b01] == 1.0
        assert np.allclose(np.delete(c, 1), 0.0)

    def test_constant(self):
        c = BoolFn.constant(3, 1.0).fourier()
        assert c[0] == 1.0
        assert np.allclose(c[1:], 0.0)

    def test_parseval_random(self):
        rng = rng_for(5)
        for r in range(1, 11):
            tables = rng.uniform(-1, 1, size=(20, 2**r))
            coeffs = fwht(tables) / 2**r
            assert np.max(np.abs(np.sum(coeffs**2, axis=1) - np.mean(tables**2, axis=1))) < 1e-12

    def test_involution(self):
        rng = rng_for(6)
        t = rng.uniform(-1, 1, 16)
        f = BoolFn(t)
        back = fwht(f.fourier())
        assert np.allclose(back, f.table, atol=1e-12)

    def test_sign_table_bit_order(self):
        assert sign_table(2).tolist() == [[1, 1], [-1, 1], [1, -1], [-1, -1]]
        assert sign_table(0).shape == (1, 0)
        t = sign_table(5)
        assert all(t[p, i] == (-1 if p >> i & 1 else 1) for p in range(32) for i in range(5))

    def test_r_cap(self):
        with pytest.raises(Exception):
            BoolFn(np.zeros(2**13))

    def test_values_clamped(self):
        f = BoolFn([2.0, -3.0, 0.5, 0.0])
        assert f.table.max() == 1.0 and f.table.min() == -1.0


class TestSmallball:
    def test_dictator_passes(self):
        assert check_smallball(BoolFn.dictator(4, 1))

    def test_zero_passes(self):
        assert check_smallball(BoolFn.constant(4, 0.0))

    def test_random_sweep(self):
        for r in (4, 6, 8):
            rng = rng_for(9, r)
            assert bool(np.all(check_smallball_batch(rng.uniform(-1, 1, (1000, 2**r)))))


class TestLinearL1:
    def test_dictator(self):
        ok, total = check_linear_l1(BoolFn.dictator(3, 0))
        assert ok and total == pytest.approx(1.0)

    def test_constant(self):
        ok, total = check_linear_l1(BoolFn.constant(3, 1.0))
        assert ok and total == 0.0

    def test_majority_violation_reported_not_raised(self):
        r = 9
        t = np.arange(2**r)
        bits = np.array([1 - 2 * ((t >> i) & 1) for i in range(r)]).sum(axis=0)
        maj = BoolFn(np.sign(bits))
        ok, total = check_linear_l1(maj)
        assert not ok
        assert total > 2.0


# (n, m, k): one literal, full-width clauses, and clauses over few and many variables
KAND_SHAPES = [(1, 1, 1), (3, 2, 1), (4, 3, 2), (5, 7, 5), (6, 5, 3), (9, 12, 4), (12, 30, 3)]


class TestKAnd:
    def test_shapes_and_determinism(self):
        inst = gen_kand(10, 20, 3, seed=4)
        assert inst.m == 20
        assert all(len(c) == 3 for c in inst.clauses)
        assert inst.clauses == gen_kand(10, 20, 3, seed=4).clauses

    @pytest.mark.parametrize("m", [0, -1])
    def test_zero_clauses_rejected(self, m):
        with pytest.raises(ValidationError, match="at least one clause"):
            gen_kand(6, m, 3, seed=1)

    def test_planted_fraction_exact(self):
        z = [1, -1] * 6
        inst = gen_kand(12, 40, 4, seed=1, planted=z, alpha=0.25)
        counts = satisfied_literal_counts(inst, z)
        assert int(np.sum(counts == 4)) >= round(0.25 * 40)

    @pytest.mark.parametrize("v", [2.5, 2.0, 3, -1])
    def test_variable_not_an_index_refused(self, v):
        # the clause view casts variables to int64, so 2.5 would become 2
        with pytest.raises(ValidationError, match="is not an integer in"):
            KAndInstance(3, 2, (((0, 1), (v, -1)),))

    def test_numpy_integer_variables_accepted(self):
        inst = KAndInstance(3, 2, (((np.int64(0), 1), (np.int32(2), -1)),))
        assert inst.literals[0].tolist() == [[0, 2]]

    def test_matrix_entries(self):
        inst = KAndInstance(3, 2, (((0, 1), (2, -1)),))
        a = kand_matrix(inst)
        assert a[0, 0] == 1.0 and a[0, 2] == -1.0 and a[0, 1] == 0.0

    @pytest.mark.parametrize("n, m, k", KAND_SHAPES)
    def test_clause_view_matches_the_loops(self, n, m, k):
        for seed in range(3):
            inst = gen_kand(n, m, k, seed)
            assert np.array_equal(kand_matrix(inst), reference_kand_matrix(inst))
            for x in rng_for(seed, 3).integers(-1, 2, size=(4, n)):
                got = satisfied_literal_counts(inst, x)
                assert got.dtype == np.int64
                assert np.array_equal(got, reference_satisfied_literal_counts(inst, x))

    def test_theta_single_full_clause(self):
        inst = KAndInstance(3, 3, (((0, 1), (1, 1), (2, -1)),))
        th = theta_value(inst, [1, 1, -1], [1], alpha=1.0)
        assert th.value == pytest.approx(1.5)  # k/2

    @pytest.mark.parametrize("x", [[1] * 7, [1] * 3])
    def test_counts_refuse_a_wrong_length(self, x):
        with pytest.raises(DimensionMismatch, match=f"assignment has length {len(x)}, expected 5"):
            satisfied_literal_counts(gen_kand(5, 4, 2, 1), x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_theta_refuses_a_non_finite_profile(self, bad):
        inst = KAndInstance(3, 3, (((0, 1), (1, 1), (2, -1)),))
        with pytest.raises(ValidationError, match="profile f has a non-finite entry"):
            theta_value(inst, [1, bad, -1], [1], alpha=1.0)
        with pytest.raises(ValidationError, match="profile g has a non-finite entry"):
            theta_value(inst, [1, 1, -1], [bad], alpha=1.0)


class TestKandReduction:
    def test_shape_and_mapping(self):
        inst = gen_kand(4, 3, 2, seed=2)
        img, mapping = kand_to_qpratio(inst, alpha=0.5)
        assert mapping.w == 2
        assert img.n == 2 * 4 + 3
        assert img.bipartition is not None

    def test_replication_optimum_matches_weighted_oracle(self):
        inst = gen_kand(3, 2, 2, seed=5)
        base = kand_matrix(inst).T  # variables x clauses
        for w, alpha in ((1, 1.0), (2, 0.5), (3, 1 / 3)):
            img, _ = kand_to_qpratio(inst, alpha)
            opt_image = brute_force_qp_ratio(img, cap=12)[1].value
            opt_weighted = brute_force_weighted_bipartite(base, w, cap=12)
            assert opt_image == pytest.approx(opt_weighted, abs=1e-12)

    def test_mapping_bookkeeping(self):
        inst = gen_kand(3, 4, 2, seed=8)
        img, mapping = kand_to_qpratio(inst, alpha=0.5)
        f = [1, -1, 0]
        g = [1, 0, 0, -1]
        a = mapping.embed(f, g)
        copies, gv = mapping.extract(a)
        assert copies.shape == (2, 3)
        assert (copies == np.array(f)).all()
        assert gv.tolist() == g
        assert mapping.mu_f(a) == pytest.approx(2 / 3)
        assert mapping.mu_g(a) == pytest.approx(0.5)

    @pytest.mark.parametrize("f, g, error", [
        # a value outside {-1, 0, 1} is refused, not truncated
        ([0.7, -1.9, 1, 0], [1, 1, 1], ValidationError),
        ([2, 0, 1, 0], [1, 1, 1], ValidationError),
        ([1, 0, 1, 0], [1, 1, np.nan], ValidationError),
        # a profile of the wrong length is refused, not spliced
        ([1, 1, 1], [1, 1, 1], DimensionMismatch),
    ])
    def test_embed_refuses_bad_profiles(self, f, g, error):
        _, mapping = kand_to_qpratio(gen_kand(4, 3, 2, 1), 0.5)
        with pytest.raises(error):
            mapping.embed(f, g)

    @pytest.mark.parametrize("n, m, k", KAND_SHAPES)
    def test_matches_the_triple_loop(self, n, m, k):
        for seed, planted in ((0, None), (1, None), (2, ([1, -1] * n)[:n])):
            inst = gen_kand(n, m, k, seed, planted=planted, alpha=0.5)
            for alpha in (1.0, 0.5, 1 / 3):
                img, _ = kand_to_qpratio(inst, alpha)
                want = reference_kand_to_qpratio(inst, alpha, img.meta)
                assert instance_to_bytes(img) == instance_to_bytes(want)
                assert img.bipartition == want.bipartition

    def test_bad_alpha_rejected(self):
        inst = gen_kand(3, 2, 2, seed=5)
        with pytest.raises(Exception):
            kand_to_qpratio(inst, alpha=0.4)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded, match="4097 variables, cap is 4096"):
            kand_to_qpratio(KAndInstance(4096, 1, (((0, 1),),)), 1.0)


class TestConcentration:
    def test_planted_full_fraction(self):
        z = [1] * 10
        inst = gen_kand(10, 30, 3, seed=3, planted=z, alpha=0.3)
        rep = check_kand_concentration(inst)
        assert rep.max_full_fraction >= 0.3

    def test_random_instance_bounds(self):
        inst = gen_kand(12, 120, 4, seed=3)
        rep = check_kand_concentration(inst)
        assert 0.0 <= rep.max_fraction <= 1.0
        assert rep.threshold == pytest.approx(2 + 4 ** (7 / 8))

    def test_single_clause_fraction_binary(self):
        inst = gen_kand(6, 1, 3, seed=1)
        rep = check_kand_concentration(inst)
        assert rep.max_fraction in (0.0, 1.0)


def enumerate_expansion(inst, alpha, t_max=None, s_max=None):
    """Reference: (vacuous, pairs, worst ratio, holds) by visiting every (S, T) pair."""
    n, m, k = inst.n, inst.m, inst.k
    tm = t_max if t_max is not None else int(math.floor(n * alpha / 400.0))
    adj = [{v for v, _ in clause} for clause in inst.clauses]
    worst, checked = 0.0, 0
    for t_size in range(1, tm + 1):
        sl = s_max if s_max is not None else int(math.floor(alpha * t_size))
        for t_set in itertools.combinations(range(n), t_size):
            ts = set(t_set)
            weights = [len(adj[j] & ts) for j in range(m)]
            for s_size in range(1, sl + 1):
                for s_set in itertools.combinations(range(m), s_size):
                    worst = max(worst, sum(weights[j] for j in s_set) / s_size)
                    checked += 1
    return checked == 0, checked, worst, worst <= math.sqrt(k) + 1e-12


class TestExpansion:
    def test_vacuous_at_small_alpha(self):
        inst = gen_kand(10, 30, 3, seed=2)
        rep = check_expansion(inst, alpha=0.1)
        assert rep.mode == "vacuous"
        assert rep.holds

    def test_exhaustive_probe_bounded_by_degree(self):
        inst = gen_kand(6, 5, 3, seed=7)
        rep = check_expansion(inst, alpha=1.0, t_max=2, s_max=2)
        assert rep.mode == "exact"
        assert rep.pairs_checked > 0
        assert rep.worst_ratio <= inst.k

    def test_large_probe_exact_value(self):
        inst = gen_kand(14, 40, 4, seed=9)
        rep = check_expansion(inst, alpha=1.0, t_max=8, s_max=10)
        assert rep.mode == "exact"
        assert rep.worst_ratio == 4.0
        assert not rep.holds

    def test_t_max_above_n(self):
        rep = check_expansion(gen_kand(6, 5, 3, seed=1), alpha=1.0, t_max=8, s_max=1)
        assert (rep.mode, rep.pairs_checked, rep.worst_ratio) == ("exact", 315, 3.0)

    def test_matches_enumeration(self):
        # t_max = 7 exceeds n; t_max = 0, s_max = 0 and alpha = 0.3 at small |T| are vacuous
        insts = [gen_kand(n, m, k, seed=n + m) for n, k, m in itertools.product((4, 5), (1, 2, 4), (1, 3, 4))]
        grid = itertools.product(insts, (None, 0, 1, 2, 7), (None, 0, 1, 2, 7), (0.3, 1.0, 500.0))
        for inst, t_max, s_max, alpha in grid:
            rep = check_expansion(inst, alpha, t_max=t_max, s_max=s_max)
            got = (rep.mode == "vacuous", rep.pairs_checked, rep.worst_ratio, rep.holds)
            assert got == enumerate_expansion(inst, alpha, t_max, s_max), (inst, t_max, s_max, alpha)


class TestRatioUg:
    def test_identity_edge_half(self):
        ug = UgInstance(2, 2, ((0, 1, (0, 1)),))
        assert eval_ratio_ug(ug, PartialLabeling((0, 0))) == 0.5

    def test_triangle_constant_labeling(self):
        edges = tuple((u, v, (0, 1)) for u, v in ((0, 1), (1, 2), (0, 2)))
        ug = UgInstance(3, 2, edges)
        assert eval_ratio_ug(ug, PartialLabeling((1, 1, 1))) == 1.0

    def test_all_bottom_is_zero(self):
        ug = UgInstance(2, 2, ((0, 1, (0, 1)),))
        assert eval_ratio_ug(ug, PartialLabeling((None, None))) == 0.0

    def test_irregular_rejected(self):
        with pytest.raises(Exception):
            UgInstance(3, 2, ((0, 1, (0, 1)), (1, 2, (0, 1)), (0, 1, (1, 0))))


class TestUgReduction:
    def ug2(self):
        return UgInstance(2, 2, ((0, 1, (0, 1)),))

    def test_eta_formula(self):
        assert ug_eta(2, 2) == pytest.approx(3.2768e10)
        inst, mapping = ug_to_intermediate(self.ug2())
        assert mapping.eta == 3.2768e10

    def test_dictator_profile_achieves_labeled_value(self):
        ug = self.ug2()
        inst, mapping = ug_to_intermediate(ug)
        prof = dictator_profile(ug, PartialLabeling((0, 0)))
        t, l, l1 = reduction_components(ug, prof)
        assert t == 1.0
        assert l == 0.0
        assert l1 == 1.0
        val = eval_qp_intermediate(inst, mapping.embed(prof))
        assert val.value >= 1.0 - 1e-12

    def test_zero_profile_is_zero(self):
        ug = self.ug2()
        inst, mapping = ug_to_intermediate(ug)
        prof = [None, None]
        assert eval_qp_intermediate(inst, mapping.embed(prof)).value == 0.0

    def test_matrix_matches_direct_computation(self):
        ug = UgInstance(3, 2, tuple((u, v, (1, 0)) for u, v in ((0, 1), (1, 2), (0, 2))))
        inst, mapping = ug_to_intermediate(ug)
        rng = rng_for(12)
        for _ in range(10):
            prof = [BoolFn(rng.uniform(-1, 1, 4)) for _ in range(3)]
            t, l, l1 = reduction_components(ug, prof)
            direct = (t - mapping.eta * l) / l1
            got = eval_qp_intermediate(inst, mapping.embed(prof)).value
            assert got == pytest.approx(direct, rel=1e-9)

    def test_diagonal_nonpositive(self):
        inst, _ = ug_to_intermediate(self.ug2())
        assert all(d <= 0 for d in inst.diag)

    def test_dictator_value_identity_against_game_oracle(self):
        # for a dictator/zero profile of labeling L the reduction ratio is
        # exactly val(L) * |V| / |E|: match terms are satisfied-edge
        # indicators and the l1 mass is the labeled fraction
        from qpratio.exact import brute_force_ratio_ug

        cases = [
            UgInstance(2, 2, ((0, 1, (0, 1)),)),
            UgInstance(3, 2, tuple((u, v, (1, 0)) for u, v in ((0, 1), (1, 2), (0, 2)))),
            UgInstance(3, 3, tuple((u, v, (2, 0, 1)) for u, v in ((0, 1), (1, 2), (0, 2)))),
        ]
        for ug in cases:
            inst, mapping = ug_to_intermediate(ug)
            lab, val = brute_force_ratio_ug(ug)
            got = eval_qp_intermediate(inst, mapping.embed(dictator_profile(ug, lab))).value
            assert got == pytest.approx(val * ug.vertices / len(ug.edges), rel=1e-12)

    def test_budget_refusal(self):
        # 2 * 2^9 = 1024 variables, over the 512 cap
        ug = UgInstance(2, 9, ((0, 1, tuple(range(9))),))
        with pytest.raises(BudgetExceeded, match="1024"):
            ug_to_intermediate(ug)


class TestIntermediateSplit:
    def test_copy_count_formula(self):
        inst = QpIntermediateInstance(2, ((0, 1, 1.0),), (0.0, 0.0))
        assert inst.norm1() == 2.0
        _, m = intermediate_to_qpratio(inst, eps=0.5)
        assert m == 9

    def test_sandwich_small(self):
        inst = QpIntermediateInstance(2, ((0, 1, 1.0),), (0.0, 0.0))
        img, m = intermediate_to_qpratio(inst, eps=1.0)
        assert m == 5 and img.n == 10
        _, grid = grid_search_intermediate(inst, eps=0.05)
        _, brute = brute_force_qp_ratio(img, cap=12)
        assert abs(grid.value - brute.value) <= 1.0

    def test_budget_refusal(self):
        # m = 2n + 1 = 93 copies of 46 variables: 4278 > 4096 (n = 45 needs 4095)
        intermediate_to_qpratio(QpIntermediateInstance(45, (), (0.0,) * 45), eps=1.0)
        with pytest.raises(BudgetExceeded, match="4278 variables"):
            intermediate_to_qpratio(QpIntermediateInstance(46, (), (0.0,) * 46), eps=1.0)

    @pytest.mark.parametrize("eps", [1.0, 2.0, 4.0])
    def test_matches_the_triple_loop(self, eps):
        # hand cases with zero weights and zero diagonals, then random ones
        cases = [
            QpIntermediateInstance(1, (), (0.0,)),
            QpIntermediateInstance(1, (), (-0.5,)),
            QpIntermediateInstance(2, ((0, 1, 0.0),), (0.0, -1.0)),
            QpIntermediateInstance(3, ((0, 2, -0.7), (0, 1, 0.0), (1, 2, 0.3)), (-0.2, 0.0, -0.0)),
        ]
        for seed in range(8):
            rng = rng_for(seed, 11)
            n = 2 + seed % 3
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.8]
            weights = np.where(rng.random(len(pairs)) < 0.3, 0.0, rng.uniform(-1, 1, len(pairs)))
            diag = np.where(rng.random(n) < 0.4, 0.0, -rng.random(n))
            cases.append(QpIntermediateInstance(n, tuple((i, j, w) for (i, j), w in zip(pairs, weights)), diag))
        for inst in cases:
            img, m = intermediate_to_qpratio(inst, eps)
            want = reference_intermediate_to_qpratio(inst, m, img.meta)
            assert instance_to_bytes(img) == instance_to_bytes(want)

    def test_zero_matrix(self):
        inst = QpIntermediateInstance(2, (), (0.0, 0.0))
        img, _ = intermediate_to_qpratio(inst, eps=1.0)
        assert img.entries == ()
        assert brute_force_qp_ratio(img, cap=12)[1].value == 0.0


class TestCspEmbedding:
    def test_single_unit_vector(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        sol = GramSolution.build(inst, np.array([[1.0, 0.0], [0.0, 0.0]]))
        rep = embed_basic_sdp_to_csp(sol, inst)
        assert rep.ok, rep

    def test_integer_embedding_objective_preserved(self):
        inst = random_instance(6, seed=3)
        sol = embed_assignment(inst, brute_force_qp_ratio(inst)[0])
        rep = embed_basic_sdp_to_csp(sol, inst)
        assert rep.ok, rep
        assert rep.objective_delta <= 1e-12

    def test_random_orthogonal_gram(self):
        rng = rng_for(15)
        inst = random_instance(6, seed=8)
        lengths = rng.uniform(0.1, 1.0, 6)
        lengths /= lengths.sum()
        w = np.diag(np.sqrt(lengths))
        sol = GramSolution.build(inst, w)
        rep = embed_basic_sdp_to_csp(sol, inst, tol=1e-10)
        assert rep.ok, rep

    def test_overlong_vector_rejected(self):
        inst = QpRatioInstance(2, ((0, 1, 1.0),))
        sol = GramSolution.build(inst, np.array([[2.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(Exception):
            embed_basic_sdp_to_csp(sol)
