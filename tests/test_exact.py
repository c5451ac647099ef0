import itertools
import tracemalloc

import numpy as np
import pytest

from qpratio import exact
from qpratio.core import (
    Assignment,
    EntryArrays,
    QpIntermediateInstance,
    QpRatioInstance,
    ValidationError,
    degrees,
    eval_qp_ratio,
)
from qpratio.exact import (
    BudgetExceeded,
    _assignment_grid,
    _split_scorer,
    brute_force_normalized,
    brute_force_qp_ratio,
    brute_force_ratio_ug,
    brute_force_weighted_bipartite,
    grid_search_intermediate,
)
from qpratio.generators import gen_bipartite_gap, gen_star, random_instance
from qpratio.hardness import UgInstance, gen_kand, kand_to_qpratio
from qpratio.util import rng_for


def full_grid_oracle(inst, normalized):
    """The 3^n enumeration the oracles used before the head x tail split.

    Every row of the full grid is scored per entry; returns
    (rows, numerators, denominators, index of the first maximum).
    """
    n = inst.n
    vals = np.array([-1, 0, 1], dtype=np.int8)
    rows = np.stack(np.meshgrid(*([vals] * n), indexing="ij"), axis=-1).reshape(-1, n)
    num = np.zeros(rows.shape[0])
    for i, j, w in inst.entries:
        num += (2.0 * w) * (rows[:, i].astype(np.float64) * rows[:, j])
    if normalized:
        den = np.abs(rows).astype(np.float64) @ degrees(inst)
    else:
        den = np.count_nonzero(rows, axis=1).astype(np.float64)
    vals = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return rows, num, den, int(np.argmax(vals))


def oracle_instances():
    for n in range(2, 13):
        yield f"random-n{n}", random_instance(n, seed=100 + n, density=0.6)
    for leaves in range(1, 12):
        yield f"star-{leaves}", gen_star(leaves)
    for n in (4, 9):
        yield f"gap-{n}", gen_bipartite_gap(n, seed=n)
    yield "kand-a", kand_to_qpratio(gen_kand(4, 4, 2, 1), 0.5)[0]
    yield "kand-b", kand_to_qpratio(gen_kand(5, 2, 3, 2), 0.5)[0]
    yield "k6", QpRatioInstance(6, tuple((i, j, 1.0) for i in range(6) for j in range(i + 1, 6)))
    yield "empty", QpRatioInstance(5, ())
    # (-1,0,-1) and (-1,-1,-1) tie at 0.2 in exact arithmetic; the per-entry
    # sums give 0.2 and 0.20000000000000004, so the split scores must not
    # decide between them
    yield "float-tie", QpRatioInstance(3, ((0, 2, 0.2), (1, 2, 0.1)))


def reference_brute_force(inst, weights):
    """The one-array oracle the blocked stream replaced.

    All 3^n split scores at once as one 3^h x 3^t array, every row within
    delta of the best rescored per entry, scale = max d_i / weights_i (so
    infinite, and every row rescored, when a vertex with an entry has
    weight 0); returns (assignment, numerator, denominator).
    """
    n = inst.n
    d = degrees(inst)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = float(np.max(d / weights, where=d > 0, initial=0.0))
    t = min(n, 8)
    h = n - t
    head, tail = _assignment_grid(h), _assignment_grid(t)
    a = inst.to_dense()
    xh, xt = head.astype(np.float64), tail.astype(np.float64)
    q_head = np.einsum("ri,ri->r", xh @ a[:h, :h], xh)
    q_tail = np.einsum("ri,ri->r", xt @ a[h:, h:], xt)
    num = 2.0 * ((xh @ a[:h, h:]) @ xt.T) + q_head[:, None] + q_tail[None, :]
    den = (np.abs(xh) @ weights[:h])[:, None] + (np.abs(xt) @ weights[h:])[None, :]
    vals = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    delta = 4.0 * (inst.nnz + 4 * n + 8) * 2.0**-53 * scale
    idx = np.flatnonzero(vals >= vals.max() - delta)
    rows = np.hstack([head[idx // 3**t], tail[idx % 3**t]])
    num = exact._numerators(inst, rows)
    den = exact._denominators(rows, weights)
    k = int(np.argmax(np.divide(num, den, out=np.zeros_like(num), where=den > 0)))
    return tuple(int(v) for v in rows[k]), num[k], den[k]


def bipartite_case(matrix, left_weight):
    """The instance and weights brute_force_weighted_bipartite builds."""
    a = np.asarray(matrix, dtype=np.float64)
    nl, nr = a.shape
    li, rj = np.nonzero(a)
    inst = QpRatioInstance(nl + nr, EntryArrays(li, nl + rj, a[li, rj]))
    return inst, np.repeat([float(left_weight), 1.0], [nl, nr])


def weighted_cases():
    """(name, instance, weights) for the block tests, zero weights included."""
    for name, inst in oracle_instances():
        yield name, inst, np.ones(inst.n)
        yield f"{name}-normalized", inst, degrees(inst)
    for seed in range(6):
        rng = rng_for(seed, 22)
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        a = rng.uniform(-1, 1, shape) * (rng.random(shape) < 0.7)
        for w in (0, 1, 3):
            yield f"bipartite-{seed}-w{w}", *bipartite_case(a, w)
    # isolated vertices have degree 0, so weight 0 when normalized
    sparse = random_instance(10, seed=4, density=0.15)
    yield "isolated-normalized", sparse, degrees(sparse)
    # an entry joining two weight-0 vertices makes the error scale infinite
    joined = QpRatioInstance(4, ((0, 1, 1.0), (1, 2, -0.5), (2, 3, 0.25)))
    yield "zero-weight-pair", joined, np.array([0.0, 0.0, 1.0, 2.0])


def ulps(a, b):
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


def spy_rescored(monkeypatch):
    """A list that records how many rows each reference rescoring takes."""
    rescored = []
    numerators = exact._numerators

    def spy(inst, rows):
        rescored.append(rows.shape[0])
        return numerators(inst, rows)

    monkeypatch.setattr(exact, "_numerators", spy)
    return rescored


def traced_peak(oracle, inst):
    tracemalloc.start()
    try:
        oracle(inst, cap=14)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBruteForce:
    def test_single_edge(self):
        # both (1,1) and (-1,-1) attain 1; the lexicographic tie-break
        # (-1 < 0 < 1) selects the all-minus assignment
        a, v = brute_force_qp_ratio(QpRatioInstance(2, ((0, 1, 1.0),)))
        assert v.value == 1.0
        assert a.values == (-1, -1)

    def test_star_five(self):
        _, v = brute_force_qp_ratio(gen_star(5))
        assert v.value == pytest.approx(10 / 6)

    def test_empty_instance(self):
        _, v = brute_force_qp_ratio(QpRatioInstance(3, ()))
        assert v.value == 0.0

    def test_cap_refusal_names_numbers(self):
        with pytest.raises(BudgetExceeded, match="n=13 exceeds cap=12"):
            brute_force_qp_ratio(QpRatioInstance(13, ()), cap=12)

    @pytest.mark.parametrize("oracle", [brute_force_qp_ratio, brute_force_normalized])
    def test_refused_past_n14_whatever_the_cap(self, oracle):
        # the refusal comes before anything is allocated
        with pytest.raises(BudgetExceeded, match="n=15 exceeds cap=14"):
            oracle(QpRatioInstance(15, ()), cap=20)

    def test_oracle_dominance(self):
        rng = rng_for(21)
        for seed in range(5):
            inst = random_instance(7, seed=seed)
            _, opt = brute_force_qp_ratio(inst)
            for _ in range(20):
                a = Assignment(tuple(int(v) for v in rng.integers(-1, 2, 7)))
                assert eval_qp_ratio(inst, a).value <= opt.value + 1e-12

    def test_negation_symmetry_on_bipartite(self):
        inst = gen_bipartite_gap(4, seed=2)
        flipped = QpRatioInstance(
            inst.n,
            tuple((i, j, -w) for i, j, w in inst.entries),
            inst.bipartition,
        )
        v1 = brute_force_qp_ratio(inst)[1].value
        v2 = brute_force_qp_ratio(flipped)[1].value
        assert v1 == pytest.approx(v2)


class TestSplitEnumeration:
    def test_empty_grid_is_one_empty_row(self):
        assert _assignment_grid(0).shape == (1, 0)
        for n in range(1, 5):
            expected = np.array(list(itertools.product((-1, 0, 1), repeat=n)))
            assert np.array_equal(_assignment_grid(n), expected)

    def test_split_matches_per_entry_scores(self):
        # n <= 8 has an empty head (h = 0), n = 9 a one-variable head
        for n in range(1, 11):
            inst = random_instance(n, seed=n, density=0.7)
            t = min(n, 8)
            head, tail = _assignment_grid(n - t), _assignment_grid(t)
            rows = _assignment_grid(n)
            ref_num = exact._numerators(inst, rows)
            scale = 2.0 * sum(abs(w) for _, _, w in inst.entries)
            for weights in (np.ones(n), degrees(inst)):
                score = _split_scorer(inst, weights, head, tail)
                num, den = score(0, head.shape[0])
                assert num.shape == den.shape == (3 ** (n - t), 3**t)
                # blocks of two head rows, read one after another, score the
                # same rows (BLAS may round a block's products differently)
                blocks = [score(s, s + 2) for s in range(0, head.shape[0], 2)]
                for num, den in ((num, den), tuple(np.vstack(b) for b in zip(*blocks))):
                    np.testing.assert_allclose(num.ravel(), ref_num, rtol=1e-12, atol=1e-12 * scale)
                    np.testing.assert_allclose(den.ravel(), np.abs(rows) @ weights, rtol=1e-12)

    @pytest.mark.parametrize("block", [1, 2, 5, 3**6])
    def test_head_blocks_match_one_array(self, monkeypatch, block):
        monkeypatch.setattr(exact, "_HEAD_BLOCK", block)
        for name, inst, weights in weighted_cases():
            values, num, den = reference_brute_force(inst, weights)
            a, v = exact._brute_force(inst, 14, weights)
            assert a.values == values, name
            assert (v.numerator, v.denominator) == (num, den), name

    @pytest.mark.parametrize("block", [1, 2, 5, 3**6])
    def test_near_ties_in_later_blocks_are_rescored(self, monkeypatch, block):
        # a matching of six weight-0.1 edges: the 3^6 - 1 unions of aligned
        # edges all score 0.1 exactly, but their split scores differ in the
        # last bits, so a block whose best is just under the running best
        # still holds rows of the final window
        inst = QpRatioInstance(12, tuple((i, 11 - i, 0.1) for i in range(6)))
        monkeypatch.setattr(exact, "_HEAD_BLOCK", block)
        rescored = spy_rescored(monkeypatch)
        a, v = brute_force_qp_ratio(inst)
        assert rescored == [3**6 - 1]
        values, num, den = reference_brute_force(inst, np.ones(12))
        assert (a.values, v.numerator, v.denominator) == (values, num, den)

    def test_plain_oracle_bit_identical_to_full_grid(self):
        for name, inst in oracle_instances():
            rows, num, den, k = full_grid_oracle(inst, normalized=False)
            a, v = brute_force_qp_ratio(inst)
            assert a.values == tuple(int(x) for x in rows[k]), name
            assert (v.numerator, v.denominator) == (num[k], den[k]), name
            assert v.value == (num[k] / den[k] if den[k] else 0.0), name

    def test_normalized_oracle_within_4_ulp_of_full_grid(self):
        for name, inst in oracle_instances():
            rows, num, den, k = full_grid_oracle(inst, normalized=True)
            best = num[k] / den[k] if den[k] else 0.0
            a, v = brute_force_normalized(inst)
            assert ulps(v.value, best) <= 4, name
            # the returned assignment attains the optimum under the old scoring
            r = int(np.flatnonzero((rows == np.array(a.values)).all(axis=1))[0])
            attained = num[r] / den[r] if den[r] else 0.0
            assert ulps(attained, best) <= 4, name

    def test_tiny_weights_keep_argmax_and_shortlist(self, monkeypatch):
        base = random_instance(10, seed=3, density=0.6)
        inst = QpRatioInstance(10, tuple((i, j, w * 1e-12) for i, j, w in base.entries))
        rescored = spy_rescored(monkeypatch)
        rows, num, den, k = full_grid_oracle(inst, normalized=False)
        a, v = brute_force_qp_ratio(inst)
        assert a.values == tuple(int(x) for x in rows[k])
        assert (v.numerator, v.denominator) == (num[k], den[k])
        # the error bound scales with the weights, so only near-ties are rescored
        assert rescored == [2]

    @pytest.mark.parametrize("oracle", [brute_force_qp_ratio, brute_force_normalized])
    def test_overflowing_weights_are_refused(self, oracle):
        inst = QpRatioInstance(3, ((0, 1, 1e308), (1, 2, -1e308)))
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="overflows"):
            oracle(inst)

    @pytest.mark.parametrize("oracle", [brute_force_qp_ratio, brute_force_normalized])
    def test_peak_memory_at_n12(self, oracle):
        assert traced_peak(oracle, random_instance(12, seed=1, density=0.4)) < 4e6

    @pytest.mark.parametrize("oracle", [brute_force_qp_ratio, brute_force_normalized])
    def test_peak_memory_at_n14(self, oracle):
        # one 3^14 score array alone would take 38 MB
        assert traced_peak(oracle, random_instance(14, seed=1, density=0.4)) < 4e6


class TestVariablesWithoutEntries:
    """Variables without entries are settled before enumerating: an instance
    without entries returns all -1 at once, and zero-weight variables without
    entries are set to -1, the first maximizer's value, so neither keeps the
    3^n tied rows."""

    def test_empty_instance_returns_all_minus_one(self):
        a, v = brute_force_qp_ratio(QpRatioInstance(14, ()), cap=14)
        assert a.values == (-1,) * 14
        assert (v.numerator, v.denominator, v.value) == (0.0, 14.0, 0.0)

    def test_first_maximizer_kept_at_n6(self):
        insts = [QpRatioInstance(6, ((i, j, w),)) for i in range(6) for j in range(i + 1, 6) for w in (1.5, -0.5)]
        insts += [random_instance(6, seed=s, density=0.3) for s in range(20)]
        insts += [QpRatioInstance(6, ())]
        for inst in insts:
            for weights, oracle in ((np.ones(6), brute_force_qp_ratio), (degrees(inst), brute_force_normalized)):
                a, v = oracle(inst)
                assert (a.values, v.numerator, v.denominator) == reference_brute_force(inst, weights)

    def test_peak_memory(self):
        assert traced_peak(brute_force_qp_ratio, QpRatioInstance(14, ())) <= 4e6
        assert traced_peak(brute_force_normalized, QpRatioInstance(14, ((0, 1, 1.0),))) <= 4e6


class TestBruteForceNormalized:
    def test_single_negative_edge(self):
        a, v = brute_force_normalized(QpRatioInstance(2, ((0, 1, -1.0),)))
        assert v.value == 1.0
        assert a.values == (-1, 1)  # lexicographic smallest of the two optima

    def test_star(self):
        _, v = brute_force_normalized(gen_star(5))
        assert v.value == pytest.approx(1.0)

    def test_empty(self):
        _, v = brute_force_normalized(QpRatioInstance(2, ()))
        assert v.value == 0.0


def full_grid_intermediate(inst, eps):
    """grid_search_intermediate as one (points x n) array, before blocking."""
    n = inst.n
    delta = 1.0 / (2 * n)
    if inst.norm1() > 0:
        delta = min(delta, eps / (2.0 * inst.norm1()))
    steps = int(np.ceil(1.0 / delta))
    axis = (np.arange(2 * steps + 1, dtype=np.float64) - steps) / steps
    rows = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    num = rows * rows @ np.array(inst.diag, dtype=np.float64)
    for i, j, w in inst.entries:
        num += (2.0 * w) * rows[:, i] * rows[:, j]
    den = np.sum(np.abs(rows), axis=1)
    k = int(np.argmax(np.divide(num, den, out=np.zeros_like(num), where=den > 0)))
    return tuple(float(v) for v in rows[k]), num[k], den[k]


def grid_cases():
    cases = [
        (QpIntermediateInstance(2, ((0, 1, 1.0),), (0.0, 0.0)), 0.5),
        (QpIntermediateInstance(1, (), (-1.0,)), 0.3),
        (QpIntermediateInstance(2, ((0, 1, 1.0),), (0.0, 0.0)), 0.05),
        (QpIntermediateInstance(2, ((0, 1, 1.0),), (-0.5, -0.5)), 0.05),
        (QpIntermediateInstance(2, ((0, 1, -0.8),), (-0.3, 0.0)), 0.05),
        (QpIntermediateInstance(2, (), (0.0, 0.0)), 0.05),
    ]
    rng = rng_for(7)
    for _ in range(3):
        entries = tuple((i, j, float(rng.uniform(-0.2, 0.2))) for i in range(3) for j in range(i + 1, 3))
        diag = tuple(-abs(float(rng.uniform(0, 0.2))) for _ in range(3))
        cases.append((QpIntermediateInstance(3, entries, diag), 0.1))
    return cases


class TestGridSearch:
    @pytest.mark.parametrize("block", [64, exact._GRID_BLOCK])
    def test_blocks_match_one_array(self, monkeypatch, block):
        monkeypatch.setattr(exact, "_GRID_BLOCK", block)
        for inst, eps in grid_cases():
            x, v = grid_search_intermediate(inst, eps=eps)
            ref_x, ref_num, ref_den = full_grid_intermediate(inst, eps)
            assert x.values == ref_x
            assert (v.numerator, v.denominator) == (ref_num, ref_den)

    def test_memory_bounded_at_default_budget(self):
        inst = QpIntermediateInstance(4, ((0, 1, 1.0),), (0.0,) * 4)
        tracemalloc.start()
        try:
            _, v = grid_search_intermediate(inst, eps=4 / 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.value == 1.0
        assert peak < 32e6

    def test_offdiag_pair(self):
        inst = QpIntermediateInstance(2, ((0, 1, 1.0),), (0.0, 0.0))
        _, v = grid_search_intermediate(inst, eps=0.5)
        assert v.value == pytest.approx(1.0)

    def test_negative_diag_prefers_zero(self):
        inst = QpIntermediateInstance(1, (), (-1.0,))
        x, v = grid_search_intermediate(inst, eps=0.3)
        assert v.value == 0.0
        assert x.values == (0.0,)

    def test_self_consistency_at_finer_grid(self):
        rng = rng_for(7)
        for _ in range(3):
            entries = tuple(
                (i, j, float(rng.uniform(-0.2, 0.2))) for i in range(3) for j in range(i + 1, 3)
            )
            diag = tuple(-abs(float(rng.uniform(0, 0.2))) for _ in range(3))
            inst = QpIntermediateInstance(3, entries, diag)
            _, v1 = grid_search_intermediate(inst, eps=0.1)
            _, v2 = grid_search_intermediate(inst, eps=0.05)
            assert abs(v1.value - v2.value) <= 0.1

    def test_budget_refusal(self):
        inst = QpIntermediateInstance(4, ((0, 1, 1.0),), (0.0,) * 4)
        with pytest.raises(BudgetExceeded):
            grid_search_intermediate(inst, eps=1e-4, cap=4)


class TestRatioUgBruteForce:
    def test_single_identity_edge(self):
        ug = UgInstance(2, 2, ((0, 1, (0, 1)),))
        _, val = brute_force_ratio_ug(ug)
        assert val == 0.5

    def test_triangle_identity(self):
        edges = tuple((u, v, (0, 1)) for u, v in ((0, 1), (1, 2), (0, 2)))
        ug = UgInstance(3, 2, edges)
        _, val = brute_force_ratio_ug(ug)
        assert val == 1.0

    def test_swap_permutation(self):
        ug = UgInstance(2, 2, ((0, 1, (1, 0)),))
        lab, val = brute_force_ratio_ug(ug)
        assert val == 0.5
        u, v = lab.labels
        assert (u, v) in ((0, 1), (1, 0))

    def test_budget_refusal(self):
        # (4 + 1)^8 = 390625 labelings, over the 200000 budget
        with pytest.raises(BudgetExceeded, match="390625"):
            brute_force_ratio_ug(UgInstance(8, 4, ()))


def reference_weighted_bipartite(matrix, left_weight):
    """The x-grid by y-grid product formula that the shared enumeration replaced."""
    a = np.asarray(matrix, dtype=np.float64)
    nl, nr = a.shape
    xs = np.array(list(itertools.product((-1, 0, 1), repeat=nl)), dtype=np.float64).reshape(3**nl, nl)
    ys = np.array(list(itertools.product((-1, 0, 1), repeat=nr)), dtype=np.float64).reshape(3**nr, nr)
    inner = xs @ a @ ys.T
    den = left_weight * np.sum(np.abs(xs), axis=1)[:, None] + np.sum(np.abs(ys), axis=1)[None, :]
    vals = np.divide(2.0 * inner, den, out=np.zeros_like(inner), where=den > 0)
    return float(np.max(vals))


class TestWeightedBipartite:
    def test_matches_the_product_grid(self):
        for seed in range(60):
            rng = rng_for(seed, 21)
            shape = (int(rng.integers(0, 5)), int(rng.integers(0, 6)))
            a = rng.uniform(-1, 1, shape) * (rng.random(shape) < 0.7)
            for w in (0, 1, 2, 3):
                got = brute_force_weighted_bipartite(a, w)
                assert abs(got - reference_weighted_bipartite(a, w)) <= 1e-15, (seed, w)

    @pytest.mark.parametrize("w", [-1, -0.5, float("nan"), float("inf")])
    def test_bad_left_weight_refused(self, w):
        with pytest.raises(ValidationError, match="left weight"):
            brute_force_weighted_bipartite([[1.0]], w)

    def test_zero_left_weight_and_empty_matrix(self):
        # with weight 0 the left side is free: x = y = 1 gives 2 * 1 / (0 + 1)
        assert brute_force_weighted_bipartite([[1.0]], 0) == 2.0
        assert brute_force_weighted_bipartite(np.zeros((0, 0)), 1) == 0.0

    def test_zero_left_weight_rescores_a_short_list(self, monkeypatch):
        # weight 0 on the left: the error scale charges each left vertex's
        # entries to the right side, so it stays finite and few rows are
        # rescored (an infinite scale would rescore all 3^12)
        a = rng_for(5, 23).uniform(-1, 1, (5, 7))
        rescored = spy_rescored(monkeypatch)
        got = brute_force_weighted_bipartite(a, 0)
        assert len(rescored) == 1 and rescored[0] <= 16
        assert abs(got - reference_weighted_bipartite(a, 0)) <= 1e-15

    def test_refused_past_14_variables_whatever_the_cap(self):
        with pytest.raises(BudgetExceeded, match="exceeds cap=14"):
            brute_force_weighted_bipartite(np.zeros((5, 10)), 1, cap=20)

    def test_hand_case(self):
        # single cross pair weight 1, left weight 2:
        # best is x=y=1 with 2*1/(2+1) = 2/3
        assert brute_force_weighted_bipartite([[1.0]], 2) == pytest.approx(2 / 3)

    def test_empty_left_side(self):
        assert brute_force_weighted_bipartite(np.zeros((0, 3)), 1) == 0.0

    def test_weight_one_matches_plain_brute_force(self):
        rng = rng_for(13)
        a = rng.uniform(-1, 1, (2, 3))
        entries = tuple((i, 2 + j, float(a[i, j])) for i in range(2) for j in range(3))
        inst = QpRatioInstance(5, entries, bipartition=((0, 1), (2, 3, 4)))
        assert brute_force_weighted_bipartite(a, 1) == pytest.approx(
            brute_force_qp_ratio(inst)[1].value
        )
