import hashlib
import math

import numpy as np
import pytest

from qpratio import generators
from qpratio.core import (
    EntryArrays,
    QpRatioInstance,
    ValidationError,
    degrees,
    eval_qp_ratio,
    eval_weighted,
    instance_to_bytes,
)
from qpratio.exact import BudgetExceeded, brute_force_qp_ratio
from qpratio.generators import (
    LevelGraphParams,
    PlantedParams,
    apx_planted_assignment,
    check_expr1,
    gen_apx_gadget,
    gen_bipartite_gap,
    gen_gap_sdp_certificate,
    gen_level_graph,
    gen_planted,
    gen_star,
    level_graph_witness_value,
    level_graph_witness_vector,
    random_instance,
    star_relaxation_witness,
)
from qpratio.sdp import sdp_feasibility
from qpratio.spectral import eig_relaxation_value
from qpratio.util import rng_for

# weight pattern of gen_bipartite_gap(4, seed=7), frozen once
GOLDEN_GAP_4_SEED_7 = (
    (0, 2, 1.0),
    (0, 3, 1.0),
    (0, 4, -1.0),
    (0, 5, -1.0),
    (1, 2, -1.0),
    (1, 3, -1.0),
    (1, 4, -1.0),
    (1, 5, 1.0),
)


# sha256 (first 32 hex digits) of the canonical entries as little-endian
# int64 i, int64 j and float64 w columns, recorded from the per-entry
# generators before they moved to arrays
GOLDEN_DIGESTS = [
    (lambda: random_instance(1, 4, 1.0), 0, "e3b0c44298fc1c149afbf4c8996fb924"),
    (lambda: random_instance(2, 4, 1.0), 1, "06f950fc131764ea53f3c8ac3cdb4054"),
    (lambda: random_instance(2, 9, 0.3), 0, "e3b0c44298fc1c149afbf4c8996fb924"),
    (lambda: random_instance(30, 3, 1.0), 435, "4863d6414dae3693599052f49a10da5a"),
    (lambda: random_instance(60, 5, 0.3), 522, "e5625909c61e686b6f0f555f22c42ee3"),
    (lambda: random_instance(400, 1, 0.05), 4079, "cc0659ea610e6cc578df4a544b9bf701"),
    (lambda: gen_level_graph(LevelGraphParams(eps=1.0 / 3.0)), 497676, "48df5a5a60cb9112862f01188c91310e"),
    (lambda: gen_level_graph(LevelGraphParams(eps=0.5)), 323, "53b24bcce64cd12efe0d7b6c47472d18"),
    (lambda: gen_planted(PlantedParams(n=64, seed=3))[0], 31, "4024d0360434fad6821318b2a3cc6507"),
    (lambda: gen_bipartite_gap(16, 5), 64, "049512f8f184665813bbf469aca7ab69"),
    (lambda: gen_star(7), 7, "f43a4ec216c7c1dc50dc010830b944cc"),
]


def entries_digest(inst) -> str:
    h = hashlib.sha256()
    h.update(np.array([e[0] for e in inst.entries], dtype="<i8").tobytes())
    h.update(np.array([e[1] for e in inst.entries], dtype="<i8").tobytes())
    h.update(np.array([e[2] for e in inst.entries], dtype="<f8").tobytes())
    return h.hexdigest()[:32]


@pytest.mark.parametrize(
    "make, count, digest",
    GOLDEN_DIGESTS,
    ids=[
        "random-n1",
        "random-n2-dense",
        "random-n2-sparse",
        "random-n30-d1",
        "random-n60-d0.3",
        "random-n400-d0.05",
        "level-eps1/3",
        "level-eps1/2",
        "planted-64",
        "gap-16",
        "star-7",
    ],
)
def test_golden_entries(make, count, digest):
    inst = make()
    assert len(inst.entries) == count
    assert entries_digest(inst) == digest
    # generators hand their arrays over unchecked: validating them again
    # must find them canonical
    again = QpRatioInstance(inst.n, EntryArrays(*inst.arrays)).arrays
    assert all(np.array_equal(a, b) for a, b in zip(again, inst.arrays))


@pytest.mark.parametrize("chunk", [1, 2, 7, 1000])
def test_golden_entries_with_small_draw_chunks(monkeypatch, chunk):
    # a density scan cut into short chunks carries a pending weight draw
    # across chunk ends and reads the same stream
    monkeypatch.setattr(generators, "_DRAW_CHUNK", chunk)
    for make, count, digest in GOLDEN_DIGESTS[:6]:
        inst = make()
        assert len(inst.entries) == count
        assert entries_digest(inst) == digest


class TestStar:
    def test_single_leaf_is_an_edge(self):
        assert gen_star(1).entries == ((0, 1, 1.0),)

    def test_five_leaf_optimum(self):
        assert brute_force_qp_ratio(gen_star(5))[1].value == pytest.approx(10 / 6)

    def test_relaxation_witness_value(self):
        for n in (16, 64):
            x, val = star_relaxation_witness(n)
            assert val == pytest.approx((4.0 / 3.0) * math.sqrt(n / 2.0))
            # recompute from the vector itself on the instance
            star = gen_star(n)
            a = star.to_dense()
            direct = float(x @ a @ x) / float(x @ x)
            assert direct == pytest.approx(val)
            assert eig_relaxation_value(star) >= direct - 1e-9


class TestBipartiteGap:
    def test_shape(self):
        inst = gen_bipartite_gap(4, seed=0)
        assert inst.n == 6
        assert len(inst.entries) == 8
        assert all(abs(w) == 1.0 for _, _, w in inst.entries)
        assert inst.bipartition == ((0, 1), (2, 3, 4, 5))

    def test_golden_seed(self):
        assert gen_bipartite_gap(4, seed=7).entries == GOLDEN_GAP_4_SEED_7

    def test_determinism(self):
        assert gen_bipartite_gap(16, seed=5).entries == gen_bipartite_gap(16, seed=5).entries

    def test_mean_weight_concentration(self):
        inst = gen_bipartite_gap(64, seed=11)
        weights = np.array([w for _, _, w in inst.entries])
        assert abs(weights.mean()) <= 3.0 / math.sqrt(64 * 8)

    def test_non_square_rejected(self):
        with pytest.raises(Exception):
            gen_bipartite_gap(5, seed=0)


class TestGapCertificate:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_certificate_values(self, n):
        inst = gen_bipartite_gap(n, seed=3)
        cert = gen_gap_sdp_certificate(inst)
        sq = np.einsum("id,id->i", cert.vectors, cert.vectors)
        s = math.isqrt(n)
        assert np.allclose(sq[s:], 1.0 / (2 * n), atol=1e-15)
        assert abs(float(np.sum(sq)) - 1.0) <= 1e-12
        ok, report = sdp_feasibility(cert, tol=1e-12)
        assert ok, report
        assert cert.objective == pytest.approx(math.sqrt(n), abs=1e-9)

    def test_rejects_non_gap_instance(self):
        star = gen_star(4)
        with pytest.raises(Exception):
            gen_gap_sdp_certificate(star)

    def test_rejects_weight_that_is_not_a_sign(self):
        gap = gen_bipartite_gap(4, seed=7)
        entries = ((0, 2, 0.5),) + gap.entries[1:]
        with pytest.raises(ValidationError, match="weights, found 0.5"):
            gen_gap_sdp_certificate(QpRatioInstance(gap.n, entries, gap.bipartition))

    def test_rejects_missing_cross_pair(self):
        gap = gen_bipartite_gap(4, seed=7)
        with pytest.raises(ValidationError, match="not a complete"):
            gen_gap_sdp_certificate(QpRatioInstance(gap.n, gap.entries[1:], gap.bipartition))


class TestPlanted:
    def test_shape_and_determinism(self):
        params = PlantedParams(n=100, seed=4)
        inst, a = gen_planted(params)
        assert inst.n == 100 + params.r
        assert inst.bipartition == (tuple(range(100)), tuple(range(100, inst.n)))
        inst2, a2 = gen_planted(params)
        assert inst.entries == inst2.entries and a.values == a2.values

    def test_planted_value_identity_and_concentration(self):
        params = PlantedParams(n=400, seed=9)
        inst, a = gen_planted(params)
        val = eval_qp_ratio(inst, a)
        # every planted-to-right edge contributes +2; the value equals
        # 2 * #edges(P_L, V_R) / (planted_size + r) exactly
        planted = [i for i in range(params.n) if a.values[i] != 0]
        edge_count = sum(1 for i, j, _ in inst.entries if i in set(planted))
        assert val.numerator == pytest.approx(2.0 * edge_count)
        assert val.denominator == params.planted_size + params.r
        mean = params.planted_size * params.r * params.p
        sigma = math.sqrt(mean * (1 - params.p))
        assert abs(edge_count - mean) <= 5 * sigma

    def test_nonplanted_weights_centered(self):
        params = PlantedParams(n=400, p=0.2, seed=2)
        inst, a = gen_planted(params)
        planted = {i for i in range(params.n) if a.values[i] != 0}
        ws = [w for i, j, w in inst.entries if i not in planted]
        assert len(ws) > 100
        assert abs(np.mean(ws)) <= 5.0 / math.sqrt(len(ws))


class TestLevelGraph:
    def test_sizes_eps_half(self):
        params = LevelGraphParams(eps=0.5)
        assert params.level_sizes() == [2, 4, 8, 16]
        inst = gen_level_graph(params)
        assert inst.n == 30

    def test_witness_closed_form_matches_explicit(self):
        for eps in (0.5, 1 / 3):
            params = LevelGraphParams(eps=eps)
            inst = gen_level_graph(params)
            x = level_graph_witness_vector(params)
            direct = eval_weighted(inst, x, degrees(inst))
            closed = level_graph_witness_value(params)
            assert closed.numerator == pytest.approx(direct.numerator, rel=1e-12)
            assert closed.denominator == pytest.approx(direct.denominator, rel=1e-12)
            assert closed.value > 0

    def test_all_equal_signs_nonpositive(self):
        inst = gen_level_graph(LevelGraphParams(eps=0.5))
        v = eval_qp_ratio(inst, [1] * inst.n)
        assert v.numerator <= 0

    def test_entry_cap_refusal(self):
        with pytest.raises(BudgetExceeded):
            gen_level_graph(LevelGraphParams(eps=0.25))

    def test_bad_eps_rejected(self):
        with pytest.raises(Exception):
            LevelGraphParams(eps=0.9)


class TestCheckExpr1:
    def test_single_spike_is_minus_one(self):
        g = [0.0] * 16
        g[3] = 1.0
        ratio, holds = check_expr1(g, 4, 16)
        assert ratio == pytest.approx(-1.0)
        assert holds

    def test_balanced_profile(self):
        m, M = 16, 4
        g = [M ** (-i) for i in range(1, m + 1)]
        ratio, holds = check_expr1(g, M, m)
        eps = 1.0 / M
        expected = (-m + (1 + 2 * eps) * (m - 1)) / sum(float(M) ** i for i in range(1, m + 1))
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert holds

    def test_random_profiles(self):
        for M, m in ((4, 16), (8, 16), (4, 25)):
            rng = rng_for(17, M, m)
            for _ in range(500):
                ratio, holds = check_expr1(rng.uniform(0, 1, m), M, m)
                assert holds, (M, m, ratio)

    def test_all_zero_rejected(self):
        with pytest.raises(Exception):
            check_expr1([0.0] * 16, 4, 16)


def reference_gen_apx_gadget(n, edges, d, meta):
    """The gadget built as one (i, j, w) triple per track edge, clique pair and graph edge."""
    a0, b0, c0, d0, e0 = 0, n, 2 * n, 3 * n, 4 * n
    entries = []
    dw = float(d)
    for i in range(n):
        entries.append((a0 + i, b0 + i, dw))
        entries.append((b0 + i, c0 + i, dw))
        entries.append((c0 + i, d0 + i, dw))
        entries.append((d0 + i, e0 + i, dw))
        entries.append((a0 + i, e0 + i, -dw))
    clique_w = 10.0 * d / n
    if clique_w != 0.0:
        for i in range(n):
            for j in range(i + 1, n):
                entries.append((a0 + i, a0 + j, clique_w))
                entries.append((e0 + i, e0 + j, clique_w))
    for u, v in sorted({(min(u, v), max(u, v)) for u, v in edges}):
        entries.append((c0 + u, c0 + v, -1.0))
    return QpRatioInstance(5 * n, tuple(entries), meta=meta)


# outer 5-cycle, inner pentagram, spokes
PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
)


class TestApxGadget:
    def test_plain_five_cycle_optimum(self):
        # one track, no cliques or graph edges: 3^5 enumeration gives 6/4
        inst = gen_apx_gadget(1, [], 1)
        a, v = brute_force_qp_ratio(inst)
        assert v.value == pytest.approx(1.5)
        assert a.support == 4

    def test_structure_counts_two_tracks(self):
        inst = gen_apx_gadget(2, [(0, 1)], 1)
        assert inst.n == 10
        assert len(inst.entries) == 13  # 10 cycle + 2 clique + 1 graph edge

    def test_non_regular_rejected(self):
        with pytest.raises(Exception):
            gen_apx_gadget(3, [(0, 1)], 1)

    def test_matches_the_triple_loop(self):
        # cycles on n >= 3 vertices, no edges below that, a weightless
        # gadget (d = 0: no cliques) and the 3-regular Petersen graph
        cases = [(n, [(i, (i + 1) % n) for i in range(n)] if n >= 3 else [], 2) for n in range(1, 40)]
        cases += [(4, [], 0), (10, PETERSEN, 3), (10, [(v, u) for u, v in reversed(PETERSEN)], 3)]
        for n, edges, d in cases:
            inst = gen_apx_gadget(n, edges, d)
            want = reference_gen_apx_gadget(n, edges, d, inst.meta)
            assert instance_to_bytes(inst) == instance_to_bytes(want)

    def test_planted_value_tracks_cut_fraction(self):
        n, d = 32, 2
        edges = [(i, (i + 1) % n) for i in range(n)]
        inst = gen_apx_gadget(n, edges, d)
        cut = [1 if i % 2 == 0 else -1 for i in range(n)]  # even cycle: all edges cut
        a = apx_planted_assignment(n, cut)
        v = eval_qp_ratio(inst, a)
        theta = 1.0
        predicted_half_sum = (12.5 + theta) * n * d
        assert abs(v.numerator / 2.0 - predicted_half_sum) <= 0.05 * predicted_half_sum
        assert a.support == 4 * n


class TestRandomInstance:
    def test_determinism_and_validation(self):
        a = random_instance(8, seed=3)
        b = random_instance(8, seed=3)
        assert a.entries == b.entries
        assert isinstance(a, QpRatioInstance)

    def test_density(self):
        sparse = random_instance(20, seed=1, density=0.2)
        assert len(sparse.entries) < 190
