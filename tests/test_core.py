import dataclasses
import json

import numpy as np
import pytest

from qpratio.core import (
    Assignment,
    DimensionMismatch,
    FractionalAssignment,
    ParseError,
    QpIntermediateInstance,
    QpRatioInstance,
    RatioValue,
    ValidationError,
    degrees,
    eval_normalized_fractional,
    eval_normalized_qp_ratio,
    eval_qp_intermediate,
    eval_qp_ratio,
    instance_from_bytes,
    instance_to_bytes,
    restrict,
    trivial_solution,
)
from qpratio.generators import gen_bipartite_gap, gen_star, random_instance
from qpratio.util import rng_for


def single_edge(w=1.0):
    return QpRatioInstance(2, ((0, 1, w),))


class TestEvalQpRatio:
    def test_positive_edge(self):
        v = eval_qp_ratio(single_edge(1.0), (1, 1))
        assert (v.numerator, v.denominator, v.value) == (2.0, 2.0, 1.0)

    def test_negative_edge_sign_match(self):
        assert eval_qp_ratio(single_edge(-1.0), (1, -1)).value == 1.0

    def test_star_all_ones(self):
        star = gen_star(5)
        v = eval_qp_ratio(star, [1] * 6)
        assert (v.numerator, v.denominator) == (10.0, 6.0)
        assert v.value == pytest.approx(10 / 6)

    def test_all_zero_is_zero_not_error(self):
        assert eval_qp_ratio(single_edge(), (0, 0)).value == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_qp_ratio(single_edge(), (1, 1, 1))


class TestEvalNormalized:
    def test_negative_edge(self):
        assert eval_normalized_qp_ratio(single_edge(-1.0), (1, -1)).value == 1.0

    def test_star_all_ones(self):
        # degrees (5,1,1,1,1,1): denominator 10 matches the numerator
        assert eval_normalized_qp_ratio(gen_star(5), [1] * 6).value == 1.0

    def test_all_zero(self):
        assert eval_normalized_qp_ratio(gen_star(3), [0] * 4).value == 0.0

    def test_matches_plain_on_unit_degrees(self):
        # perfect matching: every degree is 1
        inst = QpRatioInstance(4, ((0, 1, 1.0), (2, 3, -1.0)))
        for a in [(1, 1, 0, 0), (1, 1, 1, -1), (0, 1, 1, 1)]:
            assert eval_normalized_qp_ratio(inst, a).value == eval_qp_ratio(inst, a).value


class TestEvalIntermediate:
    def test_offdiag_ones(self):
        inst = QpIntermediateInstance(2, ((0, 1, 1.0),), (0.0, 0.0))
        v = eval_qp_intermediate(inst, (1.0, 1.0))
        assert (v.numerator, v.denominator, v.value) == (2.0, 2.0, 1.0)

    def test_pure_negative_diagonal(self):
        inst = QpIntermediateInstance(1, (), (-1.0,))
        assert eval_qp_intermediate(inst, (1.0,)).value == -1.0

    def test_diagonal_against_offdiagonal(self):
        # full symmetric sum: the pair contributes 2*w*x_i*x_j = 0.5, the
        # diagonal -0.25, so the ratio is 0.25
        inst = QpIntermediateInstance(2, ((0, 1, 1.0),), (-0.5, -0.5))
        v = eval_qp_intermediate(inst, (0.5, 0.5))
        assert v.numerator == pytest.approx(0.25)
        assert v.denominator == 1.0
        assert v.value == pytest.approx(0.25)

    def test_out_of_range_rejected(self):
        inst = QpIntermediateInstance(1, (), (0.0,))
        with pytest.raises(ValidationError):
            eval_qp_intermediate(inst, (1.5,))


class TestDegrees:
    def test_star(self):
        assert degrees(gen_star(5)).tolist() == [5, 1, 1, 1, 1, 1]

    def test_empty(self):
        assert degrees(QpRatioInstance(3, ())).tolist() == [0, 0, 0]

    def test_mixed_signs(self):
        inst = QpRatioInstance(3, ((0, 1, 2.0), (1, 2, -3.0)))
        assert degrees(inst).tolist() == [2, 5, 3]


class TestInstanceValidation:
    def test_diagonal_entry_rejected(self):
        with pytest.raises(ValidationError):
            QpRatioInstance(2, ((1, 1, 1.0),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            QpRatioInstance(2, ((0, 2, 1.0),))

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            QpRatioInstance(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            QpRatioInstance(2, ((0, 1, float("nan")),))

    def test_entries_normalized_sorted(self):
        inst = QpRatioInstance(3, ((2, 1, 1.0), (1, 0, 2.0)))
        assert inst.entries == ((0, 1, 2.0), (1, 2, 1.0))

    def test_bipartition_cross_check(self):
        with pytest.raises(ValidationError):
            QpRatioInstance(3, ((0, 1, 1.0),), bipartition=((0, 1), (2,)))

    def test_repeated_bipartition_index_rejected(self):
        with pytest.raises(ValidationError, match="index 0 appears twice"):
            QpRatioInstance(3, ((0, 1, 1.0),), ((0, 0), (1,)))
        with pytest.raises(ValidationError, match="index 2 appears twice"):
            QpRatioInstance(3, ((0, 1, 1.0),), ((0,), (1, 2, 2)))

    def test_positive_diag_rejected(self):
        with pytest.raises(ValidationError):
            QpIntermediateInstance(2, (), (0.0, 0.1))

    def test_assignment_values(self):
        with pytest.raises(ValidationError):
            Assignment((0, 2))
        with pytest.raises(ValidationError):
            FractionalAssignment((1.5,))

    def test_ratio_value_zero_denominator(self):
        assert RatioValue.of(0.0, 0.0).value == 0.0


class TestInstanceBase:
    ENTRIES = ((0, 1, 1.5), (0, 3, -2.0), (2, 3, 0.25))

    def test_to_dense_of_both_kinds(self):
        want = np.zeros((4, 4))
        for i, j, w in self.ENTRIES:
            want[i, j] = w
            want[j, i] = w
        assert np.array_equal(QpRatioInstance(4, self.ENTRIES).to_dense(), want)
        diag = (-1.0, 0.0, -0.5, -3.0)
        for k, v in enumerate(diag):
            want[k, k] = v
        assert np.array_equal(QpIntermediateInstance(4, self.ENTRIES, diag).to_dense(), want)

    def test_kinds_never_equal(self):
        ratio = QpRatioInstance(4, self.ENTRIES)
        inter = QpIntermediateInstance(4, self.ENTRIES, (0.0,) * 4)
        assert ratio.entries == inter.entries
        assert ratio != inter and inter != ratio

    def test_entries_are_a_hashable_tuple(self):
        inst = QpRatioInstance(4, [[3, 2, 0.25], [0, 1, 1.5], [0, 3, -2.0]])
        assert isinstance(inst.entries, tuple)
        assert {inst.entries: "x"}[self.ENTRIES] == "x"

    def test_positional_field_order(self):
        assert [f.name for f in dataclasses.fields(QpRatioInstance)] == ["n", "entries", "bipartition", "meta"]
        assert [f.name for f in dataclasses.fields(QpIntermediateInstance)] == ["n", "entries", "diag", "meta"]

    def test_to_dense_refused_above_5000(self):
        with pytest.raises(ValidationError, match="n=5001"):
            QpRatioInstance(5001, ()).to_dense()


class TestSerialization:
    def test_round_trip_star(self):
        star = gen_star(5)
        again = instance_from_bytes(instance_to_bytes(star))
        assert again == star

    def test_round_trip_bipartite_and_meta(self):
        inst = QpRatioInstance(
            3, ((0, 2, 1.5),), bipartition=((0, 1), (2,)), meta={"family": "x", "seed": 1}
        )
        again = instance_from_bytes(instance_to_bytes(inst))
        assert again == inst

    def test_round_trip_intermediate(self):
        inst = QpIntermediateInstance(2, ((0, 1, -0.25),), (-1.0, 0.0), meta={"m": 3})
        assert instance_from_bytes(instance_to_bytes(inst)) == inst

    def test_diagonal_entry_file_rejected(self):
        raw = json.dumps({"kind": "qp_ratio", "n": 2, "entries": [[1, 1, 1.0]]}).encode()
        with pytest.raises(ValidationError):
            instance_from_bytes(raw)

    def test_index_bound_file_rejected(self):
        raw = json.dumps({"kind": "qp_ratio", "n": 2, "entries": [[0, 2, 1.0]]}).encode()
        with pytest.raises(ValidationError):
            instance_from_bytes(raw)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            instance_from_bytes(b"{nope")

    def test_missing_field_named(self):
        with pytest.raises(ParseError, match="entries"):
            instance_from_bytes(json.dumps({"kind": "qp_ratio", "n": 2}).encode())

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            instance_from_bytes(json.dumps({"kind": "qpx", "n": 1, "entries": []}).encode())


class TestProperties:
    def test_sign_flip_symmetry(self):
        rng = rng_for(5)
        for seed in range(10):
            inst = random_instance(6, seed=seed)
            a = Assignment(tuple(int(v) for v in rng.integers(-1, 2, 6)))
            assert eval_qp_ratio(inst, a).value == eval_qp_ratio(inst, a.negated()).value

    def test_scale_equivariance(self):
        inst = random_instance(5, seed=3)
        scaled = QpRatioInstance(5, tuple((i, j, 4.0 * w) for i, j, w in inst.entries))
        a = (1, -1, 0, 1, 1)
        assert eval_qp_ratio(scaled, a).value == pytest.approx(4.0 * eval_qp_ratio(inst, a).value)
        # the normalized objective is scale-invariant: degrees absorb the factor
        assert eval_normalized_qp_ratio(scaled, a).value == pytest.approx(
            eval_normalized_qp_ratio(inst, a).value
        )

    def test_denominator_is_support(self):
        inst = random_instance(6, seed=9)
        for vals in [(1, 0, 0, -1, 1, 0), (0,) * 6, (1,) * 6]:
            a = Assignment(vals)
            assert eval_qp_ratio(inst, a).denominator == a.support

    def test_trivial_solution_value(self):
        inst = QpRatioInstance(4, ((0, 1, 0.5), (1, 2, -2.0), (2, 3, 1.0)))
        a, v = trivial_solution(inst)
        assert v.value == 2.0
        assert a.support == 2

    def test_trivial_solution_empty(self):
        a, v = trivial_solution(QpRatioInstance(3, ()))
        assert v.value == 0.0 and a.support == 0

    def test_fractional_evaluator_matches_integer(self):
        inst = random_instance(5, seed=1)
        a = Assignment((1, -1, 0, 1, -1))
        assert eval_normalized_fractional(inst, a.to_array()).value == pytest.approx(
            eval_normalized_qp_ratio(inst, a).value
        )

    def test_restrict_keeps_crossing_entries(self):
        inst = QpRatioInstance(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)))
        sub, kept = restrict(inst, [1, 2, 3])
        assert kept.tolist() == [1, 2, 3]
        assert sub.entries == ((0, 1, 2.0), (1, 2, 3.0))

    def test_restrict_remaps_bipartition(self):
        gap = gen_bipartite_gap(4, seed=3)  # left (0, 1), right (2, 3, 4, 5)
        sub, kept = restrict(gap, [5, 1, 3])
        assert kept.tolist() == [1, 3, 5]
        assert sub.bipartition == ((0,), (1, 2))
        weights = {(i, j): w for i, j, w in gap.entries}
        assert sub.entries == ((0, 1, weights[(1, 3)]), (0, 2, weights[(1, 5)]))
