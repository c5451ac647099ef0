import dataclasses
import json

import numpy as np
import pytest

from qpratio.core import (
    Assignment,
    DimensionMismatch,
    EntryArrays,
    FractionalAssignment,
    ParseError,
    QpIntermediateInstance,
    QpRatioInstance,
    RatioValue,
    ValidationError,
    _keep_better,
    degrees,
    eval_normalized_qp_ratio,
    eval_qp_intermediate,
    eval_qp_ratio,
    eval_weighted,
    instance_from_bytes,
    instance_to_bytes,
    restrict,
    trivial_solution,
)
from qpratio.generators import gen_bipartite_gap, gen_star, random_instance
from qpratio.util import rng_for


def reference_normalize(n, entries):
    """The per-entry canonicalizer that the array path replaced, kept as the
    reference for inputs whose meaning did not change."""
    seen = set()
    out = []
    for idx, ent in enumerate(entries):
        try:
            i, j, w = ent
            i, j, w = int(i), int(j), float(w)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"entry {idx}: expected numeric (i, j, w), got {ent!r}") from exc
        if i == j:
            raise ValidationError(f"entry {idx}: diagonal pair ({i},{j}) is not allowed")
        if i > j:
            i, j = j, i
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"entry {idx}: index pair ({i},{j}) outside [0,{n})")
        if not np.isfinite(w):
            raise ValidationError(f"entry {idx}: weight {w!r} is not finite")
        if (i, j) in seen:
            raise ValidationError(f"entry {idx}: duplicate pair ({i},{j})")
        seen.add((i, j))
        out.append((i, j, w))
    out.sort(key=lambda e: (e[0], e[1]))
    return tuple(out)


def outcome(fn, *args):
    """The canonical entries a call returns, or the class and message it raises."""
    try:
        return "ok", fn(*args)
    except ValidationError as exc:
        return "raised", type(exc), str(exc)


def random_entry_list(rng, n):
    """Shuffled entries with reversed pairs, repeats, stray indices and
    non-finite weights mixed in at low rates."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    entries = []
    for i, j in pairs[: int(rng.integers(0, len(pairs) + 1))]:
        w = float(rng.normal())
        roll = rng.random()
        if roll < 0.02:
            w = [float("nan"), float("inf"), -float("inf")][int(rng.integers(3))]
        elif roll < 0.04:
            i = int(rng.choice([-1, n, n + 3, j]))
        elif roll < 0.06 and entries:
            i, j = entries[int(rng.integers(len(entries)))][:2]
        elif roll < 0.07:
            entries.append([None, (i, j), ("x", j, w), (float("nan"), j, w)][int(rng.integers(4))])
            continue
        if rng.random() < 0.5:
            i, j = j, i
        if rng.random() < 0.3:
            i, j = np.int64(i), np.int32(j)
        entries.append((i, j, w))
    return entries


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

    @pytest.mark.parametrize(
        "x",
        [[float("nan"), 0, 1], [float("inf"), 0, 1], [float("-inf"), 0, 1], ["a", 0, 1], [None, 0, 1]],
        ids=["nan", "inf", "minus-inf", "string", "none"],
    )
    def test_non_numeric_component_refused(self, x):
        with pytest.raises(ValidationError, match="assignment component 0"):
            eval_qp_ratio(gen_star(2), x)


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


class TestEvalWeighted:
    def test_unit_and_degree_weights_are_the_two_evaluators(self):
        inst = random_instance(9, seed=4)
        rng = rng_for(12)
        for _ in range(20):
            a = Assignment(tuple(rng.integers(-1, 2, 9).tolist()))
            assert eval_weighted(inst, a, np.ones(9)) == eval_qp_ratio(inst, a)
            assert eval_weighted(inst, a, degrees(inst)) == eval_normalized_qp_ratio(inst, a)

    def test_real_vector_and_weights(self):
        inst = single_edge(2.0)
        val = eval_weighted(inst, [0.5, -1.0], [4.0, 1.0])
        assert (val.numerator, val.denominator) == (-2.0, 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_refused(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            eval_weighted(gen_star(3), [bad, 1.0, 0.0, 0.0], degrees(gen_star(3)))

    @pytest.mark.parametrize("weights", [[1.0, -1.0], [1.0, np.nan], [1.0, np.inf], [1.0], [1.0, 1.0, 1.0]])
    def test_bad_weights_refused(self, weights):
        with pytest.raises(ValidationError, match="weights"):
            eval_weighted(single_edge(1.0), [1.0, 1.0], weights)

    @pytest.mark.parametrize("x", [["1", "0"], np.array([1, None], dtype=object)])
    def test_non_real_vector_refused(self, x):
        with pytest.raises(ValidationError, match="real numbers"):
            eval_weighted(single_edge(1.0), x, [1.0, 1.0])

    @pytest.mark.parametrize("x", [[1.0], [1.0, 1.0, 0.0]])
    def test_wrong_length_refused(self, x):
        with pytest.raises(DimensionMismatch, match=f"vector has length {len(x)}, expected 2"):
            eval_weighted(single_edge(1.0), x, [1.0, 1.0])


class TestKeepBetter:
    def test_none_takes_the_first_candidate(self):
        inst = single_edge(-1.0)
        a, val = _keep_better(inst, None, np.array([1, 1]), np.ones(2))
        assert a == Assignment((1, 1))
        assert val.value == -1.0

    def test_a_tie_keeps_the_incumbent(self):
        inst = single_edge(1.0)
        best = (Assignment((1, 1)), eval_qp_ratio(inst, (1, 1)))
        got = _keep_better(inst, best, np.array([-1, -1]), np.ones(2))
        assert got is best
        lower = _keep_better(inst, best, np.array([1, -1]), np.ones(2))
        assert lower is best

    def test_winner_is_x_with_its_weighted_value(self):
        inst = random_instance(9, seed=4)
        rng = rng_for(13)
        floor = (Assignment((0,) * 9), RatioValue.of(0.0, 0.0))
        wins = 0
        for weights in (np.ones(9), degrees(inst)):
            for _ in range(30):
                x = rng.integers(-1, 2, 9)
                a, val = _keep_better(inst, floor, x, weights)
                if a is floor[0]:
                    assert val.value <= 0.0
                    continue
                wins += 1
                assert a.values == tuple(x.tolist())
                assert val == eval_weighted(inst, a, weights) == eval_weighted(inst, x, weights)
        assert wins > 0


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

    @pytest.mark.parametrize(
        "values",
        [["1", "0", "-1"], [b"1", b"0", b"-1"], np.array(["1", "0", "-1"]), [1, "0", -1], ("-1", -1, 1)],
    )
    def test_assignment_strings_refused(self, values):
        # float("1") parses, so these would score as (1, 0, -1)
        with pytest.raises(ValidationError, match="not a number"):
            eval_qp_ratio(gen_star(2), values)

    def test_numeric_assignments_still_coerce(self):
        assert Assignment.coerce([1.0, np.int64(0), np.int8(-1)]).values == (1, 0, -1)

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

    def test_equality_and_hash_without_the_entries_tuple(self):
        neg = QpRatioInstance(4, ((0, 1, -0.0), (2, 3, 1.0)))
        pos = QpRatioInstance(4, ((2, 3, 1.0), (0, 1, 0.0)))
        ratio = QpRatioInstance(4, self.ENTRIES)
        inter = QpIntermediateInstance(4, self.ENTRIES, (0.0,) * 4)
        assert neg == pos and hash(neg) == hash(pos) and {neg: "x"}[pos] == "x"
        assert ratio != inter and inter != ratio
        assert inter == QpIntermediateInstance(4, self.ENTRIES, (-0.0,) * 4)
        assert inter != QpIntermediateInstance(4, self.ENTRIES, (0.0, 0.0, 0.0, -1.0))
        assert ratio != QpRatioInstance(4, self.ENTRIES[:2])
        assert ratio != QpRatioInstance(5, self.ENTRIES)
        assert ratio != QpRatioInstance(4, ((0, 1, 1.5), (0, 3, -2.0), (2, 3, 0.5)))
        assert QpRatioInstance(3, ((0, 2, 1.0),), ((0,), (2,))) != QpRatioInstance(3, ((0, 2, 1.0),), ((0, 1), (2,)))
        with_meta = QpRatioInstance(4, self.ENTRIES, meta={"seed": 1})
        assert with_meta == QpRatioInstance(4, self.ENTRIES, meta={"seed": 1}) != ratio
        with pytest.raises(TypeError):
            hash(with_meta)
        for inst in (neg, pos, ratio, inter, with_meta):
            assert "_entries_tuple" not in inst.__dict__

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
        assert eval_weighted(inst, a.to_array(), degrees(inst)).value == pytest.approx(
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


class TestCanonicalEntries:
    def test_matches_the_reference_canonicalizer(self):
        rng = rng_for(16)
        raised = 0
        for trial in range(400):
            n = int(rng.integers(2, 9))
            entries = random_entry_list(rng, n)
            want = outcome(reference_normalize, n, entries)
            got = outcome(lambda: QpRatioInstance(n, entries).entries)
            assert got == want, (n, entries)
            raised += want[0] == "raised"
        assert 40 < raised < 360  # both outcomes are well represented

    def test_array_input_matches_triples(self):
        rng = rng_for(17)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            entries = [
                e
                for e in random_entry_list(rng, n)
                if isinstance(e, tuple) and len(e) == 3 and not isinstance(e[0], (str, float))
            ]
            cols = EntryArrays(
                np.array([e[0] for e in entries], dtype=np.int64),
                np.array([e[1] for e in entries], dtype=np.int64),
                np.array([e[2] for e in entries], dtype=np.float64),
            )
            assert outcome(lambda: QpRatioInstance(n, cols).entries) == outcome(
                lambda: QpRatioInstance(n, entries).entries
            )

    def test_arrays_are_canonical_and_read_only(self):
        inst = QpRatioInstance(4, [(3, 2, 0.25), (1, 0, 1.5), (0, 3, -2.0)])
        ii, jj, ww = inst.arrays
        assert (ii.dtype, jj.dtype, ww.dtype) == (np.int64, np.int64, np.float64)
        assert ii.tolist() == [0, 0, 2] and jj.tolist() == [1, 3, 3] and ww.tolist() == [1.5, -2.0, 0.25]
        with pytest.raises(ValueError):
            ww[0] = 7.0

    def test_caller_arrays_are_copied(self):
        ww = np.array([1.0, 2.0])
        inst = QpRatioInstance(3, EntryArrays(np.array([0, 1]), np.array([1, 2]), ww))
        ww[0] = 9.0
        assert inst.entries == ((0, 1, 1.0), (1, 2, 2.0))
        assert ww.flags.writeable

    def test_degrees_match_the_entry_order_sum(self):
        inst = random_instance(30, seed=4, density=0.5)
        d = np.zeros(inst.n)
        for i, j, w in inst.entries:
            d[i] += abs(w)
        for i, j, w in inst.entries:
            d[j] += abs(w)
        assert np.array_equal(degrees(inst), d)
        assert degrees(inst) is degrees(inst)

    def test_trivial_solution_tie_break(self):
        # equal |weight| on (0, 2) and (1, 2): the first in (i, j) order wins
        inst = QpRatioInstance(3, ((1, 2, -2.0), (0, 2, 2.0), (0, 1, 1.0)))
        a, v = trivial_solution(inst)
        assert a.values == (1, 0, 1)
        assert v == eval_qp_ratio(inst, a)
        neg = QpRatioInstance(3, ((1, 2, -2.0), (0, 1, 1.0)))
        a, v = trivial_solution(neg)
        assert a.values == (0, 1, -1) and v == eval_qp_ratio(neg, a)

    def test_trivial_solution_zero_weights(self):
        inst = QpRatioInstance(3, ((0, 1, -0.0), (1, 2, 0.0)))
        a, v = trivial_solution(inst)
        assert v == eval_qp_ratio(inst, a) and v.value == 0.0


class TestCoercionRefused:
    """Inputs that used to be coerced silently are refused, naming the entry."""

    @pytest.mark.parametrize(
        "entry",
        [(0.7, 2, 1.0), (0, 2.5, 1.0), (True, 2, 1.0), (0, np.True_, 1.0), (0, 2, True), (0, 2, np.False_)],
        ids=["fractional-i", "fractional-j", "bool-i", "numpy-bool-j", "bool-weight", "numpy-bool-weight"],
    )
    def test_entry_refused(self, entry):
        with pytest.raises(ParseError, match=r"^entry 1: expected integer indices and a non-bool weight"):
            QpRatioInstance(3, [(0, 1, 1.0), entry])

    def test_numeric_string_refused(self):
        with pytest.raises(ParseError, match=r"^entry 0: expected numeric"):
            QpRatioInstance(3, [("0", 2, 1.0)])

    def test_an_earlier_invalid_entry_is_named_first(self):
        with pytest.raises(ValidationError, match=r"^entry 0: diagonal pair"):
            QpRatioInstance(3, [(1, 1, 1.0), (0.5, 2, 1.0)])

    def test_large_integer_index_kept_exact(self):
        inst = QpRatioInstance(2**60, [(0, 2**53 + 1, 1.0)])
        assert inst.entries == ((0, 2**53 + 1, 1.0),)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([(0, 10**30, 1.0)], f"entry 0: index pair (0,{10**30}) outside [0,5)"),
            ([(-(10**20), 2, 1.0)], f"entry 0: index pair ({-(10**20)},2) outside [0,5)"),
            ([(10**30, 10**30, 1.0)], f"entry 0: diagonal pair ({10**30},{10**30}) is not allowed"),
            ([(0, 1, 1.0), (1, 7, 1.0), (0, 10**30, 1.0)], "entry 1: index pair (1,7) outside [0,5)"),
            ([(0, 1, 1.0), (0, 10**30, 1.0), (1, 1, 1.0)], f"entry 1: index pair (0,{10**30}) outside [0,5)"),
        ],
        ids=["past-int64", "below-int64", "diagonal-past-int64", "earlier-entry-first", "before-later-entry"],
    )
    def test_out_of_range_message_names_the_input_index(self, entries, message):
        with pytest.raises(ValidationError) as exc:
            QpRatioInstance(5, entries)
        assert str(exc.value) == message
        assert outcome(reference_normalize, 5, entries) == ("raised", ValidationError, message)

    def test_numpy_and_integral_values_accepted(self):
        inst = QpRatioInstance(3, [(np.int64(0), np.int32(2), np.float32(1.5)), (1.0, 2, 3)])
        assert inst.entries == ((0, 2, 1.5), (1, 2, 3.0))

    def test_bool_size_refused(self):
        with pytest.raises(ValidationError, match="positive integer"):
            QpRatioInstance(True, ())

    @pytest.mark.parametrize(
        "obj, needle",
        [
            ({"kind": "qp_ratio", "n": 3, "entries": [[True, 2, 1.0]]}, "entry 0"),
            ({"kind": "qp_ratio", "n": 3, "entries": [[0, 2, True]]}, "entry 0"),
            ({"kind": "qp_ratio", "n": True, "entries": []}, "positive integer"),
        ],
        ids=["bool-index", "bool-weight", "bool-n"],
    )
    def test_json_refused(self, obj, needle):
        with pytest.raises(ValidationError, match=needle):
            instance_from_bytes(json.dumps(obj).encode())

    def test_restrict_refuses_fractional_and_outside_indices(self):
        inst = QpRatioInstance(3, ((0, 1, 1.0), (1, 2, 2.0)))
        with pytest.raises(ValidationError, match="integer indices"):
            restrict(inst, [0, 1.9])
        with pytest.raises(ValidationError, match="integer indices"):
            restrict(inst, [True, 2])
        with pytest.raises(ValidationError, match="outside"):
            restrict(inst, [0, 3])
        sub, kept = restrict(inst, np.array([2, 1], dtype=np.int32))
        assert kept.tolist() == [1, 2] and sub.entries == ((0, 1, 2.0),)

    def test_bipartition_refuses_fractional_indices(self):
        with pytest.raises(ParseError, match="bipartition side"):
            QpRatioInstance(3, ((0, 2, 1.0),), ((0, 1.5), (2,)))
