"""Instance and assignment data model, objective evaluation, serialization.

Every objective shares one numerator convention: the quadratic form is the
full symmetric sum over ordered pairs, so a stored entry (i, j, w) with i < j
contributes 2*w*x_i*x_j.  The ratio denominators are

  * weighted ratio:    sum_i w_i x_i^2 (eval_weighted), w = 1 for the plain
    ratio and the degrees d_i = sum_j |a_ij| for the normalized one,
  * intermediate form: sum_i |x_i|   over fractional x in [-1, 1]^n.

All types are immutable after construction and all evaluators are pure.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np


class ValidationError(ValueError):
    """An instance, assignment, or parameter violates an invariant."""


class DimensionMismatch(ValidationError):
    """An assignment's length does not match the instance size."""


class ParseError(ValidationError):
    """A serialized instance file is malformed."""


class BudgetExceeded(RuntimeError):
    """The requested enumeration is over the configured budget."""


@dataclass(frozen=True)
class RatioValue:
    """Numerator/denominator pair with the ratio (0 when the denominator is 0)."""

    numerator: float
    denominator: float
    value: float

    @classmethod
    def of(cls, numerator: float, denominator: float) -> "RatioValue":
        num = float(numerator)
        den = float(denominator)
        if den < 0:
            raise ValidationError(f"ratio denominator must be nonnegative, got {den}")
        return cls(num, den, num / den if den != 0.0 else 0.0)


@dataclass(frozen=True)
class Assignment:
    """A vector in {-1, 0, 1}^n."""

    values: tuple[int, ...]

    def __post_init__(self):
        for k, v in enumerate(self.values):
            if v not in (-1, 0, 1):
                raise ValidationError(f"assignment component {k} is {v!r}, not in {{-1,0,1}}")

    @classmethod
    def coerce(cls, obj, n: Optional[int] = None) -> "Assignment":
        if isinstance(obj, Assignment):
            a = obj
        else:
            vals = []
            for k, v in enumerate(np.asarray(obj).ravel().tolist()):
                # float() parses "1" and b"1"; a string is never a component
                if isinstance(v, (str, bytes)):
                    raise ValidationError(f"assignment component {k} is {v!r}, not a number")
                try:
                    iv = int(round(float(v)))
                except (TypeError, ValueError, OverflowError):
                    raise ValidationError(f"assignment component {k} is {v!r}, not in {{-1,0,1}}") from None
                if iv != v and abs(iv - float(v)) > 1e-12:
                    raise ValidationError(f"assignment component {v!r} is not integral")
                vals.append(iv)
            a = cls(tuple(vals))
        if n is not None and a.n != n:
            raise DimensionMismatch(f"assignment has length {a.n}, instance has n={n}")
        return a

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def support(self) -> int:
        return sum(1 for v in self.values if v != 0)

    def to_array(self) -> np.ndarray:
        return np.array(self.values, dtype=np.float64)

    def negated(self) -> "Assignment":
        return Assignment(tuple(-v for v in self.values))


@dataclass(frozen=True)
class FractionalAssignment:
    """A vector in [-1, 1]^n."""

    values: tuple[float, ...]

    def __post_init__(self):
        for k, v in enumerate(self.values):
            if not np.isfinite(v) or v < -1.0 - 1e-12 or v > 1.0 + 1e-12:
                raise ValidationError(f"fractional component {k} is {v!r}, outside [-1,1]")

    @classmethod
    def coerce(cls, obj, n: Optional[int] = None) -> "FractionalAssignment":
        if isinstance(obj, FractionalAssignment):
            x = obj
        elif isinstance(obj, Assignment):
            x = cls(tuple(float(v) for v in obj.values))
        else:
            x = cls(tuple(float(v) for v in np.asarray(obj, dtype=np.float64).ravel()))
        if n is not None and len(x.values) != n:
            raise DimensionMismatch(f"vector has length {len(x.values)}, instance has n={n}")
        return x

    @property
    def n(self) -> int:
        return len(self.values)

    def to_array(self) -> np.ndarray:
        return np.array(self.values, dtype=np.float64)


class EntryArrays(NamedTuple):
    """Entries as three parallel columns: pair (i[k], j[k]) has weight w[k].

    An instance stores its entries in this form, canonical and read-only:
    int64 indices with i < j, float64 weights, sorted by (i, j).  The
    instance constructors accept it as input too, in any order and
    orientation, and validate it as they validate a sequence of triples.
    """

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray


def _is_real_type(t: type) -> bool:
    return issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_))


def _entry_problem(ent) -> Optional[str]:
    """Why an input entry is not an (integer, integer, real) triple, or None."""
    try:
        i, j, w = ent
    except (TypeError, ValueError):
        return f"expected numeric (i, j, w), got {ent!r}"
    if any(isinstance(v, (bool, np.bool_)) for v in (i, j, w)):
        return f"expected integer indices and a non-bool weight, got {ent!r}"
    if not all(isinstance(v, numbers.Real) for v in (i, j, w)):
        return f"expected numeric (i, j, w), got {ent!r}"
    try:
        fi, fj, _ = float(i), float(j), float(w)
    except (ValueError, OverflowError):
        return f"expected numeric (i, j, w), got {ent!r}"
    if not (math.isfinite(fi) and math.isfinite(fj)):
        return f"expected numeric (i, j, w), got {ent!r}"
    if fi != math.trunc(fi) or fj != math.trunc(fj):
        return f"expected integer indices and a non-bool weight, got {ent!r}"
    return None


def _pair_error(k: int, i: int, j: int, n: int) -> ValidationError:
    """The error for entry k when its pair is diagonal or outside [0, n)."""
    if i == j:
        return ValidationError(f"entry {k}: diagonal pair ({i},{j}) is not allowed")
    return ValidationError(f"entry {k}: index pair ({min(i, j)},{max(i, j)}) outside [0,{n})")


_INT64 = np.iinfo(np.int64)


def _triple_columns(n: int, entries):
    """Index and weight columns of a sequence of (i, j, w) triples.

    Returns (i, j, w, error): error names the first entry that is not an
    (integer, integer, real) triple or has an index past int64 (and so
    outside [0, n)), and the columns then cover only the entries before it.
    """
    ii, jj, ww = [], [], []
    error = None
    for k, ent in enumerate(entries):
        problem = _entry_problem(ent)
        if problem is not None:
            error = ParseError(f"entry {k}: {problem}")
            break
        i, j, w = int(ent[0]), int(ent[1]), float(ent[2])
        if not (_INT64.min <= i <= _INT64.max and _INT64.min <= j <= _INT64.max):
            error = _pair_error(k, i, j, n)
            break
        ii.append(i)
        jj.append(j)
        ww.append(w)
    return np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64), np.array(ww, dtype=np.float64), error


def _array_columns(arrays: EntryArrays):
    """EntryArrays columns copied to int64, int64 and float64, with no parse error."""
    cols = [np.asarray(c) for c in arrays]
    if not (all(c.ndim == 1 for c in cols) and cols[0].size == cols[1].size == cols[2].size):
        shapes = [c.shape for c in cols]
        raise ParseError(f"entry arrays must be three 1-d arrays of one length, got shapes {shapes}")
    if cols[0].dtype.kind not in "iu" or cols[1].dtype.kind not in "iu" or cols[2].dtype.kind not in "iuf":
        dtypes = [str(c.dtype) for c in cols]
        raise ParseError(f"entry arrays need integer indices and real weights, got dtypes {dtypes}")
    return cols[0].astype(np.int64), cols[1].astype(np.int64), cols[2].astype(np.float64), None


class _CanonicalArrays(EntryArrays):
    """EntryArrays that their maker guarantees canonical (int64 0 <= i < j < n
    sorted by (i, j), finite float64 weights), taken without checks."""

    @classmethod
    def of(cls, i, j, w) -> "_CanonicalArrays":
        """The columns cast to int64, int64 and float64 and made read-only."""
        cols = cls(np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64), np.asarray(w, dtype=np.float64))
        for col in cols:
            col.setflags(write=False)
        return cols


def _canonical_entries(n: int, entries) -> EntryArrays:
    """Validate entries and return them canonical: i < j, sorted by (i, j).

    An error names the first offending input entry, checking each entry for
    its form, a diagonal pair, an index outside [0, n), a non-finite weight
    and a pair repeated from an earlier entry, in that order.
    """
    if isinstance(entries, _CanonicalArrays):
        return EntryArrays(*entries)
    if isinstance(entries, EntryArrays):
        ii, jj, ww, error = _array_columns(entries)
    else:
        ii, jj, ww, error = _triple_columns(n, entries)
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
    diag = ii == jj
    outside = (lo < 0) | (hi >= n)
    nonfinite = ~np.isfinite(ww)
    # a stable sort keeps repeated pairs in input order, so every copy after
    # the first of a pair is flagged
    order = np.lexsort((hi, lo))
    slo, shi = lo[order], hi[order]
    dup = np.zeros(ii.size, dtype=bool)
    dup[order[1:]] = (slo[1:] == slo[:-1]) & (shi[1:] == shi[:-1])
    bad = diag | outside | nonfinite | dup
    if bad.any():
        k = int(np.argmax(bad))
        i, j, w = int(ii[k]), int(jj[k]), float(ww[k])
        if diag[k] or outside[k]:
            raise _pair_error(k, i, j, n)
        if nonfinite[k]:
            raise ValidationError(f"entry {k}: weight {w!r} is not finite")
        raise ValidationError(f"entry {k}: duplicate pair ({min(i, j)},{max(i, j)})")
    if error is not None:
        raise error
    lo, hi, ww = slo, shi, ww[order]
    for col in (lo, hi, ww):
        col.setflags(write=False)
    return EntryArrays(lo, hi, ww)


def _index_array(values, what: str) -> np.ndarray:
    """Integer indices as an int64 array; bools and non-integral numbers are refused."""
    if isinstance(values, np.ndarray):
        arr = values
    else:
        values = list(values)
        if not all(_is_real_type(t) for t in set(map(type, values))):
            raise ParseError(f"{what} must be a list of integer indices, got {values!r}")
        arr = np.asarray(values)
    plain = arr.dtype.kind in "iuf" or arr.size == 0
    if arr.ndim != 1 or not plain or not np.all(np.isfinite(arr) & (arr == np.trunc(arr))):
        raise ParseError(f"{what} must be a list of integer indices, got {values!r}")
    return arr.astype(np.int64)


def _convert(values, typ, what: str) -> tuple:
    try:
        return tuple(typ(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must be a list of {typ.__name__} values, got {values!r}") from exc


# largest n that to_dense materializes (a 5000 x 5000 float64 matrix is 200 MB)
_MAX_DENSE_N = 5000


class _EntriesField:
    """The `entries` field: stored as canonical EntryArrays (`inst.arrays`),
    read as a tuple of (i, j, w) triples that is built on first read and
    then cached.  Hot paths read the arrays and never build the tuple."""

    def __get__(self, inst, owner=None):
        if inst is None:
            # no class-level value: the dataclass field has no default
            raise AttributeError("entries")
        cached = inst.__dict__.get("_entries_tuple")
        if cached is None:
            a = inst.arrays
            cached = tuple(zip(a.i.tolist(), a.j.tolist(), a.w.tolist()))
            inst.__dict__["_entries_tuple"] = cached
        return cached

    def __set__(self, inst, value):
        # only the dataclass __init__ gets here (the frozen __setattr__
        # refuses everyone else); __post_init__ canonicalizes the value
        inst.__dict__["_entries_input"] = value


@dataclass(frozen=True, eq=False)
class _SymmetricInstance:
    """Symmetric n x n matrix with its off-diagonal part stored as i < j entries.

    The constructor takes the entries as a sequence of (i, j, w) triples or
    as EntryArrays; `arrays` holds them canonical.  Two instances are equal
    when they are of one class and agree in n, the arrays and the fields
    after `entries`; neither `==` nor `hash` builds the entries tuple.
    """

    n: int
    entries: tuple[tuple[int, int, float], ...] = _EntriesField()

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValidationError(f"instance size must be a positive integer, got {self.n!r}")
        arrays = _canonical_entries(self.n, self.__dict__.pop("_entries_input"))
        object.__setattr__(self, "arrays", arrays)

    def _other_fields(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self)[2:])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.n == other.n
            and all(np.array_equal(a, b) for a, b in zip(self.arrays, other.arrays))
            and self._other_fields() == other._other_fields()
        )

    def __hash__(self):
        # + 0.0 turns a -0.0 weight into 0.0, which it equals
        i, j, w = self.arrays
        return hash((self.n, i.tobytes(), j.tobytes(), (w + 0.0).tobytes(), self._other_fields()))

    @property
    def nnz(self) -> int:
        """The number of stored entries."""
        return int(self.arrays.w.size)

    @cached_property
    def _degrees(self) -> np.ndarray:
        ii, jj, ww = self.arrays
        d = np.zeros(self.n, dtype=np.float64)
        np.add.at(d, ii, np.abs(ww))
        np.add.at(d, jj, np.abs(ww))
        d.setflags(write=False)
        return d

    def to_dense(self) -> np.ndarray:
        """The full symmetric matrix; refused above n = 5000."""
        if self.n > _MAX_DENSE_N:
            raise ValidationError(f"refusing to densify n={self.n} > {_MAX_DENSE_N}")
        a = np.zeros((self.n, self.n), dtype=np.float64)
        ii, jj, ww = self.arrays
        flat = a.ravel()
        flat[ii * self.n + jj] = ww
        flat[jj * self.n + ii] = ww
        return a


@dataclass(frozen=True, eq=False)
class QpRatioInstance(_SymmetricInstance):
    """Symmetric weight matrix with zero diagonal, stored as i < j entries."""

    bipartition: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    meta: Optional[dict] = None

    def __post_init__(self):
        super().__post_init__()
        if self.bipartition is not None:
            left, right = (tuple(_index_array(side, "bipartition side").tolist()) for side in self.bipartition)
            ls, rs = set(left), set(right)
            for side, uniq in ((left, ls), (right, rs)):
                if len(uniq) != len(side):
                    dup = next(v for v in side if side.count(v) > 1)
                    raise ValidationError(f"bipartition index {dup} appears twice in one side")
            if ls & rs:
                raise ValidationError("bipartition sides overlap")
            for v in ls | rs:
                if not 0 <= v < self.n:
                    raise ValidationError(f"bipartition index {v} outside [0,{self.n})")
            mark = np.zeros(self.n, dtype=np.int8)
            mark[list(left)], mark[list(right)] = 1, 2
            ii, jj, _ = self.arrays
            crossing = mark[ii] * mark[jj] == 2
            if not np.all(crossing):
                k = int(np.argmin(crossing))
                raise ValidationError(f"entry ({int(ii[k])},{int(jj[k])}) does not cross the bipartition")
            object.__setattr__(self, "bipartition", (left, right))


@dataclass(frozen=True, eq=False)
class QpIntermediateInstance(_SymmetricInstance):
    """Symmetric matrix with a nonpositive diagonal; variables range over [-1,1]."""

    diag: tuple[float, ...]
    meta: Optional[dict] = None

    def __post_init__(self):
        super().__post_init__()
        diag = _convert(self.diag, float, "diagonal")
        if len(diag) != self.n:
            raise ValidationError(f"diagonal has length {len(diag)}, expected {self.n}")
        for k, v in enumerate(diag):
            if not np.isfinite(v):
                raise ValidationError(f"diagonal entry {k} is not finite")
            if v > 0.0:
                raise ValidationError(f"diagonal entry {k} is {v}, must be <= 0")
        object.__setattr__(self, "diag", diag)

    def norm1(self) -> float:
        """sum_{i,j} |A_ij| over the full matrix, diagonal included."""
        return float(2.0 * np.sum(np.abs(self.arrays.w)) + np.sum(np.abs(self.diag)))

    def to_dense(self) -> np.ndarray:
        a = super().to_dense()
        np.fill_diagonal(a, self.diag)
        return a


def degrees(inst: QpRatioInstance) -> np.ndarray:
    """d_i = sum_j |a_ij| over the symmetric completion (read-only, cached per instance)."""
    return inst._degrees


def _weight_vector(n: int, weights) -> np.ndarray:
    """weights as a float64 array, refused unless they are n finite nonnegative numbers."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,) or not np.all(np.isfinite(w) & (w >= 0)):
        raise ValidationError(f"weights must be {n} finite nonnegative numbers")
    return w


def _quad_sum(inst, x: np.ndarray) -> float:
    """Full symmetric sum sum_{i != j} a_ij x_i x_j (each pair counted twice)."""
    ii, jj, ww = inst.arrays
    if ww.size == 0:
        return 0.0
    return float(2.0 * np.sum(ww * x[ii] * x[jj]))


def vector_objective(inst: QpRatioInstance, w: np.ndarray) -> float:
    """sum_{i != j} a_ij <w_i, w_j> for vectors w_i (the rows of w)."""
    ii, jj, ww = inst.arrays
    inner = np.einsum("ed,ed->e", w[ii], w[jj]) if ww.size else np.zeros(0)
    return float(2.0 * np.sum(ww * inner))


def eval_weighted(inst: QpRatioInstance, x, weights) -> RatioValue:
    """x^T A x / sum_i weights_i x_i^2 for a finite real vector x or an
    assignment's values (ones: the plain ratio; degrees: the normalized one)."""
    xv = np.asarray(x.values if isinstance(x, (Assignment, FractionalAssignment)) else x, dtype=np.float64).ravel()
    if xv.size != inst.n:
        raise DimensionMismatch(f"vector has length {xv.size}, instance has n={inst.n}")
    if not np.all(np.isfinite(xv)):
        raise ValidationError("vector has a non-finite entry")
    return RatioValue.of(_quad_sum(inst, xv), float(np.dot(_weight_vector(inst.n, weights), xv * xv)))


def eval_qp_ratio(inst: QpRatioInstance, a) -> RatioValue:
    """Quadratic form over the count of nonzero variables."""
    return eval_weighted(inst, Assignment.coerce(a, inst.n), np.ones(inst.n))


def eval_normalized_qp_ratio(inst: QpRatioInstance, a) -> RatioValue:
    """Quadratic form over the degree-weighted support sum_i d_i x_i^2."""
    return eval_weighted(inst, Assignment.coerce(a, inst.n), degrees(inst))


def _keep_better(inst: QpRatioInstance, best, x: np.ndarray, weights):
    """The better of best, an (Assignment, RatioValue) pair or None, and the
    {-1, 0, 1} int array x scored by eval_weighted: x wins only when best is
    None or x's value is strictly higher, and only a winner becomes an Assignment."""
    val = eval_weighted(inst, x, weights)
    if best is None or val.value > best[1].value:
        return Assignment(tuple(x.tolist())), val
    return best


def eval_qp_intermediate(inst: QpIntermediateInstance, x) -> RatioValue:
    """x^T A x (diagonal included) over sum_i |x_i|."""
    x = FractionalAssignment.coerce(x, inst.n)
    xv = x.to_array()
    num = _quad_sum(inst, xv) + float(np.dot(inst.diag, xv * xv))
    den = float(np.sum(np.abs(xv)))
    return RatioValue.of(num, den)


def trivial_solution(inst: QpRatioInstance) -> tuple[Assignment, RatioValue]:
    """Best single-edge assignment: two nonzeros on a maximum-|weight| entry.

    Attains max |a_ij| under the full-sum convention; among entries of equal
    |weight| the first in (i, j) order wins.  The all-zero assignment
    (value 0) is returned for instances with no entries.
    """
    ii, jj, ww = inst.arrays
    if ww.size == 0:
        return Assignment(tuple([0] * inst.n)), RatioValue.of(0.0, 0.0)
    k = int(np.argmax(np.abs(ww)))
    vals = [0] * inst.n
    vals[int(ii[k])] = 1
    vals[int(jj[k])] = 1 if ww[k] >= 0 else -1
    a = Assignment(tuple(vals))
    return a, eval_qp_ratio(inst, a)


def restrict(inst: QpRatioInstance, keep: Sequence[int]) -> tuple[QpRatioInstance, np.ndarray]:
    """Induced sub-instance on `keep` (sorted); returns it and the kept indices."""
    keep = np.unique(_index_array(keep, "restrict vertex set"))
    if keep.size == 0:
        raise ValidationError("cannot restrict to an empty vertex set")
    if keep[0] < 0 or keep[-1] >= inst.n:
        bad = keep[0] if keep[0] < 0 else keep[-1]
        raise ValidationError(f"restrict vertex {int(bad)} outside [0,{inst.n})")
    if keep.size == inst.n:
        return inst, keep
    pos = np.full(inst.n, -1, dtype=np.int64)
    pos[keep] = np.arange(keep.size)
    ii, jj, ww = inst.arrays
    pi, pj = pos[ii], pos[jj]
    inside = (pi >= 0) & (pj >= 0)
    # the relabel is monotone, so the kept entries stay canonical
    entries = _CanonicalArrays.of(pi[inside], pj[inside], ww[inside])
    bip = None
    if inst.bipartition is not None:
        sides = (pos[list(side)] for side in inst.bipartition)
        bip = tuple(tuple(p[p >= 0].tolist()) for p in sides)
    return QpRatioInstance(int(keep.size), entries, bip, inst.meta), keep


# ---------------------------------------------------------------------------
# Serialization: canonical JSON, round-trip safe.
# ---------------------------------------------------------------------------

def instance_to_obj(inst) -> dict:
    ii, jj, ww = inst.arrays
    obj: dict = {"n": inst.n, "entries": [list(e) for e in zip(ii.tolist(), jj.tolist(), ww.tolist())]}
    if isinstance(inst, QpRatioInstance):
        obj["kind"] = "qp_ratio"
        if inst.bipartition is not None:
            obj["bipartition"] = [list(inst.bipartition[0]), list(inst.bipartition[1])]
    elif isinstance(inst, QpIntermediateInstance):
        obj["kind"] = "qp_intermediate"
        obj["diag"] = list(inst.diag)
    else:
        raise ValidationError(f"cannot serialize {type(inst).__name__}")
    if inst.meta:
        obj["meta"] = inst.meta
    return obj


def instance_to_bytes(inst) -> bytes:
    return (json.dumps(instance_to_obj(inst), sort_keys=True, separators=(",", ":")) + "\n").encode()


def _require(obj, key, typ, where="instance"):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    val = obj[key]
    if typ is not None and not isinstance(val, typ):
        raise ParseError(f"{where}: field {key!r} has type {type(val).__name__}")
    return val


def instance_from_obj(obj):
    if not isinstance(obj, dict):
        raise ParseError(f"instance file must hold a JSON object, got {type(obj).__name__}")
    kind = _require(obj, "kind", str)
    n = _require(obj, "n", int)
    entries = _require(obj, "entries", list)
    meta = obj.get("meta")
    if kind == "qp_ratio":
        bip = obj.get("bipartition")
        if bip is not None:
            if not (isinstance(bip, list) and len(bip) == 2):
                raise ParseError("field 'bipartition' must be a pair of index lists")
        return QpRatioInstance(n, entries, bip, meta)
    if kind == "qp_intermediate":
        return QpIntermediateInstance(n, entries, _require(obj, "diag", list), meta)
    raise ParseError(f"unknown instance kind {kind!r}")


def instance_from_bytes(data: bytes):
    try:
        obj = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"invalid instance file: {exc}") from exc
    return instance_from_obj(obj)


def save_instance(inst, path) -> None:
    with open(path, "wb") as fh:
        fh.write(instance_to_bytes(inst))


def load_instance(path):
    with open(path, "rb") as fh:
        return instance_from_bytes(fh.read())
