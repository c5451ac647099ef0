"""Instance and assignment data model, objective evaluation, serialization.

Three objectives share one numerator convention: the quadratic form is the
full symmetric sum over ordered pairs, so a stored entry (i, j, w) with i < j
contributes 2*w*x_i*x_j.  The ratio denominators are

  * plain ratio:       sum_i x_i^2   (the number of nonzero variables),
  * normalized ratio:  sum_i d_i x_i^2  with degrees d_i = sum_j |a_ij|,
  * intermediate form: sum_i |x_i|   over fractional x in [-1, 1]^n.

All types are immutable after construction and all evaluators are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

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
            for v in np.asarray(obj).ravel().tolist():
                iv = int(round(float(v)))
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


def _normalize_entries(n: int, entries):
    """Sort and validate (i, j, w) triples; returns the canonical tuple."""
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


def _convert(values, typ, what: str) -> tuple:
    try:
        return tuple(typ(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must be a list of {typ.__name__} values, got {values!r}") from exc


# largest n that to_dense materializes (a 5000 x 5000 float64 matrix is 200 MB)
_MAX_DENSE_N = 5000


@dataclass(frozen=True)
class _SymmetricInstance:
    """Symmetric n x n matrix with its off-diagonal part stored as i < j entries."""

    n: int
    entries: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"instance size must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "entries", _normalize_entries(self.n, self.entries))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.entries:
            ii = np.array([e[0] for e in self.entries], dtype=np.int64)
            jj = np.array([e[1] for e in self.entries], dtype=np.int64)
            ww = np.array([e[2] for e in self.entries], dtype=np.float64)
        else:
            ii = np.zeros(0, dtype=np.int64)
            jj = np.zeros(0, dtype=np.int64)
            ww = np.zeros(0, dtype=np.float64)
        return ii, jj, ww

    def to_dense(self) -> np.ndarray:
        """The full symmetric matrix; refused above n = 5000."""
        if self.n > _MAX_DENSE_N:
            raise ValidationError(f"refusing to densify n={self.n} > {_MAX_DENSE_N}")
        a = np.zeros((self.n, self.n), dtype=np.float64)
        ii, jj, ww = self._arrays
        a[ii, jj] = ww
        a[jj, ii] = ww
        return a


@dataclass(frozen=True)
class QpRatioInstance(_SymmetricInstance):
    """Symmetric weight matrix with zero diagonal, stored as i < j entries."""

    bipartition: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    meta: Optional[dict] = None

    def __post_init__(self):
        super().__post_init__()
        if self.bipartition is not None:
            left, right = self.bipartition
            left = _convert(left, int, "bipartition side")
            right = _convert(right, int, "bipartition side")
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
            for i, j, _ in self.entries:
                if not ((i in ls and j in rs) or (i in rs and j in ls)):
                    raise ValidationError(f"entry ({i},{j}) does not cross the bipartition")
            object.__setattr__(self, "bipartition", (left, right))


@dataclass(frozen=True)
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
        _, _, ww = self._arrays
        return float(2.0 * np.sum(np.abs(ww)) + np.sum(np.abs(self.diag)))

    def to_dense(self) -> np.ndarray:
        a = super().to_dense()
        np.fill_diagonal(a, self.diag)
        return a


def degrees(inst: QpRatioInstance) -> np.ndarray:
    """d_i = sum_j |a_ij| over the symmetric completion."""
    d = np.zeros(inst.n, dtype=np.float64)
    ii, jj, ww = inst._arrays
    np.add.at(d, ii, np.abs(ww))
    np.add.at(d, jj, np.abs(ww))
    return d


def _quad_sum(inst, x: np.ndarray) -> float:
    """Full symmetric sum sum_{i != j} a_ij x_i x_j (each pair counted twice)."""
    ii, jj, ww = inst._arrays
    if ww.size == 0:
        return 0.0
    return float(2.0 * np.sum(ww * x[ii] * x[jj]))


def vector_objective(inst: QpRatioInstance, w: np.ndarray) -> float:
    """sum_{i != j} a_ij <w_i, w_j> for vectors w_i (the rows of w)."""
    ii, jj, ww = inst._arrays
    inner = np.einsum("ed,ed->e", w[ii], w[jj]) if ww.size else np.zeros(0)
    return float(2.0 * np.sum(ww * inner))


def eval_qp_ratio(inst: QpRatioInstance, a) -> RatioValue:
    """Quadratic form over the count of nonzero variables."""
    a = Assignment.coerce(a, inst.n)
    x = a.to_array()
    return RatioValue.of(_quad_sum(inst, x), float(a.support))


def eval_normalized_qp_ratio(inst: QpRatioInstance, a) -> RatioValue:
    """Quadratic form over the degree-weighted support sum_i d_i x_i^2."""
    a = Assignment.coerce(a, inst.n)
    x = a.to_array()
    den = float(np.dot(degrees(inst), x * x))
    return RatioValue.of(_quad_sum(inst, x), den)


def eval_normalized_fractional(inst: QpRatioInstance, x) -> RatioValue:
    """Degree-normalized Rayleigh quotient for a real vector (relaxation witnesses)."""
    xv = np.asarray(
        x.to_array() if isinstance(x, FractionalAssignment) else x, dtype=np.float64
    ).ravel()
    if xv.size != inst.n:
        raise DimensionMismatch(f"vector has length {xv.size}, instance has n={inst.n}")
    den = float(np.dot(degrees(inst), xv * xv))
    return RatioValue.of(_quad_sum(inst, xv), den)


def eval_qp_intermediate(inst: QpIntermediateInstance, x) -> RatioValue:
    """x^T A x (diagonal included) over sum_i |x_i|."""
    x = FractionalAssignment.coerce(x, inst.n)
    xv = x.to_array()
    num = _quad_sum(inst, xv) + float(np.dot(inst.diag, xv * xv))
    den = float(np.sum(np.abs(xv)))
    return RatioValue.of(num, den)


def trivial_solution(inst: QpRatioInstance) -> tuple[Assignment, RatioValue]:
    """Best single-edge assignment: two nonzeros on a maximum-|weight| entry.

    Attains max |a_ij| under the full-sum convention; the all-zero assignment
    (value 0) is returned for instances with no entries.
    """
    if not inst.entries:
        return Assignment(tuple([0] * inst.n)), RatioValue.of(0.0, 0.0)
    i, j, w = max(inst.entries, key=lambda e: (abs(e[2]), -e[0], -e[1]))
    vals = [0] * inst.n
    vals[i] = 1
    vals[j] = 1 if w >= 0 else -1
    a = Assignment(tuple(vals))
    return a, eval_qp_ratio(inst, a)


def restrict(inst: QpRatioInstance, keep: Sequence[int]) -> tuple[QpRatioInstance, np.ndarray]:
    """Induced sub-instance on `keep` (sorted); returns it and the kept indices."""
    keep = np.array(sorted(set(int(k) for k in keep)), dtype=np.int64)
    if keep.size == 0:
        raise ValidationError("cannot restrict to an empty vertex set")
    pos = {int(v): k for k, v in enumerate(keep)}
    entries = [
        (pos[i], pos[j], w) for (i, j, w) in inst.entries if i in pos and j in pos
    ]
    bip = None
    if inst.bipartition is not None:
        left = tuple(pos[v] for v in inst.bipartition[0] if v in pos)
        right = tuple(pos[v] for v in inst.bipartition[1] if v in pos)
        bip = (left, right)
    return QpRatioInstance(int(keep.size), tuple(entries), bip, inst.meta), keep


# ---------------------------------------------------------------------------
# Serialization: canonical JSON, round-trip safe.
# ---------------------------------------------------------------------------

def instance_to_obj(inst) -> dict:
    obj: dict = {"n": inst.n, "entries": [[i, j, w] for (i, j, w) in inst.entries]}
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
