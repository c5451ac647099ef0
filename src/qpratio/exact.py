"""Brute-force and grid-search oracles.

Full enumerations; these anchor every other module's tests.  Enumeration
order is fixed (lexicographic with -1 < 0 < 1, grids ascending) so ties break
identically on every run.

The plain, normalized and weighted-bipartite 3^n oracles are one enumeration
under three weightings.  It scores every assignment, but not one entry at a
time: the variables split into a head and a tail of at most 8, the tail side
(its grid, quadratic forms and weighted sizes) and each head row's quadratic
form and cross block with the tail are built once, and the assignments are
then scored as a stream of blocks of a few head rows against all 3^t tail
rows.  Each block is a small array that stays in cache, and only the rows
near the best score so far are kept, so memory grows with the number of
near-ties of the best value, not with n.  Those
scores round differently from core's evaluator, so every assignment within
a stated floating-point error bound of the best is rescored by
core._keep_better, which gives each row the bits eval_weighted gives it,
before the first maximum is taken; the result is the one eval_weighted of
all 3^n rows gives.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    Assignment,
    BudgetExceeded,
    EntryArrays,
    FractionalAssignment,
    QpIntermediateInstance,
    QpRatioInstance,
    RatioValue,
    ValidationError,
    _keep_better,
    degrees,
    eval_qp_intermediate,
    restrict,
)
from .hardness import PartialLabeling, eval_ratio_ug

# head rows the 3^n oracles score per block, against all 3^8 tail rows
# (3 x 6561 float64 arrays of 157 kB, in L2): at n = 12 blocks of 3 rows
# score all assignments in 2.3-2.8 ms, against 3.3 ms for 1 row, 2.8-3.9 ms
# for 9 and 5 ms for all 81 head rows at once; at n = 14, 16 ms for 3 rows,
# 16-28 ms for 9 and 37 ms for 81 (one BLAS thread, 2-core x86-64)
_HEAD_BLOCK = 3
# number of tail variables in the oracles' head x tail split: with blocks of
# 3 head rows, a tail of 8 scores n = 12 in 2.8 ms and n = 14 in 19 ms,
# against 3.4-4.8 ms and 25-26 ms for tails of 6, 7 or 9 (the best block
# size for each) and 13 and 49 ms for 10
_TAIL = 8
# grid points scored at once by grid_search_intermediate (a multiple of 64)
_GRID_BLOCK = 1 << 16
# largest grid grid_search_intermediate scores, and the most partial
# labelings brute_force_ratio_ug scans
_GRID_POINTS = 2_500_000
_UG_LABELINGS = 200_000
# largest n the 3^n oracles enumerate whatever their cap: their memory does
# not grow with n (1.3 MB traced at n = 14 when few assignments tie with the
# best), but their time grows 3x per variable from about 16 ms at n = 14
_ORACLE_MAX_N = 14


def _assignment_grid(n: int) -> np.ndarray:
    """All of {-1,0,1}^n as rows, in lexicographic order with -1 < 0 < 1.

    n = 0 gives the single empty row, shape (1, 0).  The array is stored
    column-major, so its transpose (one row per variable) is contiguous.
    """
    return np.indices((3,) * n, dtype=np.int8).reshape(n, 3**n).T - 1


def _split_scorer(inst: QpRatioInstance, weights: np.ndarray, head: np.ndarray, tail: np.ndarray):
    """Scorer of blocks of head rows against the whole tail grid.

    ``head`` and ``tail`` are the grids of the first h and the last t
    variables.  The tail side (the grid transposed, its quadratic forms and
    weighted sizes) and each head row's quadratic form, weighted size and
    cross block with the tail are built once; ``score(start, stop)`` then
    returns the numerators and denominators of head rows start..stop-1
    against every tail row as (stop - start) x 3^t arrays.  Entry [p, q]
    scores the assignment (head[start + p], tail[q]), so consecutive blocks
    read row-major are in lexicographic order.
    """
    h = head.shape[1]
    a = inst.to_dense()
    xh = head.astype(np.float64)
    xt_t = tail.T.astype(np.float64)
    q_head = np.einsum("ri,ri->r", xh @ a[:h, :h], xh)
    q_tail = np.einsum("ir,ir->r", a[h:, h:] @ xt_t, xt_t)
    # doubling the cross block is exact, as doubling the product would be
    cross = 2.0 * (xh @ a[:h, h:])
    den_head = np.abs(xh) @ weights[:h]
    den_tail = weights[h:] @ np.abs(xt_t)

    def score(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        num = cross[start:stop] @ xt_t
        num += q_head[start:stop, None]
        num += q_tail
        return num, np.add.outer(den_head[start:stop], den_tail)

    return score


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, with 0 where den = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / den
    vals[den == 0] = 0.0
    return vals


def _brute_force(inst: QpRatioInstance, cap: int, weights: np.ndarray) -> tuple[Assignment, RatioValue]:
    """First maximizer, in lexicographic order, of eval_weighted(inst, x, weights).

    The weights are nonnegative: all 1 for the plain ratio, the degrees for
    the normalized one.  Instances with n above ``cap``, or above 14 whatever
    ``cap`` says, are refused before anything is allocated.  An instance
    without an entry of nonzero weight returns all -1 at once, and zero-weight
    variables without such an entry are set to -1 before the rest is
    enumerated: in both cases that is the first maximizer, since such a
    variable changes no value, and the enumeration no longer keeps every
    tied row.

    Every assignment is scored by the head x tail split, ``_HEAD_BLOCK``
    head rows at a time; the rows whose score is within ``delta`` of the
    best are scored by core._keep_better, with the bits eval_weighted gives
    them, and the first maximum of those is returned.  A block keeps its
    rows within ``delta`` of the best score seen so far, which never exceeds
    the final best, so no row within ``delta`` of the final best is dropped;
    the rows kept are then cut to that window.

    ``scale`` bounds sum_{i,j in supp x} |a_ij| / den(x) for every x with
    den(x) > 0.  Let z_i = sum_{j: weights_j = 0} |a_ij|.  If no entry joins
    two zero-weight vertices, every entry of the sum has an endpoint of
    positive weight, and charging each entry at a zero-weight vertex to its
    other endpoint bounds the sum by sum_{i in supp x, weights_i > 0} (d_i +
    z_i), while den(x) = sum_{i in supp x, weights_i > 0} weights_i; so
    ``scale`` = max over weights_i > 0 of (d_i + z_i) / weights_i.  With no
    zero weight this is the largest d_i / weights_i (the largest degree, or
    1 when normalized); an entry joining two zero-weight vertices makes it
    infinite, and then every row is rescored.  eval_weighted sums the m
    entry terms and the n weighted sizes in orders of its own, so along any
    path its numerator rounds at most m times and its denominator n times,
    and the split numerator at most 2n + 2 times (BLAS may sum in any
    order); each quotient rounds once.  With u = 2^-53, the two values of
    one row thus differ by at most about (m + 4n + 8) u scale, and the first
    maximizer of eval_weighted scores within twice that of the best split
    score.  ``delta`` takes twice that again for the second-order terms and
    the rounding of the degrees.  A finite sum of the degrees keeps every
    partial sum finite.
    """
    n = inst.n
    cap = min(cap, _ORACLE_MAX_N)
    if n > cap:
        raise BudgetExceeded(f"brute force refused: n={n} exceeds cap={cap}")
    d = degrees(inst)
    if not np.isfinite(np.sum(d)):
        raise ValidationError("brute force refused: the sum of |a_ij| overflows float64")
    if not np.any(inst.arrays.w):
        # every assignment scores 0, so the first one, all -1, is the maximizer
        return _keep_better(inst, None, np.full(n, -1, dtype=np.int8), weights)
    ii, jj, ww = inst.arrays
    idle = weights == 0
    idle[ii[ww != 0]] = idle[jj[ww != 0]] = False
    # the kept variables' entries and weighted sizes keep their order
    sub, kept = restrict(inst, np.flatnonzero(~idle))
    w = weights[kept]
    free = w == 0
    z = np.abs(sub.to_dense()) @ free
    if np.any(z[free] > 0):
        scale = math.inf
    else:
        scale = float(np.max((d[kept] + z)[~free] / w[~free], initial=0.0))
    t = min(sub.n, _TAIL)
    head, tail = _assignment_grid(sub.n - t), _assignment_grid(t)
    score = _split_scorer(sub, w, head, tail)
    delta = 4.0 * (sub.nnz + 4 * sub.n + 8) * 2.0**-53 * scale
    best = -math.inf
    kept_idx, kept_vals = [], []
    for start in range(0, head.shape[0], _HEAD_BLOCK):
        vals = _ratios(*score(start, start + _HEAD_BLOCK)).ravel()
        top = float(vals.max())
        if top < best - delta:
            continue
        best = max(best, top)
        idx = np.flatnonzero(vals >= best - delta)
        kept_vals.append(vals[idx])
        kept_idx.append(idx + start * tail.shape[0])
    vals, idx = np.concatenate(kept_vals), np.concatenate(kept_idx)
    idx = idx[vals >= best - delta]
    rows = np.full((idx.size, n), -1, dtype=np.int8)
    rows[:, kept] = np.hstack([head[idx // tail.shape[0]], tail[idx % tail.shape[0]]])
    return _keep_better(inst, None, rows, weights)


def brute_force_qp_ratio(inst: QpRatioInstance, cap: int = 12) -> tuple[Assignment, RatioValue]:
    """Exact maximizer of the plain ratio over all 3^n assignments."""
    return _brute_force(inst, cap, np.ones(inst.n))


def brute_force_normalized(inst: QpRatioInstance, cap: int = 12) -> tuple[Assignment, RatioValue]:
    """Exact maximizer of the degree-normalized ratio."""
    return _brute_force(inst, cap, degrees(inst))


def exact_star_optimum(leaves: int) -> float:
    """Exact plain-ratio optimum of a unit star, at any size.

    Every assignment's value depends only on the center value and the counts
    of +1/-1 leaves (leaves are exchangeable), so enumerating the O(leaves^2)
    equivalence classes is a full enumeration of the search space.  Agrees
    with the generic 3^n oracle wherever both run.
    """
    best = 0.0
    for c in (-1, 0, 1):
        for p in range(leaves + 1):
            for q in range(leaves - p + 1):
                den = abs(c) + p + q
                if den == 0:
                    continue
                best = max(best, 2.0 * c * (p - q) / den)
    return best


def grid_search_intermediate(
    inst: QpIntermediateInstance,
    eps: float,
    cap: int = 4,
) -> tuple[FractionalAssignment, RatioValue]:
    """Exhaustive grid search within additive accuracy eps of the continuous optimum.

    The step is delta = min(eps / (2 ||A||_1), 1/(2n)) with 1/delta rounded up
    to an integer, which bounds the perturbation of the optimum ratio by eps.
    Points are scored in fixed-size blocks in row-major order and the first
    maximum wins, so memory does not grow with the number of points.
    """
    n = inst.n
    if n > cap:
        raise BudgetExceeded(f"grid search refused: n={n} exceeds cap={cap}")
    if not eps > 0:
        raise ValidationError(f"accuracy must be positive, got {eps}")
    norm1 = inst.norm1()
    delta = 1.0 / (2 * n)
    if norm1 > 0:
        delta = min(delta, eps / (2.0 * norm1))
    steps = int(math.ceil(1.0 / delta))
    base = 2 * steps + 1
    axis = (np.arange(base, dtype=np.float64) - steps) / steps
    total = base**n
    if total > _GRID_POINTS:
        raise BudgetExceeded(f"grid search refused: {base}^{n} = {total} points exceeds budget {_GRID_POINTS}")
    diag = np.array(inst.diag, dtype=np.float64)
    place = base ** np.arange(n - 1, -1, -1)
    best = None
    # row-major blocks of the (total x n) grid; a block length that is a
    # multiple of 64 gives the matrix-vector product the same row alignment
    # as one whole array, and a later block wins only if strictly better
    for start in range(0, total, _GRID_BLOCK):
        idx = np.arange(start, min(start + _GRID_BLOCK, total))
        rows = axis[idx[:, None] // place % base]
        num = rows * rows @ diag
        for i, j, w in zip(*(col.tolist() for col in inst.arrays)):
            num += (2.0 * w) * rows[:, i] * rows[:, j]
        den = np.sum(np.abs(rows), axis=1)
        vals = _ratios(num, den)
        k = int(np.argmax(vals))
        if best is None or vals[k] > best[0]:
            best = (vals[k], rows[k])
    x = FractionalAssignment(tuple(float(v) for v in best[1]))
    return x, eval_qp_intermediate(inst, x)


def brute_force_ratio_ug(ug):
    """Exact maximum of satisfied-edges over labeled-vertices for partial labelings.

    The all-bottom labeling has value 0 by convention.  Labelings are scanned
    with bottom ordered before label 0, so ties resolve deterministically.
    """
    v = ug.vertices
    r = ug.alphabet
    count = (r + 1) ** v
    if count > _UG_LABELINGS:
        raise BudgetExceeded(
            f"ratio-UG brute force refused: ({r}+1)^{v} = {count} labelings exceed budget {_UG_LABELINGS}"
        )
    options = [None] + list(range(r))
    best_val = 0.0
    best = PartialLabeling(tuple([None] * v))
    for labels in itertools.product(options, repeat=v):
        labeling = PartialLabeling(labels)
        val = eval_ratio_ug(ug, labeling)
        if val > best_val:
            best_val = val
            best = labeling
    return best, best_val


def brute_force_weighted_bipartite(matrix, left_weight: int, cap: int = 12) -> float:
    """max 2 x^T A y / (w ||x||_1 + ||y||_1) over x, y in {-1,0,1}; 0 if all-zero.

    The 3^n oracle on the bipartite instance of A, weighting the left side w
    and the right 1.  Refused for a negative or non-finite w and when the two
    sides hold more than min(cap, 14) variables.

    The factor 2 matches the full-sum convention used by the ratio evaluators,
    so this is directly comparable with brute force on a replicated instance.
    """
    if not 0 <= left_weight < math.inf:
        raise ValidationError(f"left weight must be finite and nonnegative, got {left_weight!r}")
    a = np.asarray(matrix, dtype=np.float64)
    nl, nr = a.shape
    if nl + nr == 0:
        return 0.0
    li, rj = np.nonzero(a)
    inst = QpRatioInstance(nl + nr, EntryArrays(li, nl + rj, a[li, rj]))
    weights = np.repeat([float(left_weight), 1.0], [nl, nr])
    return _brute_force(inst, cap, weights)[1].value
