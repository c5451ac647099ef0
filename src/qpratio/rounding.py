"""Rounding pipelines for the vector relaxation.

The general pipeline normalizes vector lengths in three passes (grow-or-drop
tiny vectors, drop overlong vectors, split the survivors into dyadic length
bands) and rounds each band with a two-stage scheme: derandomized selection by
conditional expectations, then Gaussian-projection sign rounding on the
selected unit vectors.  Grow-or-drop and selection scale whole rows, so both
keep one factor per row and read each decision off M = A o (W W^T).
Bipartite instances get a dedicated level-pair routine built on sampled sign
patterns for the smaller side.  Both score each {-1, 0, 1} candidate as an int
array under unit weights with core._keep_better, which builds an Assignment
only for a candidate that beats the best so far (the single-edge baseline
first); a tie keeps the earlier one.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Assignment,
    QpRatioInstance,
    RatioValue,
    ValidationError,
    _keep_better,
    trivial_solution,
)
from .sdp import sdp_solve
from .util import rng_for


def preprocess_small(inst: QpRatioInstance, w: np.ndarray) -> np.ndarray:
    """Grow or drop every vector of squared length below 1/n; returns a new array.

    A small vector with nonpositive cross-term S_i = sum_j a_ij <v_i, v_j> is
    zeroed; otherwise it is rescaled to squared length exactly 1/n.  Neither
    operation decreases the objective sum, and the total squared length stays
    at most 2 when starting from a unit-sum solution.  Changing one vector
    leaves every other length as it was, so the initially small vectors are
    visited once, in index order; row i becomes f_i w_i and S_i = M[i] . f.
    """
    n = inst.n
    w = np.array(w, dtype=np.float64)
    floor = 1.0 / n
    sq = np.einsum("id,id->i", w, w)
    a = inst.to_dense()
    m = a * (w @ w.T)  # m_ij = a_ij <w_i, w_j>
    obj_before = float(np.sum(m))
    f = np.ones(n)
    for i in np.nonzero((sq > 0) & (sq < floor * (1 - 1e-12)))[0]:
        if m[i] @ f <= 0:
            f[i] = 0.0
        else:
            f[i] = 1.0 / (math.sqrt(n) * math.sqrt(sq[i]))
    w[f == 0] = 0.0  # zeroed before scaling, so no entry becomes -0.0
    w *= f[:, None]
    sq = np.einsum("id,id->i", w, w)
    nz = sq[sq > 0]
    if nz.size and float(np.min(nz)) < floor - 1e-12:
        raise AssertionError("length floor violated after preprocessing")
    obj_after = float(np.sum(a * (w @ w.T)))
    if obj_after < obj_before - 1e-9 * (1.0 + abs(obj_before)):
        raise AssertionError(
            f"preprocessing decreased the objective sum: {obj_before} -> {obj_after}"
        )
    return w


def cap_large(inst: QpRatioInstance, w: np.ndarray, rho: float) -> np.ndarray:
    """Zero every vector with squared length above 16 / n^rho; returns a new array."""
    thresh = 16.0 / (inst.n**rho)
    w = np.array(w, dtype=np.float64)
    sq = np.einsum("id,id->i", w, w)
    w[sq > thresh] = 0.0
    return w


def _ratio(num: float, den: float) -> float:
    if den > 0:
        return num / den
    return -math.inf if num < 0 else (0.0 if num == 0 else math.inf)


def round_close_lengths(inst: QpRatioInstance, w: np.ndarray, seed: int = 0) -> tuple[Assignment, RatioValue]:
    """Round vectors (the rows of w) whose nonzero lengths are comparable.

    Stage 1 visits the vectors in index order and decides unit-vector vs zero
    by exact conditional expectations, keeping the expected-numerator to
    expected-denominator ratio non-decreasing (asserted at every step).  With
    the longest vector scaled to length 1, row i stands at f_i w_i: f_i = 1
    undecided, 1/p_i picked (p_i its length), 0 dropped; a visit reads only
    M[i] . f.  Stage 2 projects the selected unit vectors on a Gaussian,
    scales by T = 2 sqrt(ln n), and rounds each coordinate to its sign with
    probability |z_i|, keeping the best of ceil(8 ln n) + 8 trials.  Never
    returns less than the single-edge baseline.
    """
    n = inst.n
    base = trivial_solution(inst)
    w = np.asarray(w, dtype=np.float64)
    sq = np.einsum("id,id->i", w, w)
    nz = np.nonzero(sq > 0)[0]
    if nz.size == 0:
        return base
    tau = float(np.max(sq[nz]))
    ws = w / math.sqrt(tau)
    p = np.sqrt(np.einsum("id,id->i", ws, ws))
    p = np.clip(p, 0.0, 1.0)

    m = inst.to_dense() * (ws @ ws.T)
    f = np.ones(n)  # every row starts undecided
    den = float(np.sum(p[nz]))
    num = float(np.sum(m))
    ratio = _ratio(num, den)
    if not ratio > 0:
        return base
    for i in nz:
        s = float(m[i] @ f)  # cross term of the undecided row against the rest
        num_drop = num - 2.0 * s
        den_drop = den - p[i]
        num_pick = num + 2.0 * s * (1.0 / p[i] - 1.0)
        den_pick = den - p[i] + 1.0
        r_pick = _ratio(num_pick, den_pick)
        r_drop = _ratio(num_drop, den_drop)
        if r_pick >= r_drop:
            f[i] = 1.0 / p[i]
            num, den, new_ratio = num_pick, den_pick, r_pick
        else:
            f[i] = 0.0
            num, den, new_ratio = num_drop, den_drop, r_drop
        if new_ratio < ratio - 1e-9 * (1.0 + abs(ratio)):
            raise AssertionError(
                f"conditional-expectation ratio decreased at step {i}: {ratio} -> {new_ratio}"
            )
        ratio = new_ratio

    chosen = nz[f[nz] > 0]
    if chosen.size == 0:
        return base
    wsel = ws[chosen] / p[chosen, None]
    t_scale = 2.0 * math.sqrt(math.log(max(n, 2)))
    rng = rng_for(seed, 0xC1)
    trials = np.zeros((int(math.ceil(8 * math.log(max(n, 2)))) + 8, n), dtype=np.int64)
    for row in trials:
        g = rng.standard_normal(wsel.shape[1])
        z = np.clip((wsel @ g) / t_scale, -1.0, 1.0)
        u = rng.random(chosen.size)
        row[chosen] = np.sign(z).astype(np.int64) * (u < np.abs(z))
    return _keep_better(inst, base, trials, np.ones(n))


def _relaxed_vectors(inst: QpRatioInstance, seed: int) -> np.ndarray | None:
    """The relaxation's vectors after preprocess_small, or None when there
    are no entries or the relaxation value is nonpositive."""
    if not inst.nnz:
        return None
    sol = sdp_solve(inst, seed=seed)
    if sol.objective <= 0:
        return None
    return preprocess_small(inst, sol.vectors)


def solve_general(inst: QpRatioInstance, seed: int = 0) -> tuple[Assignment, RatioValue]:
    """Full pipeline: relaxation, length normalization, per-band rounding.

    Returns the best candidate over all dyadic length bands (band width 2)
    and the single-edge baseline; skips rounding entirely when the relaxation
    value is nonpositive.
    """
    best = trivial_solution(inst)
    w = _relaxed_vectors(inst, seed)
    if w is None:
        return best
    w = cap_large(inst, w, rho=1.0 / 3.0)
    sq = np.einsum("id,id->i", w, w)
    nz = sq[sq > 0]
    if nz.size == 0:
        return best
    tau = float(np.max(nz))
    lo = float(np.min(nz))
    band = 0
    while tau > lo * (1 - 1e-12):
        mask = (sq > tau / 2.0) & (sq <= tau * (1 + 1e-12))
        if np.any(mask):
            cand = round_close_lengths(
                inst, np.where(mask[:, None], w, 0.0), seed=seed * 1000 + band
            )
            if cand[1].value > best[1].value:
                best = cand
        tau /= 2.0
        band += 1
    return best


def solve_bipartite(inst: QpRatioInstance, seed: int = 0) -> tuple[Assignment, RatioValue]:
    """Level-pair rounding for bipartite instances.

    After length preprocessing, each side is rescaled to total squared length
    1/2 and split into dyadic squared-length levels.  For every (left level,
    right level) pair the left side gets i.i.d. sign samples (n draws, keep
    the sample maximizing sum_j |sum_i a_ij x_i|) and each right vertex gets
    the sign of its weighted left sum.  Best candidate wins; the single-edge
    baseline is the floor.
    """
    if inst.bipartition is None:
        raise ValidationError("bipartite rounding needs an instance with a bipartition")
    base = trivial_solution(inst)
    w = _relaxed_vectors(inst, seed)
    if w is None:
        return base
    n = inst.n
    left = np.array(inst.bipartition[0], dtype=np.int64)
    right = np.array(inst.bipartition[1], dtype=np.int64)
    sq = np.einsum("id,id->i", w, w)
    sl = float(np.sum(sq[left]))
    sr = float(np.sum(sq[right]))
    if sl <= 0 or sr <= 0:
        return base
    w[left] /= math.sqrt(2.0 * sl)
    w[right] /= math.sqrt(2.0 * sr)
    sq = np.einsum("id,id->i", w, w)

    amat = inst.to_dense()[np.ix_(left, right)]
    # preprocessing keeps each nonzero squared length >= 1/n and the total
    # <= 2, so after the rescaling every nonzero s lies in [1/(4n), 1/2] (up
    # to rounding) and its level floor(-log2 s) in [0, log2 4n]; -1 marks a
    # zero vector
    level = np.array([math.floor(-math.log2(s)) if s > 0 else -1 for s in sq.tolist()])
    llev, rlev = level[left], level[right]
    best = base
    for kl in sorted(set(llev[llev >= 0])):
        lsel = np.nonzero(llev == kl)[0]
        for kr in sorted(set(rlev[rlev >= 0])):
            rsel = np.nonzero(rlev == kr)[0]
            sub = amat[np.ix_(lsel, rsel)]
            if not np.any(sub):
                continue
            rng = rng_for(seed, 0xB2, kl, kr)
            xs = rng.integers(0, 2, size=(n, lsel.size)) * 2 - 1
            sums = xs @ sub
            scores = np.sum(np.abs(sums), axis=1)
            t = int(np.argmax(scores))
            vals = np.zeros(n, dtype=np.int64)
            vals[left[lsel]] = xs[t]
            vals[right[rsel]] = np.sign(sums[t]).astype(np.int64)
            best = _keep_better(inst, best, vals, np.ones(n))
    return best


def mean_abs_signed_sum(b, cap: int = 20) -> float:
    """Exhaustive E |sum_i b_i X_i| over all 2^n sign patterns.

    For unit vectors b this mean is at least 1/12 (fourth-moment /
    Paley-Zygmund argument); the exhaustive form is the test oracle for the
    sampled assignment routine.
    """
    bv = np.asarray(b, dtype=np.float64).ravel()
    n = bv.size
    if n > cap:
        raise ValidationError(f"exhaustive sign sum refused for n={n} > {cap}")
    signs = np.array([-1.0, 1.0])
    grids = np.meshgrid(*([signs] * n), indexing="ij")
    rows = np.stack(grids, axis=-1).reshape(-1, n)
    return float(np.mean(np.abs(rows @ bv)))
