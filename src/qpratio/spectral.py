"""Symmetric eigensolver and the eigenvalue-relaxation pipelines.

Everything here is dense numpy LAPACK, and each caller computes only what it
reads.  The bounds take the top eigenvalue from numpy.linalg.eigvalsh alone.
eigen_max adds the top eigenvector by one inverse-iteration solve when the
top eigenvalue is simple, and falls back to a full numpy.linalg.eigh only for
a repeated top eigenvalue.  scipy is not imported: its sparse eigensolver
costs more to import than these dense solves take at n <= 1100.

The relaxation value for the plain ratio is the top eigenvalue of the weight
matrix; for the degree-normalized ratio it is the top eigenvalue of the
symmetrically normalized matrix D^{-1/2} A D^{-1/2}, whose Rayleigh quotient
matches x^T A x / x^T D x under x -> D^{1/2} x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Assignment,
    QpRatioInstance,
    RatioValue,
    ValidationError,
    degrees,
    eval_normalized_qp_ratio,
    eval_qp_ratio,
    restrict,
    trivial_solution,
)
from .util import rng_for


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class EigenResult:
    lambda_max: float
    vector: np.ndarray
    iterations: int
    residual: float
    lambda_min: float


def _max_asymmetry(a: np.ndarray) -> float:
    """max |a_ij - a_ji|, read in 128-row blocks of the upper triangle so that
    the transposed side is read a few cache lines per row, not one element."""
    worst = 0.0
    for r in range(0, a.shape[0], 128):
        diff = a[r : r + 128, r:] - a[r:, r : r + 128].T
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def eigen_max(matrix, tol: float = 1e-10, seed: int = 0) -> EigenResult:
    """Largest (signed) eigenvalue of a symmetric matrix and its eigenvector.

    One eigvalsh gives the largest and smallest eigenvalues.  The vector is
    the seeded start projected onto the eigenvectors whose eigenvalues lie
    within tol of the largest, normalized: the direction a power iteration
    from that start converges to, so a repeated top eigenvalue gives the same
    seed-dependent vector.  When the top eigenvalue is simple that projection
    is the solution of (lambda I - A) v = start, normalized and signed so that
    v . start > 0 (one step of inverse iteration at the computed eigenvalue);
    a repeated top eigenvalue, a singular solve or a solve that misses tol
    projects onto the eigenvectors of a full eigh instead.  The returned
    residual is ||A v - lambda v||_2; a residual above tol raises with that
    residual.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    asym = _max_asymmetry(a)
    if asym > 1e-9 and asym > 1e-9 * (1.0 + float(np.max(np.abs(a)))):
        raise ValidationError(f"matrix is not symmetric (max asymmetry {asym:.3e})")

    w = np.linalg.eigvalsh(a)
    lam = float(w[-1])
    start = rng_for(seed, 0x51).standard_normal(n)
    res = math.inf
    if n > 1 and w[-2] < lam - tol:
        v = _inverse_iteration(a, lam, start)
        if v is not None:
            res = float(np.linalg.norm(a @ v - lam * v))
    if not res <= tol:
        wv, vecs = np.linalg.eigh(a)
        top = vecs[:, wv >= wv[-1] - tol]
        v = top @ (top.T @ start)
        v /= np.linalg.norm(v)
        res = float(np.linalg.norm(a @ v - lam * v))
    if res > tol:
        raise ConvergenceError(f"eigh residual {res:.3e} is above tol={tol}", res)
    return EigenResult(lam, v, 1, res, float(w[0]))


def _inverse_iteration(a: np.ndarray, lam: float, start: np.ndarray) -> np.ndarray | None:
    """The solution of (lam I - a) v = start, normalized with v . start > 0,
    or None when the solve is singular or does not give a finite direction."""
    shifted = -a
    shifted.flat[:: a.shape[0] + 1] += lam
    try:
        v = np.linalg.solve(shifted, start)
    except np.linalg.LinAlgError:
        return None
    norm = float(np.linalg.norm(v))
    if not 0.0 < norm < math.inf:
        return None
    v /= math.copysign(norm, float(v @ start))
    return v


def eig_relaxation_value(inst: QpRatioInstance, seed: int = 0) -> float:
    """Top eigenvalue of the weight matrix; upper-bounds the integer optimum.

    seed is unused (the value needs no eigenvector); it is kept for callers
    that pass one.
    """
    if not inst.nnz:
        return 0.0
    return float(np.linalg.eigvalsh(inst.to_dense())[-1])


def _normalized_matrix(inst: QpRatioInstance):
    """D^{-1/2} A D^{-1/2} over the vertices of nonzero degree, with those
    vertices and D^{-1/2} on them; None when every degree is zero."""
    keep = np.nonzero(degrees(inst) > 0)[0]
    if keep.size == 0:
        return None
    sub, kept = restrict(inst, keep)
    inv_sqrt = 1.0 / np.sqrt(degrees(sub))
    s = sub.to_dense()
    s *= inv_sqrt[:, None]
    s *= inv_sqrt[None, :]
    return s, kept, inv_sqrt


def normalized_eig(inst: QpRatioInstance, seed: int = 0) -> tuple[float, np.ndarray]:
    """Top eigenvalue of D^{-1/2} A D^{-1/2} plus the Rayleigh witness x.

    Zero-degree vertices are deleted before normalizing; the witness is padded
    back with zeros and satisfies x^T A x / x^T D x = lambda.
    """
    norm = _normalized_matrix(inst)
    if norm is None:
        return 0.0, np.zeros(inst.n)
    s, kept, inv_sqrt = norm
    res = eigen_max(s, seed=seed)
    x = np.zeros(inst.n)
    x[kept] = res.vector * inv_sqrt
    return res.lambda_max, x


def normalized_eig_value(inst: QpRatioInstance) -> float:
    """Top eigenvalue of D^{-1/2} A D^{-1/2} (0 without edges)."""
    norm = _normalized_matrix(inst)
    if norm is None:
        return 0.0
    return float(np.linalg.eigvalsh(norm[0])[-1])


def trevisan_round(inst: QpRatioInstance, x) -> tuple[Assignment, RatioValue]:
    """Threshold-cut rounding for the normalized ratio.

    Each threshold t in {|x_i| : x_i != 0} gives the cut that keeps sign(x_i)
    where |x_i| >= t.  One sweep scores all of them: rank the vertices by
    their threshold, bucket each entry at the lower rank of its two ends, and
    suffix sums of the buckets give every cut's numerator and denominator,
    O(nnz + n log n) in all.  The cuts whose swept value lies within the
    summation-order error of the best are then evaluated exactly with
    eval_normalized_qp_ratio, in ascending threshold order, and the first
    with the largest value wins.  So the returned value is exactly the
    maximum over the threshold cuts, the value an evaluation of every cut
    would find.
    """
    xv = np.asarray(x, dtype=np.float64).ravel()
    if xv.size != inst.n:
        raise ValidationError(f"vector has length {xv.size}, instance has n={inst.n}")
    mags = np.abs(xv)
    live = mags > 0
    thresholds, rank = np.unique(mags[live], return_inverse=True)
    if thresholds.size == 0:
        raise ValidationError("threshold rounding needs a nonzero vector")
    signs = np.sign(xv)
    level = np.full(inst.n, -1, dtype=np.int64)
    level[live] = rank
    ii, jj, ww = inst.arrays
    low = np.minimum(level[ii], level[jj])
    terms = ww * signs[ii] * signs[jj]
    if not live.all():
        inside = low >= 0
        low, terms = low[inside], terms[inside]
    k = thresholds.size
    num = 2.0 * np.bincount(low, terms, minlength=k)
    den = np.bincount(rank, degrees(inst)[live], minlength=k)
    num = np.cumsum(num[::-1])[::-1]
    den = np.cumsum(den[::-1])[::-1]
    swept = np.divide(num, den, out=np.zeros(k), where=den != 0)
    top = float(np.max(swept))
    # the sweep and the evaluator add the same terms in different orders;
    # each sum is off by at most (terms) * 2^-53 of its absolute sum, and
    # |numerator| <= denominator, so a margin of 8 (nnz + n) 2^-53 keeps the
    # exact maximum among the re-scored cuts
    margin = max(1e-12 * abs(top), 8.0 * (ww.size + inst.n) * 2.0**-53)
    best: tuple[Assignment, RatioValue] | None = None
    for t in thresholds[swept >= top - margin]:
        y = np.where(mags >= t, signs, 0.0).astype(np.int64)
        a = Assignment(tuple(y.tolist()))
        val = eval_normalized_qp_ratio(inst, a)
        if best is None or val.value > best[1].value:
            best = (a, val)
    return best


def psd_polylog_round(
    inst: QpRatioInstance,
    x,
    diag=None,
    seed: int = 0,
) -> tuple[Assignment, RatioValue]:
    """Level-bucket rounding for instances whose completed form is PSD.

    Coordinates below a poly(1/n) floor are dropped, the rest are bucketed
    into dyadic magnitude levels.  Within a level every coordinate is pushed
    to the level ceiling with the sign that does not decrease the completed
    quadratic form (coordinatewise convex since a PSD form has a nonnegative
    diagonal), then the uniform-magnitude vector is read off as signs.  The
    form is tracked through the push by its O(n) change per coordinate and
    recomputed exactly once per level.  Returns the best level candidate or
    the single-edge baseline.  A completed form with an eigenvalue below
    -1e-8 (1 + max |entry|) is refused: a Cholesky factorization of the form
    plus that margin tests it, and only a refusal computes the eigenvalue.
    Nothing here is random; seed is accepted for callers that pass one.
    """
    n = inst.n
    xv = np.asarray(x, dtype=np.float64).ravel()
    if xv.size != n:
        raise ValidationError(f"vector has length {xv.size}, instance has n={n}")
    dvec = np.zeros(n) if diag is None else np.asarray(diag, dtype=np.float64).ravel()
    if dvec.size != n:
        raise ValidationError(f"diagonal has length {dvec.size}, instance has n={n}")
    a_full = inst.to_dense() + np.diag(dvec)
    scale = 1.0 + float(np.max(np.abs(a_full)))
    try:
        np.linalg.cholesky(a_full + np.diag(np.full(n, 1e-8 * scale)))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(a_full)[0])
        if min_eig < -1e-8 * scale:
            raise ValidationError(f"completed form is not PSD (min eigenvalue {min_eig:.3e})") from None

    best = trivial_solution(inst)
    floor = 1.0 / (n * n * scale)
    mags = np.abs(xv)
    live = mags >= floor
    if not np.any(live):
        return best
    xmax = float(np.max(mags[live]))
    levels = int(math.ceil(math.log2(xmax / floor))) + 1 if xmax > floor else 1
    for k in range(levels):
        hi = xmax / (2.0**k)
        lo = hi / 2.0
        sel = live & (mags <= hi) & (mags > lo)
        if not np.any(sel):
            continue
        y = np.where(sel, xv, 0.0)
        form = float(y @ a_full @ y)
        idx = np.nonzero(sel)[0]
        for _sweep in range(2):
            changed = False
            for i in idx:
                y_old = y[i]
                if abs(y_old) == hi:
                    continue
                aii = a_full[i, i]
                s = float(a_full[i] @ y) - aii * y_old
                y_new = hi if s >= 0 else -hi
                if y_new == y_old:
                    continue
                y[i] = y_new
                changed = True
                delta = 2.0 * (y_new - y_old) * s + aii * (y_new * y_new - y_old * y_old)
                if delta < -1e-9 * max(1.0, abs(form)):
                    raise AssertionError(
                        f"convexity push decreased the completed form: {form} -> {form + delta}"
                    )
                form += delta
            if not changed:
                break
        exact = float(y @ a_full @ y)
        # both sums carry rounding of about n 2^-53 times the sum of the term
        # magnitudes, hi^2 sum |a_ij| over the level (every coordinate of the
        # level now stands at +-hi)
        slack = 1e-9 * max(1.0, hi * hi * float(np.sum(np.abs(a_full[np.ix_(idx, idx)]))))
        if abs(exact - form) > slack:
            raise AssertionError(f"tracked completed form {form} differs from the recomputed {exact}")
        a = Assignment(tuple(int(v) for v in np.sign(y)))
        val = eval_qp_ratio(inst, a)
        if val.value > best[1].value:
            best = (a, val)
    return best


def solve_high_opt(inst: QpRatioInstance, eps: float, seed: int = 0) -> tuple[Assignment, RatioValue]:
    """Degree filter + normalized eigenvector + threshold rounding.

    Drops vertices with d_i < (eps/2) d_max, rounds the normalized eigenvector
    of the filtered instance, and returns the better of the mapped-back
    assignment and the single-edge baseline, measured by the plain ratio.
    """
    if not 0 < eps <= 1:
        raise ValidationError(f"eps must lie in (0,1], got {eps}")
    best = trivial_solution(inst)
    d = degrees(inst)
    dmax = float(np.max(d)) if d.size else 0.0
    if dmax <= 0:
        return best
    keep = np.nonzero(d >= (eps / 2.0) * dmax)[0]
    if keep.size == 0:
        return best
    sub, kept = restrict(inst, keep)
    if not sub.nnz:
        return best
    _, xsub = normalized_eig(sub, seed=seed)
    if not np.any(xsub):
        return best
    ysub, _ = trevisan_round(sub, xsub)
    vals = np.zeros(inst.n, dtype=np.int64)
    vals[kept] = ysub.values
    a = Assignment(tuple(vals.tolist()))
    val = eval_qp_ratio(inst, a)
    if val.value > best[1].value:
        best = (a, val)
    return best
