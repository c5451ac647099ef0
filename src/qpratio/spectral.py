"""Symmetric eigensolver and the eigenvalue-relaxation pipelines.

Every top eigenvalue here is an estimate checked by a proof.  From
_KRYLOV_MIN_N rows up the estimate is a Lanczos run with full
reorthogonalization from a seeded start (_krylov_top): one matrix-vector
product per step, stopped once the top Ritz pair has converged, instead of
the 4/3 n^3 flops of a dense eigvalsh.  Below that size a dense eigvalsh
costs less than the loop's per-step overhead and gives the estimate.  The
proof is one Cholesky factorization of mu I - A (_certify): when it succeeds,
every eigenvalue of A lies below mu plus a slack bounded from the computed
factor, so the bounds weighted_eig_value, eig_relaxation_value and
top_eigenvalue_bound return that sum and nothing unproven.  A refused
factorization widens the shift a few times, then falls back to eigvalsh and
certifies that.  eigen_max returns the converged Ritz pair once one Cholesky
above it proves it is the top pair; otherwise it takes the dense path, one
eigvalsh plus one inverse-iteration solve, or a full numpy.linalg.eigh for a
repeated top eigenvalue.  scipy is not imported: importing its sparse
eigensolver costs more than these solves take at n <= 1100.

Each ratio is x^T A x / sum_i w_i x_i^2 (w = 1 plain, w = the degrees
normalized); its relaxation value is the top eigenvalue of W^{-1/2} A
W^{-1/2} over the positive-weight vertices, whose Rayleigh quotient matches
that ratio under x -> W^{1/2} x.

The roundings (trevisan_round under the degrees, psd_polylog_round and
solve_high_opt under unit weights) score each {-1, 0, 1} candidate as an int
array with core._keep_better, which builds an Assignment only for a candidate
that beats the best so far; a tie keeps the earlier one.  Without a candidate
(a zero vector, no coordinate above the floor) they return the single edge.
An empty matrix, one whose entries are not bool, integer or float, or one
with a NaN or infinite entry, a tol that is not a finite number >= 0, a
non-finite rounding vector or PSD diagonal, and degrees that overflow float64
are refused with ValidationError.
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
    _finite_vector,
    _keep_better,
    _weight_vector,
    degrees,
    restrict,
    trivial_solution,
)
from .util import rng_for

_U = 2.0**-53  # unit roundoff of float64
# Order from which the top eigenpair is estimated by Lanczos rather than a
# dense eigvalsh.  Sparse random matrices (density 0.05, plain and
# normalized) need 65-100 Lanczos steps at n = 250-400; with one BLAS thread
# on a 2-core x86-64 VM the dense bound or eigenpair took 5.6-6.2 ms at
# n = 250 against 5.8-11.6 ms by Lanczos, 8.4-9.2 against 6.0-10.8 ms at
# n = 300 and 11.8-13.2 against 6.6-11.1 ms at n = 400.
_KRYLOV_MIN_N = 350
# shift widenings _certify tries after a refused factorization, each 16 times the last
_WIDENINGS = 3


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


def _max_asymmetry(a: np.ndarray) -> float:
    """max |a_ij - a_ji|, read in 128-row blocks of the upper triangle so that
    the transposed side is read a few cache lines per row, not one element.
    A NaN or infinite entry makes some difference NaN or inf (a diagonal one
    against itself), and np.maximum carries a NaN through to the result;
    _symmetric refuses both, so their subtraction warnings are silenced."""
    worst = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for r in range(0, a.shape[0], 128):
            diff = a[r : r + 128, r:] - a[r:, r : r + 128].T
            worst = float(np.maximum(worst, np.max(np.abs(diff))))
    return worst


def _symmetric(matrix) -> np.ndarray:
    """matrix as a float64 array, refused unless real (bool, integer or float
    entries), square, non-empty, finite and symmetric to 1e-9; the asymmetry
    pass finds the non-finite entries too."""
    a = np.asarray(matrix)
    if a.dtype.kind not in "biuf":
        raise ValidationError(f"expected a real numeric matrix, got dtype {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValidationError(f"expected a non-empty square matrix, got shape {a.shape}")
    asym = _max_asymmetry(a)
    # a finite matrix has an infinite asymmetry only when a difference
    # overflows, and the symmetry test below refuses that one
    if not math.isfinite(asym) and not np.all(np.isfinite(a)):
        raise ValidationError("matrix has a non-finite entry")
    if asym > 1e-9 and asym > 1e-9 * (1.0 + float(np.max(np.abs(a)))):
        raise ValidationError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return a


def _krylov_top(a: np.ndarray, start: np.ndarray, tol: float):
    """Top Ritz pair of the symmetric matrix a by Lanczos from start.

    Each step multiplies the newest basis vector by a, applies the three-term
    recurrence and projects the result off the whole basis, a second time
    when the first projection removed more than half its norm, so the basis
    stays orthonormal to working precision and no spurious copy of a
    converged Ritz value appears.  The basis is allocated once, with a row
    per step up to the limit; rows never written are never touched.  The
    k x k tridiagonal eigenproblem goes to numpy.linalg.eigh at step 8, then
    12, then where _next_check expects convergence (at most half again as
    many steps), so its O(k^3) cost stays below that of the products.  There
    the top Ritz pair (theta, y) has residual ||a y - theta y|| = beta |s_k|
    (the next off-diagonal times the last component of the tridiagonal
    eigenvector), and with gap the distance from theta to the next Ritz value
    the run stops once that residual is at most tol min(1, gap): then y's
    angle to the top eigenvector, about residual / gap, is at most tol, and
    theta's error, about residual^2 / gap, at most tol^2.  A residual that
    reaches 0 ends the run too.

    Returns (theta, y, k) with y of unit norm and y . start > 0, or None when
    n // 3 steps pass without convergence: near there the loop costs as much
    as the dense path it replaces (one step is one matrix-vector product,
    the dense path about n^3 flops).
    """
    n = a.shape[0]
    limit = max(2, n // 3)
    basis = np.empty((limit, n))
    basis[0] = start / np.linalg.norm(start)
    alpha: list[float] = []
    beta: list[float] = []
    check = 8
    last = None
    k = 0
    while True:
        q = basis[k]
        w = a @ q
        alpha.append(float(q @ w))
        w -= alpha[-1] * q
        if k:
            w -= beta[-1] * basis[k - 1]
        done = basis[: k + 1]
        before = math.sqrt(w @ w)
        w -= (done @ w) @ done
        after = math.sqrt(w @ w)
        if after < 0.5 * before:
            w -= (done @ w) @ done
            after = math.sqrt(w @ w)
        k += 1
        if k >= check or after == 0.0 or k >= limit:
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            gap = theta[-1] - theta[-2] if k > 1 else math.inf
            res = after * abs(s[-1, -1])
            target = tol * min(1.0, gap)
            if res <= target:
                y = s[:, -1] @ basis[:k]
                y /= math.copysign(math.sqrt(y @ y), float(y @ start))
                return float(theta[-1]), y, k
            if k >= limit:
                return None
            check = k + _next_check(k, res, target, last)
            last = (k, res)
        beta.append(after)
        basis[k] = w / after


def _next_check(k: int, res: float, target: float, last) -> int:
    """Steps to the next convergence check of _krylov_top: where the residual's
    decay rate since the last check would meet the target, at least 1 and at
    most k // 2 steps on, and k // 2 while there is no rate yet (or no
    positive target to aim at)."""
    if last is None or not 0.0 < res < last[1] or not target > 0.0:
        return max(1, k // 2)
    rate = math.log(last[1] / res) / (k - last[0])
    return max(1, min(k // 2, math.ceil(min(math.log(res / target) / rate, k))))


def _shifted(a: np.ndarray, mu: float) -> np.ndarray:
    """mu I - a, as a new array."""
    h = -a
    h.flat[:: a.shape[0] + 1] += mu
    return h


def _cholesky_above(a: np.ndarray, mu: float) -> np.ndarray | None:
    """The lower Cholesky factor of mu I - a (lower triangle of a read), or
    None when the factorization refuses it."""
    try:
        return np.linalg.cholesky(_shifted(a, mu))
    except np.linalg.LinAlgError:
        return None


def _offset(a: np.ndarray) -> float:
    """c = (n + 2) u ||a||_F, the first shift _certify tries above an estimate."""
    return (a.shape[0] + 2) * _U * (float(np.linalg.norm(a)) or 1.0)


def _certify(a: np.ndarray, lam: float) -> float | None:
    """A proved upper bound on the top eigenvalue of the symmetric matrix a
    near the estimate lam, or None when every shift is refused.

    Let mu = lam + c with c = (n + 2) u ||a||_F (u = 2^-53), H = fl(mu I - a)
    (the off-diagonal entries are exact, the diagonal ones are off by at most
    u |mu - a_ii|) and let Cholesky succeed on H with computed factor L.  The
    componentwise backward error of Cholesky (Demmel 1989; Higham, Accuracy
    and Stability of Numerical Algorithms, Thm 10.3; the basis of Rump,
    "Verification of positive definiteness", BIT 46, 2006) gives
    L L^T = H + E with |E| <= g |L| |L|^T, g = (n + 1) u / (1 - (n + 1) u),
    for any summation order.  L L^T is positive semidefinite, so
    lambda_min(mu I - a) >= -||E||_2 - u max_i |mu - a_ii|, and
    ||E||_2 <= g rho(|L| |L|^T).  For positive x, rho(|L| |L|^T) <= max_i
    (|L| |L|^T x)_i / x_i (Collatz-Wielandt: the right side is the norm of
    |L| |L|^T in the x-weighted max norm); three power steps from the ones
    vector bring it within 2.5% of rho on the spectral ladder.  Hence

        lambda_max(a) <= mu + g rho_bound + u max_i |mu - a_ii| = mu + s,

    where the computed sums are nonnegative, so their rounding only lowers
    them, by a factor (1 - g)^2 at most; that and the few roundings in
    forming s are covered by a factor (1 + 8g) on s, and the final addition
    is rounded up by one ulp.  (Underflow, which would need entries near
    2^-1022, is not accounted for.)  The lower triangle of a is what is
    proved: numpy.linalg.cholesky reads only it.

    The slack s measured 1.2 to 2.1 times c on the benchmark's matrices, so
    the bound sits 2c to 3c above lam, and c is also the room the first shift
    leaves for lam's own error.  A refused factorization means mu is not
    above the top eigenvalue (to rounding); the shift then grows 16-fold,
    at most _WIDENINGS times, so a proved bound is at most about 4096 c
    above lam.  That happens when the estimate is off by more than c: a
    Lanczos run on a top pair 1e-8 apart (gap below its residual) stopped
    1e-8 low, and its bound came from the third widening.
    """
    n = a.shape[0]
    c = _offset(a)
    g = (n + 1) * _U / (1.0 - (n + 1) * _U)
    for widen in range(_WIDENINGS + 1):
        mu = lam + c * 16.0**widen
        low = _cholesky_above(a, mu)
        if low is None:
            continue
        np.abs(low, out=low)
        x = np.ones(n)
        rho = math.inf
        for _ in range(3):
            y = low @ (x @ low)
            rho = min(rho, float(np.max(y / x)))
            x = y / np.max(y)
        s = (g * rho + _U * float(np.max(np.abs(mu - np.diagonal(a))))) * (1.0 + 8.0 * g)
        return float(np.nextafter(mu + s, math.inf))
    return None


def _top_bound(a: np.ndarray) -> float:
    """Proved upper bound on the top eigenvalue of the symmetric matrix a.

    The Lanczos estimate stops at tol = sqrt(c) / 2, where theta's error of
    about tol^2 = c / 4 leaves the first certificate shift c room; the start
    is fixed (seed 0), so the bound does not depend on any caller's seed.
    """
    n = a.shape[0]
    if n >= _KRYLOV_MIN_N:
        found = _krylov_top(a, rng_for(0, 0x51).standard_normal(n), 0.5 * math.sqrt(_offset(a)))
        if found is not None:
            bound = _certify(a, found[0])
            if bound is not None:
                return bound
    bound = _certify(a, float(np.linalg.eigvalsh(a)[-1]))
    if bound is None:
        raise ConvergenceError("no Cholesky certificate above the eigvalsh estimate", math.inf)
    return bound


def top_eigenvalue_bound(matrix) -> float:
    """A proved upper bound on the largest eigenvalue of a symmetric matrix,
    typically 2c to 3c above it, c = (n + 2) 2^-53 ||A||_F (see _certify)."""
    return _top_bound(_symmetric(matrix))


def eigen_max(matrix, tol: float = 1e-10, seed: int = 0) -> EigenResult:
    """Largest (signed) eigenvalue of a symmetric matrix and its eigenvector.

    The vector is the seeded start projected onto the eigenvectors whose
    eigenvalues lie within tol of the largest, normalized: the direction a
    power iteration from that start converges to, so a repeated top
    eigenvalue gives the same seed-dependent vector.  From _KRYLOV_MIN_N rows
    up, Lanczos from that start gives it: a Krylov space from one start holds
    one direction of each eigenspace, the start's projection.  The returned
    pair is the converged Ritz vector v and its Rayleigh quotient lambda,
    accepted when ||A v - lambda v||_2 = r is at most tol and a Cholesky
    factorization of (lambda + r + c) I - A succeeds (c as in _certify),
    which proves no eigenvalue lies above lambda + r + c, so a Krylov run
    that converged to a lower eigenpair is never returned; iterations is the
    number of Lanczos steps.  Otherwise (a refused Cholesky, or a run that
    reaches its step limit, as near-repeated top eigenvalues make it do),
    and below _KRYLOV_MIN_N rows, one eigvalsh gives the top eigenvalue; when it is simple the vector is the
    solution of (lambda I - A) v = start, normalized and signed so that
    v . start > 0 (one step of inverse iteration at the computed eigenvalue),
    and a repeated top eigenvalue, a singular solve or a solve that misses
    tol projects onto the eigenvectors of a full eigh instead.  The returned
    residual is ||A v - lambda v||_2; a residual above tol raises with that
    residual; tol must be a finite number >= 0.
    """
    if not 0.0 <= tol < math.inf:
        raise ValidationError(f"tol must be a finite number >= 0, got {tol!r}")
    a = _symmetric(matrix)
    n = a.shape[0]
    start = rng_for(seed, 0x51).standard_normal(n)
    if n >= _KRYLOV_MIN_N:
        found = _krylov_top(a, start, tol)
        if found is not None:
            _, v, k = found
            av = a @ v
            lam = float(v @ av)
            res = float(np.linalg.norm(av - lam * v))
            if res <= tol and _cholesky_above(a, lam + res + _offset(a)) is not None:
                return EigenResult(lam, v, k, res)

    w = np.linalg.eigvalsh(a)
    lam = float(w[-1])
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
    return EigenResult(lam, v, 1, res)


def _inverse_iteration(a: np.ndarray, lam: float, start: np.ndarray) -> np.ndarray | None:
    """The solution of (lam I - a) v = start, normalized with v . start > 0,
    or None when the solve is singular or does not give a finite direction."""
    try:
        v = np.linalg.solve(_shifted(a, lam), start)
    except np.linalg.LinAlgError:
        return None
    norm = float(np.linalg.norm(v))
    if not 0.0 < norm < math.inf:
        return None
    v /= math.copysign(norm, float(v @ start))
    return v


def eig_relaxation_value(inst: QpRatioInstance, seed: int = 0) -> float:
    """weighted_eig_value with unit weights (seed is unused; callers pass one)."""
    return weighted_eig_value(inst, np.ones(inst.n))


def _weighted_matrix(inst: QpRatioInstance, weights: np.ndarray):
    """W^{-1/2} A W^{-1/2} over the vertices of positive weight, with those
    vertices and W^{-1/2} on them; None when no entry is left.  Entry (i, j)
    is a_ij (s_i s_j), so the matrix is exactly symmetric.  The scaling runs
    in 64-row blocks: one n x n outer product costs more to fault in than the
    multiply (7.0 against 2.8 ms at n = 1092).  Unit weights keep the
    instance and skip the n^2 scaling by 1.0, 5% of the plain bound at
    n = 400-1092 (one BLAS thread, 2-core x86-64)."""
    keep = np.flatnonzero(weights > 0)
    if not inst.nnz or keep.size == 0:
        return None
    sub, kept = restrict(inst, keep)
    inv_sqrt = 1.0 / np.sqrt(weights[kept])
    s = sub.to_dense()
    if np.any(inv_sqrt != 1.0):
        for r in range(0, s.shape[0], 64):
            s[r : r + 64] *= inv_sqrt[r : r + 64, None] * inv_sqrt
    return s, kept, inv_sqrt


def weighted_eig_value(inst: QpRatioInstance, weights) -> float:
    """Certified upper bound (see _certify) on the top eigenvalue of
    W^{-1/2} A W^{-1/2} over the positive-weight vertices, and so on the
    optimum of x^T A x / sum_i weights_i x_i^2: ones give the plain bound,
    the degrees the normalized one.  0 without entries, +inf when a nonzero
    entry touches a zero weight; the weights must be n finite nonnegative
    numbers.  The Cholesky proves the computed matrix, whose entries carry
    the rounding of the square roots and the products."""
    w = _weight_vector(inst.n, weights)
    # degrees cost O(nnz) on a new instance, so only a zero weight reads them
    if not w.all() and np.any(degrees(inst)[w == 0] > 0):
        return math.inf
    norm = _weighted_matrix(inst, w)
    return 0.0 if norm is None else _top_bound(norm[0])


def normalized_eig(inst: QpRatioInstance, seed: int = 0) -> tuple[float, np.ndarray]:
    """Top eigenvalue of D^{-1/2} A D^{-1/2}, as eigen_max computes it, plus
    the Rayleigh witness x (weighted_eig_value of the degrees certifies it).

    Zero-degree vertices are deleted before normalizing; the witness is padded
    back with zeros and satisfies x^T A x / x^T D x = lambda.  Degrees that
    overflow float64 are refused, as weighted_eig_value refuses them.
    """
    norm = _weighted_matrix(inst, _weight_vector(inst.n, degrees(inst)))
    if norm is None:
        return 0.0, np.zeros(inst.n)
    s, kept, inv_sqrt = norm
    res = eigen_max(s, seed=seed)
    x = np.zeros(inst.n)
    x[kept] = res.vector * inv_sqrt
    return res.lambda_max, x


def trevisan_round(inst: QpRatioInstance, x) -> tuple[Assignment, RatioValue]:
    """Threshold-cut rounding for the normalized ratio.

    Each threshold t in {|x_i| : x_i != 0} gives the cut that keeps sign(x_i)
    where |x_i| >= t.  One sweep scores all of them: rank the vertices by
    their threshold, bucket each entry at the lower rank of its two ends, and
    suffix sums of the buckets give every cut's numerator and denominator,
    O(nnz + n log n) in all.  The cuts whose swept value lies within the
    summation-order error of the best are then scored as one stack by
    core._keep_better under the degrees, with the bits eval_weighted gives
    them, in ascending threshold order, and the first with the largest
    value wins.  So the returned value is exactly the maximum over the
    threshold cuts, the value an evaluation of every cut would find.  An x with no nonzero entry gives no cut, and then the
    single-edge baseline is returned, scored under the degrees.  x must be
    finite and the degrees must not overflow float64.
    """
    xv = _finite_vector(inst.n, x)
    d = _weight_vector(inst.n, degrees(inst))
    mags = np.abs(xv)
    live = mags > 0
    thresholds, rank = np.unique(mags[live], return_inverse=True)
    if thresholds.size == 0:
        return _keep_better(inst, None, np.array(trivial_solution(inst)[0].values, dtype=np.int64), d)
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
    den = np.bincount(rank, d[live], minlength=k)
    num = np.cumsum(num[::-1])[::-1]
    den = np.cumsum(den[::-1])[::-1]
    swept = np.divide(num, den, out=np.zeros(k), where=den != 0)
    top = float(np.max(swept))
    # the sweep and the evaluator add the same terms in different orders;
    # each sum is off by at most (terms) * 2^-53 of its absolute sum, and
    # |numerator| <= denominator, so a margin of 8 (nnz + n) 2^-53 keeps the
    # exact maximum among the re-scored cuts
    margin = max(1e-12 * abs(top), 8.0 * (ww.size + inst.n) * 2.0**-53)
    near = thresholds[swept >= top - margin]
    return _keep_better(inst, None, np.where(mags >= near[:, None], signs, 0.0).astype(np.int64), d)


def psd_polylog_round(
    inst: QpRatioInstance,
    x,
    diag=None,
    seed: int = 0,
) -> tuple[Assignment, RatioValue]:
    """Level-bucket rounding for instances whose completed form is PSD.

    Coordinates below a poly(1/n) floor are dropped, the rest are bucketed
    into dyadic magnitude levels.  Within a level one pass pushes every
    coordinate to the level ceiling with the sign that does not decrease the
    completed quadratic form (coordinatewise convex since a PSD form has a
    nonnegative diagonal); a pushed coordinate stands at the ceiling, so a
    second pass would move nothing.  The uniform-magnitude vector is then read
    off as signs.  The form is tracked through the push by its O(n) change per
    coordinate and recomputed exactly once per level.  Returns the best level
    candidate or the single-edge baseline.  A completed form with an
    eigenvalue below -1e-8 (1 + max |entry|) is refused: a Cholesky
    factorization of the form plus that margin tests it, and only a refusal
    computes the eigenvalue.  An x or diag that core._finite_vector refuses
    is refused too.  Nothing here is random; seed is accepted for callers
    that pass one.
    """
    n = inst.n
    xv = _finite_vector(n, x)
    dvec = np.zeros(n) if diag is None else _finite_vector(n, diag, "diagonal")
    a_full = inst.to_dense()
    a_full.flat[:: n + 1] = dvec
    scale = 1.0 + float(np.max(np.abs(a_full)))
    # the test factors a_full + cI from a_full negated in place, and negation
    # is exact, so one n x n copy fewer is live
    np.negative(a_full, out=a_full)
    refused = _cholesky_above(a_full, 1e-8 * scale) is None
    np.negative(a_full, out=a_full)
    if refused:
        min_eig = float(np.linalg.eigvalsh(a_full)[0])
        if min_eig < -1e-8 * scale:
            raise ValidationError(f"completed form is not PSD (min eigenvalue {min_eig:.3e})")

    best = trivial_solution(inst)
    floor = 1.0 / (n * n * scale)
    mags = np.abs(xv)
    live = mags >= floor
    if not np.any(live):
        return best
    xmax = float(np.max(mags[live]))
    levels = int(math.ceil(math.log2(xmax / floor))) + 1
    for k in range(levels):
        hi = xmax / (2.0**k)
        lo = hi / 2.0
        sel = live & (mags <= hi) & (mags > lo)
        if not np.any(sel):
            continue
        y = np.where(sel, xv, 0.0)
        form = float(y @ a_full @ y)
        idx = np.nonzero(sel)[0]
        for i in idx:
            y_old = y[i]
            if abs(y_old) == hi:
                continue
            aii = a_full[i, i]
            s = float(a_full[i] @ y) - aii * y_old
            y_new = hi if s >= 0 else -hi
            y[i] = y_new
            delta = 2.0 * (y_new - y_old) * s + aii * (y_new * y_new - y_old * y_old)
            if delta < -1e-9 * max(1.0, abs(form)):
                raise AssertionError(
                    f"convexity push decreased the completed form: {form} -> {form + delta}"
                )
            form += delta
        exact = float(y @ a_full @ y)
        # both sums carry rounding of about n 2^-53 times the sum of the term
        # magnitudes, hi^2 sum |a_ij| over the level (every coordinate of the
        # level now stands at +-hi)
        slack = 1e-9 * max(1.0, hi * hi * float(np.sum(np.abs(a_full[np.ix_(idx, idx)]))))
        if abs(exact - form) > slack:
            raise AssertionError(f"tracked completed form {form} differs from the recomputed {exact}")
        best = _keep_better(inst, best, np.sign(y).astype(np.int64), np.ones(n))
    return best


def solve_psd(inst: QpRatioInstance, seed: int = 0) -> tuple[Assignment, RatioValue]:
    """psd_polylog_round of A's top eigenvector, the diagonal lifted by the
    certified top eigenvalue of -A; trivial_solution without entries."""
    if not inst.nnz:
        return trivial_solution(inst)
    a = inst.to_dense()
    top = eigen_max(a, seed=seed)
    shift = max(0.0, top_eigenvalue_bound(-a))
    return psd_polylog_round(inst, top.vector, diag=np.full(inst.n, shift))


def solve_high_opt(inst: QpRatioInstance, eps: float, seed: int = 0) -> tuple[Assignment, RatioValue]:
    """Degree filter + normalized eigenvector + threshold rounding.

    Drops vertices with d_i < (eps/2) d_max, rounds the normalized eigenvector
    of the filtered instance, and returns the better of the mapped-back
    assignment and the single-edge baseline, measured by the plain ratio (a
    zero eigenvector rounds to a kept edge, which never beats it).  Degrees
    that overflow float64 are refused.
    """
    if not 0 < eps <= 1:
        raise ValidationError(f"eps must lie in (0,1], got {eps}")
    d = _weight_vector(inst.n, degrees(inst))
    sub, kept = restrict(inst, np.nonzero(d >= (eps / 2.0) * np.max(d))[0])
    ysub, _ = trevisan_round(sub, normalized_eig(sub, seed=seed)[1])
    vals = np.zeros(inst.n, dtype=np.int64)
    vals[kept] = ysub.values
    return _keep_better(inst, trivial_solution(inst), vals, np.ones(inst.n))
