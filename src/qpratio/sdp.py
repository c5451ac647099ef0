"""Strengthened vector relaxation: solver, feasibility checker, warm starts.

The relaxation maximizes sum_{i,j} a_ij <w_i, w_j> subject to sum_i w_i^2 = 1
and |<w_i, w_j>| <= w_i^2 for all pairs, which pushes nonzero vectors toward
equal lengths.  The solver is a low-rank factorization ascent with soft pair
penalties that advances all restarts as one stacked iterate; for s >= 0 the
penalty gradient uses sign(g) max(0, |g| - s) = g - clip(g, -s, s).  The
penalty climbs a ladder of 8 short phases (40 heavy-ball steps each,
weight 0.25 * 4^k * max(1, max|a_ij|)), so it ends high enough that
repairing the last phases to exact feasibility costs little objective.
The gradient kernel runs in float32 under a float64 iterate; the repair,
`GramSolution` and every objective and residual it reports are float64.
Every integer assignment embeds exactly feasibly, so the returned
objective is never below the best warm start.  No optimality certificate
is produced or needed downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Assignment, QpRatioInstance, ValidationError, trivial_solution
from .util import rng_for

# steps per penalty phase of the ascent
_PHASE_STEPS = 40


@dataclass(frozen=True, eq=False)
class GramSolution:
    """Vectors w_i (rows), the relaxation objective, and feasibility residuals."""

    vectors: np.ndarray
    objective: float
    residual_norm1: float
    residual_pair: float

    @classmethod
    def build(cls, inst: QpRatioInstance, vectors) -> "GramSolution":
        w = np.array(vectors, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != inst.n or w.shape[1] < 1:
            raise ValidationError(f"expected an {inst.n} x d vector array, got shape {w.shape}")
        w.setflags(write=False)
        gram = w @ w.T
        ii, jj, ww = inst.arrays
        objective = float(2.0 * np.sum(ww * gram[ii, jj]))
        sq = np.einsum("id,id->i", w, w)
        norm1 = abs(float(np.sum(sq)) - 1.0)
        g = np.abs(gram, out=gram)
        bound = np.minimum.outer(sq, sq)
        viol = g - bound
        np.fill_diagonal(viol, 0.0)
        pair = float(max(0.0, np.max(viol))) if inst.n > 1 else 0.0
        return cls(w, objective, norm1, pair)


def embed_assignment(inst: QpRatioInstance, a, dim: int = 2) -> GramSolution:
    """Rank-1 embedding w_i = (x_i / sqrt(k)) e_1 for a support-k assignment.

    Exactly feasible, with objective equal to the assignment's ratio value.
    """
    a = Assignment.coerce(a, inst.n)
    k = a.support
    if k == 0:
        raise ValidationError("cannot embed the all-zero assignment (norm constraint)")
    w = np.zeros((inst.n, max(dim, 1)))
    w[:, 0] = a.to_array() / math.sqrt(k)
    # 1/k is not exactly representable for most k; one renormalization pass
    # brings the total squared length within an ulp of 1
    w /= math.sqrt(float(np.sum(w * w)))
    return GramSolution.build(inst, w)


def sdp_feasibility(sol: GramSolution, tol: float = 1e-6) -> tuple[bool, dict]:
    report = {"residual_norm1": sol.residual_norm1, "residual_pair": sol.residual_pair}
    return (sol.residual_norm1 <= tol and sol.residual_pair <= tol), report


def _repair(a: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Exact feasibility map: orthogonal tails lift each diagonal to its row max.

    Raising G_ii to max_j |G_ij| (tails touch no off-diagonal inner product)
    satisfies every pair constraint, and the uniform renormalization to total
    squared length 1 preserves them.  Returns (objective, vectors).
    """
    g = w @ w.T
    sq = np.diag(g).copy()
    absg = np.abs(g)
    np.fill_diagonal(absg, 0.0)
    need = np.maximum(absg.max(axis=1), sq) if w.shape[0] > 1 else sq
    total = float(np.sum(need))
    if total <= 0:
        return None
    tails = np.sqrt(np.maximum(need - sq, 0.0))
    w2 = np.concatenate([w, np.diag(tails)], axis=1) / math.sqrt(total)
    return float(np.sum(a * g)) / total, w2


def _penalized_grad(
    a2: np.ndarray, w: np.ndarray, mu: float, g: np.ndarray, e: np.ndarray, out: np.ndarray
) -> None:
    """Gradient of <A, G> - mu sum_{i != j} max(0, |G_ij| - G_ii)^2 per restart, into `out`.

    `a2` is 2A, `w` the (R, n, d) stack, `g` and `e` (R, n, n) work buffers.  With
    E = G - clip(G, -G_ii, G_ii) (zero diagonal) the gradient is
    (2A - 2mu (E + E^T) + 4mu diag(rowsum |E|)) W.  It computes in the dtype
    of its buffers.
    """
    # a contiguous W^T operand makes the batched GEMM about twice as fast
    np.matmul(w, np.ascontiguousarray(w.transpose(0, 2, 1)), out=g)
    # G is symmetric, so E^T = G - clip(G, -G_jj, G_jj); bounds that vary
    # along a row broadcast over contiguous memory, which is much faster
    sq = g.diagonal(axis1=1, axis2=2)[:, None, :]
    np.minimum(g, sq, out=e)
    np.maximum(e, -sq, out=e)
    np.subtract(g, e, out=e)
    np.add(e, e.transpose(0, 2, 1), out=g)
    g *= -2.0 * mu
    g += a2
    np.abs(e, out=e)
    g.reshape(len(g), -1)[:, :: g.shape[1] + 1] += (4.0 * mu) * np.add.reduce(e, axis=1)
    np.matmul(g, w, out=out)


def _ascend_stack(a: np.ndarray, w0: np.ndarray, iters: int) -> list[np.ndarray | None]:
    """Normalized-gradient ascent with heavy-ball momentum and an escalating
    pair-constraint penalty.

    `w0` is an (R, n, d) stack of unit-norm starting points; all R restarts
    advance together through 8 phases of `iters` steps, the penalty weight
    rising from 0.25 to 4096 times max(1, max|a_ij|), by 4x per phase.
    Each step adds the normalized gradient, scaled by 0.06 / (1 + 4t/iters),
    to a velocity that keeps half its previous value; the velocity starts
    at zero in every phase, because each new penalty weight changes the
    landscape.  Early phases run with a weak penalty so the objective
    shapes the solution; each phase output of each restart is repaired to
    exact feasibility and that restart's best repaired iterate wins.  A
    restart whose gradient vanishes drops its velocity and takes no
    further step in that phase.

    The gradient kernel (2A, the (R, n, n) Gram/penalty buffers, the
    gradient itself and the copy of W it reads) runs in float32: it only
    sets a normalized search direction, so it can move half the bytes.
    The iterate W, the velocity, the gradient norm, the renormalization
    and the repair run in float64, so every reported number is float64.
    """
    n_r, n, _ = w0.shape
    scale = max(1.0, float(np.max(np.abs(a))))
    a2 = (2.0 * a).astype(np.float32)
    w = w0.copy()
    w32 = np.empty(w.shape, dtype=np.float32)
    g = np.empty((n_r, n, n), dtype=np.float32)
    e = np.empty_like(g)
    grad32 = np.empty_like(w32)
    grad = np.empty_like(w)
    best_w: list[np.ndarray | None] = [None] * n_r
    best_obj = [-math.inf] * n_r
    mu = 0.25 * scale
    vel = np.empty_like(w)
    for _phase in range(8):
        moving = np.ones((n_r, 1, 1), dtype=bool)
        vel.fill(0.0)
        for t in range(iters):
            np.copyto(w32, w)
            _penalized_grad(a2, w32, mu, g, e, grad32)
            np.copyto(grad, grad32)
            gnorm = np.sqrt(np.add.reduce(grad * grad, axis=(1, 2), keepdims=True))
            moving &= gnorm > 0.0
            grad *= np.divide(0.06 / (1.0 + 4.0 * t / iters), gnorm, out=np.zeros_like(gnorm), where=moving)
            vel *= 0.5 * moving
            vel += grad
            w += vel
            w /= np.sqrt(np.add.reduce(w * w, axis=(1, 2), keepdims=True))
        for r in range(n_r):
            repaired = _repair(a, w[r])
            if repaired is not None and repaired[0] > best_obj[r]:
                best_obj[r], best_w[r] = repaired
        mu *= 4.0
    return best_w


def sdp_solve(
    inst: QpRatioInstance,
    rank: int | None = None,
    seed: int = 0,
    warm_starts=(),
    restarts: int = 3,
) -> GramSolution:
    """Best feasible-within-1e-6 solution among penalized ascents and warm starts.

    `warm_starts` may hold assignments (embedded exactly) or ready-made
    GramSolutions; the single-edge baseline is always included, so the result
    is never worse than the best warm start.  Ascent outputs failing the
    feasibility tolerance are discarded.
    """
    d = rank if rank is not None else int(math.ceil(math.sqrt(2 * inst.n))) + 1
    if d < 2:
        raise ValidationError(f"rank must be at least 2, got {d}")
    if restarts < 0:
        raise ValidationError(f"need restarts >= 0, got {restarts}")
    candidates: list[GramSolution] = []
    base, _ = trivial_solution(inst)
    if base.support == 0:
        vals = [0] * inst.n
        vals[0] = 1
        base = Assignment(tuple(vals))
    candidates.append(embed_assignment(inst, base, dim=d))
    for ws in warm_starts:
        if isinstance(ws, GramSolution):
            sol = GramSolution.build(inst, ws.vectors)
        else:
            sol = embed_assignment(inst, ws, dim=d)
        candidates.append(sol)
    if inst.nnz and restarts:
        a = inst.to_dense()
        w0 = np.stack([rng_for(seed, 0x5D, r).standard_normal((inst.n, d)) for r in range(restarts)])
        w0 /= np.linalg.norm(w0, axis=(1, 2), keepdims=True)
        for w in _ascend_stack(a, w0, _PHASE_STEPS):
            if w is None:
                continue
            sol = GramSolution.build(inst, w)
            if sdp_feasibility(sol)[0]:
                candidates.append(sol)
    best = candidates[0]
    for sol in candidates[1:]:
        if sol.objective > best.objective:
            best = sol
    return best

