"""Seeded instance constructors: examples, gap certificates, planted and
hard-looking distributions, gadgets.

Every generator is a pure function of (params, seed); identical inputs give
bit-identical instances.  Instances carry their construction parameters and
the RNG family tag in meta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    Assignment,
    BudgetExceeded,
    EntryArrays,
    QpRatioInstance,
    RatioValue,
    ValidationError,
    _CanonicalArrays,
)
from .sdp import GramSolution
from .util import RNG_TAG, rng_for


def _meta(family: str, seed=None, **params) -> dict:
    m = {"family": family, "params": params, "rng": RNG_TAG}
    if seed is not None:
        m["seed"] = int(seed)
    return m


def gen_star(leaves: int) -> QpRatioInstance:
    """Unit-weight star: center 0, edges (0, i) for i = 1..leaves."""
    if leaves < 1:
        raise ValidationError(f"a star needs at least one leaf, got {leaves}")
    entries = _CanonicalArrays.of(np.zeros(leaves), np.arange(1, leaves + 1), np.ones(leaves))
    return QpRatioInstance(leaves + 1, entries, meta=_meta("star", leaves=leaves))


def star_relaxation_witness(leaves: int) -> tuple[np.ndarray, float]:
    """The fractional vector x_0 = 1/2, x_i = 1/sqrt(2 leaves) and its Rayleigh value.

    Shows the eigenvalue relaxation cheats on stars: the value grows like
    (4/3) sqrt(leaves/2) while the integer optimum stays below 2.
    """
    x = np.full(leaves + 1, 1.0 / math.sqrt(2 * leaves))
    x[0] = 0.5
    num = 2.0 * leaves * x[0] * x[1]
    den = float(np.dot(x, x))
    return x, num / den


def gen_bipartite_gap(n: int, seed: int) -> QpRatioInstance:
    """Complete bipartite sign matrix with |L| = sqrt(n), |R| = n.

    Left side occupies indices [0, sqrt(n)), right side the following n; every
    cross pair gets an i.i.d. uniform +-1 weight.
    """
    if n < 4 or math.isqrt(n) ** 2 != n:
        raise ValidationError(f"bipartite gap needs a perfect square n >= 4, got {n}")
    s = math.isqrt(n)
    rng = rng_for(seed, 0xB1)
    b = rng.integers(0, 2, size=(s, n)) * 2 - 1
    entries = _CanonicalArrays.of(np.repeat(np.arange(s), n), s + np.tile(np.arange(n), s), b.ravel())
    bip = (tuple(range(s)), tuple(range(s, s + n)))
    return QpRatioInstance(s + n, entries, bip, _meta("bipartite_gap", seed, n=n))


def _gap_sign_matrix(inst: QpRatioInstance) -> np.ndarray:
    if inst.bipartition is None:
        raise ValidationError("gap certificate needs a bipartite instance")
    left, right = inst.bipartition
    s, n = len(left), len(right)
    if s * s != n or inst.nnz != s * n:
        raise ValidationError("instance is not a complete sqrt(n) x n bipartite sign matrix")
    b = inst.to_dense()[np.ix_(left, right)]
    bad = b[np.abs(b) != 1.0]
    if bad.size:
        raise ValidationError(f"gap certificate needs +-1 weights, found {bad[0]}")
    return b


def gen_gap_sdp_certificate(inst: QpRatioInstance) -> GramSolution:
    """Closed-form feasible vector solution of objective sqrt(n) for the gap family.

    Left vertices get mutually orthogonal vectors of squared length 1/(2 sqrt(n));
    right vertex j gets sum_i B_ij v_i / sqrt(n), of squared length 1/(2n).
    """
    b = _gap_sign_matrix(inst)
    s, n = b.shape
    left, right = inst.bipartition
    w = np.zeros((inst.n, s))
    v_len = math.sqrt(1.0 / (2.0 * s))  # sqrt of 1/(2 sqrt(n))
    w[list(left), np.arange(s)] = v_len
    w[list(right)] = b.T * (v_len / math.sqrt(n))
    return GramSolution.build(inst, w)


@dataclass(frozen=True)
class PlantedParams:
    """Bipartite planted distribution: n left vertices, r right, edge prob p.

    A hidden left subset of size planted_size is correlated with the right
    side; all other edges carry fresh random signs.  Defaults: r and
    planted_size are round(n^(2/3)) and p = n^(delta - 1) with delta = 1/10.
    """

    n: int
    r: Optional[int] = None
    p: Optional[float] = None
    planted_size: Optional[int] = None
    delta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"planted instance needs n >= 2, got {self.n}")
        if self.r is None:
            object.__setattr__(self, "r", max(1, round(self.n ** (2.0 / 3.0))))
        if self.planted_size is None:
            object.__setattr__(self, "planted_size", max(1, round(self.n ** (2.0 / 3.0))))
        if self.p is None:
            object.__setattr__(self, "p", self.n ** (self.delta - 1.0))
        if not (0 < self.p <= 1):
            raise ValidationError(f"edge probability must be in (0,1], got {self.p}")
        if not (0 <= self.r <= self.n and 0 <= self.planted_size <= self.n):
            raise ValidationError(f"r and planted_size must lie in [0, n], got {self.r} and {self.planted_size}")


def gen_planted(params: PlantedParams) -> tuple[QpRatioInstance, Assignment]:
    """Instance plus the hidden assignment (planted left signs, all right signs)."""
    n, r, p = params.n, params.r, params.p
    rng = rng_for(params.seed, 0x70)
    mask = rng.random((n, r)) < p
    signs = rng.integers(0, 2, size=(n, r)) * 2 - 1
    planted = np.sort(rng.choice(n, size=params.planted_size, replace=False))
    rho_l = rng.integers(0, 2, size=params.planted_size) * 2 - 1
    rho_r = rng.integers(0, 2, size=r) * 2 - 1
    signs[planted] = np.outer(rho_l, rho_r)
    li, rj = np.nonzero(mask)
    entries = _CanonicalArrays.of(li, n + rj, signs[li, rj])
    bip = (tuple(range(n)), tuple(range(n, n + r)))
    inst = QpRatioInstance(
        n + r,
        entries,
        bip,
        _meta(
            "planted",
            params.seed,
            n=n,
            r=r,
            p=p,
            planted_size=params.planted_size,
            delta=params.delta,
        ),
    )
    vals = np.zeros(n + r, dtype=np.int64)
    vals[planted] = rho_l
    vals[n:] = rho_r
    return inst, Assignment(tuple(int(v) for v in vals))


@dataclass(frozen=True)
class LevelGraphParams:
    """Geometric level construction: m levels, level i holds n0 * M^i vertices.

    M = round(1/eps) and m = round(2/eps).  Cliques (weight 1) sit inside each
    level; complete bipartite blocks of weight 1/2 + eps join adjacent levels.
    """

    eps: float
    n0: int = 1

    def __post_init__(self):
        if not (0 < self.eps <= 0.5):
            raise ValidationError(f"eps must lie in (0, 1/2], got {self.eps}")
        if self.n0 < 1:
            raise ValidationError(f"n0 must be a positive integer, got {self.n0}")
        if self.M < 2 or self.m < 2:
            raise ValidationError(f"eps={self.eps} gives M={self.M}, m={self.m}; need both >= 2")

    @property
    def M(self) -> int:
        return round(1.0 / self.eps)

    @property
    def m(self) -> int:
        return round(2.0 / self.eps)

    def level_sizes(self) -> list[int]:
        return [self.n0 * self.M**i for i in range(1, self.m + 1)]

    def entry_count(self) -> int:
        s = self.level_sizes()
        cliques = sum(k * (k - 1) // 2 for k in s)
        cross = sum(s[i] * s[i + 1] for i in range(len(s) - 1))
        return cliques + cross


# most entries gen_level_graph builds
_LEVEL_GRAPH_ENTRIES = 2_000_000


def gen_level_graph(params: LevelGraphParams) -> QpRatioInstance:
    """Explicit level-graph instance in cut-gain sign convention.

    Weights are negated (cliques -1, cross blocks -(1/2+eps)) so that the
    normalized evaluator applied directly yields the gain objective.
    """
    total_entries = params.entry_count()
    if total_entries > _LEVEL_GRAPH_ENTRIES:
        raise BudgetExceeded(
            f"level graph refused: {total_entries} entries exceed cap {_LEVEL_GRAPH_ENTRIES}"
        )
    sizes = np.array(params.level_sizes(), dtype=np.int64)
    ends = np.cumsum(sizes)
    n = int(ends[-1])
    # vertex u of a level is joined to every later vertex of its level (its
    # clique) and to every vertex of the next level: the partners u+1 .. end
    # of the next level, one contiguous run, so the rows come out in the
    # (i, j) order that the unchecked hand-over below requires
    level_end = np.repeat(ends, sizes)
    u = np.arange(n)
    row_len = np.repeat(np.append(ends[1:], n), sizes) - u - 1
    starts = np.cumsum(row_len) - row_len
    ii = np.repeat(u, row_len)
    jj = np.arange(ii.size) + np.repeat(u + 1 - starts, row_len)
    ww = np.where(jj < level_end[ii], -1.0, -(0.5 + params.eps))
    return QpRatioInstance(
        n,
        _CanonicalArrays.of(ii, jj, ww),
        meta=_meta(
            "level_graph",
            None,
            eps=params.eps,
            M=params.M,
            m=params.m,
            n0=params.n0,
            sign_convention="negated-gain-weights",
        ),
    )


def level_graph_witness_vector(params: LevelGraphParams) -> np.ndarray:
    """Per-vertex witness x_u = (-1)^i eps^i for level i, aligned with gen_level_graph."""
    sizes = params.level_sizes()
    parts = [
        np.full(size, ((-1.0) ** lvl) * params.eps**lvl)
        for lvl, size in enumerate(sizes, start=1)
    ]
    return np.concatenate(parts)


def level_graph_witness_value(params: LevelGraphParams) -> RatioValue:
    """Exact witness value by per-level aggregation, no explicit edge list.

    Identical arithmetic to evaluating the witness vector on the explicit
    instance: levels carry constant x, so cliques and cross blocks reduce to
    closed-form sums.
    """
    eps = params.eps
    sizes = params.level_sizes()
    m = len(sizes)
    x = [((-1.0) ** i) * eps**i for i in range(1, m + 1)]
    cross_w = -(0.5 + eps)
    num = 0.0
    den = 0.0
    for k, s in enumerate(sizes):
        i = k + 1
        pairs = s * (s - 1) / 2.0
        num += 2.0 * pairs * (-1.0) * x[k] * x[k]
        den += 2.0 * pairs * 1.0 * (x[k] * x[k])  # |w| (x_u^2 + x_v^2) within the clique
        if k + 1 < m:
            block = s * sizes[k + 1]
            num += 2.0 * block * cross_w * x[k] * x[k + 1]
            den += block * abs(cross_w) * (x[k] * x[k] + x[k + 1] * x[k + 1])
    return RatioValue.of(num, den)


def check_expr1(gammas, M: int, m: int) -> tuple[float, bool]:
    """Evaluate the level-profile ratio and compare against M^(-sqrt(m)/4).

    ratio = (-sum_i g_i^2 M^(2i) + (1+2/M) sum_i g_i g_{i+1} M^(2i+1))
            / sum_i g_i M^(2i),   i = 1..m.
    """
    g = np.asarray(gammas, dtype=np.float64).ravel()
    if g.size != m:
        raise ValidationError(f"expected {m} coefficients, got {g.size}")
    if np.any((g < 0) | (g > 1)):
        raise ValidationError("coefficients must lie in [0, 1]")
    if not np.any(g > 0):
        raise ValidationError("coefficients must not all be zero")
    i = np.arange(1, m + 1, dtype=np.float64)
    m2i = float(M) ** (2 * i)
    eps = 1.0 / M
    num = -float(np.sum(g * g * m2i))
    num += (1.0 + 2.0 * eps) * float(np.sum(g[:-1] * g[1:] * float(M) ** (2 * i[:-1] + 1)))
    den = float(np.sum(g * m2i))
    ratio = num / den
    return ratio, ratio < float(M) ** (-math.sqrt(m) / 4.0)


def gen_apx_gadget(n: int, edges: Sequence[tuple[int, int]], d: int) -> QpRatioInstance:
    """Five-track cut gadget over a d-regular graph on n vertices.

    Blocks A,B,C,D,E each hold one copy of the vertex set (A = [0,n), ...,
    E = [4n,5n)).  Each track i carries the signed 5-cycle a-b-c-d-e with
    weights +d on the path edges and -d on the chord (a_i, e_i).  Cliques of
    weight 10d/n sit on A and on E; the input graph lands on C with weight -1
    per edge so that cut edges pay off.
    """
    if n < 1:
        raise ValidationError(f"gadget needs n >= 1, got {n}")
    deg = [0] * n
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"bad input edge ({u},{v})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValidationError(f"duplicate input edge {key}")
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    if edges and any(x != d for x in deg):
        raise ValidationError(f"input graph is not {d}-regular (degrees {sorted(set(deg))})")
    a0, b0, c0, d0, e0 = 0, n, 2 * n, 3 * n, 4 * n
    i = np.arange(n)
    graph = np.array(list(seen), dtype=np.int64).reshape(-1, 2)
    ii = [a0 + i, b0 + i, c0 + i, d0 + i, a0 + i, c0 + graph[:, 0]]
    jj = [b0 + i, c0 + i, d0 + i, e0 + i, e0 + i, c0 + graph[:, 1]]
    ww = [np.full(n, float(d))] * 4 + [np.full(n, -float(d)), np.full(len(graph), -1.0)]
    clique_w = 10.0 * d / n
    if clique_w != 0.0:
        ci, cj = np.triu_indices(n, 1)
        ii += [a0 + ci, e0 + ci]
        jj += [a0 + cj, e0 + cj]
        ww += [np.full(ci.size, clique_w)] * 2
    entries = EntryArrays(np.concatenate(ii), np.concatenate(jj), np.concatenate(ww))
    return QpRatioInstance(5 * n, entries, meta=_meta("apx_gadget", None, n=n, d=d, edges=len(seen)))


def apx_planted_assignment(n: int, cut_signs: Sequence[int]) -> Assignment:
    """Structured gadget solution: a=+1, e=-1, c=cut sign, b/d gated by c.

    c_i = +1 turns on b_i = +1 (d_i = 0); c_i = -1 turns on d_i = -1 (b_i = 0).
    Uses 4n of the 5n variables.
    """
    if len(cut_signs) != n:
        raise ValidationError(f"need {n} cut signs, got {len(cut_signs)}")
    vals = [0] * (5 * n)
    for i, c in enumerate(cut_signs):
        if c not in (-1, 1):
            raise ValidationError(f"cut sign {c!r} must be +-1")
        vals[i] = 1
        vals[4 * n + i] = -1
        vals[2 * n + i] = c
        if c > 0:
            vals[n + i] = 1
        else:
            vals[3 * n + i] = -1
    return Assignment(tuple(vals))


def random_instance(n: int, seed: int, density: float = 1.0) -> QpRatioInstance:
    """Seeded dense-ish random instance with uniform weights in [-1, 1);
    harness fodder, not a structured family."""
    if not 0 < density <= 1:
        raise ValidationError(f"density must be in (0,1], got {density}")
    rng = rng_for(seed, 0x44)
    pairs = n * (n - 1) // 2 if n > 1 else 0
    if density >= 1.0:
        picked = np.arange(pairs)
        u = rng.random(pairs)
    else:
        picked, u = _density_draws(rng, pairs, density, _DRAW_CHUNK)
    # pair p of the row-major order (i < j) lies in row i = the last row
    # that starts at or before p
    rows = np.arange(max(n, 0))
    row_start = rows * (2 * n - rows - 1) // 2
    ii = np.searchsorted(row_start, picked, side="right") - 1
    jj = picked - row_start[ii] + ii + 1
    entries = _CanonicalArrays.of(ii, jj, -1.0 + 2.0 * u)
    return QpRatioInstance(n, entries, meta=_meta("random", seed, n=n, density=density))


# doubles drawn per step of the density scan, which keeps its memory at
# O(_DRAW_CHUNK + kept pairs) whatever the number of candidate pairs
_DRAW_CHUNK = 1 << 16


def _density_draws(rng: np.random.Generator, pairs: int, density: float, chunk: int):
    """The pairs a density test keeps and their weight draws, as a per-pair
    loop would draw them: each pair draws one double for its test, and a
    kept pair draws the next double for its weight.

    Position k of the stream is a weight draw exactly when position k - 1 is
    a test that passes.  Inside a run of doubles below `density` that starts
    at s, the test and weight roles therefore alternate from s (a test), and
    the first double after a failed test or a weight is a test again.  The
    stream is scanned `chunk` doubles at a time; a chunk whose last double
    is a passing test hands the first double of the next chunk its weight.
    """
    picked, weights = [], []
    done = 0  # pairs whose test has been drawn
    pending = False  # the last double drawn is a passing test
    while done < pairs or pending:
        draws = rng.random(min(chunk, int((pairs - done) * (1.0 + density) * 1.05) + 64))
        if pending:
            weights.append(draws[:1].copy())
            draws = draws[1:]
        below = draws < density
        starts = np.flatnonzero(below & ~np.concatenate([[False], below[:-1]]))
        run_start = np.zeros(draws.size, dtype=np.int64)
        run_start[starts] = starts
        run_start = np.maximum.accumulate(run_start)
        k = np.arange(draws.size)
        weight = np.zeros(draws.size, dtype=bool)
        weight[1:] = below[:-1] & ((k[1:] - run_start[:-1]) % 2 == 1)
        tests = np.flatnonzero(~weight)[: pairs - done]
        kept = tests[below[tests]]
        picked.append(done + np.flatnonzero(below[tests]))
        done += tests.size
        pending = kept.size > 0 and kept[-1] == draws.size - 1
        weights.append(draws[kept[:-1] + 1] if pending else draws[kept + 1])
    if not picked:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    return np.concatenate(picked), np.concatenate(weights)
