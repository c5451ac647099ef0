"""Hardness-reduction machinery.

Three reduction chains, each checkable at desk scale:

  * random k-AND  ->  bipartite ratio instance (variable side replicated so
    the weighted denominator becomes a plain count),
  * Ratio Unique Games  ->  intermediate ratio form over the hypercube tables
    f_u : {-1,1}^R -> [-1,1], built from the degree-1 Fourier match terms
    T_uv and the non-linearity penalties L(u),
  * intermediate form  ->  plain ratio instance by variable splitting.

Plus Walsh-Hadamard utilities and small verifiable facts about these
constructions exposed as standalone checkers: small-ball spread,
linear-coefficient mass, a clause-concentration probe over all assignments,
and the worst clause/variable expansion ratio, which has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

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
    _finite_vector,
    vector_objective,
)
from .sdp import GramSolution
from .util import RNG_TAG, rng_for

BOOLFN_MAX_R = 12
# most variables the k-AND and variable-splitting reductions emit, and the
# ug reduction, which also builds a dense n_vars x n_vars matrix
_REDUCTION_VARS = 4096
_UG_REDUCTION_VARS = 512


# ---------------------------------------------------------------------------
# Boolean functions on the hypercube and their Walsh-Hadamard transform.
# ---------------------------------------------------------------------------

def sign_table(r: int) -> np.ndarray:
    """{-1,1}^r as 2^r int8 rows; row t is -1 in column i when bit i of t is set."""
    return (1 - 2 * (np.arange(2**r)[:, None] >> np.arange(r) & 1)).astype(np.int8)


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis (length 2^R)."""
    out = np.array(values, dtype=np.float64)
    size = out.shape[-1]
    if size & (size - 1) or size == 0:
        raise ValidationError(f"transform length must be a power of two, got {size}")
    h = 1
    while h < size:
        shaped = out.reshape(*out.shape[:-1], -1, 2 * h)
        a = shaped[..., :h].copy()
        b = shaped[..., h:].copy()
        shaped[..., :h] = a + b
        shaped[..., h:] = a - b
        h *= 2
    return out


class BoolFn:
    """A function {-1,1}^R -> [-1,1] stored as a table of 2^R values.

    Point t encodes the input whose i-th coordinate is +1 when bit i of t is
    clear and -1 when set; Fourier coefficients are indexed by subset masks in
    the same bit order.  Values are clamped into [-1, 1] on construction.
    """

    __slots__ = ("table", "R", "_coeffs")

    def __init__(self, table):
        t = np.clip(np.asarray(table, dtype=np.float64).ravel(), -1.0, 1.0)
        size = t.size
        if size == 0 or size & (size - 1):
            raise ValidationError(f"table length must be a power of two, got {size}")
        r = size.bit_length() - 1
        if r > BOOLFN_MAX_R:
            raise ValidationError(f"R={r} exceeds the table cap {BOOLFN_MAX_R}")
        t.setflags(write=False)
        self.table = t
        self.R = r
        self._coeffs = None

    @classmethod
    def dictator(cls, r: int, coord: int) -> "BoolFn":
        if not 0 <= coord < r:
            raise ValidationError(f"dictator coordinate {coord} outside [0,{r})")
        return cls(sign_table(r)[:, coord])

    @classmethod
    def constant(cls, r: int, value: float) -> "BoolFn":
        return cls(np.full(2**r, float(value)))

    def fourier(self) -> np.ndarray:
        """Coefficient table over all subset masks; Parseval-exact inverse of fwht."""
        if self._coeffs is None:
            c = fwht(self.table) / self.table.size
            c.setflags(write=False)
            self._coeffs = c
        return self._coeffs

    def l1(self) -> float:
        return float(np.mean(np.abs(self.table)))

    def l2sq(self) -> float:
        return float(np.mean(self.table**2))

    def linear_coeffs(self) -> np.ndarray:
        """f_hat({i}) for i = 0..R-1."""
        c = self.fourier()
        return np.array([c[1 << i] for i in range(self.R)])

    def nonlinear_l2sq(self) -> float:
        """Fourier mass away from the degree-1 level."""
        return self.l2sq() - float(np.sum(self.linear_coeffs() ** 2))


def check_smallball(f: BoolFn) -> bool:
    """Spread check: ||f||_2^2 > (10^4+1) ||f||_1^2 forces ||f^{!=1}||_2^2 >= ||f||_1^2."""
    return bool(check_smallball_batch(f.table[None])[0])


def check_smallball_batch(tables: np.ndarray) -> np.ndarray:
    """check_smallball over the rows of a (count, 2^R) table matrix."""
    t = np.clip(np.asarray(tables, dtype=np.float64), -1.0, 1.0)
    size = t.shape[-1]
    r = size.bit_length() - 1
    delta = np.mean(np.abs(t), axis=-1)
    l2sq = np.mean(t * t, axis=-1)
    coeffs = fwht(t) / size
    lin = coeffs[:, [1 << i for i in range(r)]]
    nonlinear = l2sq - np.sum(lin * lin, axis=-1)
    antecedent = l2sq > (10_000 + 1) * delta * delta
    return ~antecedent | (nonlinear >= delta * delta)


def check_linear_l1(f: BoolFn) -> tuple[bool, float]:
    """Reports whether sum_i |f_hat({i})| <= 2 and the sum itself.

    Holds for any table that achieves a positive reduction objective; on
    arbitrary tables a violation is reported, not an error.
    """
    total = float(np.sum(np.abs(f.linear_coeffs())))
    return total <= 2.0, total


# ---------------------------------------------------------------------------
# k-AND instances and their bipartite ratio reduction.
# ---------------------------------------------------------------------------

def _check_kand_shape(n: int, m: int, k: int) -> None:
    if n < 1 or k < 1 or k > n:
        raise ValidationError(f"bad clause shape: n={n}, k={k}")
    if m < 1:
        raise ValidationError("a k-AND instance needs at least one clause")


@dataclass(frozen=True)
class KAndInstance:
    """m clauses of k signed literals each; literal (v, s) asks x_v = s."""

    n: int
    k: int
    clauses: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        _check_kand_shape(self.n, self.m, self.k)
        for cidx, clause in enumerate(self.clauses):
            if len(clause) != self.k:
                raise ValidationError(f"clause {cidx} has {len(clause)} literals, expected {self.k}")
            vars_seen = set()
            for v, s in clause:
                if not (isinstance(v, (int, np.integer)) and 0 <= v < self.n):
                    raise ValidationError(f"clause {cidx}: variable {v!r} is not an integer in [0,{self.n})")
                if s not in (-1, 1):
                    raise ValidationError(f"clause {cidx}: sign {s!r} must be +-1")
                if v in vars_seen:
                    raise ValidationError(f"clause {cidx}: repeated variable {v}")
                vars_seen.add(v)

    @property
    def m(self) -> int:
        return len(self.clauses)

    @cached_property
    def literals(self) -> tuple[np.ndarray, np.ndarray]:
        """The clauses as two read-only (m, k) int64 arrays: variables and signs."""
        lits = np.array(self.clauses, dtype=np.int64).reshape(self.m, self.k, 2)
        lits.setflags(write=False)
        return lits[..., 0], lits[..., 1]


def gen_kand(
    n: int,
    m: int,
    k: int,
    seed: int,
    planted: Optional[Sequence[int]] = None,
    alpha: float = 0.0,
) -> KAndInstance:
    """Random clauses; optionally the first round(alpha*m) clauses are made
    fully satisfied by `planted` (their literal signs are copied from it)."""
    _check_kand_shape(n, m, k)
    rng = rng_for(seed, 0x6A)
    planted_count = 0
    pl = None
    if planted is not None:
        pl = np.asarray(planted, dtype=np.int64).ravel()
        if pl.size != n or np.any(np.abs(pl) != 1):
            raise ValidationError("planted assignment must be a +-1 vector of length n")
        planted_count = int(round(alpha * m))
    clauses = []
    for j in range(m):
        vs = np.sort(rng.choice(n, size=k, replace=False))
        signs = rng.integers(0, 2, size=k) * 2 - 1
        if pl is not None and j < planted_count:
            signs = pl[vs]
        clauses.append(tuple((int(v), int(s)) for v, s in zip(vs, signs)))
    return KAndInstance(n, k, tuple(clauses))


def kand_matrix(inst: KAndInstance) -> np.ndarray:
    """Clause-by-variable matrix with entries sign/m (0 when absent)."""
    return _clause_matrix(inst) / inst.m


def _clause_matrix(inst: KAndInstance) -> np.ndarray:
    """Clause-by-variable matrix with entries sign (0 when absent)."""
    vs, signs = inst.literals
    c = np.zeros((inst.m, inst.n))
    np.put_along_axis(c, vs, signs, axis=1)
    return c


def satisfied_literal_counts(inst: KAndInstance, x) -> np.ndarray:
    """Per-clause count of literals satisfied by the +-1 assignment x."""
    xv = _finite_vector(inst.n, x, "assignment")
    vs, signs = inst.literals
    return np.count_nonzero(xv[vs] == signs, axis=1).astype(np.int64)


def theta_value(inst: KAndInstance, f, g, alpha: float) -> RatioValue:
    """vartheta(f, g) = sum_ij a_ij f_i g_j / (alpha mu_f + mu_g)."""
    fv = _finite_vector(inst.n, f, "profile f")
    gv = _finite_vector(inst.m, g, "profile g")
    num = float(gv @ kand_matrix(inst) @ fv)
    mu_f = float(np.mean(np.abs(fv)))
    mu_g = float(np.mean(np.abs(gv)))
    return RatioValue.of(num, alpha * mu_f + mu_g)


@dataclass(frozen=True)
class KandMapping:
    """Copy bookkeeping for the replicated bipartite instance."""

    n: int
    m: int
    w: int
    alpha: float

    def embed(self, f, g) -> Assignment:
        """w copies of the variable profile f (n values), then the clause
        profile g (m values), every value in {-1, 0, 1}."""
        fv = _finite_vector(self.n, f, "profile f")
        gv = _finite_vector(self.m, g, "profile g")
        vals = np.concatenate([np.tile(fv, self.w), gv])
        if not np.isin(vals, (-1.0, 0.0, 1.0)).all():
            raise ValidationError("profile values must lie in {-1, 0, 1}")
        return Assignment(tuple(vals.astype(np.int64).tolist()))

    def extract(self, a: Assignment) -> tuple[np.ndarray, np.ndarray]:
        vals = np.array(a.values)
        return vals[: self.w * self.n].reshape(self.w, self.n), vals[self.w * self.n :]

    def mu_f(self, a: Assignment) -> float:
        copies, _ = self.extract(a)
        return float(np.mean(np.abs(copies)))

    def mu_g(self, a: Assignment) -> float:
        _, g = self.extract(a)
        return float(np.mean(np.abs(g)))


def kand_to_qpratio(inst: KAndInstance, alpha: float) -> tuple[QpRatioInstance, KandMapping]:
    """Bipartite instance with w = round(1/alpha) copies of the variable side.

    Copy weights are a_ij / w, which makes the plain-denominator optimum equal
    to the optimum of the w-weighted denominator problem on the base matrix
    (taking w identical copies matches values, and the mediant bound on the
    chunks gives the converse).
    """
    if not alpha > 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    w = round(1.0 / alpha)
    if w < 1 or abs(1.0 / alpha - w) > 1e-9:
        raise ValidationError(f"1/alpha = {1.0/alpha} is not close to an integer")
    total = w * inst.n + inst.m
    if total > _REDUCTION_VARS:
        raise BudgetExceeded(f"replicated instance needs {total} variables, cap is {_REDUCTION_VARS}")
    # copy c of literal (v, s) in clause j joins variable c n + v to w n + j
    vs, signs = inst.literals
    copies = np.arange(w)[:, None, None] * inst.n + vs
    clause_vars = w * inst.n + np.arange(inst.m)[:, None]
    weights = signs * (1.0 / (inst.m * w))
    entries = EntryArrays(*(col.ravel() for col in np.broadcast_arrays(copies, clause_vars, weights)))
    bip = (tuple(range(w * inst.n)), tuple(range(w * inst.n, total)))
    meta = {
        "family": "kand_reduction",
        "params": {"n": inst.n, "m": inst.m, "k": inst.k, "alpha": alpha, "w": w},
        "weights": "sign/(m*w) per copy",
        "rng": RNG_TAG,
    }
    return QpRatioInstance(total, entries, bip, meta), KandMapping(inst.n, inst.m, w, alpha)


@dataclass(frozen=True)
class ConcentrationReport:
    threshold: float
    max_fraction: float
    max_full_fraction: float
    best_assignment: tuple[int, ...]


def check_kand_concentration(inst: KAndInstance, cap: int = 16) -> ConcentrationReport:
    """Per-assignment clause statistics, maximized over all 2^n assignments.

    `max_fraction` is the largest fraction of clauses with more than
    k/2 + k^(7/8) satisfied literals (vacuously 0 until k is in the hundreds,
    since the threshold then exceeds k); `max_full_fraction` is the largest
    fraction of fully satisfied clauses, which a planted construction pushes
    to at least its planted rate.
    """
    if inst.n > cap:
        raise BudgetExceeded(f"concentration check refused: n={inst.n} exceeds cap={cap}")
    k = inst.k
    rows = sign_table(inst.n)
    agree = rows.astype(np.float64) @ _clause_matrix(inst).T  # (#sat - #unsat) per clause
    counts = (k + agree) / 2.0
    threshold = k / 2.0 + k ** (7.0 / 8.0)
    fractions = np.mean(counts > threshold, axis=1)
    full = np.mean(counts >= k, axis=1)
    best = int(np.argmax(fractions))
    return ConcentrationReport(
        threshold,
        float(fractions[best]),
        float(np.max(full)),
        tuple(int(v) for v in rows[best]),
    )


@dataclass(frozen=True)
class ExpansionReport:
    mode: str
    pairs_checked: int
    worst_ratio: float
    bound: float
    holds: bool


def check_expansion(
    inst: KAndInstance,
    alpha: float,
    t_max: Optional[int] = None,
    s_max: Optional[int] = None,
) -> ExpansionReport:
    """Largest |E(S, T)| / |S| over clause sets S and variable sets T, in closed form.

    T ranges over sizes 1..t_max (default floor(n*alpha/400), vacuous at desk
    scale) and S over sizes 1..s_limit(|T|), where s_limit is s_max or, when
    s_max is None, floor(alpha |T|).  A pair's ratio is the mean over clauses
    j in S of |vars(j) & T|, so the worst pair is one clause against a T that
    holds as many of its k variables as fit: worst_ratio = min(k, t*), where
    t* is the largest size with s_limit(t*) >= 1.  `pairs_checked` is the
    number of pairs that value covers, and `holds` (worst_ratio <= sqrt(k))
    is False whenever min(k, t*) > sqrt(k).
    """
    n, m, k = inst.n, inst.m, inst.k
    bound = math.sqrt(k)
    top = t_max if t_max is not None else math.floor(n * alpha / 400.0)
    pairs, t_star = 0, 0
    s_sums = [0]  # s_sums[s] = C(m, 1) + ... + C(m, s)
    for t in range(1, min(top, n) + 1):
        sl = min(s_max if s_max is not None else math.floor(alpha * t), m)
        if sl < 1:
            continue
        while len(s_sums) <= sl:
            s_sums.append(s_sums[-1] + math.comb(m, len(s_sums)))
        pairs += math.comb(n, t) * s_sums[sl]
        t_star = t
    if pairs == 0:
        return ExpansionReport("vacuous", 0, 0.0, bound, True)
    worst = float(min(k, t_star))
    return ExpansionReport("exact", pairs, worst, bound, worst <= bound + 1e-12)


# ---------------------------------------------------------------------------
# Ratio Unique Games and the hypercube-table reduction.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UgInstance:
    """Unique-game constraints (u, v, pi): edge satisfied iff pi[L(u)] == L(v).

    The constraint graph must be regular.
    """

    vertices: int
    alphabet: int
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.vertices < 1 or self.alphabet < 1:
            raise ValidationError("need at least one vertex and one label")
        deg = [0] * self.vertices
        norm = []
        for u, v, perm in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValidationError(f"self-loop at {u}")
            if not (0 <= u < self.vertices and 0 <= v < self.vertices):
                raise ValidationError(f"edge ({u},{v}) outside vertex range")
            perm = tuple(int(x) for x in perm)
            if sorted(perm) != list(range(self.alphabet)):
                raise ValidationError(f"edge ({u},{v}): not a permutation of [{self.alphabet}]")
            deg[u] += 1
            deg[v] += 1
            norm.append((u, v, perm))
        if self.edges and len(set(deg)) != 1:
            raise ValidationError(f"constraint graph is not regular (degrees {sorted(set(deg))})")
        object.__setattr__(self, "edges", tuple(norm))


@dataclass(frozen=True)
class PartialLabeling:
    """Labels in [R] or None for unassigned."""

    labels: tuple[Optional[int], ...]

    def labeled_count(self) -> int:
        return sum(1 for x in self.labels if x is not None)


def eval_ratio_ug(ug: UgInstance, labeling: PartialLabeling) -> float:
    """Satisfied edges over labeled vertices; 0 for the all-unassigned labeling."""
    labels = labeling.labels
    if len(labels) != ug.vertices:
        raise ValidationError(f"labeling has {len(labels)} entries, expected {ug.vertices}")
    labeled = labeling.labeled_count()
    if labeled == 0:
        return 0.0
    sat = 0
    for u, v, perm in ug.edges:
        lu, lv = labels[u], labels[v]
        if lu is not None and lv is not None and perm[lu] == lv:
            sat += 1
    return sat / labeled


def dictator_profile(ug: UgInstance, labeling: PartialLabeling) -> list[Optional[BoolFn]]:
    """Long-code profile of a partial labeling: dictator tables, None where unassigned."""
    out: list[Optional[BoolFn]] = []
    for lab in labeling.labels:
        out.append(None if lab is None else BoolFn.dictator(ug.alphabet, lab))
    return out


def reduction_components(ug: UgInstance, profile: Sequence[Optional[BoolFn]]):
    """(mean T_uv, mean L(u), mean ||f_u||_1) computed directly from the tables.

    Averages are uniform over edges and vertices; sums use compensated
    accumulation so the penalty component can be reported separately without
    cancellation against the match term.
    """
    if len(profile) != ug.vertices:
        raise ValidationError(f"profile has {len(profile)} tables, expected {ug.vertices}")
    t_terms = []
    for u, v, perm in ug.edges:
        fu, fv = profile[u], profile[v]
        if fu is None or fv is None:
            t_terms.append(0.0)
            continue
        cu = fu.linear_coeffs()
        cv = fv.linear_coeffs()
        t_terms.append(float(sum(cu[i] * cv[perm[i]] for i in range(ug.alphabet))))
    l_terms = [0.0 if f is None else f.nonlinear_l2sq() for f in profile]
    l1_terms = [0.0 if f is None else f.l1() for f in profile]
    avg_t = math.fsum(t_terms) / len(ug.edges) if ug.edges else 0.0
    avg_l = math.fsum(l_terms) / ug.vertices
    avg_l1 = math.fsum(l1_terms) / ug.vertices
    return avg_t, avg_l, avg_l1


@dataclass(frozen=True)
class UgMapping:
    """Variable bookkeeping for the hypercube-table instance."""

    vertices: int
    alphabet: int
    eta: float

    @property
    def table_size(self) -> int:
        return 2**self.alphabet

    def embed(self, profile: Sequence[Optional[BoolFn]]) -> FractionalAssignment:
        parts = []
        for f in profile:
            parts.append(np.zeros(self.table_size) if f is None else f.table)
        return FractionalAssignment(tuple(float(v) for v in np.concatenate(parts)))


def ug_eta(vertices: int, alphabet: int) -> float:
    """Penalty weight 10^6 n^7 2^(4R) for n vertices and alphabet size R."""
    return 1e6 * float(vertices) ** 7 * 2.0 ** (4 * alphabet)


def ug_to_intermediate(ug: UgInstance) -> tuple[QpIntermediateInstance, UgMapping]:
    """Quadratic form (mean edge match - eta * mean non-linearity) over mean |f|.

    One variable per table value f_u(x); the matrix is scaled by the variable
    count so the intermediate ratio x^T M x / sum|x| equals the table-level
    ratio (E T_uv - eta E L(u)) / E ||f_u||_1 exactly.
    """
    nv, r = ug.vertices, ug.alphabet
    size = 2**r
    n_vars = nv * size
    if n_vars > _UG_REDUCTION_VARS:
        raise BudgetExceeded(f"reduction needs {n_vars} variables, cap is {_UG_REDUCTION_VARS}")
    if not ug.edges:
        raise ValidationError("reduction needs at least one constraint edge")
    eta = ug_eta(nv, r)
    x = sign_table(r).astype(np.float64)

    mat = np.zeros((n_vars, n_vars))
    edge_scale = n_vars / len(ug.edges)
    for u, v, perm in ug.edges:
        k = (x @ x[:, list(perm)].T) / (size * size)
        blk = 0.5 * edge_scale * k
        mat[u * size : (u + 1) * size, v * size : (v + 1) * size] += blk
        mat[v * size : (v + 1) * size, u * size : (u + 1) * size] += blk.T
    lam = (size * np.eye(size) - x @ x.T) / (size * size)
    vertex_scale = n_vars / nv
    for u in range(nv):
        mat[u * size : (u + 1) * size, u * size : (u + 1) * size] -= eta * vertex_scale * lam

    diag = np.diag(mat)
    ii, jj = np.nonzero(np.triu(mat, 1))  # row-major, i < j
    entries = EntryArrays(ii, jj, mat[ii, jj])
    meta = {
        "family": "ug_reduction",
        "params": {"vertices": nv, "alphabet": r, "eta": eta, "edges": len(ug.edges)},
        "scaling": "matrix times n_vars; ratio equals (E T - eta E L) / E l1",
    }
    inst = QpIntermediateInstance(n_vars, entries, tuple(float(v) for v in diag), meta)
    return inst, UgMapping(nv, r, eta)


def intermediate_to_qpratio(inst: QpIntermediateInstance, eps: float) -> tuple[QpRatioInstance, int]:
    """Split each variable into m copies and drop the squared copy terms.

    m is the smallest integer above max(2 ||A||_1 / eps, 2n); copy pairs carry
    weight A_ik / m so the plain ratio of the image matches the source
    objective within eps on both sides.
    """
    if not eps > 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    n = inst.n
    norm1 = inst.norm1()
    m = int(math.floor(max(2.0 * norm1 / eps, 2.0 * n) + 1e-12)) + 1
    total = n * m
    if total > _REDUCTION_VARS:
        raise BudgetExceeded(f"split instance needs {total} variables, cap is {_REDUCTION_VARS}")

    # copy c of variable i is i m + c: a nonzero entry (i, j) joins the copy
    # pairs (i m + ci, j m + cj) for all ci, cj, and a nonzero diagonal entry
    # (i, i) those with ci < cj
    var, all_pairs = np.arange(n), np.divmod(np.arange(m * m), m)
    blocks = ((*inst.arrays, all_pairs), (var, var, np.array(inst.diag), np.triu_indices(m, 1)))
    cols = ([], [], [])
    for p, q, w, (ci, cj) in blocks:
        live = w != 0.0
        cols[0].append(((p[live] * m)[:, None] + ci).ravel())
        cols[1].append(((q[live] * m)[:, None] + cj).ravel())
        cols[2].append(np.repeat(w[live] / m, ci.size))
    entries = EntryArrays(*(np.concatenate(col) for col in cols))
    meta = {
        "family": "intermediate_split",
        "params": {"source_n": n, "m": m, "eps": eps, "norm1": norm1},
        "scaling": "weights A/m; the plain ratio matches the source objective",
    }
    return QpRatioInstance(total, entries, meta=meta), m


# ---------------------------------------------------------------------------
# Three-vector relaxation embedding.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CspEmbeddingReport:
    ok: bool
    max_orthogonality: float
    max_negative_inner: float
    max_unit_residual: float
    norm_residual: float
    gram_delta: float
    objective_delta: Optional[float]


def embed_basic_sdp_to_csp(
    sol: GramSolution, inst: Optional[QpRatioInstance] = None, tol: float = 1e-10
) -> CspEmbeddingReport:
    """Lift w_i into the three-vector alphabet relaxation and verify it.

    b_i = 0_n (+) w_i/2 (+) |w_i|/2,  c_i = 0_n (+) -w_i/2 (+) |w_i|/2,
    a_i = sqrt(1 - w_i^2) e_i (+) 0_d (+) 0.  Checks orthogonality, the
    nonnegative inner products, per-index unit norms, the total b/c mass, and
    that the difference vectors reproduce the original Gram matrix (hence the
    objective) exactly.
    """
    w = np.asarray(sol.vectors, dtype=np.float64)
    n, d = w.shape
    sq = np.einsum("id,id->i", w, w)
    if np.any(sq > 1.0 + 1e-12):
        raise ValidationError("embedding needs w_i^2 <= 1 for every i")
    norms = np.sqrt(sq)
    dim = n + d + 1
    b = np.zeros((n, dim))
    c = np.zeros((n, dim))
    a = np.zeros((n, dim))
    b[:, n : n + d] = w / 2.0
    b[:, n + d] = norms / 2.0
    c[:, n : n + d] = -w / 2.0
    c[:, n + d] = norms / 2.0
    a[np.arange(n), np.arange(n)] = np.sqrt(np.clip(1.0 - sq, 0.0, None))

    ab = a @ b.T
    ac = a @ c.T
    bc = b @ c.T
    aa = a @ a.T
    bb = b @ b.T
    cc = c @ c.T
    max_orth = max(
        float(np.max(np.abs(ab))),
        float(np.max(np.abs(ac))),
        float(np.max(np.abs(np.diag(bc)))),
    )
    max_neg = max(
        float(np.max(np.maximum(0.0, -bc))),
        float(np.max(np.maximum(0.0, -aa))),
        float(np.max(np.maximum(0.0, -bb))),
        float(np.max(np.maximum(0.0, -cc))),
    )
    unit = np.einsum("id,id->i", a, a) + np.einsum("id,id->i", b, b) + np.einsum("id,id->i", c, c)
    max_unit = float(np.max(np.abs(unit - 1.0)))
    norm_res = abs(float(np.sum(np.einsum("id,id->i", b, b) + np.einsum("id,id->i", c, c))) - 1.0)
    diff = b - c
    gram_delta = float(np.max(np.abs(diff @ diff.T - w @ w.T)))
    obj_delta = None
    if inst is not None:
        obj_delta = abs(vector_objective(inst, diff) - sol.objective)
    norm_ok = norm_res <= tol + sol.residual_norm1
    ok = (
        max_orth <= tol
        and max_neg <= tol
        and max_unit <= tol
        and norm_ok
        and gram_delta <= tol
        and (obj_delta is None or obj_delta <= tol)
    )
    return CspEmbeddingReport(ok, max_orth, max_neg, max_unit, norm_res, gram_delta, obj_delta)
