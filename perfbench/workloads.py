"""The benchmark's workloads: their ops, the output checks and the references.

Round r of a workload is a fixed list of ops made from the workload seed and r
alone, so a seed always gives the same inputs.  The program receives only the
generated instances.  Each op's `run` is what the benchmark times; its `check`
runs afterwards, untimed, and returns every problem it finds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qpratio import cli, core, exact, generators, hardness, rounding, spectral

TOL = 1e-9
HIGH_OPT_EPS = 0.25  # the degree filter `qprl bench` uses for high-opt
PLAIN_ALGOS = ("general", "bipartite", "high-opt", "psd")


def subseed(*parts) -> int:
    """A 32-bit instance seed derived from the workload seed and a position."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def close(x: float, y: float) -> bool:
    return abs(x - y) <= TOL * max(1.0, abs(y))


@dataclass
class Check:
    """What an op's output checks found."""

    errors: list[str] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)  # value / reference
    rows: int = 0  # CSV rows a `qprl bench` grid produced
    rows_failed: int = 0  # rows whose status is not ok


@dataclass
class Result:
    """An instance, the program's bound for it (if the op computes one) and
    the returned assignment with its value (if the op returns one)."""

    inst: core.QpRatioInstance
    bound: float | None = None
    assignment: core.Assignment | None = None
    value: core.RatioValue | None = None


# ---------------------------------------------------------------------------
# References, computed by the benchmark itself
# ---------------------------------------------------------------------------


def dense(inst: core.QpRatioInstance) -> np.ndarray:
    a = np.zeros((inst.n, inst.n))
    if inst.entries:
        e = np.array(inst.entries, dtype=np.float64)
        i, j = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64)
        a[i, j] = e[:, 2]
        a[j, i] = e[:, 2]
    return a


def top_eigenvalue(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[-1])


def top_normalized_eigenvalue(a: np.ndarray) -> float:
    """Top eigenvalue of D^{-1/2} A D^{-1/2} over the vertices of nonzero degree."""
    d = np.sum(np.abs(a), axis=1)
    keep = d > 0
    s = 1.0 / np.sqrt(d[keep])
    return top_eigenvalue(a[np.ix_(keep, keep)] * s[:, None] * s[None, :])


def enumerate_optimum(a: np.ndarray, weights: np.ndarray) -> float:
    """max over x in {-1,0,1}^n of x^T A x / sum_i w_i |x_i| (0 for x = 0).

    Enumerates in chunks of 3^8 assignments so that memory stays small.
    """
    n = a.shape[0]
    tail = min(n, 8)
    grid = np.stack(
        np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * tail), indexing="ij"), axis=-1
    ).reshape(-1, tail)
    best = 0.0
    for head in itertools.product((-1.0, 0.0, 1.0), repeat=n - tail):
        rows = np.hstack([np.broadcast_to(np.array(head), (grid.shape[0], n - tail)), grid])
        num = np.einsum("ri,ri->r", rows @ a, rows)
        den = np.abs(rows) @ weights
        pos = den > 0
        best = max(best, float(np.max(num[pos] / den[pos])))
    return best


class References:
    """Reference values and first CSV bytes, kept once per key for the run."""

    def __init__(self):
        self._memo: dict = {}

    def _get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def lam(self, key, inst) -> float:
        return self._get(("lam", key), lambda: top_eigenvalue(dense(inst)))

    def lam_normalized(self, key, inst) -> float:
        return self._get(("lam-norm", key), lambda: top_normalized_eigenvalue(dense(inst)))

    def opt(self, key, inst, normalized: bool = False) -> float:
        def compute():
            a = dense(inst)
            weights = np.sum(np.abs(a), axis=1) if normalized else np.ones(inst.n)
            return enumerate_optimum(a, weights)

        return self._get(("opt", normalized, key), compute)

    def first_bytes(self, key, data: bytes) -> bytes:
        return self._get(("bytes", key), lambda: data)


def check_solution(chk: Check, inst, a, val, ref: float, normalized: bool = False) -> None:
    """The value equals the evaluator recomputed on the returned assignment,
    a plain ratio is never below the single-edge baseline, and the value is
    never above the reference."""
    evaluate = core.eval_normalized_qp_ratio if normalized else core.eval_qp_ratio
    again = evaluate(inst, a).value
    if not close(val.value, again):
        chk.errors.append(f"value {val.value!r} differs from the recomputed {again!r}")
    if not normalized:
        floor = core.trivial_solution(inst)[1].value
        if val.value < floor - TOL * max(1.0, abs(floor)):
            chk.errors.append(f"value {val.value!r} is below the single-edge baseline {floor!r}")
    if val.value > ref + TOL * max(1.0, abs(ref)):
        chk.errors.append(f"value {val.value!r} is above the reference {ref!r}")
    chk.ratios.append(val.value / ref)


def check_bound(chk: Check, bound: float, ref: float, what: str) -> None:
    if not close(bound, ref):
        chk.errors.append(f"{what} {bound!r} differs from the eigvalsh value {ref!r}")


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def make_instance(spec: dict) -> core.QpRatioInstance:
    """Build an instance from the same spec keys `qprl bench` understands."""
    family = spec["family"]
    if family == "random":
        return generators.random_instance(spec["n"], spec["seed"], spec["density"])
    if family == "bipartite-gap":
        return generators.gen_bipartite_gap(spec["n"], spec["seed"])
    if family == "star":
        return generators.gen_star(spec["leaves"])
    if family == "level-graph":
        return generators.gen_level_graph(generators.LevelGraphParams(eps=spec["eps"]))
    raise ValueError(f"unknown family {family!r}")


def spec_key(spec: dict) -> tuple:
    return tuple(sorted(spec.items()))


class SolveOp:
    """general-sdp: build an instance, compute the eig bound, round the
    vector relaxation with solve_general (solve_bipartite on bipartite)."""

    def __init__(self, spec: dict, seed: int):
        self.spec, self.seed = spec, seed
        self.label = f"{spec['family']}-n{spec['n']}"

    def run(self) -> Result:
        inst = make_instance(self.spec)
        bound = spectral.eig_relaxation_value(inst)
        solve = rounding.solve_bipartite if inst.bipartition else rounding.solve_general
        a, val = solve(inst, seed=self.seed)
        return Result(inst, bound, a, val)

    def check(self, res: Result, refs: References) -> Check:
        chk = Check()
        lam = refs.lam(spec_key(self.spec), res.inst)
        check_bound(chk, res.bound, lam, "eig bound")
        check_solution(chk, res.inst, res.assignment, res.value, lam)
        return chk


class SpectralOp:
    """spectral-sparse: build an instance and run one eigenvalue algorithm."""

    def __init__(self, spec: dict, algo: str, seed: int):
        self.spec, self.algo, self.seed = spec, algo, seed
        size = f"n{spec['n']}-s{spec['seed']}" if "n" in spec else f"eps{spec['eps']:.3g}"
        self.label = f"{spec['family']}-{size}-{algo}"

    def run(self) -> Result:
        inst = make_instance(self.spec)
        s = self.seed
        if self.algo == "eig":
            return Result(inst, spectral.eig_relaxation_value(inst, seed=s))
        if self.algo == "trevisan":
            lam, x = spectral.normalized_eig(inst, seed=s)
            a, val = spectral.trevisan_round(inst, x)
            return Result(inst, lam, a, val)
        if self.algo == "high-opt":
            a, val = spectral.solve_high_opt(inst, HIGH_OPT_EPS, seed=s)
            return Result(inst, None, a, val)
        # psd, as `qprl solve --algo psd` runs it: lift the diagonal by the
        # magnitude of the smallest eigenvalue so the completed form is PSD
        m = inst.to_dense()
        top = spectral.eigen_max(m, seed=s)
        low = -spectral.eigen_max(-m, seed=s).lambda_max
        shift = max(0.0, -low) * (1.0 + 1e-9) + 1e-12
        a, val = spectral.psd_polylog_round(inst, top.vector, diag=np.full(inst.n, shift), seed=s)
        return Result(inst, top.lambda_max, a, val)

    def check(self, res: Result, refs: References) -> Check:
        chk = Check()
        key = spec_key(self.spec)
        if self.algo == "trevisan":
            ref = refs.lam_normalized(key, res.inst)
            check_bound(chk, res.bound, ref, "normalized eig bound")
            check_solution(chk, res.inst, res.assignment, res.value, ref, normalized=True)
            return chk
        ref = refs.lam(key, res.inst)
        if res.bound is not None:
            check_bound(chk, res.bound, ref, "eig bound")
        if res.value is None:
            chk.ratios.append(res.bound / ref)
        else:
            check_solution(chk, res.inst, res.assignment, res.value, ref)
        return chk


class GridOp:
    """small-exact: one `qprl bench` grid, run in-process through cli.main."""

    def __init__(self, label: str, items: list[dict], algos: list[str], seed: int, workdir: Path):
        self.label, self.items, self.algos = label, items, algos
        self.cfg_path = workdir / f"{label}.json"
        self.csv_path = workdir / f"{label}.csv"
        self.config = {
            "seed": seed,
            "cap": 12,
            "algos": algos,
            "instances": items,
            "out_csv": str(self.csv_path),
            "out_svg": str(workdir / f"{label}.svg"),
        }

    def write_config(self) -> None:
        self.cfg_path.parent.mkdir(parents=True, exist_ok=True)
        self.cfg_path.write_text(json.dumps(self.config, sort_keys=True))

    def run(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["bench", str(self.cfg_path)])

    def check(self, code: int, refs: References) -> Check:
        chk = Check()
        if code != 0:
            chk.errors.append(f"qprl bench exited with {code}")
            return chk
        data = self.csv_path.read_bytes()
        if data != refs.first_bytes(self.label, data):
            chk.errors.append("CSV bytes differ from the first run of this config")
        specs = {item["id"]: item for item in self.items}
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        chk.rows = len(rows)
        if chk.rows != len(self.items) * len(self.algos):
            chk.errors.append(f"{chk.rows} rows, expected {len(self.items) * len(self.algos)}")
        for row in rows:
            where = f"{row['instance_id']}/{row['algo']}"
            if row["status"] != "ok":
                chk.rows_failed += 1
                chk.errors.append(f"{where}: status {row['status']}")
                continue
            spec = specs[row["instance_id"]]
            inst = make_instance(spec)
            normalized = row["algo"] == "trevisan"
            ref = refs.opt(spec_key(spec), inst, normalized)
            bound, value = float(row["bound"]), float(row["value"])
            if row["bound_kind"] != "oracle" or not close(bound, ref):
                chk.errors.append(f"{where}: bound {bound!r} ({row['bound_kind']}) is not the optimum {ref!r}")
            if spec["family"] == "star" and not normalized:
                star = exact.exact_star_optimum(spec["leaves"])
                if not close(bound, star):
                    chk.errors.append(f"{where}: brute force {bound!r} != star optimum {star!r}")
            if row["algo"] in PLAIN_ALGOS:
                floor = core.trivial_solution(inst)[1].value
                if value < floor - TOL * max(1.0, abs(floor)):
                    chk.errors.append(f"{where}: value {value!r} below the single-edge baseline")
            if value > ref + TOL * max(1.0, abs(ref)):
                chk.errors.append(f"{where}: value {value!r} above the optimum {ref!r}")
            chk.ratios.append(value / ref)
        return chk


class ChainOp:
    """small-exact: a k-AND instance through the bipartite reduction, then the
    brute-force optimum and the bipartite rounding of the reduced instance."""

    def __init__(self, label: str, n: int, m: int, k: int, alpha: float, seed: int):
        self.label, self.n, self.m, self.k, self.alpha, self.seed = label, n, m, k, alpha, seed

    def run(self) -> Result:
        kand = hardness.gen_kand(self.n, self.m, self.k, self.seed)
        inst, _ = hardness.kand_to_qpratio(kand, self.alpha)
        _, opt = exact.brute_force_qp_ratio(inst)
        a, val = rounding.solve_bipartite(inst, seed=self.seed)
        return Result(inst, opt.value, a, val)

    def check(self, res: Result, refs: References) -> Check:
        chk = Check()
        ref = refs.opt(self.label, res.inst)
        if not close(res.bound, ref):
            chk.errors.append(f"brute force {res.bound!r} differs from the enumerated {ref!r}")
        check_solution(chk, res.inst, res.assignment, res.value, ref)
        return chk


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class GeneralSdp:
    """The vector relaxation and its rounding at n = 60..140."""

    name = "general-sdp"

    def round(self, seed: int, r: int) -> list:
        def op(slot, spec):
            s = subseed(self.name, seed, r, slot)
            if spec["family"] == "random":
                spec = dict(spec, seed=s, density=0.3)
            else:
                spec = dict(spec, seed=s)
            return SolveOp(spec, s)

        # a run holds whole rounds, so every run has this mix; with two
        # n = 100 ops in five, the median and the 11th-largest latency both
        # fall inside the n = 100 class rather than on a class boundary
        return [
            op(0, {"family": "random", "n": 60}),
            op(1, {"family": "bipartite-gap", "n": 64}),
            op(2, {"family": "random", "n": 100}),
            op(3, {"family": "random", "n": 100}),
            op(4, {"family": "random", "n": 140}),
        ]

    def smallest(self, seed: int):
        return self.round(seed, -1)[0]


class SpectralSparse:
    """Eigenvalue bounds and roundings on sparse random and level graphs.

    The instances are a fixed ladder and the workload seed drives the solver
    seeds (power-iteration start vectors, rounding).  Power-iteration time
    varies more than tenfold between random instances of one size, so
    instances drawn from the workload seed made the metrics of two seeds
    differ twofold; on a fixed instance it varies by about 10% over start
    vectors.
    """

    name = "spectral-sparse"
    # six n = 400 instances give the percentiles enough samples; psd runs
    # at the smallest size only
    LADDER = [
        ({"family": "random", "n": 400, "seed": k, "density": 0.05}, ("eig", "trevisan", "high-opt", "psd"))
        for k in range(1, 7)
    ] + [
        ({"family": "random", "n": 800, "seed": 1, "density": 0.05}, ("eig", "trevisan", "high-opt")),
        ({"family": "level-graph", "eps": 1.0 / 3.0}, ("eig", "trevisan", "high-opt")),
    ]

    def round(self, seed: int, r: int) -> list:
        return [
            SpectralOp(spec, algo, subseed(self.name, seed, r, slot, algo))
            for slot, (spec, algos) in enumerate(self.LADDER)
            for algo in algos
        ]

    def smallest(self, seed: int):
        return self.round(seed, -1)[0]


class SmallExact:
    """Tiny instances, where every bound is the 3^n oracle."""

    name = "small-exact"
    ALGOS = ["general", "trevisan", "high-opt", "psd"]

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def _grid_ops(self, seed: int) -> list:
        def rand(slot, n, density):
            s = subseed(self.name, seed, slot)
            return {"id": f"random-n{n}-{slot}", "family": "random", "n": n, "seed": s, "density": density}

        def star(leaves):
            return {"id": f"star-l{leaves}", "family": "star", "leaves": leaves}

        def gap(slot, n):
            return {"id": f"gap-n{n}", "family": "bipartite-gap", "n": n, "seed": subseed(self.name, seed, slot)}

        grids = [
            ("grid-random-a", [rand(0, 8, 0.5), rand(1, 10, 0.5)], self.ALGOS),
            ("grid-random-b", [rand(2, 12, 0.4)], self.ALGOS),
            ("grid-star-a", [star(5), star(7)], self.ALGOS),
            ("grid-star-b", [star(9), star(11)], self.ALGOS),
            ("grid-gap", [gap(3, 4), gap(4, 9)], self.ALGOS + ["bipartite"]),
        ]
        ops = []
        for k, (label, items, algos) in enumerate(grids):
            g = GridOp(label, items, algos, subseed(self.name, seed, "grid", k), self.workdir)
            g.write_config()
            ops.append(g)
        return ops

    def round(self, seed: int, r: int) -> list:
        # the same grid configs run in every round: their CSV bytes must repeat
        chains = [
            ChainOp("chain-a", 4, 4, 2, 0.5, subseed(self.name, seed, "chain-a")),
            ChainOp("chain-b", 5, 2, 3, 0.5, subseed(self.name, seed, "chain-b")),
        ]
        return self._grid_ops(seed) + chains

    def smallest(self, seed: int):
        return self.round(seed, 0)[0]


def workloads(workdir: Path) -> dict:
    return {w.name: w for w in (GeneralSdp(), SpectralSparse(), SmallExact(workdir))}
