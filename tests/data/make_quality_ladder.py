"""Write tests/data/quality_ladder.json: the value every qprl algorithm
reaches on a fixed ladder of instances, n = 16 to 2000.

Each row is one (instance, algorithm, seed) run the way `qprl bench` runs
it: the instance is built by cli._family from the family spec with the
row's seed, the algorithm by cli._run_algo with that seed (high-opt at
eps 0.25), and the bound by cli._bound_for at cap 12, under the normalized
objective for trevisan and the plain one otherwise.  Every n is above the
cap, so every bound is a certified eig bound.  tests/test_quality_ladder.py
checks that no row's value drops.  A change that moves a row regenerates
the file and declares the row.

BLAS runs one thread: on the eps 1/3 level graph the eigenvector's last
bits, and with them trevisan's and high-opt's threshold cuts, move with the
summation order of a multithreaded product.

Run from the repository root:  PYTHONPATH=src python tests/data/make_quality_ladder.py
"""

import json
import os
from pathlib import Path

# before numpy loads, which reads these once
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from qpratio import cli  # noqa: E402

OUT = Path(__file__).with_name("quality_ladder.json")
CAP = 12
EPS = 0.25
ALGOS = ("general", "trevisan", "psd", "high-opt")
# from this n the ascent behind general and bipartite is too slow for a
# test, and above it one seed is run
LARGE_N = 400

SPECS = [
    *({"family": "random", "n": n, "density": 0.3} for n in (16, 24, 60, 140)),
    {"family": "random", "n": 400, "density": 0.05},
    {"family": "random", "n": 800, "density": 0.05},
    {"family": "random", "n": 2000, "density": 0.002},
    {"family": "bipartite-gap", "n": 16},
    {"family": "bipartite-gap", "n": 64},
    {"family": "planted", "n": 64},
    {"family": "star", "leaves": 30},
    {"family": "star", "leaves": 49},
    {"family": "level-graph", "eps": 0.5},
    {"family": "level-graph", "eps": 1.0 / 3.0},
    {"family": "apx-gadget", "cycle": 6},
]


def build(spec: dict, seed: int):
    params, make = cli._family({**spec, "seed": seed}, extra=("seed",))
    return make(params)


def algos_for(spec: dict, n: int) -> tuple:
    if n >= LARGE_N:
        return tuple(a for a in ALGOS if a != "general")
    if spec["family"] in ("bipartite-gap", "planted"):
        return ALGOS + ("bipartite",)
    return ALGOS


def rows() -> list[dict]:
    out = []
    for spec in SPECS:
        first = build(spec, 1)
        for seed in (1, 2) if first.n <= LARGE_N else (1,):
            inst = first if seed == 1 else build(spec, seed)
            for algo in algos_for(spec, inst.n):
                normalized = algo == "trevisan"
                a, val = cli._run_algo(inst, algo, seed, EPS)
                bound, kind = cli._bound_for(inst, CAP, normalized)
                out.append({
                    "spec": spec, "algo": algo, "seed": seed, "n": inst.n,
                    "value": val.value, "support": a.support, "bound": bound, "bound_kind": kind,
                    "objective": "normalized" if normalized else "plain",
                })
    return out


def main() -> None:
    # one row a line; json writes each float as its repr, which reads back exactly
    lines = [json.dumps(r, sort_keys=True) for r in rows()]
    OUT.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {OUT} ({len(lines)} rows)")


if __name__ == "__main__":
    main()
