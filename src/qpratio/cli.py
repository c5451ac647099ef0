"""Command-line surface: generate, solve, bound, reduce, certify, benchmark.

Exit codes: 0 ok, 1 internal error, 2 usage or validation error.  All
randomness flows from explicit --seed flags; benchmark CSV output is
byte-identical across reruns of the same config (timings are therefore left
out of the bench rows and printed only by `solve`).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import core, exact, generators, hardness, rounding, sdp, spectral
from .core import BudgetExceeded, ParseError, ValidationError

CSV_HEADER = "instance_id,family,n,seed,algo,value,bound,bound_kind,ratio,support,runtime_ms,status".split(",")


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _load_json_object(path) -> dict:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _load_ratio_instance(path) -> core.QpRatioInstance:
    inst = core.load_instance(path)
    if not isinstance(inst, core.QpRatioInstance):
        raise ValidationError(f"{path} does not hold a plain ratio instance")
    return inst


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x, length=None) -> bool:
    return isinstance(x, list) and length in (None, len(x)) and all(map(_is_int, x))


def _require_int(obj: dict, key: str, path) -> int:
    value = core._require(obj, key, None, path)
    if not _is_int(value):
        raise ParseError(f"{path}: field {key!r} must be an integer, got {value!r}")
    return value


def _apx_gadget(cycle, graph) -> core.QpRatioInstance:
    if (cycle is None) == (graph is None):
        raise ValidationError("family 'apx-gadget' needs exactly one of --cycle and --graph")
    if cycle is not None:
        if cycle < 3:
            raise ValidationError(f"family 'apx-gadget': a cycle needs at least 3 vertices, got {cycle}")
        return generators.gen_apx_gadget(cycle, [(i, (i + 1) % cycle) for i in range(cycle)], 2)
    gobj = _load_json_object(graph)
    n, d = _require_int(gobj, "n", graph), _require_int(gobj, "d", graph)
    edges = core._require(gobj, "edges", list, graph)
    if not all(_is_int_list(e, 2) for e in edges):
        raise ParseError(f"{graph}: each edge must be a pair of integer vertices")
    return generators.gen_apx_gadget(n, [tuple(e) for e in edges], d)


REQUIRED = object()
_COUNT, _SEED = (int, REQUIRED), (int, 0)

# family -> ({parameter: (type, default or REQUIRED)}, builder).  Parameters
# carry the generator's keyword names; `gen` takes each as a --flag, `bench`
# as an item key.  Builders look the generators up when called, so a module
# attribute rebound after import (a tracer, a test double) is the one run.
FAMILIES = {
    "star": ({"leaves": _COUNT}, lambda p: generators.gen_star(**p)),
    "bipartite-gap": ({"n": _COUNT, "seed": _SEED}, lambda p: generators.gen_bipartite_gap(**p)),
    "planted": (
        {"n": _COUNT, "r": (int, None), "p": (float, None), "planted_size": (int, None),
         "delta": (float, 0.1), "seed": _SEED},
        lambda p: generators.gen_planted(generators.PlantedParams(**p))[0],
    ),
    "level-graph": (
        {"eps": (float, REQUIRED), "n0": (int, 1)},
        lambda p: generators.gen_level_graph(generators.LevelGraphParams(**p)),
    ),
    "random": ({"n": _COUNT, "seed": _SEED, "density": (float, 1.0)}, lambda p: generators.random_instance(**p)),
    "apx-gadget": ({"cycle": (int, None), "graph": (str, None)}, lambda p: _apx_gadget(**p)),
    "kand": ({"n": _COUNT, "m": _COUNT, "k": _COUNT, "seed": _SEED}, lambda p: hardness.gen_kand(**p)),
}
_FLAG_TYPES = {key: typ for table, _build in FAMILIES.values() for key, (typ, _default) in table.items()}

# an int parameter must already be a JSON integer and a float one a number:
# int() would run 6.5 as 6 and true as 1, float() true as 1.0 and "0.3" as 0.3
_TYPE_CHECKS = {
    int: (_is_int, "an integer"),
    float: (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _family(spec: dict, extra=()) -> tuple[dict, object]:
    """spec's family builder and its keyword arguments, checked against FAMILIES.

    Every key of spec must be a parameter of the family, "family" or one of
    `extra`; the extra keys are not passed to the builder.
    """
    family = spec.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValidationError(f"unknown instance family {family!r}")
    table, build = FAMILIES[family]
    unknown = sorted(set(spec) - set(table) - {"family", *extra})
    if unknown:
        raise ValidationError(f"family {family!r} does not take {_flag(unknown[0])}")
    params = {}
    for key, (typ, default) in table.items():
        if key in spec:
            check, what = _TYPE_CHECKS[typ]
            if not check(spec[key]):
                raise ValidationError(f"family {family!r}: {key} must be {what}, got {spec[key]!r}")
            params[key] = typ(spec[key])
        elif default is REQUIRED:
            raise ValidationError(f"family {family!r} needs {_flag(key)}")
        else:
            params[key] = default
    return params, build


def cmd_gen(args) -> int:
    spec = {key: value for key, value in vars(args).items() if key in _FLAG_TYPES and value is not None}
    spec["family"] = args.family
    params, build = _family(spec)
    inst = build(params)
    if args.family == "kand":
        clauses = [[list(lit) for lit in clause] for clause in inst.clauses]
        obj = {"kind": "kand", "n": inst.n, "k": inst.k, "clauses": clauses, "meta": {"seed": params["seed"]}}
        with open(args.out, "w") as fh:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        core.save_instance(inst, args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# solve / exact / relax
# ---------------------------------------------------------------------------

def _run_algo(inst: core.QpRatioInstance, algo: str, seed: int, eps: float):
    if algo == "general":
        return rounding.solve_general(inst, seed=seed)
    if algo == "bipartite":
        return rounding.solve_bipartite(inst, seed=seed)
    if algo == "trevisan":
        return spectral.trevisan_round(inst, spectral.normalized_eig(inst, seed=seed)[1])
    if algo == "psd":
        return spectral.solve_psd(inst, seed=seed)
    if algo == "high-opt":
        return spectral.solve_high_opt(inst, eps, seed=seed)
    raise ValidationError(f"unknown algorithm {algo!r}")


def _bound_for(inst: core.QpRatioInstance, cap: int, normalized: bool) -> tuple[float, str]:
    if inst.n <= cap:
        oracle = exact.brute_force_normalized if normalized else exact.brute_force_qp_ratio
        return oracle(inst, cap=cap)[1].value, "oracle"
    if normalized:
        return spectral.weighted_eig_value(inst, core.degrees(inst)), "eig"
    return spectral.eig_relaxation_value(inst), "eig"


def _result_row(instance_id, family, n, seed, algo, value, bound, bound_kind, support, runtime_ms, status):
    numeric = isinstance(value, (int, float)) and isinstance(bound, (int, float))
    ratio = value / bound if (numeric and bound > 1e-15) else ""
    cells = [instance_id, family, n, seed, algo, value, bound, bound_kind, ratio, support, runtime_ms, status]
    return dict(zip(CSV_HEADER, (_fmt(c) for c in cells)))


def _csv_writer(fh) -> csv.DictWriter:
    return csv.DictWriter(fh, CSV_HEADER, lineterminator="\n")


def cmd_solve(args) -> int:
    inst = _load_ratio_instance(args.instance)
    t0 = time.perf_counter()
    a, val = _run_algo(inst, args.algo, args.seed, args.eps)
    runtime_ms = int(round(1000 * (time.perf_counter() - t0)))
    bound, bound_kind = _bound_for(inst, args.cap, normalized=(args.algo == "trevisan"))
    family = (inst.meta or {}).get("family", "file")
    row = _result_row(
        os.path.basename(args.instance), family, inst.n, args.seed, args.algo,
        val.value, bound, bound_kind, a.support, runtime_ms, "ok",
    )
    out = _csv_writer(sys.stdout)
    out.writeheader()
    out.writerow(row)
    if args.csv:
        new = not os.path.exists(args.csv)
        with open(args.csv, "a", newline="") as fh:
            out = _csv_writer(fh)
            if new:
                out.writeheader()
            out.writerow(row)
    return 0


def cmd_exact(args) -> int:
    inst = core.load_instance(args.instance)
    if isinstance(inst, core.QpIntermediateInstance):
        if args.normalized:
            raise ValidationError("--normalized applies to a qp_ratio instance, not an intermediate one")
        x, val = exact.grid_search_intermediate(inst, eps=args.grid_eps, cap=args.cap)
    else:
        oracle = exact.brute_force_normalized if args.normalized else exact.brute_force_qp_ratio
        x, val = oracle(inst, cap=args.cap)
    print(f"optimum {val.value:.12g} (numerator {val.numerator:.12g}, denominator {val.denominator:.12g})")
    print("argmax", list(x.values))
    return 0


def cmd_relax(args) -> int:
    inst = _load_ratio_instance(args.instance)
    if args.method == "eig":
        print(f"eig bound {spectral.eig_relaxation_value(inst):.12g}")
        return 0
    if args.method == "normalized-eig":
        print(f"normalized eig bound {spectral.weighted_eig_value(inst, core.degrees(inst)):.12g}")
        return 0
    sol = sdp.sdp_solve(inst, rank=args.rank, seed=args.seed, restarts=args.restarts)
    print(f"sdp primal value {sol.objective:.12g}")
    print(f"residual_norm1 {sol.residual_norm1:.3e} residual_pair {sol.residual_pair:.3e}")
    if args.gram_out:
        with open(args.gram_out, "w") as fh:
            json.dump({"vectors": sol.vectors.tolist()}, fh)
            fh.write("\n")
        print(f"wrote {args.gram_out}")
    return 0


def cmd_certify(args) -> int:
    inst = _load_ratio_instance(args.instance)
    vectors = core._require(_load_json_object(args.gram), "vectors", list, args.gram)
    try:
        vectors = np.array(vectors, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{args.gram}: 'vectors' must be rows of numbers of one length") from exc
    sol = sdp.GramSolution.build(inst, vectors)
    ok, report = sdp.sdp_feasibility(sol, tol=args.tol)
    print(f"objective {sol.objective:.12g}")
    print(f"residual_norm1 {report['residual_norm1']:.3e} residual_pair {report['residual_pair']:.3e}")
    print("feasible" if ok else "infeasible")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def _load_kand(path) -> hardness.KAndInstance:
    obj = _load_json_object(path)
    if obj.get("kind") != "kand":
        raise ParseError(f"{path}: expected kind 'kand'")
    n, k = _require_int(obj, "n", path), _require_int(obj, "k", path)
    clauses = core._require(obj, "clauses", list, path)
    if not all(isinstance(clause, list) and all(_is_int_list(lit, 2) for lit in clause) for clause in clauses):
        raise ParseError(f"{path}: each clause must be a list of integer [variable, sign] pairs")
    return hardness.KAndInstance(n, k, tuple(tuple(map(tuple, clause)) for clause in clauses))


def _load_ug(path) -> hardness.UgInstance:
    obj = _load_json_object(path)
    if obj.get("kind") != "ratio_ug":
        raise ParseError(f"{path}: expected kind 'ratio_ug'")
    vertices, alphabet = _require_int(obj, "vertices", path), _require_int(obj, "alphabet", path)
    edges = core._require(obj, "edges", list, path)
    if not all(isinstance(e, list) and len(e) == 3 and _is_int_list(e[:2]) and _is_int_list(e[2]) for e in edges):
        raise ParseError(f"{path}: each edge must be [u, v, permutation] of integers")
    return hardness.UgInstance(vertices, alphabet, tuple((u, v, tuple(perm)) for u, v, perm in edges))


def cmd_reduce(args) -> int:
    with open(args.input, "rb") as fh:
        source_hash = hashlib.sha256(fh.read()).hexdigest()[:16]
    if args.source == "kand":
        out, _ = hardness.kand_to_qpratio(_load_kand(args.input), args.alpha)
    elif args.source == "ug":
        out, _ = hardness.ug_to_intermediate(_load_ug(args.input))
    elif args.source == "intermediate":
        src = core.load_instance(args.input)
        if not isinstance(src, core.QpIntermediateInstance):
            raise ValidationError(f"{args.input} does not hold an intermediate instance")
        out, _ = hardness.intermediate_to_qpratio(src, args.eps)
    else:
        raise ValidationError(f"unknown reduction source {args.source!r}")
    meta = dict(out.meta or {})
    meta["source_file"] = os.path.basename(args.input)
    meta["source_sha256_16"] = source_hash
    # rebuilt from the arrays: dataclasses.replace would read, and so build,
    # the whole entries tuple
    rest = {f.name: getattr(out, f.name) for f in dataclasses.fields(out)[2:]}
    out = type(out)(out.n, out.arrays, **{**rest, "meta": meta})
    core.save_instance(out, args.out)
    print(f"wrote {args.out} ({out.n} variables, {out.nnz} entries)")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_one(item, algos, cap, seed):
    family = item.get("family", "?")
    iid = item.get("id") or "-".join(
        [str(family)] + [f"{k}{item[k]}" for k in sorted(item) if k not in ("family", "id")]
    )
    seed = item.get("seed", seed)

    def failed(n, algo, exc):
        return _result_row(iid, family, n, seed, algo, "", "", "", "", "", f"error:{type(exc).__name__}")

    try:
        if family == "kand":
            raise ValidationError("family 'kand' builds clauses, not a ratio instance")
        params, build = _family(item, extra=("id", "seed"))
        inst = build(params)
        bound = _bound_for(inst, cap, normalized=False)
    except Exception as exc:  # noqa: BLE001 - recorded per-row
        return [failed("", algo, exc) for algo in algos]
    rows = []
    for algo in algos:
        try:
            nb, nk = _bound_for(inst, cap, normalized=True) if algo == "trevisan" else bound
            a, val = _run_algo(inst, algo, seed, eps=0.25)
            rows.append(_result_row(iid, family, inst.n, seed, algo, val.value, nb, nk, a.support, "", "ok"))
        except (ValidationError, BudgetExceeded, spectral.ConvergenceError) as exc:
            rows.append(failed(inst.n, algo, exc))
    return rows


def _render_svg(rows: list[dict]) -> str:
    width, height, pad = 640, 400, 50
    series: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        if r["status"] != "ok" or r["ratio"] == "":
            continue
        series.setdefault(r["algo"], []).append((float(r["n"]), float(r["ratio"])))
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    xs = [p[0] for pts in series.values() for p in pts] or [1.0]
    ys = [p[1] for pts in series.values() for p in pts] or [1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(0.0, min(ys)), max(1.0, max(ys))
    if x1 == x0:
        x1 = x0 + 1

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width//2}" y="{height-12}" font-size="12" text-anchor="middle">n</text>',
        f'<text x="14" y="{height//2}" font-size="12" text-anchor="middle" transform="rotate(-90 14 {height//2})">value / bound</text>',
    ]
    for k, (algo, pts) in enumerate(sorted(series.items())):
        pts = sorted(pts)
        color = palette[k % len(palette)]
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5" fill="{color}"/>')
        parts.append(
            f'<text x="{width-pad+4}" y="{pad + 14*k + 10}" font-size="11" fill="{color}">{algo}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_bench(args) -> int:
    cfg = _load_json_object(args.config)
    algos = cfg.get("algos", ["general"])
    if not (isinstance(algos, list) and all(isinstance(x, str) for x in algos)):
        raise ParseError(f"{args.config}: 'algos' must be a list of algorithm names")
    cap, seed = cfg.get("cap", 12), cfg.get("seed", 0)
    if not (_is_int(cap) and _is_int(seed) and seed >= 0):
        raise ParseError(f"{args.config}: 'cap' must be an integer and 'seed' a non-negative integer")
    instances = core._require(cfg, "instances", list, args.config)
    for k, item in enumerate(instances):
        if not isinstance(item, dict):
            raise ParseError(f"{args.config}: instances item {k} must be a JSON object")
        item_seed = item.get("seed", seed)
        if not (_is_int(item_seed) and item_seed >= 0):
            raise ParseError(f"{args.config}: instances item {k} 'seed' must be a non-negative integer")
    out_csv = cfg.get("out_csv", "bench.csv")
    out_svg = cfg.get("out_svg")
    if not isinstance(out_csv, str) or not (out_svg is None or isinstance(out_svg, str)):
        raise ParseError(f"{args.config}: 'out_csv' and 'out_svg' must be file names")
    rows = [r for it in instances for r in _bench_one(it, algos, cap, seed)]
    rows.sort(key=lambda r: (r["instance_id"], r["algo"]))
    with open(out_csv, "w", newline="") as fh:
        out = _csv_writer(fh)
        out.writeheader()
        out.writerows(rows)
    print(f"wrote {out_csv} ({len(rows)} rows)")
    if out_svg:
        with open(out_svg, "w") as fh:
            fh.write(_render_svg(rows))
        print(f"wrote {out_svg}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qprl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("family", choices=list(FAMILIES))
    g.add_argument("--out", required=True)
    for key, typ in _FLAG_TYPES.items():
        takers = ", ".join(name for name, (table, _build) in FAMILIES.items() if key in table)
        g.add_argument(_flag(key), dest=key, type=typ, help=f"taken by: {takers}")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run a rounding algorithm on an instance file")
    s.add_argument("instance")
    s.add_argument("--algo", required=True, choices=["general", "bipartite", "trevisan", "psd", "high-opt"])
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--eps", type=float, default=0.25, help="degree filter for high-opt")
    s.add_argument("--cap", type=int, default=12, help="brute-force bound cap")
    s.add_argument("--csv", help="append the result row to this CSV file")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("exact", help="brute-force or grid-search oracle")
    e.add_argument("instance")
    e.add_argument("--cap", type=int, default=12)
    e.add_argument("--normalized", action="store_true")
    e.add_argument("--grid-eps", dest="grid_eps", type=float, default=0.1)
    e.set_defaults(func=cmd_exact)

    r = sub.add_parser("relax", help="certified eigenvalue bounds or a vector-relaxation primal value")
    r.add_argument("instance")
    r.add_argument(
        "--method",
        required=True,
        choices=["eig", "normalized-eig", "sdp"],
        help="eig: certified upper bound on the top eigenvalue of A; normalized-eig: certified upper "
        "bound on the top eigenvalue of D^-1/2 A D^-1/2; sdp: a vector-relaxation primal value",
    )
    r.add_argument("--rank", type=int)
    r.add_argument("--restarts", type=int, default=3)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--gram-out", dest="gram_out")
    r.set_defaults(func=cmd_relax)

    c = sub.add_parser("certify", help="check feasibility of a vector solution file")
    c.add_argument("instance")
    c.add_argument("--gram", required=True)
    c.add_argument("--tol", type=float, default=1e-6)
    c.set_defaults(func=cmd_certify)

    d = sub.add_parser("reduce", help="run a reduction on a source file")
    d.add_argument("input")
    d.add_argument("--from", dest="source", required=True, choices=["kand", "ug", "intermediate"])
    d.add_argument("--alpha", type=float, default=1.0)
    d.add_argument("--eps", type=float, default=0.5)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_reduce)

    b = sub.add_parser("bench", help="run a benchmark grid from a JSON config")
    b.add_argument("config")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # solve and relax draw nothing on an instance without entries, where
        # util.rng_for would never see the seed
        if args.command in ("solve", "relax") and args.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (ValidationError, BudgetExceeded, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
