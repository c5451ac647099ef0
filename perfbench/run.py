#!/usr/bin/env python3
"""qpratio benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload general-sdp --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop with one client in this process: it
runs whole rounds of ops, one op at a time, until the timed ops have taken
``--seconds`` in total (and at least 11 ops have run, so the tail percentile
has 10 samples beyond it).  Every op's output is checked untimed; a failed
check counts the op as failed and never stops the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
rounds twice, untraced and then with every layer wrapped (see tracing.py),
and prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Results and spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported: the only parallelism left is the
# program's own QPRL_THREADS pool
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
NPROC = len(os.sched_getaffinity(0))
MIN_OPS = 11
SETUP_PROBES = 3


def import_package():
    """Import qpratio from this checkout's src/, or exit 1 without a result."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import qpratio
    except ImportError as exc:
        sys.exit(f"error: cannot import qpratio from {SRC}: {exc}")
    if Path(qpratio.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: qpratio was imported from {qpratio.__file__}, not from {SRC}")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {
        "nproc": NPROC,
        "QPRL_THREADS": os.environ["QPRL_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(),
    }


def declared() -> dict:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Tally:
    """Latencies, failures and check results of the ops of one phase.

    Only the traced phase keeps the ``sdp_solve`` results (`keep_sdp`), so
    the untraced phases hold no instances past their op.
    """

    def __init__(self, refs, keep_sdp: bool = False):
        self.refs = refs
        self.keep_sdp = keep_sdp
        self.latencies_ms: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.ratios: list[float] = []
        self.rows = 0
        self.rows_failed = 0
        self.sdp_results: list = []

    def record(self, op, ms: float, out, exc: BaseException | None, sdp_results: list) -> bool:
        """Check one op's output; returns False and counts it failed on any problem."""
        from qpratio import sdp

        self.attempted += 1
        self.latencies_ms.append(ms)
        self.by_label.setdefault(op.label, []).append(ms)
        errors: list[str] = []
        if exc is not None:
            where = traceback.format_tb(exc.__traceback__)[-1].strip().replace("\n", " | ")
            errors.append(f"raised {type(exc).__name__}: {exc} (innermost frame: {where})")
        else:
            try:
                chk = op.check(out, self.refs)
            except Exception as cexc:  # noqa: BLE001 - a broken output fails the op
                errors.append(f"check raised {type(cexc).__name__}: {cexc}")
            else:
                errors += chk.errors
                self.ratios += chk.ratios
                self.rows += chk.rows
                self.rows_failed += chk.rows_failed
        for inst, sol in sdp_results:
            ok, report = sdp.sdp_feasibility(sol)
            if not ok:
                errors.append(f"sdp_solve result infeasible: {report}")
        if self.keep_sdp:
            self.sdp_results += sdp_results
        if errors:
            self.failed += 1
            self.failures.append((op.label, errors[:3]))
        return not errors

    @property
    def timed_ms(self) -> float:
        return sum(self.latencies_ms)


def run_op(op, tally: Tally, tap, tracer=None, op_id: int = 0) -> None:
    gc.collect()  # untimed: no op pays for the previous op's garbage
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        out, exc = op.run(), None
    except Exception as err:  # noqa: BLE001 - the loop keeps running; recorded as failed
        out, exc = None, err
    ms = 1000.0 * (time.perf_counter() - t0)
    if tracer is not None:
        tracer.end_op()
    tally.record(op, ms, out, exc, tap.drain())


def run_rounds(rounds, tally: Tally, tap, seconds: float, min_ops: int, tracer=None, count=None) -> int:
    """Run whole rounds until `seconds` of timed ops and `min_ops` ops (or
    exactly `count` rounds); returns the number of rounds run."""
    r = 0
    while True:
        for op in rounds(r):
            run_op(op, tally, tap, tracer, op_id=tally.attempted)
        r += 1
        if count is not None:
            if r >= count:
                return r
        elif tally.timed_ms >= 1000.0 * seconds and tally.attempted >= min_ops:
            return r


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Wall seconds of fresh processes that import numpy and qpratio and run
    the workload's smallest op once."""
    times = []
    for k in range(probes):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed + k)],
            check=True,
            timeout=150,
        )
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(tally: Tally, setup: list[float]) -> tuple[dict, dict]:
    lat = sorted(tally.latencies_ms)
    n = len(lat)
    tail_pos = n - 11  # the 11th largest sample: ten samples lie beyond it
    completed = tally.attempted - tally.failed
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": (completed / (tally.timed_ms / 1000.0), "ops/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (lat[tail_pos], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ops_frac": (completed / tally.attempted, "ratio"),
        "value_ratio_mean": (statistics.fmean(tally.ratios) if tally.ratios else 0.0, "ratio"),
    }
    extra = {
        "ops": n,
        "failed_ops_frac": tally.failed / tally.attempted,
        "op_tail_percentile": 100.0 * (n - 10) / n,
        "op_tail_samples_beyond": 10,
        "timed_s": tally.timed_ms / 1000.0,
        "value_samples": len(tally.ratios),
        "setup_samples_s": setup,
        "op_ms_median_by_label": {k: statistics.median(v) for k, v in tally.by_label.items()},
    }
    return metrics, extra


def sdp_quality(results: list, refs) -> dict:
    """Objective / lambda_max, the worst pair residual, and how many
    objectives fall under the brute-force optimum (n <= 12)."""
    import workloads as wl

    ratios, residual, below = [], 0.0, 0
    for inst, sol in results:
        a = wl.dense(inst)
        ratios.append(sol.objective / wl.top_eigenvalue(a))
        residual = max(residual, sol.residual_pair)
        if inst.n <= 12:
            opt = refs.opt(("sdp", inst.n, inst.entries), inst)
            if sol.objective < opt - wl.TOL * max(1.0, abs(opt)):
                below += 1
    return {
        "objective_ratio": statistics.fmean(ratios) if ratios else 0.0,
        "residual_pair_max": residual,
        "below_opt": below,
    }


def per_layer(tracer, tally: Tally, untraced_ms: float, refs) -> dict:
    c, inc, own = tracer.counts, tracer.inclusive_ms, tracer.self_ms
    q = sdp_quality(tally.sdp_results, refs)
    metrics = {
        "sdp.solve_ms": (inc["sdp.solve"], "ms"),
        "sdp.solve_calls": (c["sdp.solve"], "count"),
        "sdp.objective_ratio": (q["objective_ratio"], "ratio"),
        "sdp.residual_pair_max": (q["residual_pair_max"], "residual"),
        "sdp.below_opt": (q["below_opt"], "count"),
        "rounding.solve_general_self_ms": (own["rounding.solve_general"], "ms"),
        "rounding.solve_bipartite_self_ms": (own["rounding.solve_bipartite"], "ms"),
        "rounding.preprocess_ms": (inc["rounding.preprocess"], "ms"),
        "rounding.cap_large_ms": (inc["rounding.cap_large"], "ms"),
        "rounding.round_close_ms": (inc["rounding.round_close"], "ms"),
        "rounding.bands": (c["rounding.round_close"], "count"),
        "spectral.eigen_max_calls": (c["spectral.eigen_max"], "count"),
        "spectral.eigen_max_ms": (inc["spectral.eigen_max"], "ms"),
        "spectral.eigen_iters": (c["spectral.eigen_iters"], "count"),
        "spectral.matvec_flops_computed": (c["spectral.matvec_flops"], "flop"),
        "spectral.trevisan_round_ms": (inc["spectral.trevisan_round"], "ms"),
        "spectral.thresholds_scanned": (c["spectral.thresholds"], "count"),
        "spectral.psd_round_ms": (inc["spectral.psd_round"], "ms"),
        "core.eval_calls": (c["core.eval"], "count"),
        "core.eval_ms": (inc["core.eval"], "ms"),
        "core.to_dense_calls": (c["core.to_dense"], "count"),
        "core.dense_bytes_computed": (c["core.dense_bytes"], "B"),
        "generators.build_ms": (inc["generators.build"], "ms"),
        "generators.entries": (c["generators.entries"], "count"),
        "exact.brute_force_calls": (c["exact.brute_force"], "count"),
        "exact.brute_force_ms": (inc["exact.brute_force"], "ms"),
        "exact.assignments_computed": (c["exact.assignments"], "count"),
        "hardness.reduce_ms": (inc["hardness.reduce"], "ms"),
        "hardness.reduced_vars": (c["hardness.reduced_vars"], "count"),
        "cli.bench_self_ms": (own["cli.main"], "ms"),
        "cli.rows": (tally.rows, "count"),
        "cli.rows_failed": (tally.rows_failed, "count"),
    }
    for layer, ms in tracer.layer_self_ms().items():
        if layer != "cli":  # cli.bench_self_ms is the cli layer's self time
            metrics[f"{layer}.self_ms"] = (ms, "ms")
    metrics["trace.wall_ms"] = (tracer.wall_ms, "ms")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_frac"] = ((tally.timed_ms - untraced_ms) / untraced_ms, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: int, smallest=False, probes=SETUP_PROBES):
    """One run: returns (metrics, extra, all tallies).  With `smallest`,
    every round is just the workload's smallest op."""
    import workloads as wl

    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workload = wl.workloads(workdir)[name]
    try:
        return _measure(workload, seed, seconds, trace, smallest, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, smallest, probes):
    import tracing
    import workloads as wl

    name = workload.name
    if smallest:
        rounds = lambda r: [workload.smallest(seed)]  # noqa: E731
    else:
        rounds = lambda r: workload.round(seed, r)  # noqa: E731
    refs = wl.References()
    tap = tracing.SdpTap()
    tap.install()
    setup = measure_setup(name, seed, probes)
    warm = Tally(refs)
    run_op(workload.smallest(seed), warm, tap)

    if trace == 0:
        tally = Tally(refs)
        run_rounds(rounds, tally, tap, seconds, MIN_OPS)
        metrics, extra = end_to_end(tally, setup)
        return metrics, extra, [warm, tally]

    untraced = Tally(refs)
    count = run_rounds(rounds, untraced, tap, seconds / 2.0, 1)
    tracer = tracing.Tracer()
    tap.uninstall()
    traced = Tally(refs, keep_sdp=True)
    tracer.install(sdp_sink=tap.results.append)
    try:
        run_rounds(rounds, traced, tap, 0.0, 1, tracer=tracer, count=count)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"spans-{name}-seed{seed}.jsonl")
    metrics = per_layer(tracer, traced, untraced.timed_ms, refs)
    layers = tracer.layer_self_ms()
    extra = {
        "rounds": count,
        "ops": traced.attempted,
        "untraced_ms": untraced.timed_ms,
        "largest_self_time": max(layers, key=layers.get),
        "self_ms_sum": sum(layers.values()),
    }
    return metrics, extra, [warm, untraced, traced]


def report(name: str, seed: int, trace: int, metrics: dict, extra: dict, tallies: list) -> dict:
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    prov = provenance()
    for metric, (value, unit) in metrics.items():
        print(f"{metric:34s} {value:>16.6f} {unit}")
    for key, value in extra.items():
        print(f"# {key}: {value}")
    for tally in tallies:
        for label, errors in tally.failures:
            print(f"# FAILED {label}: {'; '.join(errors)}")
    print(f"# provenance: {json.dumps(prov, sort_keys=True)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=name, seed=seed, trace=trace, extra=extra, provenance=prov)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def expect(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"self-test failed: {what}")


def self_test() -> int:
    """Run the smallest op of each workload in both modes; every declared
    metric must be printed with its unit, and a deliberately wrong value must
    be counted as a failed op."""
    import dataclasses
    import io
    from contextlib import redirect_stdout

    import workloads as wl
    from qpratio import core

    want = declared()
    for name in ("general-sdp", "spectral-sparse", "small-exact"):
        for trace in (0, 1):
            buf = io.StringIO()
            with redirect_stdout(buf):
                metrics, extra, tallies = measure(name, 1, 0.0, trace, smallest=True, probes=1)
                result = report(name, 1, trace, metrics, extra, tallies)
            printed = {}
            for line in buf.getvalue().splitlines():
                parts = line.split()
                if len(parts) == 3 and not line.startswith("#"):
                    printed[parts[0]] = parts[2]
            expect(printed == want[trace], f"{name} trace={trace}: printed {printed}, declared {want[trace]}")
            expect(set(result["metrics"]) == set(want[trace]), f"{name}: result keys {sorted(result['metrics'])}")
            expect(result["failed"] == 0, [t.failures for t in tallies])
            if trace == 1:
                gap = abs(extra["self_ms_sum"] - metrics["trace.wall_ms"][0])
                expect(gap < 1e-6 * extra["self_ms_sum"], f"{name}: self times miss the wall time by {gap} ms")
            print(f"self-test {name} trace={trace}: {len(printed)} metrics ok")

        # a wrong value must fail its op, and the op must still be counted
        workdir = OUT / f"work-selftest-{os.getpid()}"
        try:
            op = wl.workloads(workdir)[name].smallest(1)
            tally = Tally(wl.References())
            out = op.run()
            if isinstance(out, wl.Result):
                if out.value is not None:
                    wrong = core.RatioValue.of(out.value.numerator + 1.0, out.value.denominator)
                    out = dataclasses.replace(out, value=wrong)
                else:
                    out = dataclasses.replace(out, bound=out.bound + 1.0)
            else:
                tally.refs.first_bytes(op.label, op.csv_path.read_bytes())
                rows = op.csv_path.read_text().splitlines()
                cells = rows[1].split(",")
                cells[5] = repr(float(cells[5]) + 1.0)
                rows[1] = ",".join(cells)
                op.csv_path.write_text("\n".join(rows) + "\n")
            ok = tally.record(op, 1.0, out, None, [])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        expect(not ok and tally.attempted == tally.failed == len(tally.latencies_ms) == 1, tally.failures)
        print(f"self-test {name}: wrong value counted as failed ({tally.failures[0][1][0]})")
    print("self-test passed")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["general-sdp", "spectral-sparse", "small-exact"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true", help="fast check of the benchmark itself")
    args = p.parse_args(argv)
    # the bench grids use the program's row pool at full width unless the
    # caller pins it (for example QPRL_THREADS=1 to compare)
    os.environ.setdefault("QPRL_THREADS", str(NPROC))
    import_package()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    metrics, extra, tallies = measure(args.workload, args.seed, args.seconds, args.trace)
    result = report(args.workload, args.seed, args.trace, metrics, extra, tallies)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
