"""Span tracing of the qpratio layers, installed from outside the package.

The traced run replaces public functions of qpratio with timing wrappers.
Each function is replaced at every qpratio module that binds it (for example
``qpratio.rounding.sdp_solve`` as well as ``qpratio.sdp.sdp_solve``), so calls
made inside the package are seen too.  ``QpRatioInstance.to_dense`` is
replaced on the class.

Spans (name, start, end, parent, op) are kept in memory and written out as
JSONL when the run ends.  A span's self time is its duration minus the part
of it that its children cover.  When threads run spans at the same time (the
``qprl bench`` thread pool), each instant is split evenly between the spans
running innermost at that instant, so the self times of all spans of an op
add up to the op's wall time exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

import qpratio
from qpratio import cli, core, exact, generators, hardness, rounding, sdp, spectral, util

MODULES = (qpratio, core, exact, generators, hardness, rounding, sdp, spectral, cli, util)

# (module, function name, span name); the span name's prefix is the layer
TRACED = (
    (generators, "gen_star", "generators.build"),
    (generators, "gen_bipartite_gap", "generators.build"),
    (generators, "gen_level_graph", "generators.build"),
    (generators, "random_instance", "generators.build"),
    (core, "eval_qp_ratio", "core.eval"),
    (core, "eval_normalized_qp_ratio", "core.eval"),
    (core, "trivial_solution", "core.trivial_solution"),
    (core, "restrict", "core.restrict"),
    (spectral, "eigen_max", "spectral.eigen_max"),
    (spectral, "eig_relaxation_value", "spectral.eig_relaxation_value"),
    (spectral, "normalized_eig", "spectral.normalized_eig"),
    (spectral, "trevisan_round", "spectral.trevisan_round"),
    (spectral, "psd_polylog_round", "spectral.psd_round"),
    (spectral, "solve_high_opt", "spectral.solve_high_opt"),
    (sdp, "sdp_solve", "sdp.solve"),
    (rounding, "solve_general", "rounding.solve_general"),
    (rounding, "solve_bipartite", "rounding.solve_bipartite"),
    (rounding, "preprocess_small", "rounding.preprocess"),
    (rounding, "cap_large", "rounding.cap_large"),
    (rounding, "round_close_lengths", "rounding.round_close"),
    (exact, "brute_force_qp_ratio", "exact.brute_force"),
    (exact, "brute_force_normalized", "exact.brute_force"),
    (hardness, "gen_kand", "hardness.gen_kand"),
    (hardness, "kand_to_qpratio", "hardness.reduce"),
    (cli, "main", "cli.main"),
)

LAYERS = ("generators", "core", "spectral", "sdp", "rounding", "exact", "hardness", "cli", "bench")


def _rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Bind `replacement` wherever a qpratio module binds `original`."""
    undo = []
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


class SdpTap:
    """Keeps every ``sdp_solve`` result for the feasibility check.

    Installed in the untraced run too: it only appends the result to a list,
    so it adds no measurable time to a call that takes tens of milliseconds
    or more.
    """

    def __init__(self):
        self.results: list[tuple[core.QpRatioInstance, sdp.GramSolution]] = []
        self._undo: list = []

    def install(self) -> None:
        original = sdp.sdp_solve

        @functools.wraps(original)
        def tapped(inst, *args, **kwargs):
            sol = original(inst, *args, **kwargs)
            self.results.append((inst, sol))
            return sol

        self._undo = _rebind(original, tapped)

    def drain(self) -> list:
        out, self.results = self.results, []
        return out

    def uninstall(self) -> None:
        for mod, attr, value in self._undo:
            setattr(mod, attr, value)
        self._undo = []


class Tracer:
    """In-memory span recorder plus the per-layer metrics derived from it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._op_stack: list[dict] = []
        self._op_first = 0
        self._root: dict | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.inclusive_ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.wall_ms = 0.0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict | None:
        if self.op_id is None:
            return None
        stack = self._stack()
        # a pool thread's first span hangs under the innermost open span of
        # the thread that runs the op (`cli.main` for a bench grid)
        home = stack or self._op_stack
        record = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": home[-1]["id"] if home else None,
            "op": self.op_id,
        }
        self.spans.append(record)
        stack.append(record)
        return record

    def close(self, record: dict | None) -> None:
        if record is not None:
            record["end"] = time.perf_counter()
            self._stack().pop()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_stack = self._stack()
        self._op_first = len(self.spans)
        self._root = self.open("bench.op")

    def end_op(self) -> None:
        """Close the op's root span and fold the op's spans into the totals."""
        root = self._root
        self.close(root)
        self.op_id = None
        self._fold(self.spans[self._op_first:])
        self.wall_ms += 1000.0 * (root["end"] - root["start"])

    def _fold(self, spans: list[dict]) -> None:
        by_id = {s["id"]: s for s in spans}
        events = []
        for s in spans:
            events.append((s["start"], 1, s["id"]))
            events.append((s["end"], 0, s["id"]))
        events.sort()
        active: set[int] = set()
        children = defaultdict(int)
        own = defaultdict(float)
        prev = events[0][0]
        for t, kind, sid in events:
            if t > prev and active:
                inner = [a for a in active if children[a] == 0]
                share = (t - prev) / len(inner)
                for a in inner:
                    own[a] += share
            prev = t
            parent = by_id[sid]["parent"]
            if kind == 1:
                active.add(sid)
                if parent in by_id:
                    children[parent] += 1
            else:
                active.discard(sid)
                if parent in by_id:
                    children[parent] -= 1
        for s in spans:
            self.self_ms[s["name"]] += 1000.0 * own[s["id"]]
            self.inclusive_ms[s["name"]] += 1000.0 * (s["end"] - s["start"])
            self.counts[s["name"]] += 1

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(record)
            if record is not None:
                if args and isinstance(getattr(args[0], "n", None), int):
                    record["n"] = args[0].n
                if after is not None:
                    with tracer._lock:  # pool threads update the same counters
                        after(record, args, result)
            return result

        return traced

    def install(self, sdp_sink) -> None:
        """Wrap every TRACED function; `sdp_sink` receives (inst, sol) pairs."""
        after = {
            "generators.build": self._after_build,
            "spectral.eigen_max": self._after_eigen,
            "spectral.trevisan_round": self._after_trevisan,
            "exact.brute_force": self._after_brute,
            "hardness.reduce": self._after_reduce,
            "sdp.solve": lambda record, args, sol: sdp_sink((args[0], sol)),
        }
        for mod, fname, span in TRACED:
            original = getattr(mod, fname)
            self._undo += _rebind(original, self._wrap(original, span, after.get(span)))
        to_dense = core.QpRatioInstance.to_dense
        self._undo.append((core.QpRatioInstance, "to_dense", to_dense))
        core.QpRatioInstance.to_dense = self._wrap(to_dense, "core.to_dense", self._after_dense)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    # -- counters taken at the layer boundaries ----------------------------

    def _after_eigen(self, record, args, res) -> None:
        n = np.shape(args[0])[0]
        record.update(n=n, iters=res.iterations)
        self.counts["spectral.eigen_iters"] += res.iterations
        self.counts["spectral.matvec_flops"] += res.iterations * 2.0 * n * n

    def _after_trevisan(self, record, args, res) -> None:
        mags = np.abs(np.asarray(args[1], dtype=np.float64))
        record["thresholds"] = int(np.unique(mags[mags > 0]).size)
        self.counts["spectral.thresholds"] += record["thresholds"]

    def _after_build(self, record, args, inst) -> None:
        record.update(n=inst.n, entries=len(inst.entries))
        self.counts["generators.entries"] += len(inst.entries)

    def _after_dense(self, record, args, res) -> None:
        self.counts["core.dense_bytes"] += res.nbytes

    def _after_brute(self, record, args, res) -> None:
        self.counts["exact.assignments"] += 3 ** args[0].n

    def _after_reduce(self, record, args, res) -> None:
        record["n"] = res[0].n
        self.counts["hardness.reduced_vars"] += res[0].n

    # -- output ------------------------------------------------------------

    def layer_self_ms(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, ms in self.self_ms.items():
            out[name.split(".")[0]] += ms
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
