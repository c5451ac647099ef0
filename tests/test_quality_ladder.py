"""The committed quality ladder (tests/data/quality_ladder.json): no qprl
algorithm's value drops below its recorded one, every value equals an
evaluator recomputation, and every value lies below its certified bound.

The rows run in a child process with one BLAS thread, as
tests/data/make_quality_ladder.py ran them: on the eps 1/3 level graph the
threshold cuts move with the summation order of a multithreaded product.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qpratio

DATA = Path(__file__).with_name("data")

CHECK = """
import json
import sys

import numpy as np

from qpratio import cli, core

sys.path.insert(0, sys.argv[1])
from make_quality_ladder import CAP, EPS, build

failures = []
inst, key = None, None
for row in json.loads(sys.stdin.read()):
    name = f"{row['spec']} seed {row['seed']} {row['algo']}"
    if key != (row["spec"], row["seed"]):
        key = (row["spec"], row["seed"])
        inst = build(*key)
    normalized = row["objective"] == "normalized"
    a, val = cli._run_algo(inst, row["algo"], row["seed"], EPS)
    recorded = row["value"]
    if not val.value >= recorded - 1e-12 * abs(recorded):
        failures.append(f"{name}: value {val.value!r} dropped below {recorded!r}")
    weights = core.degrees(inst) if normalized else np.ones(inst.n)
    if val != core.eval_weighted(inst, a, weights):
        failures.append(f"{name}: {val} is not the evaluator's {core.eval_weighted(inst, a, weights)}")
    bound, kind = cli._bound_for(inst, CAP, normalized)
    if kind != row["bound_kind"] or not val.value <= bound:
        failures.append(f"{name}: value {val.value!r} against {kind} bound {bound!r}")
    if inst.n != row["n"]:
        failures.append(f"{name}: n is {inst.n}, recorded {row['n']}")
print(json.dumps(failures))
"""


def test_no_ladder_row_drops():
    rows = (DATA / "quality_ladder.json").read_text()
    assert len(json.loads(rows)) == 109
    env = dict(os.environ, PYTHONPATH=str(Path(qpratio.__file__).parent.parent))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    out = subprocess.run(
        [sys.executable, "-c", CHECK, str(DATA)], input=rows, env=env, capture_output=True, text=True, check=True
    )
    failures = json.loads(out.stdout)
    assert not failures, "\n".join(failures)
