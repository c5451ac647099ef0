"""Set-up probe: import numpy and qpratio, run the workload's smallest op once.

    python3 perfbench/probe.py <workload> <seed>

run.py times this script in fresh processes to measure set-up time.
"""

import os
import shutil
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402 - after the path and thread pinning above

name, seed = sys.argv[1], int(sys.argv[2])
workdir = HERE / "out" / f"work-probe-{os.getpid()}"
try:
    workloads.workloads(workdir)[name].smallest(seed).run()
except Exception as exc:  # noqa: BLE001 - the measuring process records op failures
    print(f"probe: smallest op raised {type(exc).__name__}: {exc}", file=sys.stderr)
finally:
    shutil.rmtree(workdir, ignore_errors=True)
