"""Import layering of the package: no cycles, every import at module level,
and no scipy on the spectral path."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qpratio

PACKAGE = Path(qpratio.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")


def relative_imports(tree):
    """Package modules named by the `from .x import ...` / `from . import x` nodes of a tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name if a.name in MODULES else "__init__" for a in node.names)
    return out


def test_import_graph_is_acyclic():
    graph = {name: relative_imports(parse(name)) for name in MODULES}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in MODULES:
        visit(name)


def test_no_import_inside_a_function():
    local = []
    for name in MODULES:
        for fn in ast.walk(parse(name)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [
                    f"{name}.py:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not local, "imports inside functions: " + ", ".join(local)


def test_no_module_reads_the_entries_tuple():
    # the tuple of (i, j, w) triples is built on first read; package code
    # reads the canonical columns, inst.arrays, instead
    reads = [
        f"{name}.py:{node.lineno}"
        for name in MODULES
        for node in ast.walk(parse(name))
        if isinstance(node, ast.Attribute) and node.attr == "entries"
    ]
    assert not reads, "reads of .entries: " + ", ".join(reads)


def test_cli_holds_no_dense_or_eigen_pipeline():
    # each algorithm is one library call; the matrix and its eigenpairs
    # stay inside spectral and rounding
    pipeline = {"eigen_max", "top_eigenvalue_bound", "psd_polylog_round", "to_dense"}
    reads = [
        f"cli.py:{node.lineno} {name}"
        for node in ast.walk(parse("cli"))
        if (name := getattr(node, "attr", getattr(node, "id", None))) in pipeline
    ]
    assert not reads, "pipeline reads in the CLI: " + ", ".join(reads)


def test_only_core_and_closed_forms_build_a_ratio_value():
    # every value an algorithm or oracle returns is core's evaluator's;
    # outside core only the closed-form values build one from their own sums
    allowed = {("hardness", "theta_value"), ("generators", "level_graph_witness_value")}
    sites = []
    for name in MODULES:
        if name == "core":
            continue
        tree = parse(name)
        spans = [
            (fn.lineno, fn.end_lineno)
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and (name, fn.name) in allowed
        ]
        sites += [
            f"{name}.py:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "RatioValue" in ast.unparse(node.func).split(".")
            and not any(lo <= node.lineno <= hi for lo, hi in spans)
        ]
    assert not sites, "RatioValue built outside core: " + ", ".join(sites)


def test_spectral_path_does_not_import_scipy():
    # importing scipy.sparse.linalg alone takes longer than the dense solves
    # at the sizes the spectral path serves
    code = """
import sys
import qpratio
from qpratio import generators, spectral
inst = generators.random_instance(400, 1, density=0.05)
spectral.eig_relaxation_value(inst, seed=1)
spectral.normalized_eig(inst, seed=1)
spectral.solve_psd(inst, seed=1)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
