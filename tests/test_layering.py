"""Import layering of the package: no cycles, and every import at module level."""

import ast
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
