"""The package's import graph: every import at module level, no cycles.

Names that moved to another module stay importable from the old one, as the
same objects."""

import ast
import os

import mdel
from mdel import laws, semantics, traces

PACKAGE = os.path.dirname(mdel.__file__)


def _modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name[:-3], ast.parse(fh.read(), name)


def _imported(node, modules):
    """The package modules an import statement names."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("mdel.")}
    module = node.module or ""
    if node.level == 0:  # absolute: mdel.x, or mdel itself
        if module != "mdel" and not module.startswith("mdel."):
            return set()
        module = module[len("mdel."):]
    if module:
        return {module.split(".")[0]}
    return {a.name for a in node.names if a.name in modules}  # from . import x


def test_no_import_inside_a_function():
    lazy = []
    for name, tree in _modules():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                lazy += [f"{name}:{node.lineno}" for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert lazy == []


def test_package_import_graph_is_acyclic():
    trees = dict(_modules())
    graph = {name: set() for name in trees}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                graph[name] |= _imported(node, trees)
    assert graph["__init__"] >= {"formulas", "traces", "semantics", "mht"}  # edges are seen
    # depth-first search; a module met again while still open closes a cycle
    state: dict = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph[name]):
            assert state.get(dep) != "open", " -> ".join(path + [dep])
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])


def test_moved_names_keep_their_old_import_path():
    for name in ("HERE", "THERE", "World"):
        assert getattr(semantics, name) is getattr(traces, name) is getattr(mdel, name)
    for name in ("Verdict", "is_tautology_bounded", "iff", "equiv_bounded"):
        assert getattr(semantics, name) is getattr(laws, name)
