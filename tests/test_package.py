"""The package namespace, what `from wavedg import *` binds, and the import
graph of its modules."""
import ast
import pathlib
import types

import wavedg


def test_star_import_binds_no_module():
    namespace = {}
    exec("from wavedg import *", namespace)
    namespace.pop("__builtins__")
    modules = sorted(name for name, val in namespace.items() if isinstance(val, types.ModuleType))
    assert modules == []
    assert sorted(namespace) == sorted(wavedg.__all__)
    assert len(set(wavedg.__all__)) == len(wavedg.__all__)


def _module_level_imports(tree: ast.Module):
    """The relative imports that run when the module loads: none inside a function."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _import_graph() -> dict:
    """Each module of the package, "__init__" too, to the modules it imports at load time."""
    files = {path.stem: path for path in pathlib.Path(wavedg.__file__).parent.glob("*.py")}
    graph = {}
    for name, path in files.items():
        graph[name] = set()
        for node in _module_level_imports(ast.parse(path.read_text(), str(path))):
            if node.module is not None:  # from .x import ...
                graph[name].add(node.module)
            else:  # from . import a, b: a submodule, or a name of the package's __init__
                graph[name] |= {a.name if a.name in files else "__init__" for a in node.names}
    return graph


def _reach(graph: dict, start: str) -> set:
    """The modules that loading start loads, start itself only through a cycle."""
    seen, todo = set(), list(graph[start])
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def test_module_imports_form_no_cycle():
    graph = _import_graph()
    assert {"timeint", "discretization", "reference", "scheme1d", "scheme2d"} <= set(graph)
    assert "reference" in graph["discretization"] and "timeint" in graph["reference"]
    cyclic = sorted(name for name in graph if name in _reach(graph, name))
    assert cyclic == [], {name: sorted(graph[name]) for name in cyclic}
    # the stepper loads neither the experiment layer nor the comparator
    assert not {"discretization", "reference"} & _reach(graph, "timeint")
