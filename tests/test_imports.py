import ast
import importlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dblab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dblab"}


def test_runtime_imports_are_stdlib_or_numpy():
    # numpy stays the only runtime dependency
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert outside == []


def test_solver_does_not_import_the_corrector_engine():
    # the solver only steps; callers compute the energies of its records
    tree = ast.parse((SRC / "solver.py").read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert not {m for m in modules if m and m.split(".")[-1] == "energies"}


def test_every_exported_name_resolves():
    # a deleted helper must not linger in a module's __all__
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "dblab" if path.stem == "__init__" else f"dblab.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_blowup_is_caught_only_by_the_cli():
    # one channel for blow-up: BlowUpError propagates to cli_dispatch, which
    # reports it; a second handler would let a study run on a partial record
    handlers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                if "BlowUpError" in ast.unparse(child.type):
                    handlers.append(scope)
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert handlers == ["cli.cli_dispatch"]
