import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

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


def _scoped(tree, scope: str):
    """(scope, node) for every node under `tree`; the scope is `scope` dotted with
    the names of the functions and classes that enclose the node."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(child, f"{scope}.{child.name}")
        else:
            yield scope, child
            yield from _scoped(child, scope)


def _src_nodes():
    """(scope, node) for every node of every module in src, scoped by module."""
    for path in sorted(SRC.glob("*.py")):
        yield from _scoped(ast.parse(path.read_text(), filename=str(path)), path.stem)


def test_only_trajectory_builds_a_stepper():
    # trajectory is the one stepping loop: a second caller of make_stepper
    # would be a second loop, with its own blow-up and record handling
    callers = [scope for scope, node in _src_nodes() if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "make_stepper"]
    assert callers == ["solver.trajectory"]


STENCIL_ENGINE = {"symbols._stencil_reads", "symbols.fd_partials"}


def test_only_the_stencil_engine_reads_stencil_taps():
    # one engine takes every derivative, of omega and of the multiplier symbols:
    # outside it FD_STENCILS is read only as max(FD_STENCILS), its highest order
    loads, orders, engine = 0, 0, set()
    for scope, node in _src_nodes():
        if scope in STENCIL_ENGINE:
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "FD_STENCILS":
                engine.add(scope)
        elif isinstance(node, ast.Name) and node.id == "FD_STENCILS" \
                and isinstance(node.ctx, ast.Load):
            loads += 1
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "max" \
                and [ast.unparse(a) for a in node.args] == ["FD_STENCILS"]:
            orders += 1
    assert engine == STENCIL_ENGINE
    assert loads == orders


def test_reports_are_encoded_once_by_their_writers():
    # a report hands its data to the code that writes its file, which encodes it
    # once: only the config and snapshot readers decode JSON, and the modules that
    # build reports import no json
    decoders = sorted({scope for scope, node in _src_nodes() if isinstance(node, ast.Call)
                       and getattr(node.func, "attr", None) in ("load", "loads")
                       and getattr(node.func.value, "id", None) == "json"})
    assert decoders == ["cli._load_config", "spectral.load_field_csv"]
    for stem in ("symbols", "resonance", "multipliers", "energies"):
        tree = ast.parse((SRC / f"{stem}.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "json" not in imported, stem


def test_corrector_constants_live_in_the_records():
    # each corrector's constant is written once, in its record: chi1_scale is
    # read nowhere else in energies.py, so no entry point applies it again
    tree = ast.parse((SRC / "energies.py").read_text())
    records = [node for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] in (["E1"], ["TILDE_E1"], ["TILDE_E2"])]
    assert len(records) == 3

    def reads(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "chi1_scale"]

    assert len(reads(tree)) == sum(len(reads(r)) for r in records) == 3


def test_band_energies_read_only_by_the_ladder_pass():
    # one pass over the dyadic ladder feeds E^s, E~^sigma, coercivity and the
    # drift study; another module reading band energies would be a second pass
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "band_energies":
                readers.add(path.stem)
    assert readers == {"energies"}
    assert "def band_energies" in (SRC / "dyadic.py").read_text()


def test_every_exported_name_resolves():
    # a deleted helper must not linger in a module's __all__
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "dblab" if path.stem == "__init__" else f"dblab.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


REPO = SRC.parent.parent
# module-level definitions that no command reaches through src, tools or perfbench
# but that stay, each with its reason
UNREACHED_BUT_KEPT = {
    "spectral.load_field_csv": "reads the snapshots that `simulate` writes",
}


def _references(tree) -> set:
    """Names that `tree` reads: names, attributes, imported names, and the dotted parts
    of identifier strings (a tracer target such as "DispersionSymbol.omega"); an
    `__all__` list is not a reference."""
    exports = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "__all__" for t in node.targets)
               for n in ast.walk(node)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[\w.]+", node.value):
            names.update(node.value.split("."))
    return names


def test_every_definition_is_reached_outside_the_tests():
    # src holds what a command runs: a module-level function or class that only the
    # tests name belongs in tests/; its own body does not count as a use
    defined, named = [], set()
    for path in sorted(REPO.glob("src/**/*.py")) + sorted(REPO.glob("tools/**/*.py")) \
            + sorted(REPO.glob("perfbench/**/*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.parent == SRC
            if own:
                defined.append(f"{path.stem}.{node.name}")
            named |= _references(node) - ({node.name} if own else set())
    exported = {alias.asname or alias.name for node in ast.parse((SRC / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unreached = [d for d in defined if d.split(".")[1] not in named | exported]
    assert sorted(unreached) == sorted(UNREACHED_BUT_KEPT)


def _unused_imports(source: str) -> list:
    """Names bound by the module-level imports of `source` that it neither reads nor exports."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    exported = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(*exported)
    return [name for name in imported if name not in read]


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.getcwd()\n", []),
        ("from math import pi as tau\npi = 3.0\n", ["tau"]),
        ("from math import pi\n__all__ = ['pi']\n", []),
        ("from __future__ import annotations\n", []),
    ],
    ids=["unread", "dotted-binds-root", "alias-not-source-name", "exported", "future"],
)
def test_unused_import_check(source, unused):
    assert _unused_imports(source) == unused


def test_every_module_import_is_used():
    # a deletion takes with it the imports that only the deleted code read
    unused = [f"{path.stem}: {name}" for path in sorted(SRC.glob("*.py"))
              if path.stem != "__init__" for name in _unused_imports(path.read_text())]
    assert unused == []


def test_blowup_is_caught_only_by_the_cli():
    # one channel for blow-up: BlowUpError propagates to cli_dispatch, which
    # reports it; a second handler would let a study run on a partial record
    handlers = [scope for scope, node in _src_nodes() if isinstance(node, ast.ExceptHandler)
                and node.type is not None and "BlowUpError" in ast.unparse(node.type)]
    assert handlers == ["cli.cli_dispatch"]


README = REPO / "README.md"


def test_package_namespace_is_the_readme_api():
    # dblab/__init__ re-exports only names the README documents
    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert exported
    text = README.read_text()
    assert [n for n in exported if not re.search(rf"\b{n}\b", text)] == []


def test_readme_library_sketch_runs():
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library sketch")) + len("```python\n")
    block = text[start:text.index("```", start)]
    assert "import dblab" in block
    exec(compile(block, "README.md", "exec"), {"print": lambda *args, **kwargs: None})
