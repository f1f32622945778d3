import ast
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
