"""The library imports nothing outside the standard library; networkx,
sympy and hypothesis are test oracles only."""

import ast
import sys
from pathlib import Path

import hatkit


def test_library_imports_only_stdlib():
    allowed = set(sys.stdlib_module_names) | {"hatkit"}
    outside = []
    for path in sorted(Path(hatkit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []
