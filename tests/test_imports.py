"""Static checks over the package's source files."""
import ast
from pathlib import Path

import svpo

PACKAGE = Path(svpo.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references, in import order;
    `from __future__` imports are left out."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\n"
           "from math import pi, tau\nprint(tau, os)\n")
    assert unused_imports(src) == ["np", "pi"]


def test_no_module_has_unused_imports():
    found = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
             if (names := unused_imports(path.read_text()))}
    assert found == {}
