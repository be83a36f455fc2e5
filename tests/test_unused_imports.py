"""Every name a rebq module or a test file imports is used in that file.

The package's __init__ imports names only to re-export them, so it is left
out. A quoted annotation counts as a use of the names it mentions.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SOURCES = sorted(p for p in (TESTS.parent / "src" / "rebq").glob("*.py")
                 if p.name != "__init__.py") + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                             key=lambda kv: kv[1])
            if name not in used]


def test_sources_found():
    assert len(SOURCES) >= 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_name():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from .pipeline import VariantSpec, build_variant\n"
              "def f(x: 'np.ndarray'):\n    return build_variant(x)\n")
    assert unused_imports(source) == ["line 3: VariantSpec"]
