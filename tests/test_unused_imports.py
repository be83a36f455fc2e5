"""Every name a rebq module or a test file imports is used in that file, and
every function, class and method rebq defines has a caller in the program.

The package's __init__ imports names only to re-export them, so it is left
out. A quoted annotation counts as a use of the names it mentions.
"""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
PACKAGE = sorted((TESTS.parent / "src" / "rebq").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(TESTS.glob("*.py"))
# the program: the package and the benchmark harness, without their tests
PROGRAM = PACKAGE + sorted(p for p in (TESTS.parent / "perfbench").glob("*.py")
                           if not p.name.startswith("test_"))


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


def definitions(source: str, module: str) -> dict[str, str]:
    """Qualified name -> bare name of the top-level functions and classes
    and the non-dunder methods of those classes."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[f"{module}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef):
            found.update((f"{module}.{node.name}.{item.name}", item.name)
                         for item in node.body if isinstance(item, ast.FunctionDef)
                         and not (item.name.startswith("__") and item.name.endswith("__")))
    return found


def references(source: str) -> set[str]:
    """Every name, attribute and dotted-name string (as getattr or a patch
    target spells it) the source mentions."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(
                r"[\w.]+", node.value):
            found.update(node.value.split("."))
    return found


def test_every_definition_has_a_caller():
    used = set().union(*(references(p.read_text()) for p in PROGRAM))
    defined = {}
    for path in PACKAGE:
        defined.update(definitions(path.read_text(), path.stem))
    assert len(defined) > 100
    assert sorted(q for q, name in defined.items() if name not in used) == []


def test_caller_check_flags_an_uncalled_definition():
    source = ("class Pool:\n    def select(self):\n        return self.size()\n"
              "    def size(self):\n        return 1\n    def __len__(self):\n        return 1\n"
              "def helper():\n    return getattr(Pool(), 'select')()\n")
    defined = definitions(source, "m")
    assert sorted(defined) == ["m.Pool", "m.Pool.select", "m.Pool.size", "m.helper"]
    assert sorted(q for q, name in defined.items() if name not in references(source)) == [
        "m.helper"]
