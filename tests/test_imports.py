"""Every name a shiftadapt module imports is used in that module, and no
module memoizes.

No linter is a declared dependency, so these are checks on the standard
library's ast alone. The package's __init__.py is exempt from the import
check: its imports are the public re-exports.

A memo (functools.cache, lru_cache, cached_property) would raise peak memory
and, in a process that runs several pipelines, carry work from one run to the
next, so the library keeps no state between calls.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shiftadapt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation such as "ModelParams" names its class in a string
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Sequence, Optional\nx: Optional[int]\n") \
        == ["os (line 1)", "Sequence (line 2)"]
    assert unused_imports('from .model import ModelParams\ndef f() -> "ModelParams": ...\n') == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


MEMOS = frozenset({"cache", "lru_cache", "cached_property"})


def memo_uses(source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    functools_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            functools_names |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name in MEMOS]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in MEMOS
                and isinstance(node.value, ast.Name) and node.value.id in functools_names):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


def test_the_check_sees_a_memo():
    assert memo_uses("from functools import lru_cache, reduce\n") == ["lru_cache (line 1)"]
    assert memo_uses("import functools as ft\n@ft.cache\ndef f(): ...\n") == ["ft.cache (line 2)"]
    assert memo_uses("import functools\nfunctools.cached_property\n") \
        == ["functools.cached_property (line 2)"]
    assert memo_uses("import functools\nfunctools.reduce\ncache = {}\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_keeps_no_memo(path):
    assert memo_uses(path.read_text(encoding="utf-8")) == []
