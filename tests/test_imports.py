"""Every name a shiftadapt module imports is used in that module, and no
module memoizes.

No linter is a declared dependency, so these are checks on the standard
library's ast alone. The package's __init__.py is exempt from the import
check: its imports are the public re-exports.

The library reports through return values (CorrectionParams.warnings,
AdaptTrace, SynthConfig.warnings()), so only the command line, cli.py,
writes to the console.

A memo (functools.cache, lru_cache, cached_property) would raise peak memory
and, in a process that runs several pipelines, carry work from one run to the
next, so the library keeps no state between calls. For the same reason no
module binds a mutable container at module level: a cache must live inside
the call that fills it, as featurize_dataset's hash table does.
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


MUTABLE_CALLS = frozenset({"dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
                           "deque"})
MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def module_level_containers(source: str) -> list[int]:
    """The lines of module-level assignments of a mutable container: a dict,
    list or set display or comprehension, or a call of a container type, bare
    or as an attribute (collections.defaultdict). Statements under a
    module-level if, try, with or loop count; function and class bodies do not."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value:
            value = node.value
            func = value.func if isinstance(value, ast.Call) else None
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(value, MUTABLE_LITERALS) or name in MUTABLE_CALLS:
                found.append(node.lineno)
        for field in ("body", "orelse", "finalbody", "handlers"):
            pending.extend(getattr(node, field, []))
    return sorted(found)


def test_the_check_sees_a_module_level_container():
    source = (
        "import collections\n"
        "a = {}\n"
        "b: list = [1]\n"
        "c = {x for x in 'ab'}\n"
        "d = dict(x=1)\n"
        "e = collections.defaultdict(int)\n"
        "if True:\n"
        "    f = set()\n"
        "try:\n"
        "    g = list()\n"
        "except ImportError:\n"
        "    g = []\n"
        "h = {k: 1 for k in 'ab'}\n"
    )
    assert module_level_containers(source) == [2, 3, 4, 5, 6, 8, 10, 12, 13]
    # immutable bindings, and containers inside functions and classes, pass
    assert module_level_containers(
        "A = frozenset({1})\nB = (1, 2)\nC = 'x'\nD = frozenset()\n"
        "def f():\n    cache = {}\n    return cache\n"
        "class K:\n    items = []\n"
    ) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_binds_no_mutable_container(path):
    assert module_level_containers(path.read_text(encoding="utf-8")) == []


STREAMS = frozenset({"stdout", "stderr"})


def console_uses(source: str) -> list[str]:
    """Each name of print, and of sys.stdout or sys.stderr however sys or the
    stream is imported, with its line."""
    tree = ast.parse(source)
    found = []  # (line, name)
    sys_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            sys_names |= {a.asname or a.name for a in node.names if a.name == "sys"}
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [(node.lineno, f"sys.{a.name}") for a in node.names if a.name in STREAMS]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "print":
            found.append((node.lineno, "print"))
        elif (isinstance(node, ast.Attribute) and node.attr in STREAMS
                and isinstance(node.value, ast.Name) and node.value.id in sys_names):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_check_sees_console_output():
    assert console_uses("import sys\nprint(1)\nsys.stderr.write('x')\n") \
        == ["print (line 2)", "sys.stderr (line 3)"]
    assert console_uses("import sys as s\nf = print\nout = s.stdout\n") \
        == ["print (line 2)", "s.stdout (line 3)"]
    assert console_uses("from sys import stderr, argv\n") == ["sys.stderr (line 1)"]
    assert console_uses("import sys\nsys.argv\nlog.stderr\nprinted = 1\n") == []


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_only_the_cli_writes_to_the_console(path):
    assert console_uses(path.read_text(encoding="utf-8")) == []
