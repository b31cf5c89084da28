"""Every module-level import in the package is used by the module that makes it, every
module-level private name is read by some module of the package, and importing the
package and its CLI loads no module that only some commands need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rxlearner"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that nothing else in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os, json as j\nfrom a import b, c\nprint(os, c)\n"
    assert unused_imports(source) == ["line 2: j", "line 3: b"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict) -> list:
    """Module-level private functions, classes and constants (``_name``) of the modules
    ``sources`` (module name -> source) that no other statement of any module reads."""
    statements = []  # (module, line, private names bound, names read)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                names = []
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            read = {node.id for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            read |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            statements.append((module, stmt.lineno, private, read))
    return sorted(f"{module} line {line}: {name}"
                  for k, (module, line, private, _) in enumerate(statements) for name in private
                  if not any(name in read for j, (*_, read) in enumerate(statements) if j != k))


def test_checker_flags_an_unread_private_name():
    sources = {
        "a": "_USED, _UNUSED = 1, 2\n_ALSO: int = 3\ndef _helper():\n    return _USED\n"
             "class _Kept:\n    pass\ndef __getattr__(name):\n    pass\n",
        "b": "from . import a\nfrom .a import _helper\nprint(_helper(), a._Kept)\n"
             "def _recursive():\n    return _recursive()\n",
    }
    assert unread_private_names(sources) == ["a line 1: _UNUSED", "a line 2: _ALSO",
                                              "b line 4: _recursive"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_import_leaves_yaml_and_process_pools_unloaded():
    # yaml is read only by load_config, a process pool only for n_jobs > 1.
    code = ("import sys, rxlearner, rxlearner.cli; "
            "print([m for m in ('yaml', 'concurrent.futures') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
