"""Every module-level import in the package is used by the module that makes it, and
importing the package and its CLI loads no module that only some commands need."""

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


def test_import_leaves_yaml_and_process_pools_unloaded():
    # yaml is read only by load_config, a process pool only for n_jobs > 1.
    code = ("import sys, rxlearner, rxlearner.cli; "
            "print([m for m in ('yaml', 'concurrent.futures') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
