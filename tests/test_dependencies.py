"""The package's runtime dependency is numpy alone."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "shifttalk"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "shifttalk"}


def imported_modules(path: Path) -> set[str]:
    """The top-level module of every absolute import in a file, at any depth."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_package_imports_only_the_standard_library_and_numpy():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    outside = {f"{path.name}: {module}" for path in files for module in imported_modules(path) - ALLOWED}
    assert not outside, sorted(outside)


def test_the_guard_sees_a_third_party_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import os\nfrom . import model\n\ndef f():\n    import scipy.stats\n")
    assert imported_modules(path) - ALLOWED == {"scipy"}
