"""Every import in the package and the experiment drivers is used.

Standard-library ``ast`` only. A name an import binds must be read somewhere
in its module, or its line must carry ``# noqa`` (a deliberate re-export).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "tricl").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa" in lines[node.lineno - 1] or "# noqa" in lines[alias.lineno - 1]:
                continue
            imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # quoted annotations such as -> "Dataset"
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from math import pi, tau\n"
        "from typing import (\n"
        "    Any,\n"
        "    Optional,\n"
        ")\n"
        "from re import compile  # noqa: F401  (re-exported)\n"
        "def f(x: 'Optional[int]') -> Any:\n"
        "    return os.path.join(str(pi), str(x))\n"
    )
    assert unused_imports(source) == ["line 3: json", "line 4: tau"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
