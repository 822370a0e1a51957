"""Every import in the package and the experiment drivers is used, and
every module-level name and class member the package defines is read by the
program.

Standard-library ``ast`` only. A name an import binds must be read somewhere
in its module, or its line must carry ``# noqa`` (a deliberate re-export).
A function, class or constant defined at the top of a ``src/tricl`` module,
and a method, property, class-level or dataclass field or ``self.x``
attribute of one of its classes, must be read somewhere in ``src/``,
``scripts/`` or ``perfbench/``: code only tests reach is dead code.

A module-level name counts as read only through its own module: a plain read
in that module, ``from .module import name``, or ``module.name``. Matching by
bare name let the unread ``tensor.log`` op and ``dsp.log`` logger pass,
because ``data.log`` and ``trainer.log`` are read. Class members are still
matched by name alone, so a member is missed when anything else of the same
name is read. An unread ``AudioSegment.duration_seconds`` and
``TriModalModel.modalities`` both passed the member check: the program reads
``SynthSpec.duration_seconds`` and ``config.train.modalities``. A method's
reads of its own name inside its own body do not count: an unread
``BpeTokenizer.decode`` passed on the ``bytes.decode`` call in its body.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "tricl").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py")])
PROGRAM = sorted([*FILES, *(ROOT / "perfbench").glob("*.py")])
# defined in the package but read by no program file, each kept on purpose
UNREFERENCED_ALLOWED = {
    "PAD_ID": "fixes the token-id layout: [PAD] holds id 258, so merges start at 259",
}


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


def module_level_names(source: str) -> list[str]:
    """Functions, classes and assigned names at the top of a module, dunders excepted."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def class_members(source: str) -> list[str]:
    """`Class.name` for the methods, properties, class-level and dataclass
    fields and `self.x` attributes of every class in a module, dunders excepted."""
    members = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = set()
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
        names |= {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name) and node.value.id == "self"}
        members |= {f"{cls.name}.{name}" for name in names if not (name.startswith("__") and name.endswith("__"))}
    return sorted(members)


def references(source: str) -> set[str]:
    """Names read, attributes read, and string constants (a patch or a
    quoted annotation names its target as a string), except a method's reads
    of its own name inside its own body."""
    tree = ast.parse(source)
    owner = {}  # id(node) -> name of the innermost method whose body holds it
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner.update({id(node): fn.name for node in ast.walk(fn)})
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if owner.get(id(node)) != name:
            out.add(name)
    return out


def unread_members(defining: dict[str, str], searched: list[str]) -> list[str]:
    """`module:Class.member` for each class member of `defining` whose member
    name no source in `searched` reads."""
    used = set().union(*(references(source) for source in searched))
    return sorted(f"{module}:{name}" for module, source in defining.items()
                  for name in class_members(source) if name.rsplit(".", 1)[-1] not in used)


def _module_of(node) -> str | None:
    """The last dotted part of `mod` or `pkg.mod` in an expression `mod.name`."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def module_reads(module: str, source: str, own: bool) -> set[str]:
    """Names `source` reads from `module`: `from .module import name` and
    `module.name` anywhere, and plain names and strings (quoted annotations)
    only when `source` is the module itself."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.rsplit(".", 1)[-1] == module:
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store) and _module_of(node.value) == module:
            out.add(node.attr)
        elif own and isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif own and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unread_module_names(defining: dict[str, str], searched: list[str]) -> list[str]:
    """`module:name` for each module-level name of `defining` that no source in
    `searched` reads from that module."""
    flagged = []
    for module, source in defining.items():
        used = set().union(*(module_reads(module, other, other == source) for other in searched))
        flagged += [f"{module}:{name}" for name in module_level_names(source) if name not in used]
    return sorted(flagged)


def test_dead_code_checker_flags_unread_definitions():
    lib = (
        "LIMIT = 3\n"
        "_STEP: int = 1\n"
        "__version__ = '1'\n"
        "class Used:\n"
        "    pass\n"
        "class Imported:\n"
        "    pass\n"
        "def helper(x) -> 'Quoted':\n"
        "    return x + _STEP\n"
        "def orphan():\n"
        "    return helper(LIMIT)\n"
        "class Quoted:\n"
        "    pass\n"
        "log = None\n"
        "def shadowed():\n"
        "    pass\n"
    )
    other = "log = None\ndef shadowed():\n    pass\nlog.warning(shadowed)\n"
    user = "import pkg.lib\nfrom .lib import Imported\npkg.lib.Used()\n"
    assert unread_module_names({"lib": lib, "other": other}, [lib, other, user]) == [
        "lib:log", "lib:orphan", "lib:shadowed"]


def test_every_module_level_name_is_read_by_the_program():
    defining = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    searched = [path.read_text(encoding="utf-8") for path in PROGRAM]
    flagged = unread_module_names(defining, searched)
    assert [entry for entry in flagged if entry.split(":")[1] not in UNREFERENCED_ALLOWED] == []
    # an allowed name that gains a reader leaves the list
    assert sorted(set(UNREFERENCED_ALLOWED) - {entry.split(":")[1] for entry in flagged}) == []


def test_dead_code_checker_flags_unread_members():
    lib = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Record:\n"
        "    kept: int\n"
        "    stale: int = 0\n"
        "    LIMIT = 3\n"
        "    def __post_init__(self):\n"
        "        self.cache = self.kept + self.LIMIT\n"
        "        self.scratch = None\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.cache\n"
        "    def orphan(self):\n"
        "        return self.size\n"
    )
    user = "import lib\nr = lib.Record(1)\nr.scratch = r.size\n"
    assert unread_members({"lib": lib}, [lib, user]) == [
        "lib:Record.orphan", "lib:Record.scratch", "lib:Record.stale"]


def test_dead_code_checker_ignores_a_methods_reads_of_itself():
    lib = (
        "class Codec:\n"
        "    def decode(self, raw):\n"
        "        return raw.decode('utf-8')\n"
        "    def walk(self, n):\n"
        "        return self.walk(n - 1) if n else 0\n"
    )
    user = "import lib\nlib.Codec().walk(3)\n"
    assert unread_members({"lib": lib}, [lib, user]) == ["lib:Codec.decode"]


def test_every_class_member_is_read_by_the_program():
    defining = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    searched = [path.read_text(encoding="utf-8") for path in PROGRAM]
    assert unread_members(defining, searched) == []
