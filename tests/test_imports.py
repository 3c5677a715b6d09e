"""No unused module-level import in src/, tests/ or tools/, and no dead
private name in src/.

The checks parse each file with `ast`, so they need no linter and run offline
and in CI with the rest of tier-1. A package `__init__.py` imports to
re-export and is skipped, as is an import whose lines carry `# noqa`.

A module-level private function, class or constant of src/ (a leading `_`,
not a dunder) that no code of src/ reads is dead: code whose only caller is
a test is deleted, not kept."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "tools")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def dead_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(file, line, name) of each module-level private function, class or
    constant in `sources` (file -> source) that no file reads: as a name,
    as a module attribute or in a `from` import."""
    defined, read = [], set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            defined += [(path, node.lineno, name) for name in names
                        if name.startswith("_")
                        and not (name.startswith("__") and name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [entry for entry in defined if entry[2] not in read]


def _checked_files() -> list[Path]:
    return sorted(path for top in CHECKED for path in (ROOT / top).rglob("*.py")
                  if path.name != "__init__.py")


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import sys  # noqa\n"
              "import os.path as osp\n"
              "from json import (\n"
              "    dumps,\n"
              "    loads,\n"
              ")\n"
              "import xml.dom\n"
              "print(loads, xml.dom)\n")
    assert unused_imports(source) == [(2, "os"), (4, "osp"), (5, "dumps")]


@pytest.mark.parametrize("top", CHECKED)
def test_no_unused_module_level_import(top):
    files = [path for path in _checked_files() if path.relative_to(ROOT).parts[0] == top]
    assert files
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in files for line, name in unused_imports(path.read_text())]
    assert unused == []


def test_the_check_finds_a_dead_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "_UNREAD, _READ = 1, 2\n"
                 "__version__ = '1'\n"
                 "def _called(x):\n"
                 "    return x + _READ\n"
                 "def _only_assigned():\n"
                 "    pass\n"
                 "class _Dead:\n"
                 "    _size = 0\n"
                 "def _from_b():\n"
                 "    return _called(_LIMIT)\n"
                 "def _by_attribute():\n"
                 "    pass\n"
                 "_only_assigned = None\n"),
        "b.py": ("from a import _from_b\n"
                 "import a\n"
                 "print(_from_b(), a._by_attribute)\n"),
    }
    assert dead_private_names(sources) == [
        ("a.py", 2, "_UNREAD"), ("a.py", 6, "_only_assigned"),
        ("a.py", 8, "_Dead"), ("a.py", 14, "_only_assigned")]


def test_no_dead_private_name_in_src():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert dead_private_names(sources) == []
