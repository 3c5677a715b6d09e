"""No unused module-level import in src/, tests/ or tools/.

The check parses each file with `ast`, so it needs no linter and runs offline
and in CI with the rest of tier-1. A package `__init__.py` imports to
re-export and is skipped, as is an import whose lines carry `# noqa`."""

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
