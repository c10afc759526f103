"""Every name ``gpcal`` exports has a caller outside the tests.

A name that ``gpcal/__init__.py`` imports counts as used when some other
module of ``src/gpcal`` or of ``perfbench/`` loads it: an AST ``Name`` or
``Attribute`` read anywhere in that module. Import statements do not count,
so a name that only the tests call fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gpcal"


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def loaded_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_exported_name_is_loaded_outside_the_tests():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "perfbench").glob("*.py"))
    loaded = set().union(*(loaded_names(p) for p in modules))
    exported = exported_names()
    assert len(exported) > 30        # the scan read the exports
    assert sorted(exported - loaded) == []
