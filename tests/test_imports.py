"""Every module under ``src/``, ``tests/`` and ``scripts/`` uses each name
it imports.

No linter ships with the project, so the check compares, with the
standard library's ``ast``, the names a module's imports bind with the
names it reads.  A package ``__init__.py`` is exempt: its imports are
re-exports (``oplora.lorsum``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts")


def unused_imports(source):
    """``(line, name)`` of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and getattr(node, "module", "") != "__future__":
                    imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_scan_finds_an_unused_import():
    source = "import json\nimport os.path\nfrom a import b as c\nos.sep\n"
    assert unused_imports(source) == [(1, "json"), (3, "c")]


def test_no_module_imports_a_name_it_does_not_use():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                          for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
