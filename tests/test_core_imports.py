"""Each module reaches only the ``matcore`` cores it is allowed.

``lorsum``, ``lowrank``'s ``truncated_svd`` and product distances, and
``nets``' layer pass check their operands once (a ``FactorPair`` when it
is built) and then call the cores, which skip the checks (see
``matcore``'s validation contract).  The check reads each module under
``src/`` with the standard library's ``ast``, so a new caller of a core,
or a caller reaching a core it was not given, fails here rather than
silently joining the unchecked path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# module file -> the cores it may import
ALLOWED = {
    "lorsum.py": {"_cholesky_solve", "_gram", "_product", "_sandwich"},
    "lowrank.py": {"_eigh_top", "_gram", "_product"},
    "nets.py": {"_product"},
}


def private_matcore_names(source):
    """Underscore names the module imports from, or reads off, matcore."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "matcore"):
            found |= {a.name for a in node.names if a.name.startswith("_")}
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name)
              and node.value.id == "matcore"):
            found.add(node.attr)
    return found


def test_scan_finds_both_forms():
    source = ("from .matcore import _gram, matmul\n"
              "from oplora import matcore\nmatcore._product\n")
    assert private_matcore_names(source) == {"_gram", "_product"}


def test_each_module_imports_only_its_cores():
    stray = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "matcore.py":
            names = private_matcore_names(path.read_text())
            extra = names - ALLOWED.get(path.name, set())
            if extra:
                stray[path.name] = extra
    assert not stray, f"unchecked cores used outside their callers: {stray}"
