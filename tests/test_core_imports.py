"""Only two modules reach ``matcore``'s unchecked cores.

``lorsum``, and ``lowrank``'s ``truncated_svd`` and product distances,
check their operands once (a ``FactorPair`` when it is built) and then
call the cores, which skip the checks (see ``matcore``'s validation
contract).  The check reads each module under ``src/`` with the
standard library's ``ast``, so a new caller of a core fails here rather
than silently joining the unchecked path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CORES = {"_product", "_sandwich", "_cholesky_solve", "_gram", "_eigh_top"}
CALLERS = {"lorsum.py", "lowrank.py"}


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


def test_only_lorsum_and_lowrank_import_the_cores():
    users = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "matcore.py":
            names = private_matcore_names(path.read_text())
            if names:
                users[path.name] = names
    assert set(users) <= CALLERS, f"unchecked cores used in: {users}"
    assert set().union(*users.values()) <= CORES
