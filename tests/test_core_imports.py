"""Each module reaches only the ``matcore`` cores it is allowed, and
only ``lorsum`` and ``optim`` build a ``FactorPair`` unchecked.

``lorsum``, ``lowrank``'s ``truncated_svd`` and product distances, and
``nets``' layer pass check their operands once (a ``FactorPair`` when it
is built) and then call the cores, which skip the checks (see
``matcore``'s validation contract).  ``lowrank._unchecked_pair`` skips a
pair's checks: ``lorsum`` wraps its tested solutions in it, and
``oplora_step`` the captures its pass checked.  The check reads each
module under ``src/`` with the standard library's ``ast``, so a new
caller of a core or of the constructor, or a caller reaching a core it
was not given, fails here rather than silently joining the unchecked
path.
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


# modules that may build a FactorPair without its checks
UNCHECKED_PAIR_USERS = {"lorsum.py", "optim.py"}


def private_names(source, module="matcore"):
    """Underscore names the source imports from, or reads off, ``module``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == module):
            found |= {a.name for a in node.names if a.name.startswith("_")}
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name)
              and node.value.id == module):
            found.add(node.attr)
    return found


def reads_name(source, name):
    """Whether the source reads the bare name ``name`` anywhere."""
    return any(isinstance(node, ast.Name) and node.id == name
               for node in ast.walk(ast.parse(source)))


def test_scan_finds_both_forms():
    source = ("from .matcore import _gram, matmul\n"
              "from oplora import matcore\nmatcore._product\n")
    assert private_names(source) == {"_gram", "_product"}


def test_each_module_imports_only_its_cores():
    stray = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "matcore.py":
            names = private_names(path.read_text())
            extra = names - ALLOWED.get(path.name, set())
            if extra:
                stray[path.name] = extra
    assert not stray, f"unchecked cores used outside their callers: {stray}"


def test_scan_finds_the_constructor_in_either_form():
    for source in ("from .lowrank import FactorPair, _unchecked_pair\n",
                   "from oplora import lowrank\nlowrank._unchecked_pair\n"):
        assert "_unchecked_pair" in private_names(source, "lowrank")
    assert reads_name("pair = _unchecked_pair(u, v)\n", "_unchecked_pair")


def test_only_lorsum_and_optim_build_unchecked_pairs():
    users = set()
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        if path.name == "lowrank.py":
            # the module that defines it builds every pair it returns
            # through the checked constructor
            if reads_name(source, "_unchecked_pair"):
                users.add(path.name)
        elif "_unchecked_pair" in private_names(source, "lowrank"):
            users.add(path.name)
    assert users == UNCHECKED_PAIR_USERS
