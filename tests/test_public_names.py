"""Every public top-level function and class under ``src/`` has a user.

The library exposes what the CLI, the scripts and the benchmark use: a
public name must be read or named somewhere under ``src/`` outside its
own body, or under ``scripts/`` or ``perfbench/`` (other than
perfbench's tests).  perfbench's tracer names the functions it wraps as
strings, so a string constant whose last dotted part is the name counts
as naming it.  The check reads each module with the standard library's ``ast``,
so a helper only the tests call fails here rather than staying in the
library.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module path under src/, name) -> why it stays without a user
EXEMPT = {
    ("oplora/lowrank.py", "product_inner"):
        "lowrank's only caller of matmul, which perfbench's own test "
        "expects the tracer to reach on lowrank (ROADMAP item 8)",
}


def public_definitions(tree):
    """The public top-level function and class nodes of a module."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def used_names(tree):
    """Names ``tree`` reads (a name or an attribute) or holds as a string
    constant's last dotted part."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            found.add(node.attr)
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            found.add(node.value.rsplit(".", 1)[-1])
    return found


def unused_public_names(src_trees, user_trees):
    """``(module, name)`` of each public definition in ``src_trees`` (a
    dict of module path to tree) that no top-level statement of theirs
    but its own and no tree of ``user_trees`` reads or names."""
    users = set().union(*map(used_names, user_trees))
    statements = [(stmt, used_names(stmt))
                  for tree in src_trees.values() for stmt in tree.body]
    return sorted(
        (module, node.name)
        for module, tree in src_trees.items()
        for node in public_definitions(tree)
        if node.name not in users
        and not any(node.name in names
                    for stmt, names in statements if stmt is not node))


def parse(path):
    return ast.parse(path.read_text())


def test_scan_skips_a_definitions_own_body():
    library = {"a.py": ast.parse("def f(n):\n    return f(n - 1)\n"
                                 "def g():\n    return 1\n"
                                 "class C:\n    pass\n"
                                 "def _h():\n    return g()\n")}
    named = ast.parse("TRACED = [('oplora.a', 'C')]\n")
    assert unused_public_names(library, [named]) == [("a.py", "f")]


def test_every_public_name_has_a_user():
    src = ROOT / "src"
    src_trees = {path.relative_to(src).as_posix(): parse(path)
                 for path in sorted(src.rglob("*.py"))}
    user_paths = sorted((ROOT / "scripts").rglob("*.py")) + [
        path for path in sorted((ROOT / "perfbench").rglob("*.py"))
        if not path.name.startswith("test_")]
    unused = unused_public_names(src_trees, map(parse, user_paths))
    flagged = [f"{module}: {name}" for module, name in unused
               if (module, name) not in EXEMPT]
    assert not flagged, ("public names no module, script or benchmark "
                         "uses:\n" + "\n".join(flagged))
    stale = set(EXEMPT) - set(unused)
    assert not stale, f"exempt names that are gone or used now: {stale}"
