"""No ``oplora`` module imports from a later layer.

The layer order is stated once, in the README's "Library layout"
section, as backticked module names joined by arrows; the names
between two arrows share a layer.  The check reads that line and each
module under ``src/`` with the standard library's ``ast``, so a module
that reaches up the stack, or one that no layer names, fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oplora"


def stated_layers(readme):
    """The README's layer order, the sentence that starts "Layer order:",
    as one set of module names per layer."""
    order = re.search(r"^Layer order:(.*?)\.\s", readme, re.M | re.S)
    assert order, "the README states no layer order"
    return [set(re.findall(r"`(\w+)`", part))
            for part in order[1].split("→")]


def imported_modules(source, package):
    """The ``oplora`` submodules (first level under the package) that a
    module in ``package`` (a dotted tuple) imports from."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = list(package[:len(package) - node.level + 1]
                        if node.level else [])
            base += node.module.split(".") if node.module else []
            # ``from .. import nets`` imports the submodule ``nets``
            paths = ([base + [alias.name] for alias in node.names]
                     if len(base) == 1 else [base])
        else:
            continue
        found |= {path[1] for path in paths
                  if path[0] == "oplora" and len(path) > 1}
    return found


def module_name(path):
    """A module's layer name: its file stem, or its subpackage's name."""
    parts = path.relative_to(PACKAGE).parts
    return parts[0] if len(parts) > 1 else path.stem


def test_scan_resolves_every_import_form():
    source = ("from ..matcore import matmul\nfrom .. import nets, optim\n"
              "from ..errors import ShapeError\nfrom . import config\n"
              "import oplora.lorsum\nimport numpy\n")
    assert imported_modules(source, ("oplora", "bench")) == {
        "matcore", "nets", "optim", "errors", "bench", "lorsum"}


def test_no_module_imports_from_a_later_layer():
    layers = stated_layers((ROOT / "README.md").read_text())
    rank = {name: i for i, layer in enumerate(layers) for name in layer}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue  # the package root only re-exports ``lorsum``
        name = module_name(path)
        assert name in rank, f"{name} is in no layer of the README"
        package = ("oplora",) + path.relative_to(PACKAGE).parts[:-1]
        found += [f"{path.relative_to(ROOT)} imports {used}"
                  for used in imported_modules(path.read_text(), package)
                  if rank[used] > rank[name]]
    assert not found, "imports from a later layer:\n" + "\n".join(found)
