"""Only ``nets`` and ``optim`` touch a layer's captures.

``nets``' passes set a layer's captures and ``optim``'s steps read and
clear them: each method's step is one ``optim.*_step`` call, which
forms its gradients from the captures and clears them once it has
succeeded.  The check reads each module under ``src/`` with the
standard library's ``ast``, so a caller that reads or clears the
captures anywhere else (a method row doing part of a step itself)
fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CAPTURE_FUNCTIONS = {"clear_captures", "captures", "factor_grads",
                     "add_weight_grad"}
CAPTURE_USERS = {"nets.py", "optim.py"}


def capture_calls(source):
    """Names of the capture functions the source calls, bare or as an
    attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name in CAPTURE_FUNCTIONS:
                found.add(name)
    return found


def test_scan_finds_both_forms():
    source = ("grads = nets.factor_grads(layer)\n"
              "layer.clear_captures()\nx, s = captures(layer)\n"
              "captures_seen = layer.captured_x\n")
    assert capture_calls(source) == {"factor_grads", "clear_captures",
                                     "captures"}


def test_only_nets_and_optim_touch_the_captures():
    stray = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name not in CAPTURE_USERS:
            names = capture_calls(path.read_text())
            if names:
                stray[str(path.relative_to(SRC))] = names
    assert not stray, f"captures read or cleared outside a step: {stray}"
