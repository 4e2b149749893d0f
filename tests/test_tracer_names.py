"""The span tracer's name lists resolve on the library as it stands.

``perfbench/tracer.py`` names the library functions and methods it
wraps as strings, so a traced name deleted or renamed in ``src/`` would
otherwise break only a traced benchmark run (``perfbench/run.py
--trace 1``).  The tracer is loaded from its file and never installed.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                      "tracer.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, attr in tracer.TRACED_FUNCTIONS:
        module = importlib.import_module(mod_name)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{mod_name}.{attr}")
    for mod_name, cls_name, attr in tracer.TRACED_METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append(f"{mod_name}.{cls_name}.{attr}")
    assert not missing, f"traced names missing from oplora: {missing}"
    assert tracer.TRACED_FUNCTIONS and tracer.TRACED_METHODS
