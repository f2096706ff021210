"""The benchmark's per-layer tracer wraps engine entry points by name.

``perfbench/tracing.py`` is loaded read-only; every module attribute it
times or counts must still resolve in the engine, and a dotted
``Class.method`` name must be defined on that class itself, because the
tracer replaces it in the class ``__dict__``.  A rename in ``src/``
fails here instead of only in the benchmark's own smoke test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracing = _tracing()
    targets = {(module, attr) for module, attr, *_ in tracing.TIMED + tracing.COUNTED}
    targets.add(("lazy", "LazyGroupoid.__init__"))
    assert len(targets) > 50
    missing = []
    for module, attr in sorted(targets):
        mod = importlib.import_module(f"weakhopf.{module}")
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(mod, cls_name, None)
            if not isinstance(owner, type) or not callable(vars(owner).get(name)):
                missing.append(f"{module}.{attr}")
        elif not callable(getattr(mod, attr, None)):
            missing.append(f"{module}.{attr}")
    assert missing == []
