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

import pytest

from weakhopf import algebroid, io
from weakhopf.algebroid import forward_construct
from weakhopf.balanced import KINDS
from weakhopf.groupoids import as_wmha, pair_groupoid
from weakhopf.linalg import unit_vec

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


@pytest.mark.parametrize("path", ["section", "relation"])
def test_tracer_hooks_read_the_balanced_paths(path, monkeypatch):
    """The tracer's outcome hooks read ``BalancedTensorSpace.projector``
    and ``TripleQuotient._small`` to tell the section path from the
    relation path.  Both must resolve and name the path taken: sections
    on the forward-built pair-2 algebroid, relations on its file
    read-back with its graph pair's search replaced by one that finds
    nothing."""
    alg, report = forward_construct(as_wmha(pair_groupoid(2)))
    assert report.ok
    if path == "relation":
        monkeypatch.setattr(algebroid, "find_separating_functional", lambda *args: None)
        alg = io.parse_document(io.algebroid_to_dict(alg))
    tracer = _tracing().Tracer()
    equivalent = tracer._after("balanced.equivalent")
    triple_equivalent = tracer._after("balanced.triple_equivalent")
    x, y = unit_vec(0), unit_vec(1)
    for kind in KINDS:
        space = alg.graph.balanced(kind)
        equivalent((space, x, y), space.equivalent(x, y))
    pairs = (("l", "l"), ("r", "r"), ("r", "l"), ("l", "r"))
    for kinds in pairs:
        quotient = alg.graph.triple(*kinds)
        triple_equivalent((quotient, x, y), quotient.equivalent(x, y))
    assert dict(tracer.extra) == {f"balanced.{path}_path": len(KINDS),
                                  f"balanced.triple_{path}_path": len(pairs)}
