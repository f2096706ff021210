"""Per-layer tracing from outside the engine.

`Tracer.install` replaces the public entry points of each module in
`src/weakhopf/` with wrappers, wherever the engine holds a reference to
them (module attributes, names imported into other modules, class
attributes), and `uninstall` puts the originals back.  Nothing inside
`src/` is edited.

Timed entry points record one span per call (name, start, end, parent
span, operation id) in memory and add to their busy time; a call nested
inside another call of the same entry point adds no busy time.
Fine-grained entry points (echelon steps, basis products, slices,
oracles) are only counted, because a span per call would cost more than
the call.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

WMHA_CHECKS = ("algebra", "homomorphism", "coassociativity", "fullness", "counit",
               "counit_uniqueness", "E_identities", "range_conditions", "antipode_antihom",
               "antipode_flips_coproduct", "antipode_identities", "generalized_inverses",
               "projection_formulas", "kernel_subspaces")
ALGEBROID_CHECKS = ("regularity", "algebroid_homomorphism", "base_behavior",
                    "algebroid_coassociativity", "compatibility", "canonical_maps",
                    "counital_maps", "antipode_structure", "antipode_diagrams")
RECONSTRUCTION_STAGES = ("check_separability_assumption", "embed_idempotent", "build_delta",
                         "build_counits", "check_ranges_and_fullness",
                         "check_E_comultiplicativity", "check_kernels",
                         "check_mixed_coassociativity", "counit_antipode_meta")

# (module, attribute, metric key, also report `<key>_calls`)
TIMED = [
    ("cli", "main", "cli.main", True),
    ("io", "load", "io.load", False),
    ("io", "parse_document", "io.parse_document", False),
    ("io", "dump", "io.dump", False),
    ("reporting", "Report.to_json", "reporting.render", False),
    ("reporting", "Report.to_text", "reporting.render", False),
    ("wmha", "run_suite", "wmha.run_suite", False),
    *[("wmha", f"check_{c}", f"wmha.check_{c}", False) for c in WMHA_CHECKS],
    ("base_algebras", "compute_base_algebras", "base_algebras.compute_base_algebras", False),
    ("base_algebras", "check_characterizations", "base_algebras.check_characterizations", False),
    ("algebroid", "forward_construct", "algebroid.forward_construct", False),
    ("algebroid", "check_algebroid_axioms", "algebroid.check_algebroid_axioms", False),
    ("algebroid", "QuantumGraphPair.check_axioms", "algebroid.graph_check_axioms", False),
    *[("algebroid", f"check_{c}", f"algebroid.check_{c}", False) for c in ALGEBROID_CHECKS],
    ("balanced", "build_balanced", "balanced.build_balanced", True),
    ("balanced", "BalancedTensorSpace.equivalent", "balanced.equivalent", True),
    ("balanced", "TripleQuotient.__init__", "balanced.triple_build", True),
    ("balanced", "TripleQuotient.equivalent", "balanced.triple_equivalent", True),
    ("separability", "build_E_from_functional", "separability.build_E_from_functional", False),
    ("separability", "modular_automorphism", "separability.modular_automorphism", False),
    ("reconstruction", "find_separating_functional",
     "reconstruction.find_separating_functional", True),
    ("reconstruction", "reconstruction_pipeline", "reconstruction.reconstruction_pipeline", False),
    *[("reconstruction", s, f"reconstruction.{s}", False) for s in RECONSTRUCTION_STAGES],
    ("witnesses", "revalidate", "witnesses.revalidate", True),
    ("linalg", "LinMap.rank", "linalg.rank", True),
    ("linalg", "LinMap.kernel", "linalg.kernel", True),
    ("linalg", "LinMap.inverse", "linalg.inverse", True),
    ("linalg", "solve", "linalg.solve", True),
    ("lazy", "check_lazy_groupoid", "lazy.check_lazy_groupoid", False),
]

# (module, attribute, metric key); reported as `<key>_calls`
COUNTED = [
    ("linalg", "Subspace.insert", "linalg.subspace_insert"),
    ("linalg", "Subspace.reduce", "linalg.subspace_reduce"),
    ("algebra", "FiniteAlgebra.mul", "algebra.mul"),
    ("algebra", "FiniteAlgebra.mul_basis", "algebra.mul_basis"),
    *[("algebra", f"TensorSquare.{m}", "algebra.tensor_mul")
      for m in ("mul", "mul_left_leg1", "mul_right_leg1", "mul_left_leg2", "mul_right_leg2")],
    *[("reconstruction", f"RebuiltCoproducts.{m}", "reconstruction.slice")
      for m in ("r1", "r2", "l1", "l2")],
]

LAZY_ORACLES = ("source", "target", "compose", "inverse", "is_unit")
_RATIONAL = re.compile(r'"(-?\d+)(?:/(\d+))?"')


def coeff_bits(obj) -> int:
    """Largest numerator or denominator bit length of the Fractions in
    a vector, map, list or structure of them."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, dict):
        return max(map(coeff_bits, obj.values()), default=0)
    if isinstance(obj, (list, tuple)):
        return max(map(coeff_bits, obj), default=0)
    cols = getattr(obj, "cols", None)
    return coeff_bits(cols) if isinstance(cols, list) else 0


def text_bits(text: str) -> int:
    """The same bound over the rationals written in a JSON report."""
    return max((max(int(n).bit_length(), int(d or 1).bit_length())
                for n, d in _RATIONAL.findall(text)), default=0)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.extra: Counter = Counter()
        self.spans: list = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.max_bits = 0
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, key, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append(None)
            tracer.stack.append(sid)
            depth = tracer.depth[key]
            tracer.depth[key] = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.depth[key] = depth
                if depth == 0:
                    tracer.busy[key] += end - start
                tracer.stack.pop()
                tracer.spans[sid] = (key, start, end, parent, tracer.op)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that measure outcomes where the work happens -----------------

    def _after(self, key):
        extra = self.extra

        def file_bytes(counter, index):
            def hook(args, result):
                extra[counter] += os.path.getsize(args[index])
            return hook

        def equivalent(args, result):
            space, x, y = args
            if x != y:
                extra["balanced.section_path" if space.projector is not None
                      else "balanced.relation_path"] += 1

        def triple_equivalent(args, result):
            quotient, x, y = args
            if x != y:
                extra["balanced.triple_relation_path" if quotient._small
                      else "balanced.triple_section_path"] += 1

        def revalidate(args, result):
            extra["witnesses.revalidate_ok"] += bool(result)

        def rendered(args, result):
            extra["reporting.bytes_out"] += len(result.encode("utf-8"))

        def forward(args, result):
            alg = result[0]
            if alg is not None:
                self.note_bits(coeff_bits([alg.delta_b, alg.delta_c, alg.eps_b,
                                           alg.eps_c, alg.antipode]))

        def pipeline(args, result):
            bundle = getattr(result, "bundle", None)
            if bundle is not None:
                self.note_bits(coeff_bits([bundle.delta, bundle.counit,
                                           bundle.antipode, bundle.E]))
            else:
                self.note_bits(coeff_bits(result.witness))

        return {
            "io.load": file_bytes("io.bytes_read", 0),
            "io.dump": file_bytes("io.bytes_written", 1),
            "reporting.render": rendered,
            "balanced.equivalent": equivalent,
            "balanced.triple_equivalent": triple_equivalent,
            "witnesses.revalidate": revalidate,
            "algebroid.forward_construct": forward,
            "reconstruction.reconstruction_pipeline": pipeline,
        }.get(key)

    def note_bits(self, bits: int) -> None:
        self.max_bits = max(self.max_bits, bits)

    # -- installation ------------------------------------------------------

    def _replace(self, engine, module: str, attr: str, make) -> None:
        mod = getattr(engine, module)
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[name]
            setattr(owner, name, make(orig))
            self._undo.append((owner, name, orig))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        for other in engine.modules():
            for name, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, name, wrapper)
                    self._undo.append((other, name, orig))

    def install(self, engine) -> None:
        for module, attr, key, _ in TIMED:
            self._replace(engine, module, attr,
                          lambda fn, key=key: self._timed(key, fn, self._after(key)))
        for module, attr, key in COUNTED:
            self._replace(engine, module, attr, lambda fn, key=key: self._counted(key, fn))
        self._replace(engine, "lazy", "LazyGroupoid.__init__", self._count_oracles)

    def _count_oracles(self, init):
        counted = self._counted

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for name in LAZY_ORACLES:
                setattr(obj, name, counted("lazy.oracle", getattr(obj, name)))

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for _, _, key, with_calls in TIMED:
            out[f"{key}_s"] = self.busy[key]
            if with_calls:
                out[f"{key}_calls"] = self.calls[key]
        for _, _, key in COUNTED:
            out[f"{key}_calls"] = self.calls[key]
        out["lazy.oracle_calls"] = self.calls["lazy.oracle"]
        for key in ("io.bytes_read", "io.bytes_written", "reporting.bytes_out"):
            out[key] = self.extra[key]
        e = self.extra
        out["balanced.section_path_ratio"] = _ratio(
            e["balanced.section_path"], e["balanced.section_path"] + e["balanced.relation_path"])
        out["balanced.triple_section_path_ratio"] = _ratio(
            e["balanced.triple_section_path"],
            e["balanced.triple_section_path"] + e["balanced.triple_relation_path"])
        out["witnesses.revalidate_ok_ratio"] = _ratio(
            e["witnesses.revalidate_ok"], self.calls["witnesses.revalidate"])
        out["linalg.max_coeff_bits"] = self.max_bits
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: str, header: dict, metrics: dict, origin: float) -> None:
        """Spans (times relative to `origin`) and the per-layer metrics."""
        spans = [[name, round(start - origin, 6), round(end - origin, 6), parent, op]
                 for name, start, end, parent, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": spans, "metrics": metrics}, fh)
            fh.write("\n")
