"""Structured check results.

Checks never raise on mathematical failure; they return records carrying
a stable check name, a status and (on failure) a witness that can be
re-evaluated independently.  Reports are deterministic: record order is
insertion order, JSON rendering sorts keys and uses fixed separators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
SKIP = "skipped-not-applicable"
PROBES = "verified-on-probes"


# witness fields that hold a single scalar coefficient
SCALAR_COEFFICIENTS = frozenset({"eps", "eps_prime"})


def jsonable(x):
    """Encode witnesses losslessly for reports.

    A coefficient is printed as a string such as "3/2" or "1": every
    Fraction, every int value of an int-keyed dict (a sparse vector) and
    every int under a key in ``SCALAR_COEFFICIENTS``.  Any other int, such
    as a count, a dimension or an index, stays a JSON number.
    """
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): str(v) if type(v) is int and (type(k) is int or k in SCALAR_COEFFICIENTS)
                else jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


@dataclass
class CheckRecord:
    name: str
    status: str
    witness: dict | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (PASS, PROBES, SKIP)

    def to_dict(self) -> dict:
        out = {"check": self.name, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = jsonable(self.witness)
        return out


def passed(name: str, detail: str = "") -> CheckRecord:
    return CheckRecord(name, PASS, None, detail)


def failed(name: str, witness: dict, detail: str = "") -> CheckRecord:
    return CheckRecord(name, FAIL, witness, detail)


def on_probes(name: str, detail: str = "") -> CheckRecord:
    return CheckRecord(name, PROBES, None, detail)


@dataclass
class Report:
    title: str
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.records.append(record)
        return record

    def extend(self, records) -> None:
        for r in records:
            self.add(r)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.ok]

    def to_dict(self) -> dict:
        return {
            "report": self.title,
            "summary": "pass" if self.ok else "fail",
            "checks": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        for r in self.records:
            lines.append(f"[{r.status:>4}] {r.name}" +
                         (f"  ({r.detail})" if r.detail else ""))
            if r.witness is not None:
                lines.append(f"       witness: {json.dumps(jsonable(r.witness), sort_keys=True)}")
        lines.append(f"summary: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"
