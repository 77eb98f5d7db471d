"""Check reports: per-condition verdicts with witnesses.

Failures are data, not exceptions.  A witness is a plain JSON-ready dict
(basis names, offending vectors as rational strings) so reports serialize
deterministically for both humans and machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .linalg import Vector, format_terms

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str
    witnesses: tuple = ()
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        d = {"check_id": self.check_id, "status": self.status,
             "witnesses": [dict(w) for w in self.witnesses]}
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class Report:
    results: list = field(default_factory=list)

    def add(self, check_id: str, ok: bool, witnesses: Iterable = (), detail: str = ""):
        self.results.append(CheckResult(
            check_id, PASS if ok else FAIL,
            tuple(tuple(sorted(w.items())) if isinstance(w, dict) else w
                  for w in witnesses),
            detail))

    def extend(self, other: "Report"):
        self.results.extend(other.results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, check_id: str) -> CheckResult:
        for r in self.results:
            if r.check_id == check_id:
                return r
        raise KeyError(check_id)

    def has(self, check_id: str) -> bool:
        return any(r.check_id == check_id for r in self.results)

    def to_dict(self) -> dict:
        return {"status": PASS if self.passed else FAIL,
                "checks": [r.to_dict() for r in self.results]}

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"[{r.status.upper():4}] {r.check_id}"
                         + (f"  ({r.detail})" if r.detail else ""))
            for w in r.witnesses:
                parts = ", ".join(f"{k}={v}" for k, v in dict(w).items())
                lines.append(f"         witness: {parts}")
        lines.append("overall: " + (PASS if self.passed else FAIL))
        return "\n".join(lines)


def witness(**kwargs) -> dict:
    """Build a witness dict; callers render vectors with `fmt_vec` first."""
    return dict(kwargs)


def fmt_vec(names, v: Vector) -> str:
    """A coordinate vector as a combination of the named basis, e.g. "e1 - 2*e3"."""
    return format_terms(zip(v, names))
