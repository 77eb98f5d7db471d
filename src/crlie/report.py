"""Check reports: per-condition verdicts with witnesses.

Failures are data, not exceptions.  A witness is a plain JSON-ready dict
(basis names, offending vectors as rational strings) so reports serialize
deterministically for both humans and machines.
"""

from __future__ import annotations

from typing import Iterable

from .linalg import format_terms

PASS = "pass"
FAIL = "fail"


class CheckResult:
    def __init__(self, check_id: str, status: str, witnesses: tuple = (), detail: str = ""):
        self.check_id, self.status, self.witnesses, self.detail = (check_id, status,
                                                                   witnesses, detail)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        d = {"check_id": self.check_id, "status": self.status,
             "witnesses": [dict(w) for w in self.witnesses]}
        if self.detail:
            d["detail"] = self.detail
        return d


class Report:
    def __init__(self, results: Iterable = ()):
        self.results = list(results)

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


def fmt_vec(names, v, scale: int = 1) -> str:
    """The coordinate vector v / scale, a sequence or sparse {i: x}, as a
    combination of the named basis, e.g. "e1 - 2*e3"."""
    items = sorted(v.items()) if isinstance(v, dict) else enumerate(v)
    return format_terms(((x, names[i]) for i, x in items), scale)
