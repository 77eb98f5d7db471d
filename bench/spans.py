"""In-memory spans around crlie's public functions, recorded from outside.

`Tracer.install` replaces the layer functions that `crlie.checks` imported
(so `run_checks` still makes the calls), `LieAlgebra.is_semisimple`,
`inputdoc.parse_document` (reached through `parse_text`) and `run_checks`
itself with wrappers that append a span (name, start, end, parent, document)
to a list.  `uninstall` puts the originals back.  Nothing is written until
`dump` is called at the end of the run.
"""

from __future__ import annotations

import json
import time

# Layer name -> the name under which crlie.checks imported the function.
CHECK_LAYERS = {
    "crkahler.check_cr": "check_cr",
    "crkahler.check_kahler": "check_kahler",
    "crkahler.left_symmetric_product": "left_symmetric_product",
    "crkahler.check_left_symmetric": "check_left_symmetric",
    "crkahler.omega_radical": "omega_radical",
    "crkahler.center_U": "center_U",
    "crkahler.semisimple_exactness": "semisimple_exactness",
    "poisson.check_pseudo_poisson": "check_pseudo_poisson",
    "poisson.check_j_invariance": "check_j_invariance",
    "poisson.coboundary_pi": "coboundary_pi",
    "crkahler.build_extension": "build_extension",
}

# The layers reported as per-layer metrics, in report order, each with the
# check id whose presence among a workload's expected verdicts means the
# layer must record at least one span there (None: every workload).
LAYERS = {
    "inputdoc.parse_document": None,
    "crkahler.check_cr": "cr.condition2",
    "crkahler.check_kahler": "kahler.omega_antisymmetric",
    "crkahler.left_symmetric_product": "leftsym.identity1",
    "crkahler.check_left_symmetric": "leftsym.identity1",
    "crkahler.omega_radical": "radical.subalgebra",
    "crkahler.center_U": "center_u.commutative",
    "lie.is_semisimple": "leftsym.identity1",
    "crkahler.semisimple_exactness": "exactness.alpha_exact",
    "poisson.check_pseudo_poisson": "poisson.schouten_membership",
    "poisson.check_j_invariance": "poisson.j_invariance",
    "poisson.coboundary_pi": "poisson.coboundary_invariance",
    "crkahler.build_extension": "extension.jacobi",
    "checks.run_checks": None,
    "report.serialize": None,
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None, document]
        self._stack = []
        self.document = None
        self._restore = []

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.document])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original))

    def install(self):
        """Wrap every layer; returns the names of layers that no longer exist."""
        from crlie import checks, inputdoc, lie
        targets = [(checks, attr, name) for name, attr in CHECK_LAYERS.items()]
        targets += [(checks, "run_checks", "checks.run_checks"),
                    (inputdoc, "parse_document", "inputdoc.parse_document"),
                    (lie.LieAlgebra, "is_semisimple", "lie.is_semisimple")]
        missing = []
        for owner, attr, name in targets:
            if hasattr(owner, attr):
                self._patch(owner, attr, name)
            else:
                missing.append(name)
        return missing

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self, first=0):
        """{name: (self seconds, calls)} over spans[first:]; a span's self time
        is its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for idx in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[idx]
            s, calls = out.get(name, (0.0, 0))
            out[name] = (s + (end - start) - child[idx], calls + 1)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p, "document": d}
                       for n, s, e, p, d in self.spans], fh)
