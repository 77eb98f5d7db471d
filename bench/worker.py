"""One workload in a fresh interpreter: time every document to its verdict.

Started by `bench/run.py` as `python3 bench/worker.py <workload> <seed>
<trace 0|1> <out_dir> <deadline_s>` with `PYTHONPATH=src`; SIGALRM ends it
after `deadline_s`, whatever it is doing.  It generates the ladder,
writes the document the CLI is timed on, and prints a JSON line.  Then, for
each `pass` line on standard input, it times one pass over the ladder and
prints a JSON line; on `done` it prints its summary and exits.

A document is timed from the `parse_text` call to the `json.dumps` of its
structured report, and that time is also divided by the mean of the
calibration timings just before and after it (see calibration.py).  Its
verdicts are compared with the expectations of the generator outside the
timed region.  With tracing on, passes alternate
untraced and traced.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import families
import selftest
from calibration import calibration_s
from spans import LAYERS, Tracer

COUNT_NAMES = ("checks", "failed", "witnesses", "bytes")


def serialize(rep) -> str:
    return json.dumps(rep.to_dict(), indent=2)


def run_pass(cases, texts, serialize_fn, errors, tracer=None):
    """Time each document once.  Returns the wall seconds per document, the
    same in calibration units (see calibration.py), and the report counts
    per document (None for a document with a wrong answer)."""
    from crlie import checks, inputdoc
    times, refs, counts = [], [], []
    cal = calibration_s()
    for case, text in zip(cases, texts):
        if tracer is not None:
            tracer.document = case.name
        rep = out = None
        t0 = time.perf_counter()
        try:
            rep = checks.run_checks(inputdoc.parse_text(text))
            out = serialize_fn(rep)
        except Exception:  # a crash is a wrong answer for this document
            errors.append(f"{case.name}: {traceback.format_exc(limit=3)}")
        t = time.perf_counter() - t0
        cal_after = calibration_s()
        times.append(t)
        refs.append(t / ((cal + cal_after) / 2))
        cal = cal_after
        if out is None:
            counts.append(None)
            continue
        got = {r.check_id: r.status for r in rep.results}
        if got != case.expected or len(got) != len(rep.results):
            counts.append(None)
            errors.append(f"{case.name}: verdicts {got} != expected {case.expected}")
            continue
        counts.append((len(rep.results), sum(not r.passed for r in rep.results),
                       sum(len(r.witnesses) for r in rep.results),
                       len(out.encode("utf-8"))))
    return times, refs, counts


def layer_metrics(cases, layer_runs, errors):
    """Median per-pass self time and per-pass calls of every reported layer;
    a layer the workload's expectations call for must record a span."""
    expected_checks = {cid for c in cases for cid in c.expected}
    out = {}
    for name, evidence in LAYERS.items():
        runs = [run.get(name, (0.0, 0)) for run in layer_runs]
        calls = {c for _, c in runs}
        if len(calls) != 1:
            errors.append(f"{name}: calls differ between traced passes: {sorted(calls)}")
        if max(calls) == 0 and (evidence is None or evidence in expected_checks):
            errors.append(f"{name}: expected on this workload but recorded no span")
        out[f"{name}.s"] = statistics.median(s for s, _ in runs)
        out[f"{name}.calls"] = max(calls)
    return out


def emit(obj):
    print(json.dumps(obj), flush=True)


def main(argv):
    workload, seed, trace, out_dir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    signal.alarm(math.ceil(float(argv[4])))
    spec = families.WORKLOADS[workload]
    cases = families.workload_cases(workload, seed)
    texts = [json.dumps(c.document) for c in cases]
    errors = selftest.anchor_errors(spec.anchors)

    cli_case = next(c for c in cases if c.name.split("@")[0] == spec.cli)
    cli_path = os.path.join(out_dir, f"cli-{workload}-{seed}.json")
    with open(cli_path, "w", encoding="utf-8") as fh:
        json.dump(cli_case.document, fh, indent=2)
    emit({"documents": [c.name for c in cases],
          "cli": {"path": cli_path, "expected": cli_case.expected}})

    tracer = traced_serialize = None
    if trace:
        tracer = Tracer()
        errors += [f"{name}: no such function to trace" for name in tracer.install()]
        tracer.uninstall()
        traced_serialize = tracer.span("report.serialize", serialize)
    plain, traced, layer_runs = [], [], []
    reference = None
    attempted = failed = 0
    for command in sys.stdin:
        if command.strip() != "pass":
            break
        if trace and len(plain) > len(traced):
            first = len(tracer.spans)
            tracer.install()
            try:
                times, refs, counts = run_pass(cases, texts, traced_serialize, errors,
                                              tracer)
            finally:
                tracer.uninstall()
            layer_runs.append(tracer.self_times(first))
            traced.append((sum(refs), sum(times)))
        else:
            times, refs, counts = run_pass(cases, texts, serialize, errors)
            plain.append((sum(refs), sum(times)))
        attempted += len(counts)
        failed += sum(c is None for c in counts)
        if reference is None:
            reference = counts
        elif counts != reference:
            errors.append("report counts differ between passes")
        emit({"times": times, "refs": refs})

    summary = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "attempted": attempted, "failed": failed}
    if trace:
        if not traced:
            errors.append("no traced pass was run")
        else:
            layers = layer_metrics(cases, layer_runs, errors)
            valid = [c for c in reference if c is not None]
            for k, name in enumerate(COUNT_NAMES):
                layers[f"report.{name}"] = sum(c[k] for c in valid)
            # In calibration units, which cancel the host's drift between
            # passes; the wall-time difference is only printed.
            overhead = [statistics.median(t[k] for t in traced)
                        - statistics.median(p[k] for p in plain) for k in (0, 1)]
            layers["tracing.overhead_ref"] = overhead[0]
            summary["layers"] = layers
            summary["tracing_overhead_s"] = overhead[1]
            summary["spans"] = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
            tracer.dump(summary["spans"])
    summary["errors"] = errors
    emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
