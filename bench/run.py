"""Time-to-verdict benchmark for crlie over generated Lie-algebra families.

Usage, from the root of a checkout:

    python3 bench/run.py --workload kahler_solvable --seed 1 --seconds 30 --trace 0

The workloads are defined in `bench/families.py`.  A run starts the workload
in a fresh interpreter (`bench/worker.py`, `PYTHONPATH=src`) and then repeats
a cycle until `--seconds` are spent, one process at a time:

* twice, `setup_s`: a fresh interpreter imports crlie and reaches the built
  catalog, timed from spawn to exit.
* one pass of the worker over the ladder: every document from `parse_text`
  to the `json.dumps` of its structured report (`ladder` is the pass total,
  `top_rung` the time of the top rung).
* twice, `cli_check`: `python -m crlie.cli check <doc> --format structured`
  on one fixed mid-ladder document, timed from spawn to exit; its exit code
  and verdicts are checked.

Every document and CLI run is also divided by the calibration timed just
before and after it (`calibration.py`); the `_ref` metrics are medians of
these quotients over the cycles, the `_s` lines the plain wall-time medians.
`peak_rss_mb` is the worker's peak RSS.  With `--trace 1` the cycle is one
worker pass only, alternating untraced and traced passes, and the per-layer
metrics are reported instead.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

MIN_CYCLES = 4
SETUP_PER_CYCLE = CLI_PER_CYCLE = 2
DEADLINE_MARGIN_S = 140  # a child may run this long past --seconds
SETUP_PROGRAM = "import crlie; crlie.catalog.get('so3_cr')"

# Timings reported as metrics (medians over the cycles), and the raw wall
# times behind the calibrated ones, which are printed but not reported.
REPORTED = ("ladder_ref", "top_rung_ref", "cli_check_ref", "setup_s")
RAW = ("ladder_s", "top_rung_s", "cli_check_s")


def unit_of(name):
    if name.endswith("_ref"):
        return "ref"
    if name == "peak_rss_mb":
        return "MB"
    if name == "report.bytes":
        return "B"
    return "s" if name.endswith((".s", "_s")) else "count"


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    return dict(os.environ, PYTHONPATH="src")


def timed_run(argv, deadline_s):
    """Wall time of one child process from spawn to exit, and the process."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                          timeout=deadline_s)
    return time.perf_counter() - t0, proc


class Worker:
    """The workload's interpreter, driven one pass at a time over pipes."""

    def __init__(self, workload, seed, trace, deadline_s):
        argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload,
                str(seed), "1" if trace else "0", OUT_DIR, str(deadline_s)]
        self.proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            fail(f"worker stopped (exit {self.proc.returncode})")
        return json.loads(line)

    def request(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        self.proc.kill()
        self.proc.wait()


def cli_problem(proc, cli, want_exit):
    if proc.returncode != want_exit:
        return f"exit {proc.returncode}, expected {want_exit}: {proc.stderr[-300:]}"
    try:
        got = {c["check_id"]: c["status"] for c in json.loads(proc.stdout)["checks"]}
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable structured report: {e}"
    if got != cli["expected"]:
        return f"verdicts {got} != expected {cli['expected']}"
    return None


def measure(workload, seed, seconds, trace):
    """Run the cycles; returns a dict with `metrics` (the result's metrics),
    `samples` (every timing series), `attempted`, `failed`, `errors`,
    `documents`, `spans` (the span file of a traced run, or None) and
    `printed` (figures printed but not reported)."""
    from calibration import calibration_s
    deadline_s = seconds + DEADLINE_MARGIN_S
    setup_argv = [sys.executable, "-c", SETUP_PROGRAM]
    errors = []
    samples = {name: [] for name in (*REPORTED, *RAW)}
    if not trace:
        timed_run(setup_argv, deadline_s)  # compiles the package's bytecode once, untimed
    worker = Worker(workload, seed, trace, deadline_s)
    try:
        info = worker.read()
        cli = info["cli"]
        cli_argv = [sys.executable, "-m", "crlie.cli", "check", cli["path"],
                    "--format", "structured"]
        want_exit = 0 if all(v == "pass" for v in cli["expected"].values()) else 1
        cli_failed = 0
        start = time.perf_counter()
        cycles = 0
        while True:
            for _ in range(0 if trace else SETUP_PER_CYCLE):
                t, proc = timed_run(setup_argv, deadline_s)
                samples["setup_s"].append(t)
                if proc.returncode != 0:
                    errors.append(f"setup: exit {proc.returncode}: {proc.stderr[-300:]}")
            one = worker.request("pass")
            samples["ladder_s"].append(sum(one["times"]))
            samples["top_rung_s"].append(one["times"][-1])
            samples["ladder_ref"].append(sum(one["refs"]))
            samples["top_rung_ref"].append(one["refs"][-1])
            for _ in range(0 if trace else CLI_PER_CYCLE):
                cal = calibration_s()
                t, proc = timed_run(cli_argv, deadline_s)
                cal = (cal + calibration_s()) / 2
                samples["cli_check_s"].append(t)
                samples["cli_check_ref"].append(t / cal)
                problem = cli_problem(proc, cli, want_exit)
                if problem:
                    cli_failed += 1
                    errors.append(f"cli: {problem}")
            cycles += 1
            elapsed = time.perf_counter() - start
            if cycles >= MIN_CYCLES and elapsed + elapsed / cycles > seconds:
                break
        summary = worker.request("done")
    finally:
        worker.close()

    if trace:
        metrics = summary.get("layers", {})
        printed = {"tracing.overhead_s": summary["tracing_overhead_s"]} if metrics else {}
    else:
        metrics = {name: statistics.median(samples[name]) for name in REPORTED}
        metrics["peak_rss_mb"] = summary["peak_rss_mb"]
        printed = {name: statistics.median(samples[name]) for name in RAW}
    return {"metrics": metrics, "samples": {k: v for k, v in samples.items() if v},
            "attempted": summary["attempted"] + len(samples["cli_check_s"]),
            "failed": summary["failed"] + cli_failed,
            "errors": errors + summary["errors"],
            "documents": info["documents"], "spans": summary.get("spans"),
            "printed": printed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "crlie", "__init__.py")):
        fail("run from the root of a crlie checkout (src/crlie not found)")
    sys.path.insert(0, BENCH_DIR)
    import families
    if args.workload not in families.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(families.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)

    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, samples = res["metrics"], res["samples"]
    attempted, failed = res["attempted"], res["failed"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"documents {', '.join(res['documents'])}")
    for e in res["errors"]:
        print(f"error: {e}")
    shown = dict(metrics, **res["printed"])
    for name, value in shown.items():
        text = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        note = f"  (median of {len(samples[name])})" if name in samples else ""
        print(f"{name:40s} {text} {unit_of(name)}{note}")
    print(f"{'error_rate':40s} {failed / max(attempted, 1):14.6f} "
          f"({failed} of {attempted} attempted)")
    if res["spans"]:
        print(f"spans written to {os.path.relpath(res['spans'])}")

    print(json.dumps({
        "correct": failed == 0 and not res["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
