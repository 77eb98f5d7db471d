"""Command-line front end.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 input error
(malformed file, invalid structure constants, unknown catalog entry), 3
internal error (an unexpected exception, reported as one line on stderr).
A reader that closes the pipe early ends the output, not the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import run_checks
from .crkahler import left_symmetric_product
from .inputdoc import InputError, dump_document, parse_text
from .linalg import contraction
from .multivector import wedge_subspace_residual
from .report import fmt_vec

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError([f"cannot read {path}: {e}"])
    except UnicodeDecodeError as e:
        raise InputError([f"{path} is not UTF-8 text: {e}"])


def _load(path: str):
    return parse_text(_read(path))


def cmd_check(args):
    rep = run_checks(_load(args.file))
    text = json.dumps(rep.to_dict(), indent=2) if args.format == "structured" else rep.to_text()
    return (EXIT_PASS if rep.passed else EXIT_CHECK_FAILED), [text]


def cmd_construct(args):
    if args.what != "left-symmetric":
        raise InputError([f"unknown construction: {args.what!r}"])
    payloads = _load(args.file)
    if payloads.kahler is None:
        raise InputError(["left-symmetric construction needs cr and metric blocks"])
    return EXIT_PASS, _left_symmetric_lines(payloads.algebra.names,
                                            left_symmetric_product(payloads.kahler))


def _left_symmetric_lines(names, product):
    # each value is read from the integer table in H-coordinates and mapped
    # into G through the integer basis of H, so it is s_P s_H times the vector
    H, P = product.H, product.P
    rows, s = dict(enumerate(H.ints)), product.scale * H.scale
    basis = [fmt_vec(names, h, H.scale) for h in H.ints]
    yield "left-symmetric product on H:"
    for a, x in enumerate(basis):
        for b, y in enumerate(basis):
            value = contraction([(1, P[a].get(b, {}), rows)])
            yield f"  ({x}) * ({y}) = {fmt_vec(names, value, s)}"
    yield "induced bracket [x,y]' = xy - yx:"
    for a, x in enumerate(basis):
        for b in range(a + 1, len(basis)):
            value = contraction([(1, product.commutator(a, b), rows)])
            yield f"  [{x}, {basis[b]}]' = {fmt_vec(names, value, s)}"


def cmd_schouten(args):
    payloads = _load(args.file)
    if payloads.poisson is None:
        raise InputError(["schouten needs a poisson block (and its cr block)"])
    d = payloads.poisson
    t = d.Lambda.square(d.algebra)
    verdict = wedge_subspace_residual(t, d.U).is_zero()
    return (EXIT_PASS if verdict else EXIT_CHECK_FAILED), [
        f"[Lambda, Lambda] = {t.format(d.algebra.names)}",
        f"membership in U^Lambda^2: {'pass' if verdict else 'fail'}"]


def cmd_catalog(args):
    from . import catalog  # only this command needs the built catalog
    if args.action == "list":
        return EXIT_PASS, [f"{entry_id}: {description}"
                           for entry_id, description in catalog.list_entries()]
    if not args.id:
        raise InputError(["catalog dump requires an entry id"])
    try:
        entry = catalog.get(args.id)
    except catalog.UnknownEntryError as e:
        raise InputError([str(e)])
    return EXIT_PASS, [dump_document(entry.document).removesuffix("\n")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crlie",
        description="Verify CR, Kahler-CR and pseudo-Poisson structures on "
                    "Lie algebras given by exact rational structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run every check applicable to the file")
    p.add_argument("file", help="input file, or - for stdin")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="emit a derived structure")
    p.add_argument("what", help="currently only: left-symmetric")
    p.add_argument("file", help="input file, or - for stdin")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("schouten", help="emit [Lambda,Lambda] and the membership verdict")
    p.add_argument("file", help="input file, or - for stdin")
    p.set_defaults(func=cmd_schouten)

    p = sub.add_parser("catalog", help="list or dump built-in examples")
    p.add_argument("action", choices=("list", "dump"))
    p.add_argument("id", nargs="?")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    """Run one command: its exit status, after its lines are written."""
    args = build_parser().parse_args(argv)
    try:
        status, lines = args.func(args)
        try:
            for line in lines:
                print(line)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone: write nowhere, so that the shutdown flush
            # cannot raise either (the Python docs' note on SIGPIPE)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return status
    except InputError as e:
        for d in e.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as e:
        message = str(e).replace("\n", " ")
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
