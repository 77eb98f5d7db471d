"""Command-line front end.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 input error
(malformed file, invalid structure constants, unknown catalog entry), 3
internal error (an unexpected exception, reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import run_checks
from .crkahler import induced_bracket, left_symmetric_product
from .inputdoc import InputError, dump_document, parse_text
from .multivector import schouten, wedge_subspace_residual
from .report import Report, fmt_vec

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


def _emit_report(rep: Report, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(rep.to_dict(), indent=2))
    else:
        print(rep.to_text())


def cmd_check(args) -> int:
    payloads = _load(args.file)
    rep = run_checks(payloads)
    _emit_report(rep, args.format)
    return EXIT_PASS if rep.passed else EXIT_CHECK_FAILED


def cmd_construct(args) -> int:
    if args.what != "left-symmetric":
        raise InputError([f"unknown construction: {args.what!r}"])
    payloads = _load(args.file)
    if payloads.kahler is None:
        raise InputError(["left-symmetric construction needs cr and metric blocks"])
    try:
        product = left_symmetric_product(payloads.kahler)
    except ValueError as e:
        raise InputError([str(e)])
    names = payloads.algebra.names
    basis = [fmt_vec(names, h, product.H.scale) for h in product.H.ints]
    print("left-symmetric product on H:")
    for a, x in enumerate(basis):
        for b, y in enumerate(basis):
            print(f"  ({x}) * ({y}) = {fmt_vec(names, product.ambient(a, b))}")
    print("induced bracket [x,y]' = xy - yx:")
    comm = induced_bracket(payloads.kahler, product)
    for a, x in enumerate(basis):
        for b in range(a + 1, len(basis)):
            print(f"  [{x}, {basis[b]}]' = {fmt_vec(names, comm[(a, b)])}")
    return EXIT_PASS


def cmd_schouten(args) -> int:
    payloads = _load(args.file)
    if payloads.poisson is None:
        raise InputError(["schouten needs a poisson block (and its cr block)"])
    d = payloads.poisson
    t = schouten(d.algebra, d.Lambda, d.Lambda)
    print(f"[Lambda, Lambda] = {t.format(d.algebra.names)}")
    verdict = wedge_subspace_residual(t, d.U).is_zero()
    print(f"membership in U^Lambda^2: {'pass' if verdict else 'fail'}")
    return EXIT_PASS if verdict else EXIT_CHECK_FAILED


def cmd_catalog(args) -> int:
    from . import catalog  # only this command needs the built catalog
    if args.action == "list":
        for entry_id, description in catalog.list_entries():
            print(f"{entry_id}: {description}")
        return EXIT_PASS
    if not args.id:
        raise InputError(["catalog dump requires an entry id"])
    try:
        entry = catalog.get(args.id)
    except catalog.UnknownEntryError as e:
        raise InputError([str(e)])
    sys.stdout.write(dump_document(entry.document))
    return EXIT_PASS


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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
