"""Batch driver: verification campaigns, q-combinatorics utilities, and
deterministic text/JSON reports.

Exit codes: 0 all checks pass, 1 verification failures, 2 usage errors
(argparse, including a flag the subcommand does not read), 3 invalid
configuration (bad datum or --omega grading-matrix files, negative window
sizes, qcalc values out of range or n above 64, --omega/--order/--signs
given for a case that does not read them or --signs naming a pair twice or
outside the index set), 4 I/O failures, 5 internal errors (any other
exception).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import rootdata, specializations
from .coeffring import Context, gauss_vanish, qbinom, qint
from .hopf import verify_hopf
from .params import ParameterSet
from .report import Report
from .repcheck import verify_transported_modules
from .rootdata import DatumError
from .specializations import SpecializationError
from .twistmap import verify_integrality, verify_twist_isomorphism

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

# Largest n, every qcalc operation's first argument: qbinom caches the whole
# q-Pascal triangle, about n^4/12 terms (qbinom 64 32: 0.32 s and 86 MB;
# 80 40: 0.65 s and 194 MB in-process on a 2-vCPU host).
QCALC_N_BOUND = 64
# qcalc operation -> (argument count, range test, the range in words)
QCALC_ARGS = {
    "qint": (1, lambda n: n >= 0, "n >= 0"),
    "qbinom": (2, lambda n, p: 0 <= p <= n, "0 <= p <= n"),
    "gauss": (1, lambda n: n >= 1, "n >= 1"),
}


def _load_datum(arg: str):
    import os

    if arg.lower() in rootdata.BUILTINS:
        return rootdata.builtin(arg)
    if not os.path.exists(arg) and os.sep not in arg and not arg.endswith(".json"):
        raise DatumError("unknown root datum %r: not a built-in name and not a file" % arg)
    try:
        return rootdata.load(arg)
    except OSError as exc:
        raise IOError("cannot read root datum file %s: %s" % (arg, exc))


def _emit(report: Report, args) -> int:
    render = report.to_json if args.format == "json" else report.to_text
    text = render(include_timing=not args.stable)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write("\n")
        except OSError as exc:
            print("cannot write report: %s" % exc, file=sys.stderr)
            return EXIT_IO
    else:
        print(text)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _add_datum(sub):
    sub.add_argument("--root-datum", default="a1",
                     help="%s, or a JSON config file" % ", ".join(rootdata.BUILTINS))


def _add_window(sub, help="weight window: all coordinates in [-K, K]"):
    sub.add_argument("--lambda-box", type=int, default=2, metavar="K", help=help)


def _add_output(sub):
    sub.add_argument("--out", default="", help="write the report to this file")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--stable", action="store_true",
                     help="omit wall-clock timing from JSON and text reports")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qtwist",
        description="Exact symbolic verification of the twisted quantum algebra identities.",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-iso", help="relation correspondence under the rescaling map")
    _add_datum(p)
    _add_window(p, "weight window: all coordinates in [-K, K] for the relation records, "
                   "in [-min(K, 1), min(K, 1)] for the dp-unit and roundtrip records")
    _add_output(p)

    p = subs.add_parser("verify-hopf", help="coproduct, antipode and bialgebra axioms")
    _add_datum(p)
    _add_output(p)
    p.add_argument("--nmax", type=int, default=4, help="largest coproduct power checked")

    p = subs.add_parser("verify-special", help="parameter specializations and their tables")
    _add_datum(p)
    _add_window(p)
    _add_output(p)
    p.add_argument("--case", required=True, choices=tuple(specializations.CASES))
    p.add_argument("--omega", default="", help="JSON file with the integer grading matrix")
    p.add_argument("--order", default="",
                   help="comma-separated total order on the index set (1-based), e.g. 2,1")
    p.add_argument("--signs", default="",
                   help="square-root sign choices i,j,+-1 separated by ';', e.g. 1,2,-1")
    p.add_argument("--with-iso", action="store_true",
                   help="also check verify-iso's iso:* relation records in the specialized "
                        "ring (not its dp-unit and roundtrip records)")

    p = subs.add_parser("verify-modules",
                        help="matrix checks on transported modules of the built-in a1 and a2")
    _add_output(p)
    p.add_argument("--max-n", type=int, default=6, help="largest string module dimension - 1")
    p.add_argument("--case", default="generic", choices=("generic", *specializations.CASES))

    p = subs.add_parser("qcalc", help="q-combinatorics calculator")
    p.add_argument("op", choices=tuple(QCALC_ARGS))
    p.add_argument("args", nargs="+", type=int)

    p = subs.add_parser("validate-datum", help="validate a root datum config file")
    p.add_argument("file")
    return ap


def _parse_order(arg: str, n: int):
    if not arg:
        return None
    try:
        order = [int(x) - 1 for x in arg.split(",")]
    except ValueError:
        raise SpecializationError("--order must be comma-separated integers")
    return specializations.check_order(order, n)


def _parse_signs(arg: str):
    if not arg:
        return None
    eps = {}
    for chunk in arg.split(";"):
        try:
            i, j, e = (int(x) for x in chunk.split(","))
        except ValueError:
            raise SpecializationError("--signs chunks must look like i,j,+-1")
        if (i - 1, j - 1) in eps:
            raise SpecializationError("--signs gives the pair %d,%d twice" % (i, j))
        eps[(i - 1, j - 1)] = e
    return eps


def _spec_kwargs(args, rd):
    if args.omega and args.case != "two-param":
        raise SpecializationError("--omega applies only to --case two-param")
    if (args.order or args.signs) and args.case != "super1":
        raise SpecializationError("--order and --signs apply only to --case super1")
    kwargs = {}
    if args.omega:
        try:
            with open(args.omega, "r", encoding="utf-8") as fh:
                kwargs["omega"] = json.load(fh)
        except OSError as exc:
            raise IOError("cannot read omega file: %s" % exc)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise SpecializationError("omega file is not valid JSON: %s" % exc)
    if args.case == "super1":
        order = _parse_order(args.order, rd.n)
        if order is not None:
            kwargs["order"] = order
        eps = _parse_signs(args.signs)
        if eps is not None:
            kwargs["eps"] = eps
    return kwargs


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("lambda_box", "nmax", "max_n"):
        if getattr(args, flag, 0) < 0:
            print("invalid configuration: --%s must be >= 0" % flag.replace("_", "-"),
                  file=sys.stderr)
            return EXIT_BAD_CONFIG
    if args.command == "qcalc":
        arity, in_range, rule = QCALC_ARGS[args.op]
        if len(args.args) != arity:
            parser.error("qcalc %s takes %d integer argument(s)" % (args.op, arity))
        if not in_range(*args.args) or args.args[0] > QCALC_N_BOUND:
            print("invalid configuration: qcalc %s needs %s and n <= %d"
                  % (args.op, rule, QCALC_N_BOUND), file=sys.stderr)
            return EXIT_BAD_CONFIG
    try:
        if args.command == "qcalc":
            ctx = Context()
            v = ctx.laurent("v", denom=2)
            if args.op == "qint":
                (n,) = args.args
                print(qint(n, v))
            elif args.op == "qbinom":
                n, p = args.args
                val = qbinom(n, p, v)
                print(val)
                print("coefficient sum: %d" % val.coefficient_sum())
            else:
                (n,) = args.args
                print(gauss_vanish(n, v))
            return EXIT_OK

        if args.command == "validate-datum":
            try:
                rd = rootdata.load(args.file)
            except OSError as exc:
                print("cannot read %s: %s" % (args.file, exc), file=sys.stderr)
                return EXIT_IO
            print("ok: %s (rank %d, %d nodes)" % (args.file, rd.x_rank, rd.n))
            return EXIT_OK

        if args.command == "verify-iso":
            rd = _load_datum(args.root_datum)
            params = ParameterSet.v_tied(rd.cartan)
            report = verify_twist_isomorphism(rd, params, rd.weights_box(args.lambda_box))
            report.merge(verify_integrality(rd, params, rd.weights_box(min(args.lambda_box, 1))))
            report.finalize()
        elif args.command == "verify-hopf":
            rd = _load_datum(args.root_datum)
            report = verify_hopf(rd, ParameterSet.v_tied(rd.cartan), nmax=args.nmax)
        elif args.command == "verify-special":
            rd = _load_datum(args.root_datum)
            window = rd.weights_box(args.lambda_box)
            spec = specializations.make(args.case, rd, **_spec_kwargs(args, rd))
            report = specializations.verify_specialization(spec, window)
            if args.with_iso:
                report.merge(verify_twist_isomorphism(rd, spec.params, window))
                report.finalize()
        elif args.command == "verify-modules":
            report = verify_transported_modules(args.case, max_n=args.max_n)
        else:  # pragma: no cover - argparse enforces the choices
            return EXIT_BAD_CONFIG
    except (DatumError, SpecializationError) as exc:
        print("invalid configuration: %s" % exc, file=sys.stderr)
        return EXIT_BAD_CONFIG
    except IOError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # an engine bug, never a configuration problem
        import traceback

        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
