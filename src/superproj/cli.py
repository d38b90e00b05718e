"""Command-line interface.

Exit codes: 0 success, 1 verification failure (including a violated runtime
invariant), 2 usage or parse error.  The default output format is json and
can be changed with --format or the SUPERPROJ_FORMAT environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InvariantError, ParseError, SuperprojError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

FORMATS = ("json", "csv", "text")


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, list):
        if all(not isinstance(x, (dict, list)) for x in obj):
            rows.append((prefix[:-1], " ".join(str(x) for x in obj)))
        else:
            for i, v in enumerate(obj):
                rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], str(obj)))
    return rows


def emit(obj: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(obj))
    elif fmt == "csv":
        print("key,value")
        for key, value in _flatten(obj):
            text = str(value).replace('"', '""')
            print(f'{key},"{text}"')
    else:
        for key, value in _flatten(obj):
            print(f"{key}: {value}")


def cmd_cohomology(args, fmt) -> int:
    from .cohomology import cohomology_dims

    dims = cohomology_dims(args.n, args.m, args.ell)
    out = {
        "schema": 1,
        "n": args.n,
        "m": args.m,
        "ell": args.ell,
        "dims": {str(k): v.to_json() for k, v in sorted(dims.items())},
    }
    code = EXIT_OK
    if args.oracle:
        if args.n != 1:
            print("error: --oracle needs n = 1", file=sys.stderr)
            return EXIT_USAGE
        from .cech import oracle_check_line

        ok = oracle_check_line(args.m, args.ell)
        out["oracle"] = "pass" if ok else "fail"
        if not ok:
            code = EXIT_VERIFY
    emit(out, fmt)
    return code


def cmd_cech(args, fmt) -> int:
    from .cech import TransitionSheaf, cech_cohomology
    from .parser import parse_superpoly

    W, _ = parse_superpoly(args.transition, m=args.m)
    sheaf = TransitionSheaf(args.m, W)
    result = cech_cohomology(sheaf)
    emit(
        {
            "schema": 1,
            "m": args.m,
            "transition": str(sheaf.W),
            "h0": result.h0.to_json(),
            "h1": result.h1.to_json(),
            "generators_h0": [str(g) for g in result.generators_h0],
            "generators_h1": [str(g) for g in result.generators_h1],
        },
        fmt,
    )
    return EXIT_OK


def cmd_picard(args, fmt) -> int:
    from .picard import picard_report, verify_picard_dim_cech

    out = picard_report(args.n, args.m)
    code = EXIT_OK
    if args.verify:
        if args.n != 1:
            print("error: --verify needs n = 1", file=sys.stderr)
            return EXIT_USAGE
        ok = verify_picard_dim_cech(args.m)
        out["verify"] = "pass" if ok else "fail"
        if not ok:
            code = EXIT_VERIFY
    emit(out, fmt)
    return code


def cmd_tangent(args, fmt) -> int:
    from .tangent import tangent_report_json

    emit(tangent_report_json(args.n, args.m, with_basis=args.basis), fmt)
    return EXIT_OK


def cmd_osp22_verify(args, fmt) -> int:
    from .superlie import verify_osp22

    report = verify_osp22()
    emit(
        {
            "schema": 1,
            "entries": [
                {"equation": label, "ok": ok} for label, ok in report.entries
            ],
            "computed_only": [
                {"equation": label, "value": value}
                for label, value in report.computed_only
            ],
            "all_passed": report.all_passed,
        },
        fmt,
    )
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_characteristic(args, fmt) -> int:
    from .characteristic import characteristic_report_json

    emit(characteristic_report_json(args.n, args.m), fmt)
    return EXIT_OK


def cmd_selftest(args, fmt) -> int:
    from .checkers import run_golden

    report = run_golden(
        cases_override=args.cases, seed_override=args.seed
    )
    emit(report, fmt)
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=FORMATS,
        default=os.environ.get("SUPERPROJ_FORMAT", "json"),
        help="output format (default from SUPERPROJ_FORMAT, else json)",
    )
    parser = argparse.ArgumentParser(
        prog="superproj",
        description="Exact supergeometry of complex projective superspaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("cohomology", help="closed-form sheaf cohomology dims")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the Cech engine (n = 1)")
    p.set_defaults(func=cmd_cohomology)

    p = add_parser("cech", help="raw Cech run for a transition function")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--transition", required=True)
    p.set_defaults(func=cmd_cech)

    p = add_parser("picard", help="Picard and Pi-Picard data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="recompute the continuous dimension via Cech")
    p.set_defaults(func=cmd_picard)

    p = add_parser("tangent", help="tangent sheaf cohomology")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--basis", action="store_true",
                   help="include a global field basis (n = 1)")
    p.set_defaults(func=cmd_tangent)

    p = add_parser("osp22-verify", help="verify the SUSY structure equations")
    p.set_defaults(func=cmd_osp22_verify)

    p = add_parser("characteristic", help="Berezinian/Chern/de Rham report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_characteristic)

    p = add_parser("selftest", help="recompute the golden acceptance table")
    p.add_argument("--cases", type=int, default=None,
                   help="override randomized case counts")
    p.add_argument("--seed", type=int, default=None,
                   help="override randomized suite seeds")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.format not in FORMATS:
        print(f"error: unknown format {args.format!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, args.format)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SuperprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
