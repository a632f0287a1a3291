"""Command-line front door.

stdout carries data (JSON with alphabetically ordered keys by default);
stderr carries diagnostics.  Exit codes: 0 success, 1 a verification
sweep found a contradiction or left a cell unconfirmed, or the ternary
identity failed or its change of basis did not prove the equivalence,
2 usage, precondition or file error (a `spectrum --bound` above
`repcount.MAX_BOUND`, a `ternary-demo --bound` above `ternary.MAX_BOUND`,
a `represent` n whose rows sum above `repcount.MAX_ROWS`, a `verify`
window whose two-square rows, those of p^2 by the principal form, which
bound the scans of its positive cells' searches, sum above it too, a
`verify` window whose discriminants sum above `classgroup.MAX_ABS_D` in
|D|, a p or `verify --pmax` above `intarith.MAX_P`, and a discriminant
or `verify --dmin` below -`classgroup.MAX_ABS_D` included).
`verify` runs its whole grid in this one process.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable

from . import oracle, pprim, repcount, ternary
from .classgroup import ambiguous_classes, enumerate_classes
from .intarith import check_prime
from .qform import BinaryForm

FORMATS = ("json", "text", "tsv")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _print_table(fmt: str, header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    """The header and rows as `text` (two-space separated) or `tsv` lines;
    booleans print as true/false."""
    sep = "\t" if fmt == "tsv" else "  "
    for row in (header, *rows):
        print(sep.join(str(v).lower() if isinstance(v, bool) else str(v) for v in row))


def _parse_form(text: str, D: int) -> BinaryForm:
    try:
        a, b, c = (int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"--form expects 'a,b,c', got {text!r}")
    f = BinaryForm(a, b, c)
    if f.D != D:
        raise ValueError(f"form {f} has discriminant {f.D}, not {D}")
    return f


def _cmd_classgroup(args: argparse.Namespace) -> int:
    group = enumerate_classes(args.D)
    ambiguous = ambiguous_classes(group)
    rows = [
        {
            **cls._asdict(),
            "D": args.D,
            "ambiguous": cls in ambiguous,
            "order": group.orders[cls],
        }
        for cls in group.classes
    ]
    if args.fmt == "json":
        _emit(
            {
                "D": args.D,
                "ambiguous": [list(c) for c in ambiguous],
                "classes": rows,
                "h": group.h,
            }
        )
    else:
        _print_table(args.fmt, ("D", "form", "order", "ambiguous"),
                     ((args.D, cls, row["order"], row["ambiguous"])
                      for cls, row in zip(group.classes, rows)))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    verdicts = pprim.classify_all(args.D, args.p)
    if args.fmt == "json":
        _emit({"D": args.D, "p": args.p, "verdicts": [v.to_json() for v in verdicts]})
    else:
        _print_table(args.fmt, ("form", "p", "cpp", "route"),
                     ((v.cls, v.p, v.completely_p_primitive, v.route)
                      for v in verdicts))
    return 0


def _cmd_represent(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    if args.p is not None:
        check_prime(args.p)
    group = enumerate_classes(args.D)
    rows = sum(math.isqrt(4 * cls.a * args.n // -args.D) + 1 for cls in group.classes)
    if rows > repcount.MAX_ROWS:
        raise ValueError(f"n = {args.n} needs {rows} rows over {group.h} classes, "
                         f"more than {repcount.MAX_ROWS}")
    records = []
    for cls in group.classes:
        if args.p is None:
            sols = repcount.enumerate_solutions(cls, args.n)
            r_star_p = r_flat_p = None
        else:
            full = repcount.rep_counts(cls, args.n, args.p)
            sols, r_star_p, r_flat_p = full.solutions, full.r_star_p, full.r_flat_p
        records.append({
            "form": list(cls),
            "r": len(sols),
            "r_flat_p": r_flat_p,
            "r_star_p": r_star_p,
            "solutions": [list(s) for s in sols],
        })
    if args.fmt == "json":
        _emit({"D": args.D, "n": args.n, "p": args.p, "records": records})
    else:
        _print_table(args.fmt, ("form", "r", "r_star_p", "r_flat_p"),
                     ((cls, rec["r"], rec["r_star_p"], rec["r_flat_p"])
                      for cls, rec in zip(group.classes, records)))
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    f = _parse_form(args.form, args.D)
    spec = repcount.spectrum(f, args.bound, args.p)
    _emit({**spec._asdict(), "D": args.D, "bound": args.bound, "form": list(f), "p": args.p})
    return 0


def _cmd_isometry(args: argparse.Namespace) -> int:
    f = _parse_form(args.form, args.D)
    sol = pprim.solve_two_square(args.D, args.p)
    if sol is None:
        _emit({"D": args.D, "p": args.p, "form": list(f),
               "solvable": False})
        return 0
    t = pprim.build_isometry(f, sol)
    p2 = args.p * args.p
    _emit(
        {
            "D": args.D,
            "det": t.det,
            "form": list(f),
            "m": sol.m,
            "matrix": t.rows(),
            "n": sol.n,
            "p": args.p,
            "properties": {
                "det_equals_p_squared": t.det == p2,
                "nonzero_mod_p": any(e % args.p for e in
                                     (t.m11, t.m12, t.m21, t.m22)),
                "scales_form": True,  # asserted by build_isometry
                "trace_coprime_to_p": (t.m11 + t.m22) % args.p != 0,
            },
            "solvable": True,
            "trace": t.m11 + t.m22,
        }
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = oracle.verify_classification_grid(
        dmin=args.dmin,
        dmax=args.dmax,
        pmax=args.pmax,
        bound=args.bound,
    )
    _emit(report.summary_json())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, sort_keys=True, indent=2)
        print(f"full report written to {args.json}", file=sys.stderr)
    return 0 if report.ok and not report.unconfirmed else 1


def _cmd_ternary_demo(args: argparse.Namespace) -> int:
    report = ternary.spectrum_identity_report(args.bound)
    _emit(report.to_json())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprim",
        description="Class groups of definite binary quadratic forms and "
        "completely p-primitive classes, with brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", dest="fmt", choices=FORMATS, default="json")

    p = sub.add_parser("classgroup", help="class census, orders, ambiguous subset")
    p.add_argument("D", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_classgroup)

    p = sub.add_parser("classify", help="complete p-primitivity verdicts")
    p.add_argument("D", type=int)
    p.add_argument("p", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("represent", help="per-class representation counts of n")
    p.add_argument("D", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--p", type=int, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("spectrum", help="value sets Q, Q^*, Q_p^* up to a bound")
    p.add_argument("D", type=int)
    p.add_argument("--form", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("isometry", help="scaling isometry from the two-square equation")
    p.add_argument("D", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--form", required=True)
    p.set_defaults(func=_cmd_isometry)

    p = sub.add_parser("verify", help="brute-force the classification over a grid")
    p.add_argument("--dmin", type=int, default=-400)
    p.add_argument("--dmax", type=int, default=-3)
    p.add_argument("--pmax", type=int, default=23)
    p.add_argument("--bound", type=int, default=5000)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the full per-cell report to PATH")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ternary-demo", help="ternary spectra identity report")
    p.add_argument("--bound", type=int, default=1000)
    p.set_defaults(func=_cmd_ternary_demo)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
