"""Command-line entry point.

Subcommands: classify, unit, lfun, classnum, verify, scan, report.
Exit codes: 0 ok or a closed stdout, 1 failed check or corrupt data, 2 bad usage or out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from math import log10

from .atlas import _FLAG_WORDS, ScanConfig, ScanFileError, record_to_json_obj, report_hfd, scan
from .classgroup import class_number
from .classify import OrderSpec, classify_order
from .oracle import DEFAULT_ENUM_BOUND, oracle_verdicts
from .pell import FundamentalUnit, fundamental_unit, verify_unit
from .quadfield import FieldContext, make_field, unit_xy
from .unitindex import l_value


_to_json = json.JSONEncoder(separators=(",", ":")).encode  # a record as its JSONL scan line
_DECIMAL_CAP = 10**4300  # CPython's default int-to-str limit


def _decimal(x: int) -> str:
    """x in decimal, or past 4,300 digits its sign and exact digit count."""
    a = abs(x)
    if a < _DECIMAL_CAP:
        return str(x)
    k = int(a.bit_length() * log10(2))  # at most the digit count
    while 10**k <= a:
        k += 1
    return f"{'-' if x < 0 else ''}<{k} digits>"


def _sqrt_expr(x: int, y: int, d: int) -> str:
    if y == 0:
        return _decimal(x)
    ypart = "" if y == 1 else "-" if y == -1 else _decimal(y)
    if x == 0:
        return f"{ypart}√{d}"
    return f"{_decimal(x)}{'+' if y > 0 else ''}{ypart}√{d}"


def format_unit(F: FieldContext, U: FundamentalUnit) -> str:
    x, y = unit_xy(F, U.u)
    if F.half:
        return f"({_sqrt_expr(x, y, F.d)})/2"
    return _sqrt_expr(x // 2, y, F.d)


def cmd_classify(args: argparse.Namespace) -> int:
    rec = classify_order(OrderSpec(args.d, args.n))
    if args.json:
        print(_to_json(record_to_json_obj(rec)))
        return 0
    print(f"d={rec.d} n={rec.n} D={rec.D}")
    print(
        f"m={rec.m} L={rec.L} ip={int(rec.ideal_preserving)} "
        f"la={int(rec.locally_associated)} assoc={int(rec.associated)}"
    )
    print(f"h_maximal={rec.h_maximal} h_order={rec.h_order} hfd={int(rec.hfd)}")
    return 0


def cmd_unit(args: argparse.Namespace) -> int:
    F = make_field(args.d)
    U = fundamental_unit(F)
    if not verify_unit(F, U):
        print(f"error: unit for d={args.d} failed verification", file=sys.stderr)
        return 1
    extra = f", torsion order {U.torsion_order}" if F.d < 0 else ""
    print(f"{format_unit(F, U)}, norm {U.norm_sign}{extra}")
    return 0


def cmd_lfun(args: argparse.Namespace) -> int:
    print(l_value(args.n, args.d))
    return 0


def cmd_classnum(args: argparse.Namespace) -> int:
    F = make_field(args.d)
    U = fundamental_unit(F)
    C = class_number(F, U)
    h_plus = "-" if C.h_plus is None else str(C.h_plus)
    print(f"D={F.D} h={C.h} h_plus={h_plus} unit_norm={U.norm_sign}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    rec = classify_order(OrderSpec(args.d, args.n))
    F = make_field(rec.d)
    verdicts = oracle_verdicts(F, fundamental_unit(F), rec.n)
    skipped = [name for name, got in verdicts.items() if got is None]
    if skipped:
        raise ValueError(
            f"n={rec.n} is outside the range of the oracle(s) {', '.join(skipped)}: "
            "locally_associated and associated enumerate O_K/(M) at M = n, ideal_preserving "
            "works modulo M = p^2 for each prime p | n, each within "
            f"2 <= M <= {DEFAULT_ENUM_BOUND}, the enumeration bound"
        )
    names = ("locally_associated", "ideal_preserving", "associated")
    bla, bip, bassoc = (verdicts[name] for name in names)
    la, ip, assoc = rec.locally_associated, rec.ideal_preserving, rec.associated
    ok = (la, ip, assoc) == (bla, bip, bassoc)
    word = _FLAG_WORDS["jsonl"]
    print(
        f"{'OK' if ok else 'MISMATCH'} "
        f"(la: closed-form={word[la]} oracle={word[bla]}; "
        f"ip: {word[ip]}/{word[bip]}; assoc: {word[assoc]}/{word[bassoc]})"
    )
    return 0 if ok else 1


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = ScanConfig(**{f.name: getattr(args, f.name) for f in fields(ScanConfig)})
    summary = scan(cfg)
    print(
        f"records={summary.records} hfd={summary.hfd} "
        f"elapsed={summary.elapsed:.2f}s out={cfg.out}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rep = report_hfd(args.path)
    print(f"hfd_total={rep.total}")
    for d in sorted(rep.per_d):
        print(f"d={d} hfd={rep.per_d[d]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadorders",
        description="Classify orders Z + n*O_K in quadratic number fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify the order of index n in Q(sqrt(d))")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--json", action="store_true", help="emit the record as JSON")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("unit", help="fundamental unit of the maximal order")
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(fn=cmd_unit)

    p = sub.add_parser("lfun", help="value of L(n, d)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(fn=cmd_lfun)

    p = sub.add_parser("classnum", help="class number of the maximal order")
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(fn=cmd_classnum)

    p = sub.add_parser("verify", help="compare closed forms against brute-force oracles")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="classify a (d, n) grid into CSV or JSONL")
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--resume", action="store_true", help="continue from the checkpoint")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--verify", action="store_true", help="oracle-check cells within bounds")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("report", help="summarise hfd counts from a scan file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return rc
    except BrokenPipeError:  # the reader stopped early (report | head): nothing is wrong
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except MemoryError:  # a window too wide for this machine: ask for less
        print("error: out of memory; split the window into smaller scans", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (RuntimeError, ScanFileError)) else 2


if __name__ == "__main__":
    sys.exit(main())
