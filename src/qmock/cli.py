"""Command-line front end: expand expressions, verify single identities,
run identity corpora, and emit machine-readable reports.

Exit codes: 0 all pass, 1 any FAIL, 2 syntax error, 3 evaluation error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
from importlib import resources

from ._rational import decimal_text, json_pair
from .dsl import (
    EVALUATION_ERRORS,
    CorpusSyntaxError,
    ExpressionSyntaxError,
    IdentityRecord,
    VerificationReport,
    evaluate,
    parse,
    parse_corpus,
    parse_order,
    to_text,
    verify_identity,
)
from .series import format_series

DEFAULT_ORDER_ENV = "QMOCK_DEFAULT_ORDER"
_BUILTIN_DEFAULT_ORDER = "100"


def shipped_corpus_path():
    """Filesystem path of the corpus distributed with the package."""
    return resources.files("qmock").joinpath("data", "identities.qid")


def _default_order():
    return os.environ.get(DEFAULT_ORDER_ENV, _BUILTIN_DEFAULT_ORDER)


def _series_json(series):
    return {
        "terms": [
            json_pair(e) + json_pair(c.re) + json_pair(c.im)
            for e, c in series.items_sorted()
        ],
        "precision": json_pair(series.precision),
    }


def cmd_expand(args):
    try:
        ast = parse(args.expr)
        order = parse_order(args.order)
    except (ExpressionSyntaxError, ValueError) as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    try:
        series = evaluate(ast, order)
    except EVALUATION_ERRORS as exc:
        print(f"evaluation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(_series_json(series), sort_keys=True))
    else:
        print(format_series(series, order=order))
    return 0


def _report_line(report):
    if report.status == "PASS":
        extra = f"order={decimal_text(report.achieved_precision)}"
    elif report.status == "FAIL":
        e, c = report.first_mismatch
        extra = f"first mismatch at q^{decimal_text(e)}: coefficient {c}"
    else:
        extra = report.detail
    return f"{report.status:<6} {report.id:<28} {extra}  [{report.elapsed_ms:.1f} ms]"


def cmd_verify(args):
    try:
        lhs = parse(args.lhs)
        rhs = parse(args.rhs)
        order = parse_order(args.order)
    except (ExpressionSyntaxError, ValueError) as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    record = IdentityRecord(
        id="cli", anchor="", order=order, lhs=lhs, rhs=rhs,
        lhs_text=args.lhs, rhs_text=args.rhs,
    )
    report = verify_identity(record)
    print(_report_line(report))
    return {"PASS": 0, "FAIL": 1, "ERROR": 3}[report.status]


def _verify_payload(record):
    """The one place a record is verified, in this process or in a pool
    worker: a record sent to a worker carries its expressions' text and no
    ASTs, and is parsed here; returns its report, an ERROR one for text
    that does not parse."""
    if record.lhs is None:
        try:
            record = dataclasses.replace(record, lhs=parse(record.lhs_text), rhs=parse(record.rhs_text))
        except ExpressionSyntaxError as exc:
            return VerificationReport(id=record.id, status="ERROR", anchor=record.anchor,
                                      detail=f"{type(exc).__name__}: {exc}")
    return verify_identity(record)


def _as_text(record):
    """The record as a worker gets it: its text, which pickles at any depth,
    without the ASTs, which do not."""
    return dataclasses.replace(record, lhs=None, rhs=None,
                               lhs_text=record.lhs_text or to_text(record.lhs),
                               rhs_text=record.rhs_text or to_text(record.rhs))


def _pool_report(future, record):
    try:
        return future.result()
    except concurrent.futures.BrokenExecutor as exc:
        # a worker died (BrokenProcessPool): the pool is broken, and every
        # stanza still pending in it errs here until the pool is replaced
        return VerificationReport(id=record.id, status="ERROR", anchor=record.anchor,
                                  detail=f"{type(exc).__name__}: {exc}")


def run_corpus(records, order_override=None, jobs=1):
    """Verify every record; returns reports sorted by id."""
    if order_override is not None:
        records = [dataclasses.replace(rec, order=order_override) for rec in records]
    if jobs > 1 and len(records) > 1:
        # a fork pool starts all its workers at the first submit
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(records))) as pool:
            futures = [pool.submit(_verify_payload, _as_text(rec)) for rec in records]
            reports = [_pool_report(f, rec) for f, rec in zip(futures, records)]
    else:
        reports = [_verify_payload(rec) for rec in records]
    return sorted(reports, key=lambda r: r.id)


def cmd_corpus(args):
    try:
        override = parse_order(args.order) if args.order else None
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    except ValueError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    if args.path is None:
        text = shipped_corpus_path().read_text(encoding="utf-8")
    else:
        try:
            # utf-8-sig: an editor's byte-order mark is not corpus content
            with open(args.path, encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read corpus: {exc}", file=sys.stderr)
            return 2
    try:
        records = parse_corpus(text)
    except CorpusSyntaxError as exc:
        print(f"corpus syntax error: {exc}", file=sys.stderr)
        return 2
    reports = run_corpus(records, order_override=override, jobs=args.jobs)
    counts = {"PASS": 0, "FAIL": 0, "ERROR": 0}
    for rep in reports:
        counts[rep.status] += 1
    if args.json:
        print(json.dumps([r.to_dict(stable=args.stable) for r in reports], sort_keys=True))
    else:
        for rep in reports:
            print(_report_line(rep))
        print(
            f"PASS {counts['PASS']} / FAIL {counts['FAIL']} / ERROR {counts['ERROR']}"
        )
    return 0 if counts["FAIL"] == 0 and counts["ERROR"] == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmock",
        description="exact q-series expansion and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand an expression as a q-series")
    p_expand.add_argument("expr")
    p_expand.add_argument("--order", default=_default_order())
    p_expand.add_argument("--json", action="store_true")
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", help="check lhs = rhs to a truncation order")
    p_verify.add_argument("lhs")
    p_verify.add_argument("rhs")
    p_verify.add_argument("--order", default=_default_order())
    p_verify.set_defaults(func=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="verify every identity in a corpus file")
    p_corpus.add_argument("path", nargs="?", default=None,
                          help="corpus file (default: the shipped corpus)")
    p_corpus.add_argument("--order", default=None,
                          help="override every stanza's order")
    p_corpus.add_argument("--jobs", type=int, default=1)
    p_corpus.add_argument("--json", action="store_true")
    p_corpus.add_argument("--stable", action="store_true",
                          help="omit timing fields for byte-identical output")
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    code = args.func(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
