"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or format error,
3 size-guard refusal.  All JSON output is UTF-8 in the one envelope of
``parsing.document`` (schema_version, group, n), and identical
configurations (seed included) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

from .errors import FormatError, SizeLimitError
from .groups import group_from_spec
from .invariant import invariant_mul, structure_constant_table
from .limits import DEFAULT_LIMIT
from .parsing import (
    document,
    parse_operand,
    render_colored_permutation,
    render_combination,
    render_partition,
)
from .semigroup import multiply
from .verify import DEFAULT_SAMPLES, VERIFY_TARGETS, run_verification
from .wreath import wreath_mul


def _emit(payload: str | dict, out_path: str | None) -> None:
    """Write text, or a dict as indented JSON, then a newline, to ``out_path``
    or stdout.  JSON is streamed, never built as one string: the encoder's
    tiny chunks are joined a few thousand at a time, so that an unbuffered
    stdout (``python -u``) takes one write per batch, not one per chunk."""
    with (open(out_path, "w", encoding="utf-8") if out_path
          else contextlib.nullcontext(sys.stdout)) as handle:
        if isinstance(payload, dict):
            chunks = json.JSONEncoder(
                indent=2, sort_keys=True, ensure_ascii=False).iterencode(payload)
            for batch in iter(lambda: "".join(itertools.islice(chunks, 4096)), ""):
                handle.write(batch)
        else:
            handle.write(payload)
        handle.write("\n")


def _check_out(path: str) -> None:
    """FormatError when ``path`` is a directory or its directory does not
    exist, so that such an ``--out`` is refused before any work.  Nothing is
    created or truncated here: an existing file is opened only by
    ``_emit``, once the output is ready."""
    if os.path.isdir(path):
        raise FormatError(f"--out path {path} is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FormatError(f"--out path {path}: directory {directory} does not exist")


def cmd_multiply(args) -> int:
    if not isinstance(args.rhs, str):  # argparse's [] after a second "--"
        raise FormatError("the following arguments are required: rhs")
    group = group_from_spec(args.group)
    kind, lhs = parse_operand(args.lhs, group, args.n)
    rhs_kind, rhs = parse_operand(args.rhs, group, args.n)
    if kind is None or rhs_kind is None:
        # the empty combination 0 takes the kind of a sigma or X operand
        other = kind or rhs_kind or "sigma"
        if other in ("sigma", "x"):
            kind = rhs_kind = other
    if kind != rhs_kind:
        raise FormatError(f"operands have different kinds: {kind or 0} vs {rhs_kind or 0}")

    if kind == "partition":
        rendered = render_partition(group, multiply(group, lhs, rhs))
    elif kind == "wreath":
        rendered = render_colored_permutation(group, wreath_mul(group, lhs, rhs))
    else:
        if kind == "x":
            # Theorem 1: X_a * X_b has the coordinates of sigma_b * sigma_a
            lhs, rhs = rhs, lhs
        rendered = render_combination(group, kind, invariant_mul(group, lhs, rhs, args.limit))

    if args.format == "json":
        _emit(document(group, args.n, command="multiply", kind=kind, lhs=args.lhs.strip(),
                       rhs=args.rhs.strip(), product=rendered), args.out)
    else:
        _emit(rendered, args.out)
    return 0


def cmd_structure_constants(args) -> int:
    group = group_from_spec(args.group)
    _emit(structure_constant_table(group, args.n, args.limit), args.out)
    return 0


def cmd_verify(args) -> int:
    group = group_from_spec(args.group)
    report = run_verification(
        args.target, group, args.n, mode=args.mode,
        samples=args.samples, seed=args.seed, limit=args.limit,
    )
    status = "PASS" if report["passed"] else "FAIL"
    summary = (
        f"{status} {args.target} group={group.name} n={args.n} "
        f"checked={report['pairs_checked']} failures={len(report['failures'])}"
    )
    if args.out or args.format == "json":
        _emit(report, args.out)
    if args.out or args.format == "text":
        _emit(summary, None)
    return 0 if report["passed"] else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _limit(text: str) -> int | None:
    """A size-guard limit; 0 disables the guard (None)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value or None


def _add_common(sub, *, sampling: bool) -> None:
    sub.add_argument("--group", required=True,
                     help="group specifier: cyclic:<m> | symmetric:<m> | klein4 | file:<path>")
    sub.add_argument("--n", required=True, type=_positive_int,
                     help="size of the ground set {1..n}")
    sub.add_argument("--limit", type=_limit, default=DEFAULT_LIMIT,
                     help=f"size-guard limit (default {DEFAULT_LIMIT}; 0 disables)")
    sub.add_argument("--out", help="write output to this file instead of stdout")
    if sampling:
        sub.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
        sub.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLES,
                         help="number of random pairs in sampled mode")
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for sampled mode, recorded in the report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwreath",
        description="Products and verification sweeps for colored ordered set "
                    "partitions, wreath products, and their descent algebras.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    mul = commands.add_parser(
        "multiply",
        help="multiply two elements: partitions ({1,3}:c|...), wreath elements "
             "[(v:c)...], or sigma/x combinations",
    )
    _add_common(mul, sampling=False)
    mul.add_argument("--format", choices=("json", "text"), default="text")
    dash_note = "; write -- before the operands when one starts with '-'"
    mul.add_argument("lhs", help="left operand" + dash_note)
    mul.add_argument("rhs", help="right operand" + dash_note)
    mul.set_defaults(func=cmd_multiply)

    table = commands.add_parser(
        "structure-constants",
        help="export the full sigma-basis product table as JSON",
    )
    _add_common(table, sampling=False)
    table.set_defaults(func=cmd_structure_constants)

    ver = commands.add_parser(
        "verify",
        help="run a verification suite and report pass/fail",
    )
    ver.add_argument("target", choices=VERIFY_TARGETS)
    _add_common(ver, sampling=True)
    ver.add_argument("--format", choices=("json", "text"), default="json")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # FormatError, ParseError, GroupAxiomError and NotAChamberError
        # included; OSError is an --out path that passed _check_out but
        # still cannot be written, such as one without write permission
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
