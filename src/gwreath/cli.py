"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or format error,
3 size-guard refusal.  All file output is UTF-8 JSON carrying a
schema_version field, and identical configurations (seed included)
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import FormatError, SizeLimitError
from .groups import group_from_spec
from .invariant import invariant_mul, structure_constant_table
from .limits import DEFAULT_LIMIT
from .parsing import (
    detect_kind,
    parse_colored_permutation,
    parse_combination,
    parse_partition,
    render_colored_permutation,
    render_combination,
    render_partition,
)
from .semigroup import multiply
from .verify import VERIFY_TARGETS, run_verification
from .wreath import wreath_mul


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_multiply(args) -> int:
    group = group_from_spec(args.group)
    lhs_kind = detect_kind(args.lhs)
    rhs_kind = detect_kind(args.rhs)
    if lhs_kind != rhs_kind:
        raise FormatError(f"operands have different kinds: {lhs_kind} vs {rhs_kind}")

    if lhs_kind == "partition":
        lhs = parse_partition(args.lhs, group, args.n)
        rhs = parse_partition(args.rhs, group, args.n)
        rendered = render_partition(group, multiply(group, lhs, rhs))
        kind = "partition"
    elif lhs_kind == "wreath":
        lhs = parse_colored_permutation(args.lhs, group, args.n)
        rhs = parse_colored_permutation(args.rhs, group, args.n)
        rendered = render_colored_permutation(group, wreath_mul(group, lhs, rhs))
        kind = "wreath"
    else:
        lhs_atom_kind, lhs = parse_combination(args.lhs, group, args.n)
        rhs_atom_kind, rhs = parse_combination(args.rhs, group, args.n)
        if lhs_atom_kind != rhs_atom_kind:
            raise FormatError(
                f"operands have different kinds: {lhs_atom_kind} vs {rhs_atom_kind}"
            )
        kind = lhs_atom_kind
        if kind == "sigma":
            product = invariant_mul(group, lhs, rhs, args.limit)
        else:
            # Theorem 1: X_a * X_b has the coordinates of sigma_b * sigma_a
            product = invariant_mul(group, rhs, lhs, args.limit)
        rendered = render_combination(group, kind, product)

    if args.format == "json":
        payload = {
            "schema_version": 1,
            "command": "multiply",
            "group": group.name,
            "n": args.n,
            "kind": kind,
            "lhs": args.lhs.strip(),
            "rhs": args.rhs.strip(),
            "product": rendered,
        }
        _emit(_dump(payload), args.out)
    else:
        _emit(rendered, args.out)
    return 0


def cmd_structure_constants(args) -> int:
    group = group_from_spec(args.group)
    table = structure_constant_table(group, args.n, args.limit)
    _emit(_dump(table), args.out)
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
    if args.out:
        _emit(_dump(report), args.out)
        print(summary)
    elif args.format == "json":
        print(_dump(report))
    else:
        print(summary)
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
        sub.add_argument("--samples", type=_positive_int, default=200,
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
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # FormatError, ParseError, GroupAxiomError and NotAChamberError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
