"""Command-line front end: coding tables, exploded tableaux, enumeration,
and the identity verification suite."""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys

from . import identities
from .coding import (
    NotACoreError,
    _read_coding,
    bead_set,
    coding_size,
    cores_from_codings,
)
from .exploded import ExplodedWindow, render
from .halfint import text
from .partitions import InvalidPartitionError, Partition, enumerate_t_cores


def _partition_arg(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except InvalidPartitionError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_at_least(low: int):
    """argparse type for an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)

# `verify` flags as (flag, keyword).  A flag the user sets is passed to the
# verifier as that keyword argument, an int that the verifier judges; an
# unset flag leaves the verifier's own default.
VERIFY_FLAGS = (
    ("--t", "t"),
    ("--tvalue", "t_value"),
    ("--r", "r"),
    ("--trunc", "N"),
    ("--max-size", "max_size"),
    ("--max-n", "max_n"),
    ("--samples", "samples"),
    ("--seed", "seed"),
)


def _join(twice) -> str:
    return ",".join(map(text, twice))


def _core_map_data(partition: Partition, t: int) -> dict:
    beads = bead_set(partition, t)
    coding = _read_coding(partition, beads)
    return {
        "partition": str(partition),
        "t": t,
        "V": str(coding),
        "C": _join(beads.gaps()),
        "M": text(beads.top),
        "m": text(beads.ray_top),
        "size_check": coding_size(coding),
    }


def _core_map_text(partition: Partition, t: int) -> str:
    lines = [f"{'t':<10}{t}"]
    sides = (("lambda", partition), ("conjugate", partition.conjugate()))
    beads = [bead_set(lam, t) for _, lam in sides]
    codings = [_read_coding(lam, b) for (_, lam), b in zip(sides, beads)]
    for (label, lam), own, other, coding in zip(sides, beads, reversed(beads), codings):
        # non-coding beads above the ray are the negated gaps of the other side
        dagger = sorted((-g for g in other.gaps()), reverse=True)
        rows = [
            (label, str(lam)),
            ("W head", _join(own.head)),
            ("V", str(coding)),
            ("W+ head", _join(dagger)),
            ("M", text(own.top)),
            ("m", text(own.ray_top)),
            ("C", _join(own.gaps())),
            ("size", str(coding_size(coding))),
        ]
        for key, value in rows:
            lines.append(f"{key:<10}{value}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def cmd_core_map(args) -> int:
    try:
        if args.format == "json":
            out = json.dumps(_core_map_data(args.partition, args.t)) + "\n"
        else:
            out = _core_map_text(args.partition, args.t)
    except NotACoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out, end="")
    return 0


def cmd_explode(args) -> int:
    window = ExplodedWindow(args.partition, args.t)
    fmt = "svg" if args.format == "svg" else "ascii"
    print(render(window, fmt), end="")
    return 0


def cmd_enumerate(args) -> int:
    if args.via == "filter":
        cores = enumerate_t_cores(args.t, args.max_size)
    else:
        cores = cores_from_codings(args.t, args.max_size)
    if args.format == "json":
        print(json.dumps([str(p) for p in cores]))
    else:
        print("\n".join(map(str, cores)))  # never empty: "-" is always listed
    return 0


def cmd_verify(args) -> int:
    fn = identities.verifier(args.identity)
    kwargs = {kw: getattr(args, kw) for _, kw in VERIFY_FLAGS if getattr(args, kw) is not None}
    takes = inspect.signature(fn).parameters
    unknown = [flag for flag, kw in VERIFY_FLAGS if kw in kwargs and kw not in takes]
    if unknown:
        print(f"error: {args.identity} does not take {', '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        report = fn(**kwargs)
    except identities.ParameterError as exc:  # parameters the verifier rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a verifier that cannot finish failed its check
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(report.to_json())
    else:
        print(
            f"{report.status.upper():4}  {report.identity}  "
            f"params={report.params}  N={report.N}  deviation={report.deviation}  "
            f"({report.ms:.0f} ms)"
        )
    return 0 if report.passed else 1


def cmd_suite(args) -> int:
    kwargs = {kw: getattr(args, kw) for kw in ("profile", "seed") if getattr(args, kw) is not None}
    reports = identities.run_suite(**kwargs)
    ok = all(r.passed for r in reports)
    if args.format == "json":
        profile = kwargs.get(
            "profile", inspect.signature(identities.run_suite).parameters["profile"].default
        )
        print(
            json.dumps(
                {
                    "profile": profile,
                    "status": "pass" if ok else "fail",
                    "results": [r.to_dict() for r in reports],
                }
            )
        )
    else:
        for r in reports:
            print(
                f"{r.status.upper():4}  {r.identity:<24} params={r.params}  "
                f"deviation={r.deviation}  ({r.ms:.0f} ms)"
            )
        print(f"suite: {'PASS' if ok else 'FAIL'} ({len(reports)} checks)")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line, built on the first call and shared after it.

    Sharing is safe: parse_args fills a fresh Namespace on every call, the
    defaults are fixed values and a usage error leaves the parser as it was.
    """
    parser = argparse.ArgumentParser(
        prog="tcores",
        description="t-core codings, exploded tableaux and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("core-map", help="coding table for a t-core")
    p.add_argument("--partition", type=_partition_arg, required=True)
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_core_map)

    p = sub.add_parser("explode", help="render the exploded tableau window")
    p.add_argument("--partition", type=_partition_arg, required=True)
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--format", choices=("text", "svg"), default="text")
    p.set_defaults(fn=cmd_explode)

    p = sub.add_parser("enumerate", help="list t-cores up to a size")
    p.add_argument("--t", type=_positive_int, required=True)
    p.add_argument("--max-size", type=_nonnegative_int, default=15)
    p.add_argument("--via", choices=("filter", "codings"), default="codings", help="codings "
                   "(default) inverts enumerated codings; filter, the oracle, tests every partition")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run one identity verifier")
    p.add_argument("identity", choices=sorted(identities.VERIFIERS))
    for flag, keyword in VERIFY_FLAGS:
        p.add_argument(flag, dest=keyword, type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("suite", help="run the verification battery")
    p.add_argument("--profile", choices=tuple(identities.PROFILES))
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
