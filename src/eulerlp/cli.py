"""Command line interface.

Subcommands:
  euler   print Euler numbers E_0..E_nmax as "num/den" strings
  lp      evaluate l_p(s, w^t) mod p^M
  verify  run one named check and report both sides
  grid    run every check suite over a parameter grid

Exit status: 0 when all reports match, 1 on any mismatch, 2 on a usage or
write error, 141 when stdout is closed before the output is written (``| head``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .characters import teichmuller_power
from .euler import euler_numbers
from .harness import CHECKS, GridConfig, run_grid
from .lfunctions import padic_l
from .padic import PadicContext
from .reports import format_rational, reports_to_csv, reports_to_jsonl

CHECK_CHOICES = tuple(CHECKS)


def _int_list(flag: str, text: str) -> tuple[int, ...]:
    """Parse grid axis ``flag`` from "2,4,6" or "1..4" (or a single integer)."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = tuple(range(int(lo), int(hi) + 1))
        else:
            values = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise ValueError(f"{flag} {text!r} is not an integer list or range") from None
    if not values:
        raise ValueError(f"{flag} {text!r} gives an empty grid axis")
    return values


def _rational(text: str) -> Fraction:
    """argparse type for "num/den" (or an integer) with a nonzero denominator."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected num/den with a nonzero denominator, got {text!r}"
        ) from None


def _emit(reports, fmt: str) -> int:
    if fmt == "csv":
        print(reports_to_csv(reports))
    else:
        print(reports_to_jsonl(reports))
    return 0 if all(r.match for r in reports) else 1


def cmd_euler(args) -> int:
    # JSON lines written by hand: "num/den" holds no character JSON escapes
    values = enumerate(euler_numbers(args.nmax))
    print("\n".join(f'{{"n":{i},"value":"{format_rational(v)}"}}' for i, v in values))
    return 0


def cmd_lp(args) -> int:
    chi = teichmuller_power(args.t, PadicContext(args.p, args.precision))
    value = padic_l(args.s, chi)
    out = {
        "s": args.s,
        "character": chi.descriptor(),
        "value": value.as_json_dict(),
    }
    print(json.dumps(out, separators=(",", ":")))
    return 0


def cmd_verify(args) -> int:
    required, run = CHECKS[args.check]
    missing = [f"--{name}" for name in required if getattr(args, name) is None]
    if missing:
        raise ValueError(f"check {args.check!r} needs {', '.join(missing)}")
    return _emit(run(vars(args)), args.format)


def cmd_grid(args) -> int:
    config = GridConfig(
        primes=_int_list("--primes", args.primes),
        r_values=_int_list("--r", args.r),
        n_values=_int_list("--n", args.n),
        precision=args.precision,
    )
    return _emit(run_grid(config), args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerlp",
        description="Exact Euler numbers, p-adic l-values, and congruence checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_euler = sub.add_parser("euler", help="print Euler numbers")
    p_euler.add_argument("--nmax", type=int, required=True)
    p_euler.set_defaults(func=cmd_euler)

    p_lp = sub.add_parser("lp", help="evaluate l_p(s, w^t)")
    p_lp.add_argument("--p", type=int, required=True)
    p_lp.add_argument("--s", type=int, required=True)
    p_lp.add_argument("--t", type=int, default=0)
    p_lp.add_argument("--precision", type=int, default=6)
    p_lp.set_defaults(func=cmd_lp)

    p_verify = sub.add_parser("verify", help="run one check")
    p_verify.add_argument("--check", choices=CHECK_CHOICES, required=True)
    p_verify.add_argument("--p", type=int)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--r", type=int)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--k2", type=int)
    p_verify.add_argument("--t", type=int, default=0)
    p_verify.add_argument("--f", type=int)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--j", type=int)
    p_verify.add_argument("--x", type=_rational, default="0/1", help='rational point "num/den"')
    p_verify.add_argument("--precision", type=int, default=6)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_grid = sub.add_parser("grid", help="run all suites over a grid")
    p_grid.add_argument("--primes", required=True, help='e.g. "3,5,7"')
    p_grid.add_argument("--r", required=True, help='e.g. "1..4"')
    p_grid.add_argument("--n", required=True, help='e.g. "2,4,6"')
    p_grid.add_argument("--precision", type=int, default=6)
    p_grid.add_argument("--format", choices=("json", "csv"), default="json")
    p_grid.set_defaults(func=cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact values pass Python's int-to-str digit limit (Euler numbers from
    # n = 1843 on, distribution and power-sum sides at large n), so every
    # command prints with the limit lifted.  Pythons before 3.10.7 have no
    # limit and no functions to set one.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        status = args.func(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a closed pipe or a full disk: quiet the exit-time flush of the buffer
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 141  # 128 + 13, as a shell reports SIGPIPE
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
