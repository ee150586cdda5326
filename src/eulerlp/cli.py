"""Command line interface.

``COMMANDS`` is the one description of the command line (euler, lp, verify,
grid): command -> (handler name, summary, {option: (parse, default)}).
``parse`` is a function of the option's text, or a tuple of the accepted
words; ``default`` is ``REQUIRED`` for an option that must be given.
``_parse`` reads argv against it and ``_help`` prints ``-h`` from it.

Options take ``--opt value`` or ``--opt=value``, values may be negative
(``--s -3``), the last repeat of an option wins, and a unique prefix of an
option names it (``--prec``) unless it is itself an option (``--k``, not
``--k2``).

Exit status: 0 when all reports match, 1 on any mismatch, 2 on a usage or
write error or out of memory, 141 when stdout is closed early (``| head``).
A usage error in argv prints a ``usage:`` line and an ``eulerlp: error:`` line
on stderr and raises ``SystemExit(2)``; ``-h`` prints help to stdout and exits 0.
"""

import os
import sys

from . import characters, euler, harness, lfunctions, reports
from .harness import CHECKS, GridConfig
from .padic import PadicContext

REQUIRED = object()


def _rational(text: str) -> "Fraction":
    """--x in ``Fraction``'s grammar ("2/6", "0.5", "1e400"), loaded only when given;
    an exponent past the int-from-text digit bound is refused before 10^|e| is built."""
    from fractions import Fraction

    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > getattr(sys.int_info, "default_max_str_digits", 4300):
        raise ValueError(text)
    return Fraction(text)


_FORMAT = (("json", "csv"), "json")
_PRECISION = (int, 6)

# Handlers are named, not held: main looks each one up in this module's
# globals at call time, so a tracer that rebinds ``cmd_*`` sees every call.
COMMANDS = {
    "euler": ("cmd_euler", 'print Euler numbers E_0..E_nmax as "num/den"', {
        "nmax": (int, REQUIRED),
    }),
    "lp": ("cmd_lp", "evaluate l_p(s, w^t) mod p^precision", {
        "p": (int, REQUIRED), "s": (int, REQUIRED), "t": (int, 0), "precision": _PRECISION,
    }),
    "verify": ("cmd_verify", "run one named check and report both sides", {
        "check": (tuple(CHECKS), REQUIRED),
        **dict.fromkeys(("p", "n", "r", "k", "k2"), (int, None)),
        "t": (int, 0),
        **dict.fromkeys(("f", "m", "j"), (int, None)),
        "x": (_rational, 0),
        "precision": _PRECISION,
        "format": _FORMAT,
    }),
    "grid": ("cmd_grid", "run every check suite over a parameter grid", {
        "primes": (str, REQUIRED), "r": (str, REQUIRED), "n": (str, REQUIRED),
        "precision": _PRECISION, "format": _FORMAT,
    }),
}

# How help names the value each parse function reads; a grid axis is a
# comma list ("2,4,6") or a range ("1..4").
_METAVARS = {int: "INT", _rational: "NUM/DEN", str: "LIST"}


def _metavar(parse) -> str:
    return "{" + ",".join(parse) + "}" if isinstance(parse, tuple) else _METAVARS[parse]


def _usage(command) -> str:
    if command is None:
        return f"usage: eulerlp [-h] {_metavar(tuple(COMMANDS))} ..."
    words = [f"usage: eulerlp {command} [-h]"]
    for name, (parse, default) in COMMANDS[command][2].items():
        word = f"--{name} {_metavar(parse)}"
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def _help(command) -> str:
    if command is None:
        lines = ["Exact Euler numbers, p-adic l-values, and congruence checks.", ""]
        lines += ["commands:"] + [f"  {c:<8}{about}" for c, (_, about, _) in COMMANDS.items()]
        lines += ["", "eulerlp COMMAND -h lists the options of COMMAND."]
    else:
        lines = [COMMANDS[command][1], "", "options:", "  -h, --help"]
        for name, (parse, default) in COMMANDS[command][2].items():
            note = f"  (default {default})" if default is not REQUIRED else "  (required)"
            lines.append(f"  --{name} {_metavar(parse)}" + ("" if default is None else note))
    return "\n".join([_usage(command), "", *lines])


def _usage_error(command, message: str):
    print(_usage(command), f"eulerlp: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list[str]) -> tuple[str, dict]:
    """(handler name, {option: value}) from argv; every option of the command
    is in the dict, at its default when argv does not give it."""
    command = argv[0] if argv and not argv[0].startswith("-") else None
    if command is not None and command not in COMMANDS:
        _usage_error(None, f"unknown command {command!r} (choose from {', '.join(COMMANDS)})")
    table = COMMANDS[command][2] if command else {}
    values = {}
    rest = iter(argv[1:] if command else argv)
    for arg in rest:
        key, has_value, text = arg[2:].partition("=")
        is_option = key and arg[:2] == "--"
        names = [n for n in (*table, "help") if n.startswith(key)] if is_option else []
        name = key if key in names else names[0] if len(names) == 1 else None
        if arg == "-h" or name == "help":
            return "_print_help", {"command": command}
        if name is None:
            wrong = f"ambiguous option --{key}: could match --{', --'.join(names)}"
            _usage_error(command, wrong if names else f"unrecognized argument {arg!r}")
        if not has_value:
            text = next(rest, None)  # an option, never a value, starts with "--"
            if text is None or text.startswith("--"):
                _usage_error(command, f"--{name} expects a value")
        parse = table[name][0]
        try:
            # a word that is not in a tuple of words raises ValueError too
            values[name] = parse(text) if callable(parse) else parse[parse.index(text)]
        except (ValueError, ZeroDivisionError):
            _usage_error(command, f"--{name} expects {_metavar(parse)}, got {text!r}")
    if command is None:
        _usage_error(None, f"missing command (choose from {', '.join(COMMANDS)})")
    missing = [f"--{n}" for n, (_, d) in table.items() if d is REQUIRED and n not in values]
    if missing:
        _usage_error(command, f"missing required option {', '.join(missing)}")
    return COMMANDS[command][0], {n: values.get(n, d) for n, (_, d) in table.items()}


def _print_help(args: dict) -> int:
    print(_help(args["command"]))
    return 0


def _int_list(flag: str, text: str) -> tuple[int, ...]:
    """Parse grid axis ``flag`` from "2,4,6" or "1..4" (or a single integer)."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = tuple(range(int(lo), int(hi) + 1))
        else:
            values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} {text!r} is not an integer list or range") from None
    if not values:
        raise ValueError(f"{flag} {text!r} gives an empty grid axis")
    return values


def _emit(written, fmt: str) -> int:
    print(reports.reports_to_csv(written) if fmt == "csv" else reports.reports_to_jsonl(written))
    return 0 if all(r.match for r in written) else 1


def cmd_euler(args: dict) -> int:
    # JSON lines by hand from (num, den) ints: "num/den" holds no JSON escapes
    pairs = enumerate(euler.euler_number_pairs(args["nmax"]))
    print("\n".join(f'{{"n":{i},"value":"{a}/{b}"}}' for i, (a, b) in pairs))
    return 0


def cmd_lp(args: dict) -> int:
    chi = characters.teichmuller_power(args["t"], PadicContext(args["p"], args["precision"]))
    value = lfunctions.padic_l(args["s"], chi).as_json_dict()
    print(reports._json({"s": args["s"], "character": chi.descriptor(), "value": value}))
    return 0


def cmd_verify(args: dict) -> int:
    required, run, _ = CHECKS[args["check"]]
    missing = [f"--{name}" for name in required if args[name] is None]
    if missing:
        raise ValueError(f"check {args['check']!r} needs {', '.join(missing)}")
    return _emit(run(args), args["format"])


def cmd_grid(args: dict) -> int:
    axes = [_int_list(f"--{name}", args[name]) for name in ("primes", "r", "n")]
    return _emit(harness.run_grid(GridConfig(*axes, args["precision"])), args["format"])


def main(argv=None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    # Exact values pass Python's int-to-str digit limit (Euler numbers from
    # n = 1843 on, distribution and power-sum sides at large n), so every
    # command prints with the limit lifted.  Pythons before 3.10.7 have no
    # limit and no functions to set one.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        status = globals()[handler](args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # an axis or a table too large to hold
        print("error: out of memory: the input is too large", file=sys.stderr)
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
