"""Congruence check reports and their JSON/CSV serialization."""

from __future__ import annotations

import json
from fractions import Fraction

from .padic import PadicNumber, Value, _set

_encode = json.JSONEncoder(separators=(",", ":")).encode


def format_rational(q: Fraction | int) -> str:
    """Serialize a rational as an explicit "num/den" string."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


class CongruenceReport(Value):
    """Outcome of one check: both sides in serialized form plus a match flag.

    For p-adic checks lhs/rhs are PadicNumber dicts and ``precision`` gives
    the number of compared digits; for exact rational identities lhs/rhs
    are "num/den" strings and p/precision/lhs_valuation are None.  The
    field order is the key order of the JSON form and the CSV columns.
    """

    __slots__ = __match_args__ = ("check", "p", "params", "lhs", "rhs",
                                  "precision", "match", "lhs_valuation")

    def __init__(self, check, p, params, lhs, rhs, precision, match, lhs_valuation):
        _set(self, "check", check)
        _set(self, "p", p)
        _set(self, "params", params)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "precision", precision)
        _set(self, "match", match)
        _set(self, "lhs_valuation", lhs_valuation)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__match_args__}

    def to_json(self) -> str:
        return _encode(self.as_dict())


def padic_report(
    check: str, params: dict, lhs: PadicNumber, rhs: PadicNumber
) -> CongruenceReport:
    """Report comparing two p-adic values mod p^N, with N the precision of
    lhs's context; a side known to fewer digits raises ValueError."""
    digits = lhs.context.precision
    lhs = lhs.reduce(digits)
    rhs = rhs.reduce(digits)
    return CongruenceReport(
        check=check,
        p=lhs.context.p,
        params=params,
        lhs=lhs.as_json_dict(),
        rhs=rhs.as_json_dict(),
        precision=digits,
        match=lhs.residue == rhs.residue,
        lhs_valuation=lhs.valuation,
    )


def rational_report(
    check: str, params: dict, lhs: Fraction | int, rhs: Fraction | int
) -> CongruenceReport:
    """Report comparing two exact rationals."""
    lhs = Fraction(lhs)
    rhs = Fraction(rhs)
    return CongruenceReport(
        check=check,
        p=None,
        params=params,
        lhs=format_rational(lhs),
        rhs=format_rational(rhs),
        precision=None,
        match=lhs == rhs,
        lhs_valuation=None,
    )


CSV_COLUMNS = CongruenceReport.__match_args__


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return _encode(value)
    return str(value)


def reports_to_jsonl(reports) -> str:
    return "\n".join(r.to_json() for r in reports)


def reports_to_csv(reports) -> str:
    import csv  # only --format csv writes it: not loaded at start-up
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        d = r.as_dict()
        writer.writerow([_csv_cell(d[col]) for col in CSV_COLUMNS])
    return buf.getvalue().rstrip("\n")
