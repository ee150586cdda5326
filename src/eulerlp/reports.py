"""Congruence check reports and their JSON/CSV serialization."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from fractions import Fraction

from .padic import PadicNumber


def format_rational(q: Fraction | int) -> str:
    """Serialize a rational as an explicit "num/den" string."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of one check: both sides in serialized form plus a match flag.

    For p-adic checks lhs/rhs are PadicNumber dicts and ``precision`` gives
    the number of compared digits; for exact rational identities lhs/rhs
    are "num/den" strings and p/precision/lhs_valuation are None.  The
    field order is the key order of the JSON form and the CSV columns.
    """

    check: str
    p: int | None
    params: dict
    lhs: object
    rhs: object
    precision: int | None
    match: bool
    lhs_valuation: int | None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))


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


CSV_COLUMNS = tuple(f.name for f in fields(CongruenceReport))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def reports_to_jsonl(reports) -> str:
    return "\n".join(r.to_json() for r in reports)


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        d = r.as_dict()
        writer.writerow([_csv_cell(d[col]) for col in CSV_COLUMNS])
    return buf.getvalue().rstrip("\n")
