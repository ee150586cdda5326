"""Congruence check reports and their JSON/CSV serialization.

Each side is put in wire form straight from what the check computed: a
p-adic side from its int residue by ``padic._wire_dict``, an exact side (an
int, a Fraction or a (numerator, denominator) int pair) as "num/den" in
lowest terms, with no re-wrapping."""

from math import gcd

from .padic import Value, _set, _wire_dict


def _json(value) -> str:
    """Compact JSON, as ``json.dumps(value, separators=(",", ":"))`` writes it,
    of a report field, an ``lp`` line or a part of either: None, a bool, an
    int, a str, a ``padic._wire_dict`` side (the one dict with "digits") or
    a dict of these.  Strings are written with no escaping: every string on
    the wire is made by the library (check names, param labels, "num/den"
    and "teichmuller") and is ASCII with no quote, backslash or control
    character."""
    if value.__class__ is int:  # not a bool
        return str(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if "digits" in value:
        digits = ",".join(map(str, value["digits"]))
        return '{"p":%d,"precision":%d,"digits":[%s],"valuation":%d}' % (
            value["p"], value["precision"], digits, value["valuation"])
    pairs = [f'"{k}":{v if v.__class__ is int else _json(v)}' for k, v in value.items()]
    return "{" + ",".join(pairs) + "}"  # an int, the usual value, is written with no call


def format_rational(q: "Fraction | int | tuple[int, int]") -> str:
    """An int, a Fraction or an int pair as "num/den" in lowest terms, den > 0."""
    num, den = q if isinstance(q, tuple) else (q.numerator, q.denominator)
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return f"{num // g}/{den // g}"


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
        return dict(zip(self.__match_args__, self._key(self)))

    def to_json(self) -> str:
        lhs = _json(self.lhs)  # equal p-adic sides share one wire dict
        rhs = lhs if self.rhs is self.lhs else _json(self.rhs)
        return (
            f'{{"check":"{self.check}","p":{_json(self.p)},"params":{_json(self.params)},'
            f'"lhs":{lhs},"rhs":{rhs},'
            f'"precision":{_json(self.precision)},"match":{_json(self.match)},'
            f'"lhs_valuation":{_json(self.lhs_valuation)}}}'
        )


def residue_report(check: str, params: dict, ctx, a: int, b: int) -> CongruenceReport:
    """Report comparing int residues a and b mod p^N, p and N the prime and precision
    of ctx; equal residues share one wire form, an unequal b always gets its own."""
    p, digits, a, b = ctx.p, ctx.precision, a % ctx.modulus, b % ctx.modulus
    left = _wire_dict(p, digits, a)
    right = left if a == b else _wire_dict(p, digits, b)
    match = a == b
    return CongruenceReport(check, p, params, left, right, digits, match, left["valuation"])


def rational_report(check: str, params: dict, lhs, rhs) -> CongruenceReport:
    """Report comparing two exact rationals, each an int, a Fraction or an
    int pair; equal in lowest terms, so equal as "num/den", is a match."""
    left, right = format_rational(lhs), format_rational(rhs)
    return CongruenceReport(check, None, params, left, right, None, left == right, None)


CSV_COLUMNS = CongruenceReport.__match_args__


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return _json(value) if isinstance(value, (bool, dict)) else str(value)


def reports_to_jsonl(reports) -> str:
    return "\n".join(r.to_json() for r in reports)


def reports_to_csv(reports) -> str:
    import csv  # only --format csv writes it: not loaded at start-up
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_csv_cell(v) for v in r.as_dict().values()] for r in reports)
    return buf.getvalue().rstrip("\n")
