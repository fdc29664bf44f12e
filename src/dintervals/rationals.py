"""Exact rational coordinates.

All coordinate arithmetic runs on ``fractions.Fraction``.  Floats are
rejected at every entry point: a binary float silently misrepresents the
decimal the user wrote, and every verdict downstream is an exact
comparison, so one inexact coordinate would poison the whole run.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(value: str | int | Fraction) -> Fraction:
    """Parse an exact rational from a string, int, or Fraction.

    Accepts integer literals ("3", -7), decimal literals ("0.25"), and
    fraction literals ("3/2").  Floats raise ``TypeError``.
    """
    if isinstance(value, bool):
        raise TypeError("boolean is not a coordinate")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floating-point coordinates are rejected; pass a string")
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"cannot parse coordinate of type {type(value).__name__}")


def format_rational(q: Fraction) -> str:
    """Canonical string form: integers bare ("3"), otherwise "p/q"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def decimal_repr(q: Fraction) -> str:
    """Advisory decimal approximation used alongside exact strings."""
    return repr(float(q))
