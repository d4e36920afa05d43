"""Exact rational scalars on the unit interval, plus shared error types.

Every quantity in this package -- truth values, coordinates, breakpoints,
suprema -- is a :class:`fractions.Fraction`.  All formulas in play (min,
Lukasiewicz, product, affine rescaling) are closed over the rationals, so
equality checks everywhere are exact and tolerance-free.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class ParseError(ValueError):
    """Malformed textual input (rationals, function files, spec files)."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ExactnessError(ArithmeticError):
    """An exact rational answer does not exist (irrational critical point).

    Raised instead of ever returning an approximation.  ``tensor`` raises
    it on an irrational interior maximum or crossing inside a gap, seen on
    monotone meshes with hyperbolic arcs, not on drawn lower/upper sets.
    The checkers raise it when the function meets the identity at an
    irrational point between summands, as x -> 1/(2x), the product
    principal at 1/2, does under Goedel at 1/sqrt(2).
    ``pointwise_min`` and ``pointwise_max`` raise it only for two
    non-constant operands, such as a lower set with an upper set (19-72 of
    800 random pairs per kind pair): a piece meets a constant only at
    rational points, and the drawn lower sets, the F1-F3 mutants included,
    meet each other only there.  Such a combination is a documented refusal.
    """


def parse_rat(text: str) -> Rat:
    """Parse ``p/q``, an integer, or a decimal literal into an exact Rat.

    Decimals convert losslessly: ``0.3`` becomes ``3/10``.  A numerator or
    denominator longer than the interpreter's int-to-str digit limit is
    rejected, since the value could never be printed.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty rational literal")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    huge = False
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            value = Fraction(int(num), int(den))
        elif "." in s or "e" in s or "E" in s:
            # Fraction builds 10**exponent: refuse one no printable value has
            exp = s.lower().partition("e")[2]
            huge = bool(exp and limit) and abs(int(exp)) > limit + len(s)
            value = Fraction(0 if huge else s)
        else:
            value = Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None
    big = max(abs(value.numerator), value.denominator)
    # 10**limit has more than 3*limit bits: the power is built only when needed
    if huge or (limit and big.bit_length() > 3 * limit and big >= 10**limit):
        raise ParseError(f"rational literal {text!r} has more than {limit} digits")
    return value


def fmt_rat(value: Rat) -> str:
    """Render exactly, ``p/q`` or a bare integer.

    Raises :class:`DomainError` when the interpreter's int-to-str digit
    limit refuses the numerator or the denominator.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise DomainError(f"rational too long to print: {exc}") from None


def ensure_unit(value: Rat, what: str = "value") -> Fraction:
    """``value`` as a Fraction when it is an int or a Fraction in [0,1].

    Anything else, a float included, raises :class:`DomainError`.
    """
    if type(value) is not Fraction:  # the common case pays one type check
        if not isinstance(value, (Fraction, int)):
            raise DomainError(f"{what} {value!r} is not an exact rational")
        value = Fraction(value)
    if not 0 <= value.numerator <= value.denominator:
        raise DomainError(f"{what} {fmt_rat(value)} outside [0,1]")
    return value


def rat_sqrt(value: Rat) -> Rat | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
