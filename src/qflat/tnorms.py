"""Ordinal-sum continuous t-norms and their residuated implications.

A t-norm here is a finite list of pairwise disjoint open summand intervals,
each rescaling the Lukasiewicz or the product t-norm onto itself; outside
every summand square the operation is min.  The empty list is min itself.
Conjunction and implication are closed-form and exact: they compute on
integer numerators and denominators and build one Fraction per result.
The brute-force counterparts live in the oracle module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .rat import ONE, ZERO, DomainError, Rat, ensure_unit, fmt_rat


class SummandKind(enum.Enum):
    LUKASIEWICZ = "lukasiewicz"
    PRODUCT = "product"


@dataclass(frozen=True, order=True)
class Summand:
    lo: Rat
    hi: Rat
    kind: SummandKind

    def __post_init__(self):
        if not isinstance(self.kind, SummandKind):
            raise DomainError(f"unknown summand kind {self.kind!r}")
        ensure_unit(self.lo, "summand endpoint")
        ensure_unit(self.hi, "summand endpoint")
        if self.lo >= self.hi:
            raise DomainError(
                f"summand ({fmt_rat(self.lo)}, {fmt_rat(self.hi)}) is not a"
                " nondegenerate interval"
            )

    def interior(self, x: Rat) -> bool:
        return self.lo < x < self.hi


@dataclass(frozen=True)
class Frame:
    """The idempotent hull (c-, c+) of a point; degenerate iff c idempotent."""

    lo: Rat
    hi: Rat
    summand: Optional[Summand] = None

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class OrdinalSumTNorm:
    """A continuous t-norm given by its ordinal-sum decomposition."""

    summands: tuple[Summand, ...]

    # -- structure -----------------------------------------------------------

    @cached_property
    def _rows(self) -> tuple[tuple, ...]:
        """Per summand s, lo = ln/ld and hi = hn/hd: (ln, ld, hn, hd, hn*ld - ln*hd, Lukasiewicz?, s)."""
        rows = []
        for s in self.summands:
            (ln, ld), (hn, hd) = s.lo.as_integer_ratio(), s.hi.as_integer_ratio()
            rows.append((ln, ld, hn, hd, hn * ld - ln * hd, s.kind is SummandKind.LUKASIEWICZ, s))
        return tuple(rows)

    def _row(self, an: int, ad: int, bn: int, bd: int) -> Optional[tuple]:
        """The first row whose summand's closed square holds an/ad <= bn/bd, or None."""
        for row in self._rows:
            if row[0] * ad > an * row[1]:
                return None
            if bn * row[3] <= row[2] * bd:
                return row
        return None

    def summand_of_pair(self, x: Rat, y: Rat) -> Optional[Summand]:
        """The first summand whose closed square holds (x, y), or None."""
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        row = self._row(xn, xd, yn, yd) if xn * yd <= yn * xd else self._row(yn, yd, xn, xd)
        return None if row is None else row[-1]

    def is_idempotent(self, c: Rat) -> bool:
        ensure_unit(c, "element")
        return all(not s.interior(c) for s in self.summands)

    def idem_hull(self, c: Rat) -> Frame:
        ensure_unit(c, "element")
        for s in self.summands:
            if s.interior(c):
                return Frame(s.lo, s.hi, s)
        return Frame(c, c, None)

    @cached_property
    def _levels(self) -> tuple[Rat, ...]:
        return tuple(sorted({p for s in self.summands for p in (s.lo, s.hi)}))

    def idempotent_levels(self) -> tuple[Rat, ...]:
        """All summand endpoints, sorted; the idempotent set's boundary."""
        return self._levels

    # -- the quantale operations ----------------------------------------------

    def conj(self, x: Rat, y: Rat) -> Rat:
        """The t-norm x & y, exact."""
        ensure_unit(x, "argument")
        ensure_unit(y, "argument")
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        le = xn * yd <= yn * xd
        row = self._row(xn, xd, yn, yd) if le else self._row(yn, yd, xn, xd)
        if row is None:
            return x if le else y
        ln, ld, hn, hd, w, luk, s = row
        if luk:  # max(lo, x + y - hi)
            num, den = (xn * yd + yn * xd) * hd - hn * xd * yd, xd * yd * hd
            return s.lo if num * ld <= ln * den else Rat(num, den)
        den = xd * yd * w  # lo + (x - lo)(y - lo)/(hi - lo)
        return Rat(ln * den + (xn * ld - ln * xd) * (yn * ld - ln * yd) * hd, ld * den)

    def residuum(self, x: Rat, y: Rat) -> Rat:
        """The implication x -> y: the largest z with x & z <= y."""
        ensure_unit(x, "argument")
        ensure_unit(y, "argument")
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        if xn * yd <= yn * xd:
            return ONE
        row = self._row(yn, yd, xn, xd)
        if row is None:
            return y
        ln, ld, hn, hd, w, luk, _ = row
        if luk:  # hi - x + y
            return Rat(hn * xd * yd + (yn * xd - xn * yd) * hd, hd * xd * yd)
        den = hd * yd * (xn * ld - ln * xd)  # lo + (hi - lo)(y - lo)/(x - lo)
        return Rat(ln * den + w * (yn * ld - ln * yd) * xd, ld * den)

    def frame_residuum(self, frame: Frame, x: Rat, y: Rat) -> Rat:
        """Implication of the subquantale carried by a nondegenerate frame."""
        if frame.degenerate:
            raise DomainError("frame is degenerate")
        if not (frame.lo <= x <= frame.hi and frame.lo <= y <= frame.hi):
            raise DomainError("arguments outside the frame")
        return min(frame.hi, self.residuum(x, y))

    def describe(self) -> str:
        if not self.summands:
            return "min"
        return " + ".join(
            f"({fmt_rat(s.lo)},{fmt_rat(s.hi)},{s.kind.value})" for s in self.summands
        )


def make_tnorm(summands: Iterable[Summand | tuple]) -> OrdinalSumTNorm:
    """Validate and sort a summand family; the empty family is min.

    Touching closures (a shared endpoint between two summands) are allowed;
    overlapping open intervals are not.  A kind is a SummandKind or its name.
    """
    norm: list[Summand] = []
    for s in summands:
        if not isinstance(s, Summand):
            try:
                lo, hi, kind = s
            except (TypeError, ValueError):
                raise DomainError(f"summand row {s!r} is not a (lo, hi, kind) triple") from None
            if isinstance(kind, str):
                kind = {k.value: k for k in SummandKind}.get(kind.lower(), kind)
            lo, hi = (ensure_unit(v, "summand endpoint") for v in (lo, hi))
            s = Summand(lo, hi, kind)
        norm.append(s)
    norm.sort(key=lambda s: (s.lo, s.hi))
    for a, b in zip(norm, norm[1:]):
        if b.lo < a.hi:
            raise DomainError(
                f"summands ({fmt_rat(a.lo)},{fmt_rat(a.hi)}) and"
                f" ({fmt_rat(b.lo)},{fmt_rat(b.hi)}) overlap"
            )
    return OrdinalSumTNorm(tuple(norm))


GODEL = make_tnorm([])
LUKASIEWICZ = make_tnorm([(ZERO, ONE, SummandKind.LUKASIEWICZ)])
PRODUCT = make_tnorm([(ZERO, ONE, SummandKind.PRODUCT)])

_BUILTINS = {
    "godel": GODEL,
    "min": GODEL,
    "lukasiewicz": LUKASIEWICZ,
    "product": PRODUCT,
}


def builtin(name: str) -> Optional[OrdinalSumTNorm]:
    return _BUILTINS.get(name.lower())

