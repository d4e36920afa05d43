"""Verdicts with re-checkable witnesses.

A violated report always carries enough concrete data that the cited
inequality can be re-evaluated independently, exactly.  Rule labels follow
the condition names used throughout the package: L1-L4 for lower sets,
U1-U3 for upper sets, F1-F3 for flat ideals, DEF for a raw definitional
inequality found by a brute-force falsifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .rat import Rat, fmt_rat


@dataclass(frozen=True)
class PairWitness:
    """The (x, y) of a definitional inequality that failed, in either order
    (a lower-set L1 witness has a > b, as has an upper-set falsifier's row
    pair).  ``lhs <= rhs`` is that inequality, already evaluated.
    """

    a: Rat
    b: Rat
    value_a: Rat
    value_b: Rat
    lhs: Rat
    rhs: Rat
    relation: str = "<="

    def describe(self) -> str:
        return (
            f"pair a={fmt_rat(self.a)} b={fmt_rat(self.b)}"
            f" f(a)={fmt_rat(self.value_a)} f(b)={fmt_rat(self.value_b)}:"
            f" {fmt_rat(self.lhs)} {self.relation} {fmt_rat(self.rhs)} fails"
        )


@dataclass(frozen=True)
class PointWitness:
    """A single point c with the named quantities of the broken condition."""

    c: Rat
    values: tuple[tuple[str, Rat], ...] = ()

    def describe(self) -> str:
        parts = " ".join(f"{k}={fmt_rat(v)}" for k, v in self.values)
        return f"c={fmt_rat(self.c)} {parts}".rstrip()


@dataclass(frozen=True)
class TensorWitness:
    """An upper-set pair separating the two sides of the flatness identity."""

    c: Optional[Rat]
    psi1: object  # PwFn
    psi2: object  # PwFn
    joint: Rat
    sep1: Rat
    sep2: Rat

    def describe(self) -> str:
        at = f" at c={fmt_rat(self.c)}" if self.c is not None else ""
        return (
            f"upper pair{at}: tensor(phi, psi1^psi2)={fmt_rat(self.joint)}"
            f" but min(tensor(phi,psi1), tensor(phi,psi2))"
            f"={fmt_rat(min(self.sep1, self.sep2))}"
        )


Witness = Union[PairWitness, PointWitness, TensorWitness]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a decision procedure or falsifier run."""

    holds: bool
    rule: str = ""
    witness: Optional[Witness] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        if self.holds:
            return "HOLDS" + (f" ({self.detail})" if self.detail else "")
        parts = ["VIOLATED"]
        if self.rule:
            parts.append(self.rule)
        if self.witness is not None:
            parts.append(self.witness.describe())
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


HOLDS = CheckReport(True)


def violated(rule: str, witness: Optional[Witness] = None, detail: str = "") -> CheckReport:
    return CheckReport(False, rule=rule, witness=witness, detail=detail)
