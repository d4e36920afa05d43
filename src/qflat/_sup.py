"""Exact suprema of low-degree rational functions on closed intervals.

Pieces of the tensor integrand are quotients N/D of polynomials with
rational coefficients, each a product of two linear-fractional pieces, so
N = n0 + n1*x + n2*x**2 and D = d0 + d1*x + d2*x**2.  The maximum over an
interval sits at an endpoint or at a root of W = N'D - ND'.  The x**3
terms of N'D and ND' are both 2*n2*d2*x**3 and cancel, which leaves
W = A*x**2 + B*x + C with A = n2*d1 - n1*d2, B = 2*(n2*d0 - n0*d2) and
C = n1*d0 - n0*d1, whose roots :func:`quad_roots` finds exactly.  The
same root analysis serves every other question of where two pieces meet.
An irrational critical point that could carry the maximum raises
:class:`ExactnessError` instead of ever being approximated.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .rat import ZERO, ExactnessError, Rat, rat_sqrt


def quad_roots(
    A: Rat, B: Rat, C: Rat, u: Rat, v: Rat
) -> tuple[tuple[Optional[Rat], int], ...]:
    """Roots of A*x**2 + B*x + C strictly inside (u, v), smaller first.

    Each root comes with the sign of the derivative there (0 at a double
    root) and is ``None`` when it is irrational, so each caller decides
    which irrational roots it can do without.  With rational coefficients
    the roots are rational together or irrational together.  A zero or
    constant polynomial has no roots.
    """
    if A == 0:
        if B == 0:
            return ()
        x = -C / B
        return ((x, 1 if B > 0 else -1),) if u < x < v else ()
    disc = B * B - 4 * A * C
    if disc < 0:
        return ()
    sa = 1 if A > 0 else -1
    root = rat_sqrt(disc)
    if root == 0:
        x = -B / (2 * A)
        return ((x, 0),) if u < x < v else ()
    if root is not None:
        lo, hi = sorted(((-B - root) / (2 * A), (-B + root) / (2 * A)))
        return tuple(r for r in ((lo, -sa), (hi, sa)) if u < r[0] < v)
    # An irrational pair: rational coefficients make a root at u or v
    # rational, so u and v lie strictly before, between or after the roots,
    # told apart by the sign of the polynomial and the side of the vertex.
    vertex = -B / (2 * A)

    def rank(x: Rat) -> int:
        if ((A * x + B) * x + C) * sa < 0:
            return 1
        return 0 if x < vertex else 2

    return ((None, -sa), (None, sa))[rank(u) : rank(v)]


class SupResult(NamedTuple):
    value: Rat
    attained: bool


def sup_ratfunc(num: Sequence[Rat], den: Sequence[Rat], u: Rat, v: Rat) -> SupResult:
    """Supremum of N/D over [u, v]; D must be nonzero on [u, v].

    N and D are ascending coefficients of degree at most 2.  ``attained``
    reports whether the maximum is achieved strictly inside (u, v); the
    endpoint values count as one-sided limits for the caller.
    """
    assert len(num) <= 3 and len(den) <= 3, "tensor piece of degree above 2 over 2"
    n0, n1, n2 = (*num, ZERO, ZERO, ZERO)[:3]
    d0, d1, d2 = (*den, ZERO, ZERO, ZERO)[:3]

    def h(x: Rat) -> Rat:
        return ((n2 * x + n1) * x + n0) / ((d2 * x + d1) * x + d0)

    C, B, A = n1 * d0 - n0 * d1, 2 * (n2 * d0 - n0 * d2), n2 * d1 - n1 * d2
    if A == B == C == 0:
        return SupResult(h(u), True)
    cands: list[tuple[Rat, bool]] = [(h(u), False), (h(v), False)]
    for r, slope in quad_roots(A, B, C, u, v):
        if r is not None:
            cands.append((h(r), True))
        elif slope < 0:  # W goes from + to -: a local maximum of N/D
            raise ExactnessError("irrational critical point inside a tensor piece")
    best = max(val for val, _ in cands)
    attained = any(flag for val, flag in cands if val == best)
    return SupResult(best, attained)
