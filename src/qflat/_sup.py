"""Exact suprema of low-degree rational functions on closed intervals.

Pieces of the tensor integrand are quotients N/D of polynomials with
rational coefficients, each a product of two linear-fractional pieces, so
N and D have degree at most 2.  The maximum over an interval sits at an
endpoint or at a root of W = N'D - ND'.  The x**3 terms of N'D and ND'
are both 2*n2*d2*x**3 and cancel, so W is at most quadratic and
:func:`quad_roots` finds its roots exactly.  The same root analysis
serves every other question of where two pieces meet.  An irrational
critical point that could carry the maximum raises
:class:`ExactnessError` instead of ever being approximated.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .rat import ZERO, ExactnessError, Rat, rat_sqrt

Poly = tuple[Rat, ...]  # ascending coefficients


def p_trim(p: Sequence[Rat]) -> Poly:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return tuple(q)


def p_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return p_trim([(p[i] if i < len(p) else ZERO) + (q[i] if i < len(q) else ZERO) for i in range(n)])


def p_sub(p: Poly, q: Poly) -> Poly:
    return p_add(p, tuple(-c for c in q))


def p_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return p_trim(out)


def p_scale(p: Poly, k: Rat) -> Poly:
    return p_trim([c * k for c in p])


def p_eval(p: Poly, x: Rat) -> Rat:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def p_deriv(p: Poly) -> Poly:
    return p_trim([i * c for i, c in enumerate(p)][1:])


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


def sup_ratfunc(num: Poly, den: Poly, u: Rat, v: Rat) -> SupResult:
    """Supremum of N/D over [u, v]; D must be nonzero on [u, v].

    N and D have degree at most 2.  ``attained`` reports whether the
    maximum is achieved strictly inside (u, v); the endpoint values count as
    one-sided limits for the caller.
    """
    num, den = p_trim(num), p_trim(den)
    if not num:
        return SupResult(ZERO, True)

    def h(x: Rat) -> Rat:
        return p_eval(num, x) / p_eval(den, x)

    w = p_sub(p_mul(p_deriv(num), den), p_mul(num, p_deriv(den)))
    if not w:
        return SupResult(h(u), True)
    assert len(w) <= 3, "tensor piece of degree above 2 over 2"
    C, B, A = (*w, ZERO, ZERO)[:3]
    cands: list[tuple[Rat, bool]] = [(h(u), False), (h(v), False)]
    for r, slope in quad_roots(A, B, C, u, v):
        if r is not None:
            cands.append((h(r), True))
        elif slope < 0:  # W goes from + to -: a local maximum of N/D
            raise ExactnessError("irrational critical point inside a tensor piece")
    best = max(val for val, _ in cands)
    attained = any(flag for val, flag in cands if val == best)
    return SupResult(best, attained)


def linfrac_ratfunc(piece) -> tuple[Poly, Poly]:
    """(numerator, denominator) polynomials of a LinFrac piece."""
    return p_trim((piece.b, piece.a)), p_trim((piece.d, piece.c))
