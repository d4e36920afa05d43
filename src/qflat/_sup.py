"""Exact suprema of low-degree rational functions on closed intervals.

Pieces of the tensor integrand are quotients N/D of polynomials with
rational coefficients (degree at most 4 over 4 in theory, 2 over 2 in
practice).  The maximum over an interval sits at an endpoint or at a root
of W = N'D - ND'; roots are extracted exactly while W is quadratic, and a
Sturm chain certifies the absence of interior critical points beyond
that.  An irrational critical point that could carry the maximum raises
:class:`ExactnessError` instead of ever being approximated; the function
population built by this package never produces one.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .rat import ONE, ZERO, ExactnessError, Rat, rat_sqrt

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


def _p_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    if len(p) < len(q):
        return (), p_trim(rem)
    quot = [ZERO] * (len(p) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        coef = rem[i] / q[-1]
        if coef == 0:
            continue
        quot[i - dq] = coef
        for j, c in enumerate(q):
            rem[i - dq + j] -= coef * c
    return p_trim(quot), p_trim(rem[:dq])


def _sign_variations(values: Sequence[Rat]) -> int:
    signs = [(-1 if v < 0 else 1) for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_root_count(p: Poly, u: Rat, v: Rat) -> int:
    """Number of distinct real roots of p in the open interval (u, v).

    Endpoint roots are divided out first, so u and v may be roots.
    """
    p = p_trim(p)
    for r in (u, v):
        while p and len(p) > 1 and p_eval(p, r) == 0:
            p, rem = _p_divmod(p, (-r, ONE))
            assert not rem
    if len(p) <= 1:
        return 0
    chain = [p, p_deriv(p)]
    while len(chain[-1]) > 1:
        _, rem = _p_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(tuple(-c for c in rem))
    va = _sign_variations([p_eval(c, u) for c in chain])
    vb = _sign_variations([p_eval(c, v) for c in chain])
    return va - vb


class SupResult(NamedTuple):
    value: Rat
    attained: bool


def sup_ratfunc(num: Poly, den: Poly, u: Rat, v: Rat) -> SupResult:
    """Supremum of N/D over [u, v]; D must be nonzero on [u, v].

    ``attained`` reports whether the maximum is achieved strictly inside
    (u, v); the endpoint values count as one-sided limits for the caller.
    """
    num, den = p_trim(num), p_trim(den)
    if not num:
        return SupResult(ZERO, True)

    def h(x: Rat) -> Rat:
        return p_eval(num, x) / p_eval(den, x)

    w = p_sub(p_mul(p_deriv(num), den), p_mul(num, p_deriv(den)))
    cands: list[tuple[Rat, bool]] = [(h(u), False), (h(v), False)]
    if not w:
        return SupResult(h(u), True)
    deg = len(w) - 1
    if deg == 0:
        pass  # strictly monotone
    elif deg == 1:
        r = -w[0] / w[1]
        if u < r < v:
            cands.append((h(r), True))
    elif deg == 2:
        cands.extend((h(r), True) for r in _quad_max_roots(w, u, v))
    else:
        if sturm_root_count(w, u, v) > 0:
            raise ExactnessError(
                "interior critical point of a high-degree tensor piece"
            )
    best = max(val for val, _ in cands)
    attained = any(flag for val, flag in cands if val == best)
    return SupResult(best, attained)


def _quad_max_roots(w: Poly, u: Rat, v: Rat) -> list[Rat]:
    """Roots of a quadratic w inside (u, v); raises if an irrational one
    could be a local maximum of the rational function whose derivative
    sign is the sign of w."""
    C, B, A = w[0], w[1], w[2]
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    root = rat_sqrt(disc)
    if root is not None:
        rts = sorted({(-B - root) / (2 * A), (-B + root) / (2 * A)})
        return [r for r in rts if u < r < v]
    # irrational pair: only a (+ -> -) sign change of w is a local max
    wu = p_eval(w, u)
    wv = p_eval(w, v)
    xv = -B / (2 * A)
    if A > 0:
        # smaller root is the + -> - crossing
        danger = wu > 0 and (wv < 0 or (u < xv < v and p_eval(w, xv) < 0))
    else:
        # larger root is the + -> - crossing
        danger = wv < 0 and (wu > 0 or (u < xv < v and p_eval(w, xv) > 0))
    if danger:
        raise ExactnessError("irrational critical point inside a tensor piece")
    return []


def linfrac_ratfunc(piece) -> tuple[Poly, Poly]:
    """(numerator, denominator) polynomials of a LinFrac piece."""
    return p_trim((piece.b, piece.a)), p_trim((piece.d, piece.c))
