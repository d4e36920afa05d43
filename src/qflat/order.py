"""The canonical fuzzy order on [0,1], tensors, and set-characterization checks.

``d_L(x, y) = x -> y`` turns the unit interval into a fuzzy ordered set.
This module builds principal lower/upper sets exactly, computes tensor
products (sups of ``conj(phi(x), psi(x))``) analytically piece by piece,
and decides membership in the classes of fuzzy lower sets and fuzzy upper
sets by reducing to finitely many exact checks on the piecewise
representation.  Every "violated" verdict carries a real pair at which the
defining inequality fails, re-checkable with two evaluations and one
conjunction.
"""

from __future__ import annotations

import bisect
import operator
from itertools import chain
from typing import Optional

from ._sup import SupResult, quad_roots, sup_ratfunc
from .pwfn import (
    Breakpoint,
    LinFrac,
    PwFn,
    _solve_eq,
    _with_level,
    affine_piece,
    const_piece,
    crossings,
    gap_probes,
    kept_sign,
    law_violation,
    linfrac,
    merged,
    pwfn,
)
from .rat import ONE, ZERO, DomainError, ExactnessError, Rat, ensure_unit, fmt_rat
from .report import HOLDS, CheckReport, PairWitness, PointWitness, violated
from .tnorms import OrdinalSumTNorm, Summand, SummandKind

# ---------------------------------------------------------------------------
# canonical orders


def d_L(T: OrdinalSumTNorm, x: Rat, y: Rat) -> Rat:
    """The canonical fuzzy order: d_L(x, y) = x -> y."""
    return T.residuum(x, y)


def d_R(T: OrdinalSumTNorm, x: Rat, y: Rat) -> Rat:
    """The opposite order: d_R(x, y) = y -> x."""
    return T.residuum(y, x)


# ---------------------------------------------------------------------------
# principal sets


def lower_piece(s: Summand, b: Rat) -> LinFrac:
    """The piece of x -> d_L(x, b) on (b, s.hi), for s.lo <= b <= s.hi."""
    lo, hi = s.lo, s.hi
    if s.kind is SummandKind.LUKASIEWICZ:
        return affine_piece(-ONE, hi + b)
    return linfrac(lo, (hi - lo) * (b - lo) - lo * lo, ONE, -lo)


def upper_piece(s: Summand, c: Rat) -> LinFrac:
    """The piece of x -> d_L(c, x) on (s.lo, c), for s.lo < c <= s.hi."""
    lo, hi = s.lo, s.hi
    if s.kind is SummandKind.LUKASIEWICZ:
        return affine_piece(ONE, hi - c)
    slope = (hi - lo) / (c - lo)
    return affine_piece(slope, lo - slope * lo)


def lower_profile(
    s: Optional[Summand], b: Rat, head: Rat, at: Rat
) -> tuple[list[Breakpoint], list[LinFrac]]:
    """Breakpoints and pieces of the lower set on [0,1] that is 1 on
    [0, head), ``at`` at head, min(s.hi, d_L(-, b)) on (head, s.hi] and b
    from s.hi on; with s None, head = b and b follows right after it.

    The principals, the open-net ideals, the frame principals and the
    pasted flats all have this shape.
    """
    pts = [Breakpoint(ZERO, ONE, ONE, ONE)] if head > 0 else []
    pcs = [const_piece(ONE)] if head > 0 else []
    if s is None:
        pts.append(Breakpoint(head, ONE, at, b))
    else:
        hi = s.hi
        if not s.lo <= b <= hi:
            raise DomainError("principal point outside the frame")
        piece = lower_piece(s, b)
        # min(hi, d_L(-, b)) is the plateau hi on (head, b], then the piece
        pts.append(Breakpoint(head, ONE, at, hi if head < b else piece(b)))
        if head < b:
            pcs.append(const_piece(hi))
        if head < b < hi:
            pts.append(Breakpoint(b, hi, hi, hi))
        if b < hi:
            pcs.append(piece)
        if head < hi:
            pts.append(Breakpoint(hi, b, b, b))
    if pts[-1].x < ONE:
        pcs.append(const_piece(b))
        pts.append(Breakpoint(ONE, b, b, b))
    return pts, pcs


def principal_lower(T: OrdinalSumTNorm, x0: Rat) -> PwFn:
    """The principal lower set y -> d_L(y, x0), built exactly."""
    x0 = ensure_unit(x0, "principal point")
    s = next((s for s in T.summands if s.lo <= x0 < s.hi), None)
    return pwfn(*lower_profile(s, x0, x0, ONE))


def principal_upper(T: OrdinalSumTNorm, x0: Rat) -> PwFn:
    """The principal upper set y -> d_L(x0, y), built exactly: y up to the
    summand (lo, hi] holding x0, the summand's x0 -> y on [lo, x0), then 1."""
    x0 = ensure_unit(x0, "principal point")
    if x0 == ZERO:
        return PwFn.constant(ONE)
    s = next((s for s in T.summands if s.lo < x0 <= s.hi), None)
    if s is None:
        return PwFn.upper_profile(ZERO, affine_piece(ONE, ZERO), x0)
    return PwFn.upper_profile(s.lo, upper_piece(s, x0), x0)


# ---------------------------------------------------------------------------
# tensor products


def _require_unit_domain(f: PwFn, what: str) -> None:
    if f.lo != ZERO or f.hi != ONE:
        raise DomainError(f"{what} must live on the full interval [0,1]")


def _min_gap_sup(fp: LinFrac, gp: LinFrac, u: Rat, v: Rat) -> SupResult:
    """Sup of min(f, g) over the open gap (u, v), interior attainment flagged.

    Between crossings min(f, g) is one piece, monotone or constant, so the
    supremum sits at u, v or a crossing; a sub-gap's midpoint reaches it
    only when the piece there is constant.  When the end values rule
    crossings out, min(f, g) is one piece on the gap: the sup is the larger
    end value, reached inside exactly when the two are equal."""
    fu, fv, gu, gv = fp(u), fp(v), gp(u), gp(v)
    ends = min(fu, gu), min(fv, gv)
    if kept_sign(fu, fv, gu, gv) is not None:
        return SupResult(max(ends), ends[0] == ends[1])
    cross = crossings(fp, gp, u, v)
    mids = [(p + q) / 2 for p, q in zip([u, *cross], [*cross, v])]
    inside = [min(fp(x), gp(x)) for x in cross + mids]
    best = max(*ends, *inside)
    return SupResult(best, best in inside)


def _lin_mul(a0: Rat, a1: Rat, b0: Rat, b1: Rat) -> tuple[Rat, Rat, Rat]:
    """Ascending coefficients of (a0 + a1*x) * (b0 + b1*x)."""
    return a0 * b0, a0 * b1 + a1 * b0, a1 * b1


def _conj_gap_sup(
    T: OrdinalSumTNorm, fp: LinFrac, gp: LinFrac, u: Rat, v: Rat
) -> SupResult:
    """Sup of conj(f(x), g(x)) over (u, v); the branch is constant there."""
    mid = (u + v) / 2
    s = T.summand_of_pair(fp(mid), gp(mid))
    if s is None:
        return _min_gap_sup(fp, gp, u, v)
    den = _lin_mul(fp.d, fp.c, gp.d, gp.c)
    lo, hi = s.lo, s.hi
    if s.kind is SummandKind.LUKASIEWICZ:
        # f + g = (fb + fa*x)/(fd + fc*x) + (gb + ga*x)/(gd + gc*x)
        p, q = _lin_mul(fp.b, fp.a, gp.d, gp.c), _lin_mul(gp.b, gp.a, fp.d, fp.c)
        out = sup_ratfunc([x + y for x, y in zip(p, q)], den, u, v)
        val = out.value - hi
        if val > lo:
            return SupResult(val, out.attained)
        return SupResult(lo, True)
    # lo + (f - lo)(g - lo)/(hi - lo) grows with (f - lo)(g - lo), so its sup
    # sits where that product's does
    num = _lin_mul(fp.b - lo * fp.d, fp.a - lo * fp.c, gp.b - lo * gp.d, gp.a - lo * gp.c)
    out = sup_ratfunc(num, den, u, v)
    return SupResult(lo + out.value / (hi - lo), out.attained)


def tensor(T: OrdinalSumTNorm, phi: PwFn, psi: PwFn) -> SupResult:
    """Exact supremum of x -> conj(phi(x), psi(x)), one-sided limits included."""
    return _gap_walk(T, phi, psi, None)


def _gap_walk(T: OrdinalSumTNorm, phi: PwFn, psi: PwFn, target: Optional[Rat]) -> SupResult:
    """Branch and bound over one merged pass: conj <= min and each piece is
    monotone or constant on its gap, so min(phi.at, psi.at) bounds a
    breakpoint and min(max of phi's limits, max of psi's limits) a gap.
    Both go in one queue by descending bound until a bound is below the best
    value.  A target also stops the walk once the best value reaches it, so
    a value below it is exact; breakpoints whose bound reaches it go first,
    so the walk evaluates (and may refuse on) the gaps that it would if all
    breakpoints went first."""
    _require_unit_domain(phi, "tensor operand")
    _require_unit_domain(psi, "tensor operand")
    points, gaps = merged(phi, psi)
    best, attained = ZERO, False

    def feed(val: Rat, reach: bool) -> None:
        nonlocal best, attained
        if val > best:
            best, attained = val, reach
        elif val == best:
            attained = attained or reach

    queue = [(min(a.at, b.at), 0, k) for k, (a, b) in enumerate(points)]
    for k in range(len(gaps) - 1, -1, -1):  # the sorts are stable: equal gaps go right to left
        (a, b), (c, d) = points[k], points[k + 1]
        queue.append((min(max(a.right, c.left), max(b.right, d.left)), 1, k))
    queue.sort(key=operator.itemgetter(0), reverse=True)
    if target is not None:
        queue.sort(key=lambda item: item[1] == 1 or item[0] < target)
    for bound, is_gap, k in queue:
        if bound < best or (target is not None and best >= target):
            break
        a, b = points[k]
        if not is_gap:
            feed(T.conj(a.at, b.at), True)
            continue
        (c, d), (fp, gp) = points[k + 1], gaps[k]
        levels = T.idempotent_levels()
        # a piece meets a level inside the gap iff the level lies strictly
        # between its limits; cutting there fixes the summand branch
        found: set[Rat] = set()
        for piece, ends in ((fp, (a.right, c.left)), (gp, (b.right, d.left))):
            lo, hi = sorted(ends)
            inside = levels[bisect.bisect_right(levels, lo) : bisect.bisect_left(levels, hi)]
            found.update(_solve_eq(piece, lv) for lv in inside)
        cuts = sorted(found)
        for x in cuts:
            feed(T.conj(fp(x), gp(x)), True)
        for p, q in zip([a.x, *cuts], [*cuts, c.x]):
            feed(*_conj_gap_sup(T, fp, gp, p, q))
    return SupResult(best, attained)


# ---------------------------------------------------------------------------
# characterization checkers: shared machinery


def hull_walk(T: OrdinalSumTNorm, f: PwFn) -> tuple[list[tuple], list[tuple]]:
    """One pass over f's pieces and T's summands, cut at every position where
    f against the idempotent hull can change: breakpoints, summand endpoints,
    and where f meets the identity on an idempotent gap or the constants
    s.lo and s.hi inside a summand s.  Returns one (c, f(c), c-, c+) per
    position and one (m, f(m), m-, m+, p, q, piece) per gap (p, q) between
    them: m is its midpoint, (m-, m+) is (s.lo, s.hi) inside a summand s and
    (m, m) otherwise, so a gap leads with a point's fields and is read once.

    L2/U2 and L4 compare f with s.lo, F2 and k_set with s.hi, each reading
    points first, then gaps.  An s.hi cut splits only a gap where f >= s.lo,
    which L2/U2 and L4 skip, and its point fires neither; an s.lo cut splits
    only a gap where f <= s.hi, which F2 and k_set skip, and its point has
    f = s.lo < c+.  Both cuts solve linear equations: they raise nothing.
    """
    _require_unit_domain(f, "function")
    bps, sums = f.breakpoints, T.summands
    points: list[tuple] = []
    gaps: list[tuple] = []
    j = 0
    for piece, u, v in zip(f.pieces, bps, bps[1:]):
        p, fp = u.x, u.at
        while p < v.x:
            while j < len(sums) and sums[j].hi <= p:
                j += 1
            s = sums[j] if j < len(sums) and sums[j].lo <= p else None
            q = min(v.x, s.hi if s else sums[j].lo) if j < len(sums) else v.x
            points.append((p, fp, s.lo, s.hi) if s and s.lo < p else (p, fp, p, p))
            if s is None:
                # piece = x: the numerator -c x^2 + (a - d) x + b vanishes
                meets = quad_roots(-piece.c, piece.a - piece.d, piece.b, p, q)
                if meets and meets[0][0] is None:
                    raise ExactnessError(
                        f"irrational piece equality inside ({fmt_rat(p)}, {fmt_rat(q)})"
                    )
                roots = [(x, x, x, x) for x, _ in meets]
            else:
                meets = ((_solve_eq(piece, k), k) for k in (s.lo, s.hi))
                roots = sorted((x, k, s.lo, s.hi) for x, k in meets if x is not None and p < x < q)
            ends = [p, *(x for x, *_ in roots), q]
            for a, b in zip(ends, ends[1:]):
                m = (a + b) / 2
                gaps.append((m, piece(m), *((s.lo, s.hi) if s else (m, m)), a, b, piece))
            points += roots
            p, fp = q, piece(q)
    points.append((ONE, bps[-1].at, ONE, ONE))
    return points, gaps


def def_witness(T: OrdinalSumTNorm, f: PwFn, x: Rat, y: Rat, lower: bool) -> PairWitness:
    """The definitional inequality at (x, y): conj(f(x), d_L(y,x)) <= f(y) for
    a lower set (``lower``), conj(d_L(x,y), f(x)) <= f(y) for an upper set.
    conj is commutative, so f(x) goes first on both sides."""
    vx, vy = f.eval(x), f.eval(y)
    lhs = T.conj(vx, T.residuum(y, x) if lower else T.residuum(x, y))
    if lhs <= vy:  # pragma: no cover - guards witness-mapping bugs
        raise AssertionError("set witness does not violate the definition")
    return PairWitness(x, y, vx, vy, lhs, vy, "<=")


def restricted_cap(f: PwFn, s: Summand) -> PwFn:
    """sigma = min(c+, f) on the frame of s, kept in frame coordinates."""
    return _with_level(f.restrict(s.lo, s.hi), s.hi, min)


# -- basic-case violations in frame coordinates -------------------------------


def basic_violation(sig: PwFn, kind: SummandKind, lower: bool) -> Optional[tuple[Rat, Rat]]:
    """A pair (x, y) violating the basic-case lower-set (``lower``) or
    upper-set law on the frame [lo, hi] = [sig.lo, sig.hi], if any, oriented
    so that conj(f(x), d_L(y, x)) > f(y), or conj(d_L(x, y), f(x)) > f(y), in
    that basic quantale.  sig is assumed monotone (L1/U1) and >= lo.

    On the frame the summand is the basic quantale carried by the affine map
    x -> (x - lo)/(hi - lo).  Each law is invariant under the common scale
    factor hi - lo of arguments and values, so it is read on the frame itself
    and only the offset lo enters.  Each says that some g(x, sig(x)) does not
    decrease, and :func:`law_violation` finds the first break.  In t = x - lo
    a piece of sig, shifted to (a t + b)/(c t + d) = sig - lo, is pole-free
    on its gap, and g' changes sign at most once there, so a fall inside the
    gap shows at an end:

    * Lukasiewicz, g = x + sig (lower) or x - sig (upper): sig is 1-Lipschitz
      downward or upward.  g' = 1 + sig' or 1 - sig', and sig' = (a d - b c)/(c t + d)^2
      is monotone on the gap; an affine piece has one slope on the whole gap.
    * Product lower, g = (x - lo)(sig - lo), with jumps allowed at lo only:
      g' has the numerator a c t^2 + 2 a d t + b d over a square, whose vertex
      is the pole t = -d/c, outside the gap.
    * Product upper, g = -(sig - lo)/(x - lo) on (lo, hi], with jumps allowed
      at lo only, compared cross-multiplied: -g' has the sign of
      sig' (x - lo) - (sig - lo), which is -(sig(lo) - lo) <= 0 at lo, with
      the numerator -a c t^2 - 2 b c t - b d over a square.  Its vertex
      t = -b/a is the root of the shifted piece, which is not constant then
      and changes sign there, so a vertex strictly inside the gap would put
      sig below lo.

    A jump at lo breaks neither product law: (x0 - lo) times anything is 0.
    """
    lo = sig.lo
    if kind is SummandKind.LUKASIEWICZ:
        sign = -1 if lower else 1
        bad = lambda a, ya, b, yb: sign * (yb - ya) > b - a  # noqa: E731
        falls = lambda p, x: sign * p.slope(x) > 1  # noqa: E731
    elif lower:
        bad = lambda a, ya, b, yb: (a - lo) * (ya - lo) > (b - lo) * (yb - lo)  # noqa: E731
        falls = lambda p, x: p(x) - lo + (x - lo) * p.slope(x) < 0  # noqa: E731
    else:
        bad = lambda a, ya, b, yb: (a - lo) * (yb - lo) > (b - lo) * (ya - lo)  # noqa: E731
        falls = lambda p, x: (x - lo) * p.slope(x) > p(x) - lo  # noqa: E731
    pair = law_violation(sig, bad, falls, lambda p: kind is SummandKind.LUKASIEWICZ and p.is_affine)
    return pair if lower or pair is None else (pair[1], pair[0])


# ---------------------------------------------------------------------------
# the decision procedures


def _floor_report(points: list, gaps: list, lower: bool) -> Optional[CheckReport]:
    """L2 for a lower set: f(c) <= c- forces f(c) = f(1).  U2 for an upper
    set, where only f(c) < c- (strict) forces it.  The points and gaps are
    those of hull_walk(T, f); a report reads c- from its point, and from a
    gap's probe t it reads the gap's m- inside a summand and t otherwise."""
    rule, name, below = ("L2", "phi", operator.le) if lower else ("U2", "psi", operator.lt)
    f1 = points[-1][1]

    def report(c: Rat, fc: Rat, cminus: Rat) -> CheckReport:
        values = ((f"{name}(c)", fc), ("c_minus", cminus), (f"{name}(1)", f1))
        return violated(rule, PointWitness(c, values))

    for c, fc, cminus, _ in points:
        if below(fc, cminus) and fc != f1:
            return report(c, fc, cminus)
    for _, fm, lo, hi, p, q, piece in gaps:
        if below(fm, lo) and not (piece.is_const and fm == f1):
            t = next(t for t in gap_probes(p, q) if piece(t) != f1)
            return report(t, piece(t), t if lo == hi else lo)
    return None


def _frame_report(
    T: OrdinalSumTNorm, f: PwFn, s: Summand, lower: bool, caps: dict[Summand, PwFn]
) -> Optional[CheckReport]:
    """L3 (lower set) or U3 (upper set) on summand s; a cap built goes to caps[s].

    Run after L1 and L4 (lower) or U1 (upper), it needs no floor check: with
    f(lo) >= lo, no value or one-sided limit of f on the frame is below lo.
    An upper set rises from f(lo) (U1).  A lower set falls to f(1) (L1), and
    hull_walk emits (lo, f(lo), lo, lo) at the summand bottom, so L4 has
    already given f(1) >= lo.
    """
    lo, hi = s.lo, s.hi
    if f.eval(lo) < lo:
        return None  # premise of the frame condition fails; nothing to check
    caps[s] = restricted_cap(f, s)
    pair = basic_violation(caps[s], s.kind, lower)
    if pair is None:
        return None
    return violated(
        "L3" if lower else "U3",
        def_witness(T, f, *pair, lower),
        detail=f"frame ({fmt_rat(lo)}, {fmt_rat(hi)}) of kind {s.kind.value}",
    )


def _set_report(T: OrdinalSumTNorm, f: PwFn, lower: bool) -> tuple[CheckReport, Optional[tuple], dict]:
    """The verdict of check_lower_set (``lower``) or check_upper_set, f's hull
    walk (None when L1/U1 fails) and the capped restriction of every summand
    whose frame L3/U3 scanned, so that the flatness conditions build neither
    again."""
    _require_unit_domain(f, "lower-set candidate" if lower else "upper-set candidate")
    caps: dict[Summand, PwFn] = {}
    pair = f.monotone_violation("decreasing" if lower else "increasing")
    if pair:
        rule, detail = ("L1", "not decreasing") if lower else ("U1", "not increasing")
        # a lower set's pair a < b with f(a) < f(b) breaks the law at (b, a)
        x, y = pair[::-1] if lower else pair
        return violated(rule, def_witness(T, f, x, y, lower), detail=detail), None, caps

    walk = points, gaps = hull_walk(T, f)
    f1 = points[-1][1]
    rep = _floor_report(points, gaps, lower)
    if rep is None and lower:
        # L4: idempotent c with phi(c) >= c forces phi(1) >= c
        at = (c for c, fc, cminus, cplus in points if cminus == cplus and fc >= c > f1)
        # phi >= id on an idempotent gap (p, q) gives phi(p) >= p, so p fired unless p <= phi(1)
        inside = ((f1 + q) / 2 for m, fm, lo, hi, _, q, _ in gaps if lo == hi and fm >= m and f1 < q)
        c = next(chain(at, inside), None)
        if c is not None:
            rep = violated("L4", PointWitness(c, (("phi(c)", f.eval(c)), ("phi(1)", f1))))
    if rep is None:
        # L3/U3: per-summand frame condition
        frames = (_frame_report(T, f, s, lower, caps) for s in T.summands)
        rep = next((r for r in frames if r is not None), HOLDS)
    return rep, walk, caps


def check_lower_set(T: OrdinalSumTNorm, phi: PwFn) -> CheckReport:
    """Decide whether phi is a fuzzy lower set of ([0,1], d_L), exactly."""
    return _set_report(T, phi, True)[0]


def check_upper_set(T: OrdinalSumTNorm, psi: PwFn) -> CheckReport:
    """Decide whether psi is a fuzzy upper set of ([0,1], d_L), exactly."""
    return _set_report(T, psi, False)[0]
